"""Seeded end-to-end benchmark of the ideatree engine.

    python3 bench/run.py --workload grow-25k --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the repository root. For ``--seconds`` it repeats the workload,
each repetition a fresh interpreter (bench/rep.py) that imports
``ideatree`` from ``src/``, builds the ports, runs ``execute_run`` on the
inputs generated from ``--seed``, replays the log and builds the reports.
Every repetition is checked: the log replays to the final snapshot, the
snapshot restores with every invariant, result.json names the tree's
best node, and every repetition of the seed ends in the same snapshot.
A repetition that fails a check or raises counts in ``failed``.

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, medians over the repetitions; each repetition times the
read path (``replay_s``, ``report_s``) over several passes and gives
their medians. Times are paced seconds (bench/pace.py): the CPU time in
them is scaled to a fixed machine pace, so that the shared host's
changes of speed do not show as changes of the program's. The report
also prints the median pace and the wall seconds. With ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics, medians over the traced ones, in wall seconds;
``trace.overhead_s`` is the traced ``execute_run`` wall time less the
untraced one. Spans are written to
``.bench_work/spans/``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when ``src/ideatree`` is missing.

Two companion commands: ``python3 bench/steady.py`` runs two sets of
seeded runs and checks that they agree within BENCHMARK.json's bounds,
and ``python3 bench/check_adapters.py`` checks that the ports-2.5k
latency adapters leave the final snapshot unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, prepare_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# run directories are passed to the program relative to ROOT, so the
# paths the event log records, and bytes_written, do not depend on
# where the checkout is
WORK_DIR = Path(".bench_work")
SPEC_PATH = ROOT / "BENCHMARK.json"

MIN_REPS = 3            # untraced repetitions, whatever --seconds says
MIN_TRACED_REPS = 1     # of each kind in a traced run
HARD_LIMIT_S = 150      # start no repetition that could end after this
REP_TIMEOUT_S = 120


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_rep(name: str, inputs: Path, run_dir: Path, spans: Path | None) -> dict:
    """One repetition in a fresh interpreter; paths are relative to ROOT."""
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--workload", name,
           "--inputs", str(inputs), "--out", str(run_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=program_env(), capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rep = {"errors": [f"repetition timed out after {REP_TIMEOUT_S} s"]}
    else:
        try:
            rep = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rep = {"errors": [f"repetition exited {proc.returncode} without a result: "
                              f"{proc.stderr.strip()[-400:]}"]}
    finally:
        shutil.rmtree(ROOT / run_dir, ignore_errors=True)
    rep["wall_s"] = time.perf_counter() - start
    rep["traced"] = spans is not None
    return rep


def check_digests(reps: list[dict]) -> None:
    """Every repetition of one seed must end in the same final snapshot."""
    digests = Counter(r["digest"] for r in reps if "digest" in r)
    if len(digests) > 1:
        common = digests.most_common(1)[0][0]
        for r in reps:
            if r.get("digest", common) != common:
                r["errors"].append("final-snapshot digest differs from the other "
                                   "repetitions of this seed")


def repeat(name: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    workload = WORKLOADS[name]
    work = WORK_DIR / name
    spans = WORK_DIR / "spans" / f"{name}-seed{seed}.jsonl"
    try:
        inputs = work / "inputs"
        shutil.rmtree(ROOT / work, ignore_errors=True)
        prepare_inputs(workload, seed, ROOT / inputs)
        # compile and cache the package before anything is timed
        subprocess.run([sys.executable, "-c", "import ideatree"], cwd=ROOT,
                       env=program_env(), check=True, timeout=REP_TIMEOUT_S)
        reps: list[dict] = []
        start = time.perf_counter()
        kinds = (False, True) if trace else (False,)
        minimum = MIN_TRACED_REPS if trace else MIN_REPS
        while True:
            traced = min(kinds, key=lambda k: sum(r["traced"] is k for r in reps))
            same = [r["wall_s"] for r in reps if r["traced"] is traced]
            estimate = statistics.median(same) if same else 0.0
            elapsed = time.perf_counter() - start
            if elapsed + estimate > HARD_LIMIT_S:
                break
            if len(same) >= minimum and elapsed + estimate > seconds:
                break
            reps.append(run_rep(name, inputs, work / "run", spans if traced else None))
        check_digests(reps)
        return reps
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def summarize(name: str, seed: int, reps: list[dict], trace: bool, spec: dict) -> dict | None:
    """Print the human-readable report and return the result object, or
    None when no repetition produced numbers."""
    failed = [r for r in reps if r["errors"]]
    plain = [r for r in reps if not r["errors"] and not r["traced"]]
    traced = [r for r in reps if not r["errors"] and r["traced"]]
    print(f"== {name}, seed {seed}: {len(reps)} repetitions "
          f"({len(plain)} untraced ok, {len(traced)} traced ok, {len(failed)} failed)")
    for r in failed:
        print(f"   failed: {r['errors'][0].strip().splitlines()[-1]}")
    if not plain or (trace and not traced):
        return None

    if trace:
        declared = spec["per_layer"]
        values = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        values["trace.overhead_s"] = (median_of(traced, "run_wall_s")
                                      - median_of(plain, "run_wall_s"))
    else:
        declared = spec["end_to_end"]
        values = {m["name"]: median_of(plain, m["name"]) for m in declared}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for key, metric in metrics.items():
        value = metric["value"]
        shown = f"{value:>16.6g}" if isinstance(value, float) else f"{value:>16d}"
        print(f"   {key:<36} {shown} {metric['unit']}")
    if not trace:
        print(f"   {'budget_overrun':<36} {median_of(plain, 'budget_overrun'):>16.6g} units "
              "(simulated clock elapsed minus budget)")
        print(f"   {'pace':<36} {median_of(plain, 'pace'):>16.6g} (machine slowness in execute_run)")
        wall = {key: median_of(plain, f"{key}_wall_s")
                for key in ("setup", "run", "replay", "report")}
        print("   wall seconds: " + ", ".join(f"{k} {v:.4f}" for k, v in wall.items()))
    else:
        self_s = {k: statistics.median(r["self_s"].get(k, 0.0) for r in traced)
                  for k in traced[0]["self_s"]}
        layers: dict[str, float] = {}
        for span_name, span_self in self_s.items():
            layer = span_name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + span_self
        print(f"   execute_run wall seconds: untraced {median_of(plain, 'run_wall_s'):.4f}, "
              f"traced {median_of(traced, 'run_wall_s'):.4f}")
        print("   largest self times: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])[:6]))
        print("   self time by layer: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    print(f"   {'ops_attempted':<36} {len(reps):>16d}")
    print(f"   {'ops_failed':<36} {len(failed):>16d}")
    return {"correct": not failed, "attempted": len(reps), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "ideatree" / "__init__.py").is_file():
        print(f"no ideatree package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        reps = repeat(name, args.seed, args.seconds, bool(args.trace))
        result = summarize(name, args.seed, reps, bool(args.trace), spec)
        if result is None:
            print(f"{name}: no repetition produced a result", file=sys.stderr)
            return 1
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
