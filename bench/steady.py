"""Steadiness check: do two sets of runs of the same commit agree?

    python3 bench/steady.py [--out bench/baseline.json]

For every workload it runs bench/run.py once per seed 1 to 10 in each of
two sets, each run for BENCHMARK.json's ``run_seconds``. The sets are
interleaved: for each seed it runs set 1 and set 2 back to back, and
which of them goes first alternates, so a change in the machine's speed
during the check reaches both sets alike.

For every end-to-end metric it reports, per set, the median of the ten
per-seed values and their spread (first to third quartile as a share of
the median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them), and the drift: how much worse set 2's median is than set 1's, as
a share of set 1's. The spread is taken across seeds, so it counts the
differences between the seeds' runs as well as noise. A metric is
steady when both its spreads are within a third of its bound and its
drift, in either direction, is within its bound. Exits 1 if a run
fails, reports a failed operation, or a metric is not steady.

With ``--out`` it writes the baseline there: every value and verdict,
the machine, and the per-layer metrics of one traced run of each
workload at seed 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}{' traced' if trace else ''}: {result['attempted']} ops, "
          f"{result['failed']} failed, {time.perf_counter() - started:.1f} s", flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """Median, and first-to-third quartile distance as a share of it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")


def worse_by(first: float, last: float, better: str) -> float:
    """How much ``last`` is worse than ``first``, as a share of ``first``;
    negative when it is better."""
    change = (last - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the baseline here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    end_to_end: dict = {}
    ok = True
    for workload in WORKLOADS:
        runs: list[list[dict]] = [[] for _ in range(SETS)]
        for i, seed in enumerate(SEEDS):
            for s in range(SETS) if i % 2 == 0 else reversed(range(SETS)):
                result = one_run(workload, seed, seconds)
                ok = ok and result["correct"] and not result["failed"]
                runs[s].append(result)
        entry = end_to_end[workload] = {
            "ops_attempted": sum(r["attempted"] for rs in runs for r in rs),
            "ops_failed": sum(r["failed"] for rs in runs for r in rs),
            "metrics": {},
        }
        print(f"\n{workload}: {'metric':<14} {'median':>14} {'spreads':>16} "
              f"{'bound':>6} {'drift':>7}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in rs] for rs in runs]
            stats = [spread(values) for values in sets]
            drift = worse_by(stats[0][0], stats[-1][0], metric["better"])
            steady = abs(drift) <= bound and all(sp <= bound / 3 for _, sp in stats)
            ok = ok and steady
            entry["metrics"][name] = {
                "unit": metric["unit"], "bound": bound, "values": sets,
                "medians": [m for m, _ in stats], "spreads": [sp for _, sp in stats],
                "drift": drift, "steady": steady,
            }
            print(f"{'':>{len(workload) + 1}} {name:<14} {stats[0][0]:>14.6g} "
                  f"{' '.join(f'{sp:.4f}' for _, sp in stats):>16} {bound:>6} "
                  f"{drift:>7.4f}  {'steady' if steady else 'NOT STEADY'}")
        print(flush=True)
    print("all steady" if ok else "NOT all steady", flush=True)

    if args.out:
        per_layer = {}
        for workload in WORKLOADS:
            result = one_run(workload, SEEDS[0], seconds, trace=1)
            per_layer[workload] = {k: m["value"] for k, m in result["metrics"].items()}
        baseline = {
            "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                        "platform": platform.platform()},
            "run_seconds": seconds,
            "end_to_end": {
                "how": "python3 bench/steady.py: per workload and metric, the values of "
                       f"seeds {SEEDS[0]} to {SEEDS[-1]} in each of two interleaved sets, "
                       "their medians and spreads, and the drift of the second median",
                "workloads": end_to_end,
            },
            "per_layer": {
                "how": f"python3 bench/run.py --workload W --seed {SEEDS[0]} "
                       f"--seconds {seconds} --trace 1",
                "workloads": per_layer,
            },
        }
        Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
