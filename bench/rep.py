"""One repetition of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 bench/rep.py --workload W --inputs DIR --out RUN_DIR [--spans FILE]

``--inputs`` holds the config (and corpus) that run.py prepared. With
``--spans`` the repetition is traced: spans are recorded around the
public calls into each layer, written to FILE, and summed into the
per-layer metrics. Untraced, ``execute_run`` samples the machine pace
from the event log's ``append`` about every ``pace.INTERVAL_S``. Prints
one JSON object as its last line; a non-empty
``errors`` list means the repetition failed a check or raised.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from pace import PacedTimer
from tracer import TracedPort, Tracer, summarize, union_length
from workloads import WORKLOADS

READ_PASSES = 5         # of the read path, in an untraced repetition
GENERATOR_METHODS = ("propose_fe", "propose_mt", "merge_fe", "merge_mt",
                     "enrich_eda", "query_external")


def dir_size(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def eligible_pairs(tree, mem) -> int:
    """How many FE pairs ``merging_stage`` enumerates for this tree and
    memory: pairs of FE nodes with evaluated children, less the pairs
    in long-term memory."""
    from ideatree import NodeLevel, NodeStatus

    eligible = {
        n.parent_id for n in tree.nodes.values()
        if n.level is NodeLevel.MT and n.status is NodeStatus.EVALUATED
    }
    k = len(eligible)
    if k < 2:
        return 0
    excluded = sum(1 for a, b in mem.long_term if a in eligible and b in eligible)
    return k * (k - 1) // 2 - excluded


def trace_program(tracer: Tracer, ports):
    """Patch every traced name where it is looked up and wrap the ports;
    returns the traced ports."""
    from ideatree import IdeationTree, RunLog, orchestrator, report, scoring, search
    from ideatree.embedding import HashedEmbedding, VectorIdeaEmbedding
    from ideatree.evaluation import EvalMode
    from ideatree.retrieval import FileCorpusRetriever

    for module in (orchestrator, search, scoring):
        tracer.patch(module, "backpropagate", "tree.backpropagate")
    for module in (orchestrator, report):
        tracer.patch(module, "read_log", "events.read_log")
    tracer.patch(orchestrator, "pipeline_setup", "setup_stages.pipeline_setup")
    tracer.patch(orchestrator, "initialize_tree", "orchestrator.initialize_tree")
    tracer.patch(orchestrator, "run_main_loop", "orchestrator.run_main_loop")
    tracer.patch(orchestrator, "replay_events", "orchestrator.replay_events")
    tracer.patch(orchestrator, "build_anchor_set", "scoring.build_anchor_set")
    tracer.patch(orchestrator, "adding_stage", "search.adding")
    merging = tracer.wrap(orchestrator.merging_stage, "search.merging")

    def merging_stage(tree, mem, *args, **kwargs):
        with tracer.span("trace.bookkeeping"):
            tracer.counters["search.merge.pairs_enumerated"] += eligible_pairs(tree, mem)
        return merging(tree, mem, *args, **kwargs)

    tracer.replace(orchestrator, "merging_stage", merging_stage)

    def count_snapshot(document: str) -> None:
        # json.dumps escapes to ASCII, so characters are bytes
        tracer.counters["tree.snapshot.bytes"] += len(document)

    tracer.patch(IdeationTree, "snapshot", "tree.snapshot", on_result=count_snapshot)
    for method in ("evaluated_mt_children", "nodes_at_level", "best_evaluated_mt"):
        tracer.patch(IdeationTree, method, f"tree.{method}")
    tracer.patch(RunLog, "append", "events.append")
    tracer.patch(RunLog, "flush", "events.flush")
    tracer.patch(FileCorpusRetriever, "retrieve", "retrieval.retrieve")
    for embedder in (HashedEmbedding, VectorIdeaEmbedding):
        tracer.patch(embedder, "embed", "embedding.embed")

    full = tracer.wrap(ports.evaluator.evaluate, "evaluation.full")
    debug = tracer.wrap(ports.evaluator.evaluate, "evaluation.debug")
    evaluator = TracedPort(ports.evaluator, tracer, {})
    evaluator.evaluate = lambda node, mode: (full if mode is EvalMode.FULL else debug)(node, mode)
    gen = TracedPort(ports.gen, tracer, {m: f"generation.{m}" for m in GENERATOR_METHODS})
    predictor = ports.predictor
    if predictor is not None:
        predictor = TracedPort(predictor, tracer, {"predict": "scoring.predict"})
    return dataclasses.replace(ports, evaluator=evaluator, gen=gen, predictor=predictor)


def log_counts(log_path: Path) -> dict:
    """Merge outcomes, pruning and checkpoints, read from the run's own log."""
    kinds: dict[str, int] = {}
    merges_ok = 0
    predicted: set[int] = set()
    evaluated: set[int] = set()
    with log_path.open(encoding="utf-8") as fh:
        for line in fh:
            event = json.loads(line)
            kind, payload = event["kind"], event["payload"]
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "merge_attempted" and payload["outcome"] == "success":
                merges_ok += 1
            elif kind == "prediction_made":
                predicted.add(payload["node_id"])
            elif kind == "node_evaluated":
                evaluated.add(payload["node_id"])
    return {
        "merges": kinds.get("merge_attempted", 0),
        "merges_ok": merges_ok,
        "checkpoints": kinds.get("checkpoint_written", 0),
        "predicted": len(predicted),
        "pruned": len(predicted - evaluated),
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, run_dir: Path) -> tuple[dict, dict]:
    """The per-layer metrics, and self seconds by span name."""
    stats = summarize(tracer.spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [], "intervals": []}

    def get(name: str) -> dict:
        return stats.get(name, empty)

    log = log_counts(run_dir / "run.jsonl")
    merging_ms = [d * 1e3 for d in get("search.merging")["durations"]]
    evals = [get("evaluation.full"), get("evaluation.debug")]
    busy = sum(s["total_s"] for s in evals)
    wall = union_length([iv for s in evals for iv in s["intervals"]])
    m = {
        "search.adding.self_s": get("search.adding")["self_s"],
        "search.merging.self_s": get("search.merging")["self_s"],
        "search.merging.p50_ms": percentile(merging_ms, 50),
        "search.merging.p95_ms": percentile(merging_ms, 95),
        "search.merge.pairs_enumerated": tracer.counters["search.merge.pairs_enumerated"],
        "search.merge.attempted": log["merges"],
        "search.merge.success_ratio": log["merges_ok"] / log["merges"] if log["merges"] else 0.0,
    }
    for name in ("backpropagate", "evaluated_mt_children", "nodes_at_level", "snapshot"):
        m[f"tree.{name}.calls"] = get(f"tree.{name}")["calls"]
        m[f"tree.{name}.self_s"] = get(f"tree.{name}")["self_s"]
    m["tree.snapshot.bytes"] = tracer.counters["tree.snapshot.bytes"]
    m["tree.best_evaluated_mt.self_s"] = get("tree.best_evaluated_mt")["self_s"]
    m.update({
        "orchestrator.run_main_loop.self_s": get("orchestrator.run_main_loop")["self_s"],
        "orchestrator.checkpoint.files": log["checkpoints"],
        "orchestrator.checkpoint.bytes": dir_size(run_dir / "checkpoints"),
        "orchestrator.replay_events.self_s": get("orchestrator.replay_events")["self_s"],
        "events.append.calls": get("events.append")["calls"],
        "events.flush.calls": get("events.flush")["calls"],
        "events.flush.self_s": get("events.flush")["self_s"],
        "events.log.bytes": (run_dir / "run.jsonl").stat().st_size,
        "events.read_log.self_s": get("events.read_log")["self_s"],
        "report.progress_report.self_s": get("report.progress_report")["self_s"],
        "evaluation.full.calls": evals[0]["calls"],
        "evaluation.debug.calls": evals[1]["calls"],
        "evaluation.busy_s": busy,
        "evaluation.failed": tracer.errors["evaluation.full"] + tracer.errors["evaluation.debug"],
        "evaluation.overlap": busy / wall if wall else 1.0,
    })
    for method in GENERATOR_METHODS:
        m[f"generation.{method}.calls"] = get(f"generation.{method}")["calls"]
        m[f"generation.{method}.busy_s"] = get(f"generation.{method}")["total_s"]
    for name in ("retrieval.retrieve", "embedding.embed"):
        m[f"{name}.calls"] = get(name)["calls"]
        m[f"{name}.self_s"] = get(name)["self_s"]
    m.update({
        "scoring.build_anchor_set.self_s": get("scoring.build_anchor_set")["self_s"],
        "scoring.predict.calls": get("scoring.predict")["calls"],
        "scoring.predict.self_s": get("scoring.predict")["self_s"],
        "scoring.pruned_ratio": log["pruned"] / log["predicted"] if log["predicted"] else 0.0,
        "setup_stages.pipeline_setup.self_s": get("setup_stages.pipeline_setup")["self_s"],
    })
    return m, {name: s["self_s"] for name, s in stats.items()}


def check_run(result, ports, run_dir: Path, replay_ok: bool, summary: dict) -> list[str]:
    """Correctness of one finished run; the cross-repetition digest
    check is run.py's."""
    from ideatree import IdeationTree

    errors = []
    if not replay_ok:
        errors.append("verify_replay: the log does not replay to the final snapshot")
    document = (run_dir / "final_snapshot.json").read_text(encoding="utf-8")
    try:
        restored = IdeationTree.restore(document)
    except Exception as exc:  # any failure to restore is a failed check
        errors.append(f"restore(final_snapshot) raised {type(exc).__name__}: {exc}")
    else:
        if restored.snapshot() != document:
            errors.append("restore(final_snapshot) does not round-trip")
    best = result.tree.best_evaluated_mt(ports.metric)
    recorded = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    if best is None or recorded["best_node_id"] != best.id:
        errors.append(f"result.json best node {recorded['best_node_id']} is not "
                      f"tree.best_evaluated_mt {best.id if best else None}")
    elif recorded["best_raw_score"] != best.raw_score:
        errors.append("result.json best score differs from the tree's best node")
    if summary["best_raw_score"] != recorded["best_raw_score"]:
        errors.append("run_summary best score differs from result.json")
    return errors


def measure(args, out: dict) -> None:
    workload = WORKLOADS[args.workload]
    inputs = Path(args.inputs)
    run_dir = Path(args.out)

    with PacedTimer() as setup:
        import ideatree

        config = ideatree.load_config(inputs / "config.json")
        corpus = inputs / "corpus" if workload.corpus_docs else None
        ports = ideatree.build_synthetic_ports(config, corpus_dir=corpus)
        if workload.latency is not None:
            from adapters import with_latency

            ports = with_latency(ports, workload.latency)
    out["setup_s"], out["setup_wall_s"] = setup.paced_s, setup.wall_s

    tracer = Tracer() if args.spans else None
    if tracer is not None:
        ports = trace_program(tracer, ports)
        start = time.perf_counter()
        with tracer.span("orchestrator.execute_run"):
            result = ideatree.execute_run(config, ports, run_dir)
        out["run_wall_s"] = time.perf_counter() - start
    else:
        # the run samples the pace from the main thread between events
        append = ideatree.RunLog.append

        def ticking_append(log, kind, **payload):
            run.tick()
            return append(log, kind, **payload)

        ideatree.RunLog.append = ticking_append
        try:
            with PacedTimer() as run:
                result = ideatree.execute_run(config, ports, run_dir)
        finally:
            ideatree.RunLog.append = append
        out["run_s"], out["run_wall_s"], out["pace"] = run.paced_s, run.wall_s, run.pace
    out["bytes_written"] = dir_size(run_dir)

    # the read path is short, so an untraced repetition times it over
    # READ_PASSES passes, and reports their medians
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    replay_times, report_times = [], []
    replay_ok = True
    for _ in range(1 if tracer is not None else READ_PASSES):
        with PacedTimer() as replay, span("orchestrator.verify_replay"):
            replay_ok = ideatree.verify_replay(run_dir) and replay_ok
        with PacedTimer() as report:
            with span("report.progress_report"):
                rows = ideatree.progress_report(run_dir)
            with span("report.run_summary"):
                summary = ideatree.run_summary(run_dir)
        replay_times.append(replay)
        report_times.append(report)
    for key, timers in (("replay", replay_times), ("report", report_times)):
        out[f"{key}_s"] = statistics.median(t.paced_s for t in timers)
        out[f"{key}_wall_s"] = statistics.median(t.wall_s for t in timers)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    out["nodes"] = len(result.tree.nodes)
    out["iterations"] = len(rows) - 1
    if tracer is None:
        out["nodes_per_s"] = out["nodes"] / out["run_s"]
    out["best_score"] = ports.metric.orient(result.best_raw_score)
    out["budget_overrun"] = ports.clock.elapsed() - config.time_run_minutes
    if tracer is not None:
        tracer.unpatch_all()
        out["layers"], out["self_s"] = layer_metrics(tracer, run_dir)
        out["layers"]["orchestrator.budget_overrun"] = out["budget_overrun"]
        tracer.write(Path(args.spans))
    out["digest"] = hashlib.sha256((run_dir / "final_snapshot.json").read_bytes()).hexdigest()
    out["errors"].extend(check_run(result, ports, run_dir, replay_ok, summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    out: dict = {"errors": []}
    try:
        measure(args, out)
    except Exception:  # reported as a failed repetition, not a crash
        out["errors"].append(traceback.format_exc(limit=8))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
