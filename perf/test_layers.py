"""Layer timings with pytest-benchmark: writing and reading the log,
replay, the reports, snapshotting the tree, the softmax draw and the
synthetic ports, on the inputs of a grow-25k run.

    python -m pytest perf --benchmark-only

This directory is outside ``tests/``, so the test suite does not
collect it; ``tests/test_perf_suite.py`` runs each case once, untimed,
so that a change that breaks a case fails the suite. Medians before
and after a change go to ``BENCH_<pr>.json`` at the repository root.
"""

from __future__ import annotations

import numpy as np

from ideatree.evaluation import EvalMode
from ideatree.events import LOG_FILENAME, EventKind, RunLog, read_log
from ideatree.orchestrator import replay_events, verify_replay
from ideatree.report import progress_report, run_summary
from ideatree.search import softmax_select
from ideatree.tree import MetricDirection, MetricSpec, NodeLevel


def test_runlog_append_and_flush(benchmark, grow_run, tmp_path):
    """The run's events appended to a fresh log, with a flush after
    every stage, as the run made them, and a close at the end."""
    events = grow_run.events
    records = [(e.kind, e.payload, e.kind is EventKind.STAGE_FINISHED) for e in events]
    path = tmp_path / "run.jsonl"

    def write() -> None:
        log = RunLog(path=path)
        for kind, payload, stage_end in records:
            log.append(kind, **payload)
            if stage_end:
                log.flush()
        log.close()

    benchmark(write)
    assert path.read_text(encoding="utf-8").count("\n") == len(events)


def test_read_log(benchmark, grow_run):
    """The run's log read back, about 8,800 events."""
    events = benchmark(read_log, grow_run.run_dir / LOG_FILENAME)
    assert events == grow_run.events


def test_replay_events(benchmark, grow_run):
    """The final tree rebuilt from the decoded events, about 5,200
    nodes."""
    tree = benchmark(replay_events, grow_run.events)
    assert tree.snapshot() == grow_run.result.tree.snapshot()


def test_verify_replay(benchmark, grow_run):
    """``ideatree replay``: read the log, rebuild the tree and compare
    its snapshot with the final one."""
    assert benchmark(verify_replay, grow_run.run_dir)


def test_progress_report_and_run_summary(benchmark, grow_run):
    """The progress rows and then the summary, each reading the log, as
    the benchmark's report pass makes them."""

    def report() -> tuple[list, dict]:
        return progress_report(grow_run.run_dir), run_summary(grow_run.run_dir)

    rows, summary = benchmark(report)
    assert summary["best_raw_score"] == grow_run.result.best_raw_score
    assert len(rows) == summary["iterations"] + 1


def test_snapshot(benchmark, grow_run):
    """The final tree's snapshot, about 5,200 nodes."""
    result = grow_run.result
    document = benchmark(result.tree.snapshot)
    assert document.startswith('{"iteration":')


def test_sample_without_replacement(benchmark, grow_run):
    """Two draws from a softmax over the final tree's FE aggregates, as
    an adding stage makes them."""
    result = grow_run.result
    table = result.tree.fe_table
    scored = ~np.isnan(table.aggregates)
    metric = MetricSpec("score", MetricDirection.HIGHER_BETTER)
    dist = softmax_select(metric.orient(table.aggregates[scored]), 1.0, table.ids[scored])
    rng = np.random.default_rng(1)
    picked = benchmark(dist.sample_without_replacement, 2, rng)
    assert len(set(picked)) == 2


def test_simulated_evaluate(benchmark, grow_run, grow_ports):
    """One full-mode evaluation of every MT node of the final tree."""
    result = grow_run.result
    nodes = result.tree.nodes_at_level(NodeLevel.MT)
    evaluate = grow_ports.evaluator.evaluate

    def score_all() -> list[float]:
        return [evaluate(node, EvalMode.FULL) for node in nodes]

    scores = benchmark(score_all)
    assert len(scores) == len(nodes) > 1000


def test_synthetic_propose_mt(benchmark, grow_run, grow_ports, grow_config):
    """One adding-stage proposal under every FE node of the final tree."""
    result = grow_run.result
    fe_nodes = result.tree.nodes_at_level(NodeLevel.FE)
    propose_mt, m = grow_ports.gen.propose_mt, grow_config.number_of_ideas_modelling

    def propose_all() -> list[list[str]]:
        return [propose_mt(fe, None, m) for fe in fe_nodes]

    proposals = benchmark(propose_all)
    assert len(proposals) == len(fe_nodes) and all(len(texts) == m for texts in proposals)


def test_synthetic_merge_fe(benchmark, grow_run, grow_ports):
    """A merge of every pair of FE nodes adjacent in id order."""
    result = grow_run.result
    fe_nodes = result.tree.nodes_at_level(NodeLevel.FE)
    pairs = list(zip(fe_nodes, fe_nodes[1:]))
    merge_fe = grow_ports.gen.merge_fe

    def merge_all() -> list[str]:
        return [merge_fe(a, b, None) for a, b in pairs]

    merged = benchmark(merge_all)
    assert len(merged) == len(pairs) > 100
