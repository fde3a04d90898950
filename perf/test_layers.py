"""Layer timings with pytest-benchmark: writing and reading the log,
replay, the reports, snapshotting the tree, the tree ops, the softmax
and merge-pair draws, the synthetic ports and the corpus retriever, on
the inputs of a grow-25k run.

    python -m pytest perf --benchmark-only

This directory is outside ``tests/``, so the test suite does not
collect it; ``tests/test_perf_suite.py`` runs each case once, untimed,
so that a change that breaks a case fails the suite. Medians before
and after a change go to ``BENCH_<pr>.json`` at the repository root.
"""

from __future__ import annotations

import numpy as np
from workloads import write_corpus

from ideatree.evaluation import EvalMode
from ideatree.events import LOG_FILENAME, EventKind, RunLog, collector_paused, iter_log, read_log
from ideatree.orchestrator import replay_events, verify_replay
from ideatree.report import progress_report, run_summary
from ideatree.retrieval import FileCorpusRetriever
from ideatree.search import MergeMemory, draw_merge_pairs, softmax_select
from ideatree.tree import (
    IdeationTree,
    MetricDirection,
    MetricSpec,
    NodeLevel,
    NodeStatus,
    backpropagate,
)


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


def test_iter_log(benchmark, grow_run):
    """The run's log streamed block by block to its end, keeping no
    event, with the collector paused as a report walks it."""

    @collector_paused()
    def walk() -> int:
        return sum(1 for _ in iter_log(grow_run.run_dir / LOG_FILENAME))

    assert benchmark(walk) == len(grow_run.events)


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


# ---- tree ops ----

def test_spawn(benchmark, grow_run):
    """The final tree's nodes spawned into a fresh tree in id order,
    each under its parent with its provenance, about 5,200 spawns."""
    nodes = sorted(grow_run.result.tree.nodes.values(), key=lambda node: node.id)
    root, rest = nodes[0], nodes[1:]

    def grow() -> IdeationTree:
        tree = IdeationTree.create(root.idea_text)
        for node in rest:
            tree.spawn(node.parent_id, node.level, node.idea_text, provenance=node.provenance)
        return tree

    tree = benchmark(grow)
    assert sorted(tree.nodes) == [node.id for node in nodes]


def _evaluated_mt(tree: IdeationTree) -> list[tuple[int, float]]:
    return [(node.id, node.raw_score) for node in tree.nodes_at_level(NodeLevel.MT)
            if node.status is NodeStatus.EVALUATED]


def test_mark_evaluated(benchmark, grow_run):
    """Every evaluated MT node of a copy of the final tree marked
    evaluated again with its own score, as a stage commits a score."""
    tree = IdeationTree.restore(grow_run.result.tree.snapshot())
    scored = _evaluated_mt(tree)

    def mark_all() -> None:
        for node_id, raw_score in scored:
            tree.mark_evaluated(node_id, raw_score)

    benchmark(mark_all)
    assert len(scored) > 1000


def test_backpropagate(benchmark, grow_run):
    """The aggregates of every FE node with an evaluated child brought
    up to date, as replay does once at its end; each round first marks
    every score again, so that each of those FE nodes is stale."""
    tree = IdeationTree.restore(grow_run.result.tree.snapshot())
    scored = _evaluated_mt(tree)

    def stale() -> None:
        for node_id, raw_score in scored:
            tree.mark_evaluated(node_id, raw_score)

    benchmark.pedantic(backpropagate, args=(tree,), setup=stale, rounds=30)
    assert tree.snapshot() == grow_run.result.tree.snapshot()


def test_best_evaluated_mt(benchmark, grow_run):
    """The best evaluated MT node of the final tree under each metric
    direction in turn, so that every call rescans the MT nodes."""
    tree = IdeationTree.restore(grow_run.result.tree.snapshot())
    up = MetricSpec("score", MetricDirection.HIGHER_BETTER)
    down = MetricSpec("score", MetricDirection.LOWER_BETTER)

    def both() -> tuple:
        return tree.best_evaluated_mt(up), tree.best_evaluated_mt(down)

    best_up, best_down = benchmark(both)
    assert best_up.raw_score >= best_down.raw_score


# ---- selection ----

def test_draw_merge_pairs(benchmark, grow_run, grow_config):
    """One merging stage's draw of FE pairs over the final tree's
    eligible FE nodes, skipping the pairs the run's long-term memory
    holds (each merge that succeeded, each pair promoted)."""
    mem = MergeMemory(theta_fail=grow_config.theta_fail)
    for event in grow_run.events:
        if (event.kind is EventKind.MERGE_ATTEMPTED and event.payload["outcome"] == "success"
                or event.kind is EventKind.MEMORY_PROMOTED):
            mem.long_term.add(tuple(event.payload["pair"]))
    eligible = grow_run.result.tree.eligible_fe_ids()
    n = grow_config.number_of_selected_node_merging

    def draw() -> list:
        return draw_merge_pairs(eligible, mem, n, np.random.default_rng(1))

    pairs = benchmark(draw)
    assert len(pairs) == n and not set(pairs) & mem.long_term
    assert len(mem.long_term) > 50


# ---- ports ----

def test_corpus_retrieve(benchmark, grow_run, tmp_path):
    """One top-k lookup over the ports-2.5k corpus of 200 documents, with
    the final tree's last FE idea as the query; the corpus is read and
    embedded before timing starts."""
    write_corpus(tmp_path / "corpus", 200, seed=1)
    retriever = FileCorpusRetriever(tmp_path / "corpus")
    query = grow_run.result.tree.nodes_at_level(NodeLevel.FE)[-1].idea_text
    assert retriever.retrieve(query, 5)
    documents = benchmark(retriever.retrieve, query, 5)
    assert len(documents) == 5
