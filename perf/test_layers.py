"""Layer timings with pytest-benchmark: writing and reading the log,
replay, the reports, snapshotting and restoring the tree, the tree
ops, the softmax and merge-pair draws, the synthetic ports, the
baseline predictor and the corpus retriever (its index build and a
query), on the inputs of a grow-25k run.

    python -m pytest perf --benchmark-only

This directory is outside ``tests/``, so the test suite does not
collect it; ``tests/test_perf_suite.py`` runs each case once, untimed,
so that a change that breaks a case fails the suite. Medians before
and after a change go to ``BENCH_<pr>.json`` at the repository root.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from workloads import write_corpus

from ideatree.evaluation import EvalMode
from ideatree.events import LOG_FILENAME, EventKind, RunLog, collector_paused, iter_log, read_log
from ideatree.orchestrator import build_synthetic_ports, replay_events, verify_replay
from ideatree.report import progress_report, run_summary
from ideatree.retrieval import FileCorpusRetriever
from ideatree.search import (
    SMALL_DRAW,
    MergeMemory,
    PendingSet,
    _sample_scored_fe,
    draw_merge_pairs,
    sample_top,
    softmax_select,
)
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
    records = [(EventKind(e["kind"]), e["payload"], e["kind"] == EventKind.STAGE_FINISHED)
               for e in events]
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
    """The run's log read back, about 8,800 event records."""
    events = benchmark(read_log, grow_run.run_dir / LOG_FILENAME)
    assert events == grow_run.events


def test_iter_log(benchmark, grow_run):
    """The run's log streamed line by line to its end, keeping no
    record, with the collector paused as a report walks it."""

    @collector_paused()
    def walk() -> int:
        return sum(1 for _ in iter_log(grow_run.run_dir / LOG_FILENAME))

    assert benchmark(walk) == len(grow_run.events)


def test_replay_events(benchmark, grow_run):
    """The final tree rebuilt from the decoded event records, about
    5,200 nodes."""
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


def test_restore(benchmark, grow_run):
    """The final tree rebuilt from its snapshot, about 5,200 nodes."""
    document = grow_run.result.tree.snapshot()
    tree = benchmark(IdeationTree.restore, document)
    assert tree.snapshot() == document


def test_sample_without_replacement(benchmark, grow_run):
    """Two draws from a softmax over the final tree's FE aggregates, as
    a merging stage makes them over every scored FE node: about 700
    ids, above ``SMALL_DRAW``, so the draws run on numpy arrays."""
    result = grow_run.result
    table = result.tree.fe_table
    scored = ~np.isnan(table.aggregates)
    metric = MetricSpec("score", MetricDirection.HIGHER_BETTER)
    dist = softmax_select(metric.orient(table.aggregates[scored]), 1.0, table.ids[scored])
    assert len(dist.node_ids) > SMALL_DRAW
    rng = np.random.default_rng(1)
    picked = benchmark(dist.sample_without_replacement, 2, rng)
    assert len(set(picked)) == 2


def _median_parent(tree: IdeationTree) -> int:
    """The final tree's first FE node with the median number of
    evaluated children among the FE nodes that have any."""
    table = tree.fe_table
    counts = table.evaluated[table.evaluated > 0]
    return int(table.ids[table.evaluated == int(np.median(counts))][0])


def test_sample_top(benchmark, grow_run, grow_config):
    """A merging stage's resample from one parent (``_median_parent``):
    a softmax over an FE node's evaluated MT children and k=3 draws
    from it."""
    tree = grow_run.result.tree
    metric = MetricSpec("score", MetricDirection.HIGHER_BETTER)
    rng = np.random.default_rng(1)
    picked = benchmark(sample_top, tree, _median_parent(tree), 3, rng, metric=metric,
                       temperature=grow_config.softmax_temperature,
                       proportional=grow_config.sample_top_proportional)
    assert len({node.id for node in picked}) == 3


def test_softmax_select(benchmark, grow_run, grow_config):
    """The softmax ``sample_top`` builds for one parent
    (``_median_parent``), over the oriented scores of its evaluated MT
    children: fewer than ``SMALL_DRAW``, so it runs on Python floats."""
    tree = grow_run.result.tree
    children = tree.evaluated_mt_children(_median_parent(tree))
    oriented = [child.raw_score for child in children]
    assert 1 < len(oriented) <= SMALL_DRAW
    dist = benchmark(softmax_select, oriented, grow_config.softmax_temperature)
    assert len(dist.probabilities) == len(children)


def test_sample_scored_fe_windowed(benchmark, grow_run, grow_config):
    """An adding stage's draw of expansion targets on the final tree:
    ``number_of_selected_node`` FE ids from a softmax over the
    aggregates of the FE nodes created within the
    ``number_of_iterations_parents`` last iterations, a few candidates,
    so the draw runs on Python floats."""
    tree = grow_run.result.tree
    window = grow_config.number_of_iterations_parents
    table = tree.fe_table
    candidates = (~np.isnan(table.aggregates)) & (tree.iteration - table.created < window)
    assert 1 < candidates.sum() <= SMALL_DRAW
    metric = MetricSpec("score", MetricDirection.HIGHER_BETTER)
    rng = np.random.default_rng(1)
    picked = benchmark(_sample_scored_fe, tree, grow_config.number_of_selected_node,
                       grow_config.softmax_temperature, metric, rng, window=window)
    assert len(set(picked)) == grow_config.number_of_selected_node


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

def test_spawn(benchmark, grow_run, grow_ports):
    """The final tree's nodes spawned into a fresh tree in id order,
    each under its parent with its provenance, about 5,200 spawns, as a
    run spawns them: through ``PendingSet.spawn``, the root too, as
    ``initialize_tree`` does, which also logs each node's
    ``node_proposed`` event, here to an in-memory log."""
    nodes = sorted(grow_run.result.tree.nodes.values(), key=lambda node: node.id)
    root, rest = nodes[0], nodes[1:]

    def grow() -> IdeationTree:
        tree = IdeationTree()
        pending = PendingSet(tree, grow_ports.evaluator, (EvalMode.FULL,))
        pending.spawn(None, NodeLevel.EDA, root.idea_text, status=NodeStatus.IMPLEMENTED)
        for node in rest:
            pending.spawn(node.parent_id, node.level, node.idea_text, provenance=node.provenance)
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
        kind, payload = event["kind"], event["payload"]
        if (kind == EventKind.MERGE_ATTEMPTED and payload["outcome"] == "success"
                or kind == EventKind.MEMORY_PROMOTED):
            mem.record_success(tuple(payload["pair"]))
    eligible = grow_run.result.tree.eligible_fe_ids()
    n = grow_config.number_of_selected_node_merging

    def draw() -> list:
        return draw_merge_pairs(eligible, mem, n, np.random.default_rng(1))

    pairs = benchmark(draw)
    assert len(pairs) == n and not set(pairs) & mem.long_term
    assert len(mem.long_term) > 50


# ---- ports ----

def test_baseline_predict(benchmark, grow_run, grow_config):
    """One baseline prediction of every MT idea of the final tree, about
    4,500, against the tree's first five evaluated MT nodes as anchors,
    with the predictor the synthetic ports build for a predicting run."""
    mt_nodes = grow_run.result.tree.nodes_at_level(NodeLevel.MT)
    anchors = tuple([node for node in mt_nodes if node.status is NodeStatus.EVALUATED][:5])
    config = dataclasses.replace(grow_config, predict_before_evaluate=True)
    predict = build_synthetic_ports(config).predictor.predict
    texts = [node.idea_text for node in mt_nodes]

    def predict_all() -> list[float]:
        return [predict(text, anchors) for text in texts]

    predictions = benchmark(predict_all)
    low, high = min(a.raw_score for a in anchors), max(a.raw_score for a in anchors)
    assert len(anchors) == 5 and len(predictions) == len(mt_nodes) > 1000
    assert all(low - 1e-12 <= value <= high + 1e-12 for value in predictions)


def test_corpus_index_build(benchmark, grow_run, tmp_path):
    """A new retriever's first top-k lookup over the ports-2.5k corpus
    of 200 documents, with the final tree's last FE idea as the query:
    every file read, parsed, embedded by a new embedder and normed,
    then the query ranked, as a run's first retrieval does."""
    write_corpus(tmp_path / "corpus", 200, seed=1)
    query = grow_run.result.tree.nodes_at_level(NodeLevel.FE)[-1].idea_text

    def cold() -> tuple[tuple, dict]:
        return (FileCorpusRetriever(tmp_path / "corpus"), query, 5), {}

    documents = benchmark.pedantic(FileCorpusRetriever.retrieve, setup=cold, rounds=30)
    assert len(documents) == 5


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
