"""Layer timings with pytest-benchmark: writing the log, snapshotting
the tree and the softmax draw, on the inputs of a grow-25k run.

    python -m pytest perf --benchmark-only

This directory is outside ``tests/``, so the test suite does not
collect it. Medians before and after a change go to ``BENCH_<pr>.json``
at the repository root.
"""

from __future__ import annotations

import numpy as np

from ideatree.events import EventKind, RunLog
from ideatree.search import softmax_select
from ideatree.tree import MetricDirection, MetricSpec


def test_runlog_append_and_flush(benchmark, grow_run, tmp_path):
    """The run's events appended to a fresh log, with a flush after
    every stage, as the run made them, and a close at the end."""
    _, events = grow_run
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


def test_snapshot(benchmark, grow_run):
    """The final tree's snapshot, about 5,200 nodes."""
    result, _ = grow_run
    document = benchmark(result.tree.snapshot)
    assert document.startswith('{"iteration":')


def test_sample_without_replacement(benchmark, grow_run):
    """Two draws from a softmax over the final tree's FE aggregates, as
    an adding stage makes them."""
    result, _ = grow_run
    table = result.tree.fe_table
    scored = ~np.isnan(table.aggregates)
    metric = MetricSpec("score", MetricDirection.HIGHER_BETTER)
    dist = softmax_select(metric.orient(table.aggregates[scored]), 1.0, table.ids[scored])
    rng = np.random.default_rng(1)
    picked = benchmark(dist.sample_without_replacement, 2, rng)
    assert len(set(picked)) == 2
