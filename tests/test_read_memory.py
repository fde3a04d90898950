"""Reading a run back holds a line of its log, not the whole of it.

On a seeded run of the benchmark's grow-25k config, the peak memory
that tracemalloc sees during each read stays below a bound set by the
size of what it reads, so a change that decodes the whole log, or
encodes the whole snapshot document as one dict, again fails here. A
read of the whole log as a list peaks at about seven times the log's
size, and the one-dict snapshot at about five and a half times the
document's. A restore that keeps every decoded node record until it
returns peaks at about six times the document."""

from __future__ import annotations

import importlib
import tracemalloc
from pathlib import Path

import pytest

from ideatree.config import RunConfig
from ideatree.events import LOG_FILENAME
from ideatree.orchestrator import (
    FINAL_SNAPSHOT_FILENAME,
    build_synthetic_ports,
    execute_run,
    verify_replay,
)
from ideatree.report import progress_report, run_summary
from ideatree.tree import IdeationTree

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def grow_run(tmp_path_factory):
    """The grow-25k run of seed 1: about 5,200 nodes, a 2 MB log."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        workloads = importlib.import_module("workloads")
    config = RunConfig.from_dict(workloads.run_config(workloads.WORKLOADS["grow-25k"], seed=1))
    out = tmp_path_factory.mktemp("grow-25k") / "run"
    result = execute_run(config, build_synthetic_ports(config), out)
    return result, out


def _peak(call, *args) -> int:
    """The peak of traced memory while ``call(*args)`` runs, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("read", [progress_report, run_summary])
def test_a_report_peaks_below_the_size_of_the_log(grow_run, read):
    _, run_dir = grow_run
    log_bytes = (run_dir / LOG_FILENAME).stat().st_size
    assert log_bytes > 1_000_000
    assert _peak(read, run_dir) < log_bytes


def test_verify_replay_peaks_below_two_and_a_half_logs(grow_run):
    """The replayed tree is most of it: the comparison holds one node's
    piece of the snapshot at a time."""
    _, run_dir = grow_run
    log_bytes = (run_dir / LOG_FILENAME).stat().st_size
    assert _peak(verify_replay, run_dir) < 2.5 * log_bytes


def test_snapshot_peaks_below_two_and_a_half_documents(grow_run):
    result, run_dir = grow_run
    document_bytes = (run_dir / FINAL_SNAPSHOT_FILENAME).stat().st_size
    assert _peak(result.tree.snapshot) < 2.5 * document_bytes


def test_restore_peaks_below_five_documents(grow_run):
    """The decoded document and the tree it builds: each node record is
    released as its node is attached, so the two are not held whole at
    once."""
    _, run_dir = grow_run
    document = (run_dir / FINAL_SNAPSHOT_FILENAME).read_text(encoding="utf-8")
    assert len(document) > 1_000_000
    assert _peak(IdeationTree.restore, document) < 5 * len(document)
