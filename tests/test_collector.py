"""Reading a run back runs with the cyclic garbage collector paused and
leaves it as it found it; running a run never pauses it."""

from __future__ import annotations

import gc
import shutil

import pytest

from ideatree.cli import main
from ideatree.config import RunConfig
from ideatree.errors import CorruptLog, MalformedDocument, MissingRunArtifacts
from ideatree.events import LOG_FILENAME, collector_paused, read_log
from ideatree.orchestrator import (
    FINAL_SNAPSHOT_FILENAME,
    build_synthetic_ports,
    execute_run,
    replay,
    replay_events,
    verify_replay,
)
from ideatree.report import progress_report, run_summary
from ideatree.tree import IdeationTree


@pytest.fixture(scope="module")
def grown(tmp_path_factory):
    """A run directory of about 2,000 nodes, run in this process, so the
    heap holds what a run leaves behind, as when a run is reported at
    once."""
    config = RunConfig.from_dict({
        "seed": 1,
        "clock_mode": "simulated",
        "time_run_minutes": 10_000,
        "checkpoint_every_stage": False,
        "predict_before_evaluate": False,
    })
    out = tmp_path_factory.mktemp("collector") / "run"
    execute_run(config, build_synthetic_ports(config), out)
    return out


def _snapshot(run_dir) -> str:
    return (run_dir / FINAL_SNAPSHOT_FILENAME).read_text(encoding="utf-8")


# each public read, called on a run directory; read_log's own tests are
# in test_events.py
READS = {
    "verify_replay": verify_replay,
    "replay": lambda run_dir: replay(run_dir / LOG_FILENAME),
    "progress_report": progress_report,
    "run_summary": run_summary,
    "restore": lambda run_dir: IdeationTree.restore(_snapshot(run_dir)),
}


def _collections_during(call, *args) -> tuple[object, list[int]]:
    """``call(*args)`` and the generation of every collection that
    started while it ran."""
    started: list[int] = []

    def probe(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        result = call(*args)
    finally:
        gc.callbacks.remove(probe)
    return result, started


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def test_the_probe_sees_an_unpaused_read(grown, collector_on):
    """Rebuilding the tree outside any pause starts collections, so an
    empty probe below means the pause held, not that nothing was due."""
    events = read_log(grown / LOG_FILENAME)
    tree, started = _collections_during(replay_events, events)
    assert tree.snapshot() == _snapshot(grown)
    assert started


@pytest.mark.parametrize("name", sorted(READS))
def test_no_collection_starts_inside_a_read(grown, collector_on, name):
    gc.collect()
    result, started = _collections_during(READS[name], grown)
    assert result
    assert started == []
    assert gc.isenabled()


def test_no_collection_starts_inside_the_report_command(grown, collector_on, capsys):
    """``ideatree report`` reads the log once and walks it outside
    progress_report and run_summary."""
    gc.collect()
    code, started = _collections_during(main, ["report", str(grown)])
    assert code == 0 and "iteration" in capsys.readouterr().out
    assert started == []


def _corrupt(run_dir, tmp_path):
    """A copy of the run with a bad line in its log and a final snapshot
    that is not JSON."""
    out = tmp_path / "corrupt"
    shutil.copytree(run_dir, out)
    log = out / LOG_FILENAME
    lines = log.read_text(encoding="utf-8").splitlines()
    lines[4] = "not json at all"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / FINAL_SNAPSHOT_FILENAME).write_text("not json at all", encoding="utf-8")
    return out


# (read, run directory it is given, error it raises)
FAILURES = [
    ("verify_replay", "missing", MissingRunArtifacts),
    ("verify_replay", "corrupt", CorruptLog),
    ("replay", "corrupt", CorruptLog),
    ("progress_report", "missing", MissingRunArtifacts),
    ("progress_report", "corrupt", CorruptLog),
    ("run_summary", "missing", MissingRunArtifacts),
    ("run_summary", "corrupt", CorruptLog),
    ("restore", "corrupt", MalformedDocument),
]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", sorted(READS))
def test_a_read_leaves_the_collector_as_it_found_it(grown, name, enabled):
    was = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        assert READS[name](grown)
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name,case,error", FAILURES)
def test_a_failed_read_leaves_the_collector_as_it_found_it(grown, tmp_path, name, case,
                                                          error, enabled):
    run_dir = _corrupt(grown, tmp_path) if case == "corrupt" else tmp_path / "missing"
    was = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        with pytest.raises(error):
            READS[name](run_dir)
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


def test_nested_pauses_resume_at_the_outermost_end(collector_on):
    with collector_paused():
        with pytest.raises(ValueError):
            with collector_paused():
                raise ValueError("inside")
        assert not gc.isenabled()
    assert gc.isenabled()


class _CollectorProbe:
    """Forwards every method call to ``inner`` and records whether the
    collector was on at each."""

    def __init__(self, inner, seen: list[bool]):
        self._inner = inner
        self._seen = seen

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self._seen.append(gc.isenabled())
            return attr(*args, **kwargs)

        return call


def test_the_collector_stays_on_while_a_run_runs(tmp_path, collector_on):
    """Every port call of a run, on the main thread and on the workers,
    sees the collector on: ports may run user code and threads."""
    config = RunConfig.from_dict({
        "seed": 3,
        "clock_mode": "simulated",
        "time_run_minutes": 600.0,
        "worker_count": 2,
        "predict_before_evaluate": True,
        "validation_attempts": 1,
    })
    ports = build_synthetic_ports(config)
    seen: list[bool] = []
    ports.gen = _CollectorProbe(ports.gen, seen)
    ports.evaluator = _CollectorProbe(ports.evaluator, seen)
    ports.predictor = _CollectorProbe(ports.predictor, seen)
    execute_run(config, ports, tmp_path / "run")
    assert len(seen) > 100
    assert all(seen)
