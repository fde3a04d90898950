"""The run log's records and its reader: lean node records, old logs
with full node records, and the defects the one-pass reader rejects."""

from __future__ import annotations

import gc
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideatree.config import RunConfig
from ideatree.errors import CorruptLog
from ideatree.events import LOG_FILENAME, Event, EventKind, RunLog, read_log
from ideatree.orchestrator import (
    FINAL_SNAPSHOT_FILENAME,
    build_synthetic_ports,
    execute_run,
    replay,
    verify_replay,
)
from ideatree.tree import OPTIONAL_NODE_FIELDS, Node


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A finished simulated run directory; tests copy it before editing."""
    config = RunConfig.from_dict({
        "seed": 7,
        "clock_mode": "simulated",
        "time_run_minutes": 200.0,
        "synthetic": {"full_cost": 10.0, "debug_cost": 1.0},
    })
    out = tmp_path_factory.mktemp("events") / "run"
    execute_run(config, build_synthetic_ports(config), out)
    return out


@pytest.fixture
def run_dir(finished, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(finished, out)
    return out


def _lines(run_dir) -> list[str]:
    return (run_dir / LOG_FILENAME).read_text(encoding="utf-8").splitlines()


def _write(run_dir, lines: list[str], end: str = "\n") -> None:
    (run_dir / LOG_FILENAME).write_text("\n".join(lines) + end, encoding="utf-8")


def _old_form(line: str) -> str:
    """A line as logs written before lean node records held it: a
    node_proposed record carries every node field, unset ones as null."""
    d = json.loads(line)
    if d["kind"] == "node_proposed":
        d["payload"]["node"] = Node.from_dict(d["payload"]["node"]).to_dict()
    return json.dumps(d, sort_keys=True)


# ---- records ----

def test_node_proposed_records_omit_unset_optional_fields(finished):
    records = [e.payload["node"] for e in read_log(finished / LOG_FILENAME)
               if e.kind is EventKind.NODE_PROPOSED]
    assert records
    for record in records:
        assert None not in (record[key] for key in OPTIONAL_NODE_FIELDS if key in record)
        assert Node.from_dict(record).to_record() == record
        assert set(Node.from_dict(record).to_dict()) >= set(record)
    # resampled copies arrive scored, so some records keep a raw score
    assert any("raw_score" in record for record in records)


def test_event_to_json_keeps_the_bytes_of_json_dumps(finished):
    for event in read_log(finished / LOG_FILENAME):
        expected = json.dumps({"seq": event.seq, "ts": event.ts, "kind": event.kind.value,
                               "payload": event.payload}, sort_keys=True)
        assert event.to_json() == expected


def test_old_form_log_reads_and_replays_to_the_same_snapshot(run_dir):
    lean = read_log(run_dir / LOG_FILENAME)
    lean_snapshot = replay(run_dir / LOG_FILENAME).snapshot()
    old = [_old_form(line) for line in _lines(run_dir)]
    assert any('"raw_score": null' in line for line in old)
    _write(run_dir, old)
    events = read_log(run_dir / LOG_FILENAME)
    assert [(e.seq, e.kind) for e in events] == [(e.seq, e.kind) for e in lean]
    assert replay(run_dir / LOG_FILENAME).snapshot() == lean_snapshot
    assert lean_snapshot == (run_dir / FINAL_SNAPSHOT_FILENAME).read_text(encoding="utf-8")
    assert verify_replay(run_dir)


# ---- the writer ----

class _ListClock:
    """Hands out the given elapsed times one per call, as event stamps."""

    def __init__(self, times):
        self.times = iter(times)

    def elapsed(self):
        return next(self.times)


def _dumps(event: Event) -> str:
    return json.dumps({"seq": event.seq, "ts": event.ts, "kind": event.kind.value,
                       "payload": event.payload}, sort_keys=True)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(),
    st.sampled_from((-0.0, 1e-05, 1e-4, 1e16, 1e17, 5e-324, 1.7976931348623157e308)),
    st.floats(allow_nan=False), st.integers(-2**80, 2**80),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
# ``RunLog.append`` takes the payload as keyword arguments
_PAYLOADS = st.dictionaries(st.text().filter(lambda key: key not in ("self", "kind")),
                            _VALUES, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_PAYLOADS, max_size=5), min_size=1, max_size=4), st.data())
def test_flushed_lines_are_json_dumps_with_sorted_keys(batches, data):
    """Every line a flush writes is ``json.dumps(record, sort_keys=True)``
    of its event, over several flushes: nested dicts and lists,
    non-ASCII text, signed zero, exponent floats, big ints, None and
    bools."""
    times = data.draw(st.lists(st.floats(0, 1e9), min_size=sum(map(len, batches)),
                               max_size=sum(map(len, batches))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sub" / LOG_FILENAME
        log = RunLog(clock=_ListClock(times), path=path)
        kinds = list(EventKind)
        written = []
        for batch in batches:
            for i, payload in enumerate(batch):
                written.append(log.append(kinds[i % len(kinds)], **payload))
            log.flush()
        log.close()
        lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [_dumps(event) for event in written]
    assert [event.to_json() for event in written] == lines


def _write_log(path: Path, payloads) -> tuple[RunLog, list[Event]]:
    log = RunLog(path=path)
    written = [log.append(EventKind.STAGE_STARTED, **payload) for payload in payloads]
    log.flush()
    return log, written


def _circular() -> dict:
    loop: dict = {"a": [1]}
    loop["a"].append(loop)
    return loop


@pytest.mark.parametrize("bad, error", [
    ({"value": object()}, TypeError),
    ({"value": {1, 2}}, TypeError),
    ({"value": _circular()}, ValueError),
])
def test_flush_that_fails_to_encode_writes_nothing(tmp_path, bad, error):
    """A payload JSON cannot hold, or a circular one, fails the flush
    before its write: the file keeps the lines of earlier flushes, a
    retried flush fails the same way without repeating them, and the
    next log, with a fresh encoder, writes correctly."""
    log, _ = _write_log(tmp_path / "a.jsonl", [{"stage": "adding", "n": 1}])
    before = (tmp_path / "a.jsonl").read_text(encoding="utf-8")
    log.append(EventKind.STAGE_STARTED, stage="merging")
    log.append(EventKind.STAGE_STARTED, **bad)
    for _ in range(2):
        with pytest.raises(error):
            log.flush()
        assert (tmp_path / "a.jsonl").read_text(encoding="utf-8") == before
    with pytest.raises(error):
        log.close()
    assert log._fh is None
    # nothing of the failed flushes waited in a buffer either
    assert (tmp_path / "a.jsonl").read_text(encoding="utf-8") == before

    fresh, written = _write_log(tmp_path / "b.jsonl", [{"x": [1.5, {"é": None}]}, {"y": -0.0}])
    fresh.close()
    lines = (tmp_path / "b.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [_dumps(event) for event in written]


def test_flush_keeps_one_handle_until_close(tmp_path):
    """The first flush replaces an old file and opens the one handle
    the log keeps; a flush after ``close`` appends through a new one."""
    path = tmp_path / LOG_FILENAME
    path.write_text("an older run's log\n", encoding="utf-8")
    log, written = _write_log(path, [{"n": 1}])
    handle = log._fh
    written.append(log.append(EventKind.STAGE_STARTED, n=2))
    log.flush()
    assert log._fh is handle and not handle.closed
    log.close()
    assert handle.closed and log._fh is None
    log.close()
    written.append(log.append(EventKind.STAGE_STARTED, n=3))
    log.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [_dumps(event) for event in written]


def test_a_log_with_a_file_keeps_only_unwritten_events(tmp_path):
    """A flush drops what it wrote; a log without a file keeps every
    event, so in-memory callers can read them."""
    log = RunLog(path=tmp_path / LOG_FILENAME)
    first = log.append(EventKind.STAGE_STARTED, n=1)
    assert log.events == [first]
    log.flush()
    assert log.events == []
    second = log.append(EventKind.STAGE_STARTED, n=2)
    assert log.events == [second]
    log.close()
    assert log.events == []

    memory = RunLog()
    kept = [memory.append(EventKind.STAGE_STARTED, n=n) for n in range(3)]
    memory.flush()
    memory.close()
    assert memory.events == kept


def test_seq_stays_contiguous_across_flushes_and_close(tmp_path):
    """Sequence numbers count every event the log was given, written or
    not: across flushes, a close, and an append after the close, the
    file reads back as one contiguous log."""
    path = tmp_path / LOG_FILENAME
    log = RunLog(path=path)
    written = [log.append(EventKind.RUN_STARTED)]
    for stage in range(3):
        written.append(log.append(EventKind.STAGE_STARTED, stage=stage))
        written.append(log.append(EventKind.STAGE_FINISHED, stage=stage))
        log.flush()
    written.append(log.append(EventKind.STAGE_STARTED, stage=3))
    log.close()
    written.append(log.append(EventKind.RUN_FINISHED))
    log.close()
    assert [event.seq for event in written] == list(range(len(written)))
    assert read_log(path) == written


def test_flush_that_fails_to_encode_keeps_its_events(tmp_path):
    """The pending events stay until a flush writes them, so once the
    bad payload is mended a retried flush writes each line once."""
    path = tmp_path / LOG_FILENAME
    log, written = _write_log(path, [{"n": 1}])
    written.append(log.append(EventKind.STAGE_STARTED, n=2))
    bad = log.append(EventKind.STAGE_STARTED, value=object())
    written.append(bad)
    with pytest.raises(TypeError):
        log.flush()
    assert log.events == written[1:]
    bad.payload["value"] = 3
    log.flush()
    log.close()
    assert log.events == []
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [_dumps(event) for event in written]


# ---- defects ----

@pytest.mark.parametrize("bad", [
    "not json at all",
    '{"seq": 4, "ts": 0.0, "kind": "node_prop',
    '{"seq": 4, "ts": 0.0, "kind": "no_such_kind", "payload": {}}',
    '{"seq": 4, "ts": 0.0, "payload": {}}',
    "[1, 2, 3]",
    '{"seq": 4, "ts": 0.0, "kind": "stage_started", "payload": {"x": [1}',
])
@pytest.mark.parametrize("partial", [False, True])
def test_bad_middle_line_names_its_line(run_dir, bad, partial):
    lines = _lines(run_dir)
    lines[4] = bad
    _write(run_dir, lines)
    with pytest.raises(CorruptLog, match=r"line 5\b"):
        read_log(run_dir / LOG_FILENAME, partial=partial)


def test_line_that_leaves_a_bracket_open_is_blamed_not_the_next(run_dir):
    """The decoder meets the fault at the next line's start; the reader
    names the line that left the bracket open."""
    lines = _lines(run_dir)
    lines[4] = '{"seq": 4, "ts": 0.0, "kind": "stage_started", "payload": {"x": ['
    _write(run_dir, lines)
    with pytest.raises(CorruptLog, match=r"line 5\b"):
        read_log(run_dir / LOG_FILENAME)


@pytest.mark.parametrize("end", ["", "\n\n  \n"])
def test_torn_last_line_is_dropped_only_when_partial(run_dir, end):
    lines = _lines(run_dir)
    full = read_log(run_dir / LOG_FILENAME)
    _write(run_dir, lines[:-1] + [lines[-1][:30]], end=end)
    with pytest.raises(CorruptLog, match=rf"line {len(lines)}\b"):
        read_log(run_dir / LOG_FILENAME)
    assert read_log(run_dir / LOG_FILENAME, partial=True) == full[:-1]


@pytest.mark.parametrize("join", [" ", "", ",", "\t,  "])
@pytest.mark.parametrize("partial", [False, True])
def test_line_with_two_json_values_is_rejected(run_dir, join, partial):
    lines = _lines(run_dir)
    lines[4] = lines[4] + join + lines[5]
    del lines[5]
    _write(run_dir, lines)
    with pytest.raises(CorruptLog, match=r"line 5\b"):
        read_log(run_dir / LOG_FILENAME, partial=partial)


@pytest.mark.parametrize("nested", ["[[1], [2]]", "[[[1], [2]]]"])
def test_one_value_split_over_two_lines_is_rejected(run_dir, nested):
    """Two lines that are one value once joined, each on its own not
    JSON. With enough nesting the joined text decodes, so the reader
    must see that the line count and the value count differ."""
    lines = _lines(run_dir)
    event = json.loads(lines[4])
    event["payload"]["x"] = json.loads(nested)
    encoded = json.dumps(event, sort_keys=True)
    cut = encoded.index(nested) + nested.index("],") + 1
    lines[4:5] = [encoded[:cut], encoded[cut + 1:]]
    _write(run_dir, lines)
    with pytest.raises(CorruptLog):
        read_log(run_dir / LOG_FILENAME)


def test_blank_lines_are_skipped(run_dir):
    full = read_log(run_dir / LOG_FILENAME)
    lines = _lines(run_dir)
    _write(run_dir, ["", *lines[:3], "", "   ", *lines[3:], "\t"], end="\n\n")
    assert read_log(run_dir / LOG_FILENAME) == full
    assert verify_replay(run_dir)


@pytest.mark.parametrize("enabled", [True, False])
def test_read_log_leaves_the_collector_as_it_found_it(run_dir, enabled):
    """The reader pauses the garbage collector for the whole read (the
    decode, the event records and the checks) and restores it as it
    found it, when the read fails too."""
    lines = _lines(run_dir)
    was = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        assert read_log(run_dir / LOG_FILENAME)
        assert gc.isenabled() is enabled
        _write(run_dir, lines[:4] + ["not json at all"] + lines[5:])
        with pytest.raises(CorruptLog):
            read_log(run_dir / LOG_FILENAME)
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


def test_events_are_records_read_back_equal(finished):
    events = read_log(finished / LOG_FILENAME)
    head = events[0]
    assert isinstance(head, Event) and head.kind is EventKind.RUN_STARTED
    assert not hasattr(head, "__dict__")
    assert events == read_log(finished / LOG_FILENAME)
