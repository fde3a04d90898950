"""The run log's records and its reader: lean node records, old logs
with full node records, the defects the streamed reader rejects, line
by line, and the snapshot comparison of ``verify_replay``."""

from __future__ import annotations

import gc
import importlib
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideatree.config import RunConfig
from ideatree.errors import CorruptLog, LogVersionMismatch
from ideatree.events import (
    LOG_FILENAME,
    EventKind,
    RunLog,
    decode_json,
    encode_json,
    read_log,
)
from ideatree.orchestrator import (
    FINAL_SNAPSHOT_FILENAME,
    build_synthetic_ports,
    execute_run,
    replay,
    verify_replay,
)
from ideatree import tree as tree_module
from ideatree.tree import OPTIONAL_NODE_FIELDS, Node

from helpers import full_record


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
        d["payload"]["node"] = full_record(Node.from_dict(d["payload"]["node"]))
    return json.dumps(d, sort_keys=True)


# ---- records ----

def test_node_proposed_records_omit_unset_optional_fields(finished):
    records = [e["payload"]["node"] for e in read_log(finished / LOG_FILENAME)
               if e["kind"] == EventKind.NODE_PROPOSED]
    assert records
    for record in records:
        assert None not in (record[key] for key in OPTIONAL_NODE_FIELDS if key in record)
        assert Node.from_dict(record).to_record() == record
        assert set(full_record(Node.from_dict(record))) >= set(record)
    # resampled copies arrive scored, so some records keep a raw score
    assert any("raw_score" in record for record in records)


def test_old_form_log_reads_and_replays_to_the_same_snapshot(run_dir):
    lean = read_log(run_dir / LOG_FILENAME)
    lean_snapshot = replay(run_dir / LOG_FILENAME).snapshot()
    old = [_old_form(line) for line in _lines(run_dir)]
    assert any('"raw_score": null' in line for line in old)
    _write(run_dir, old)
    events = read_log(run_dir / LOG_FILENAME)
    assert [(e["seq"], e["kind"]) for e in events] == [(e["seq"], e["kind"]) for e in lean]
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


def _dumps(event: dict) -> str:
    """The log line of an event record whose floats json and orjson
    spell alike: json's text with sorted keys, no whitespace and no
    escapes beyond JSON's own."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(),
    st.sampled_from((-0.0, 1e-05, 1e-4, 1e16, 1e17, 5e-324, 1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False), st.integers(-2**63, 2**64 - 1),
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
def test_flushed_lines_read_back_as_their_events_with_sorted_keys(batches, data):
    """Every line a flush writes is one line of UTF-8 JSON that json
    reads back as its event, with the keys of every dict in sorted
    order, over several flushes: nested dicts and lists, non-ASCII and
    line-breaking text, signed zero, exponent floats, 64-bit ints, None
    and bools. Values are compared by json's own spelling, so 0.0 and
    -0.0, or 1, 1.0 and True, stay apart."""
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
        lines = path.read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == len(written)
    for line, event in zip(lines, written):
        assert json.dumps(json.loads(line.decode())) == json.dumps(event, sort_keys=True)


def _write_log(path: Path, payloads) -> tuple[RunLog, list[dict]]:
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
    ({"value": _circular()}, TypeError),
    ({"value": math.nan}, ValueError),
    ({"value": [1.5, {"x": math.inf}]}, ValueError),
    ({"value": -math.inf}, ValueError),
    ({"value": 2**64}, TypeError),
    ({"value": -2**63 - 1}, TypeError),
    ({"value": "idea \ud800"}, TypeError),
    ({"value": {1: 2}}, TypeError),
    ({"value": np.float64(0.5)}, TypeError),
])
def test_flush_that_fails_to_encode_writes_nothing(tmp_path, bad, error):
    """A payload JSON cannot hold, or cannot hold exactly, fails the
    flush before its write: a circular one, a set, a non-finite float
    (which orjson would write as null), an integer beyond 64 bits, a
    lone surrogate, a non-str key or a numpy scalar. The file keeps the
    lines of earlier flushes, a retried flush fails the same way without
    repeating them, and the next log writes correctly."""
    log, _ = _write_log(tmp_path / "a.jsonl", [{"stage": "adding", "n": 1}])
    before = (tmp_path / "a.jsonl").read_bytes()
    pending = [log.append(EventKind.STAGE_STARTED, stage="merging"),
               log.append(EventKind.STAGE_STARTED, **bad)]
    for _ in range(2):
        with pytest.raises(error):
            log.flush()
        assert (tmp_path / "a.jsonl").read_bytes() == before
        assert log.events == pending
    with pytest.raises(error):
        log.close()
    assert log._fh is None
    # nothing of the failed flushes waited in a buffer either
    assert (tmp_path / "a.jsonl").read_bytes() == before

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
    assert [event["seq"] for event in written] == list(range(len(written)))
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
    bad["payload"]["value"] = 3
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
    '{"seq": 4.9, "ts": 0.0, "kind": "stage_started", "payload": {}}',
    '{"seq": "4", "ts": 0.0, "kind": "stage_started", "payload": {}}',
    '{"seq": true, "ts": 0.0, "kind": "stage_started", "payload": {}}',
    '{"seq": 4, "ts": true, "kind": "stage_started", "payload": {}}',
    '{"seq": 4, "ts": "0.0", "kind": "stage_started", "payload": {}}',
])
@pytest.mark.parametrize("partial", [False, True])
def test_bad_middle_line_names_its_line(run_dir, bad, partial):
    lines = _lines(run_dir)
    lines[4] = bad
    _write(run_dir, lines)
    with pytest.raises(CorruptLog, match=r"line 5\b"):
        read_log(run_dir / LOG_FILENAME, partial=partial)


def test_line_that_leaves_a_bracket_open_is_blamed_not_the_next(run_dir):
    """A line that ends inside an open bracket is the bad line, not the
    one after it."""
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


def _split_value(lines: list[str], nested: str) -> list[str]:
    """The lines with line 5 holding ``nested`` in its payload, cut into
    two lines inside it: each half on its own is not JSON."""
    event = json.loads(lines[4])
    event["payload"]["x"] = json.loads(nested)
    encoded = json.dumps(event, sort_keys=True)
    cut = encoded.index(nested) + nested.index("],") + 1
    return lines[:4] + [encoded[:cut], encoded[cut + 1:]] + lines[5:]


@pytest.mark.parametrize("nested", ["[[1], [2]]", "[[[1], [2]]]"])
def test_one_value_split_over_two_lines_is_rejected(run_dir, nested):
    """Two lines that are one value once joined, each on its own not
    JSON: the first of them is the bad line."""
    _write(run_dir, _split_value(_lines(run_dir), nested))
    with pytest.raises(CorruptLog, match=r"^bad log line 5: "):
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
    """An event reads back as the dict its line holds, its kind the
    plain string, with no other type built around it."""
    events = read_log(finished / LOG_FILENAME)
    head = events[0]
    assert type(head) is dict and sorted(head) == ["kind", "payload", "seq", "ts"]
    assert type(head["kind"]) is str and head["kind"] == EventKind.RUN_STARTED
    assert events == read_log(finished / LOG_FILENAME)


def test_seq_and_ts_read_as_an_int_and_a_float(run_dir):
    """A hand-edited line may spell ``seq`` as a float or ``ts`` as an
    int; the record reads them as the int and the float they stand for."""
    lines = _lines(run_dir)
    event = json.loads(lines[4])
    event.update(seq=4.0, ts=3)
    lines[4] = json.dumps(event)
    _write(run_dir, lines)
    read = read_log(run_dir / LOG_FILENAME)[4]
    assert type(read["seq"]) is int and read["seq"] == 4
    assert type(read["ts"]) is float and read["ts"] == 3.0


# ---- the streamed reader, line by line ----

def _replaced(lines: list[str], index: int, line: str) -> list[str]:
    return lines[:index] + [line] + lines[index + 1:]


def _head_with(lines: list[str], **payload) -> str:
    event = json.loads(lines[0])
    event["payload"].update(payload)
    return json.dumps(event, sort_keys=True)


# every log the tests above read, and a few more defects, as (lines,
# end of file) made from the lines of a finished run's log
LOGS = {
    "as written": lambda lines: (lines, "\n"),
    "old form": lambda lines: ([_old_form(line) for line in lines], "\n"),
    "blank lines": lambda lines: (["", *lines[:3], "", "   ", *lines[3:], "\t"], "\n\n"),
    **{
        f"bad middle line {i}": lambda lines, bad=bad: (_replaced(lines, 4, bad), "\n")
        for i, bad in enumerate([
            "not json at all",
            '{"seq": 4, "ts": 0.0, "kind": "node_prop',
            '{"seq": 4, "ts": 0.0, "kind": "no_such_kind", "payload": {}}',
            '{"seq": 4, "ts": 0.0, "payload": {}}',
            "[1, 2, 3]",
            '{"seq": 4, "ts": 0.0, "kind": "stage_started", "payload": {"x": [1}',
            '{"seq": 4, "ts": 0.0, "kind": "stage_started", "payload": {"x": [',
        ])
    },
    "header payload not an object": lambda lines: (
        _replaced(lines, 0, '{"kind":"run_started","payload":[],"seq":0,"ts":0.0}'), "\n"),
    "middle payload not an object": lambda lines: (
        _replaced(lines, 4, '{"kind":"stage_started","payload":[],"seq":4,"ts":0.0}'), "\n"),
    # "\udcXX" is written as the byte XX, which is not UTF-8 on its own
    "not UTF-8 middle line": lambda lines: (
        _replaced(lines, 4, lines[4][:20] + "\udcff" + lines[4][20:]), "\n"),
    **{
        f"torn last line, end {end!r}": lambda lines, end=end: (
            lines[:-1] + [lines[-1][:30]], end)
        for end in ["", "\n\n  \n"]
    },
    # a line cut after the first byte of "漢"
    "torn last line, inside a character": lambda lines: (
        lines[:-1] + [lines[-1][:30] + "\udce6"], ""),
    **{
        f"two values joined by {join!r}": lambda lines, join=join: (
            lines[:4] + [lines[4] + join + lines[5]] + lines[6:], "\n")
        for join in [" ", "", ",", "\t,  "]
    },
    **{
        f"one value split, {nested}": lambda lines, nested=nested: (
            _split_value(lines, nested), "\n")
        for nested in ["[[1], [2]]", "[[[1], [2]]]"]
    },
    "sequence gap": lambda lines: (lines[:6] + lines[7:], "\n"),
    "no header": lambda lines: (lines[1:], "\n"),
    "old schema": lambda lines: (_replaced(lines, 0, _head_with(lines, log_schema=0)), "\n"),
    "schema 1": lambda lines: (_replaced(lines, 0, _head_with(lines, log_schema=1)), "\n"),
    "no run_finished": lambda lines: (lines[:-1], "\n"),
    "bad second to last line": lambda lines: (_replaced(lines, len(lines) - 2, "{"), "\n"),
    "torn first line": lambda lines: ([lines[0][:30]], ""),
    "blank": lambda lines: (["", "  "], "\n"),
    "empty": lambda lines: ([], ""),
}


# what each log of LOGS reads as, without and with ``partial``: EVENTS,
# the json reading of each of its lines that is not blank; BUT_LAST, the
# events of the log as written but its last; or the type of the error
# raised and a pattern its message matches. "{last}" stands for the
# number of the as-written log's last line. The line numbers are those
# the reader gave when it decoded the whole log at once, but for a value
# split over two lines, which that reader named by no line.
EVENTS = "events"
BUT_LAST = "events but the last"
EMPTY = (CorruptLog, r" is empty$")


def _bad(line) -> tuple[type, str]:
    return CorruptLog, rf"^bad log line {line}: "


LOG_OUTCOMES = {
    "as written": (EVENTS, EVENTS),
    "old form": (EVENTS, EVENTS),
    "blank lines": (EVENTS, EVENTS),
    **{name: (_bad(5), _bad(5)) for name in LOGS
       if name.startswith(("bad middle line", "two values joined", "one value split"))},
    **{name: (_bad("{last}"), BUT_LAST) for name in LOGS if name.startswith("torn last line")},
    **{name: ((CorruptLog, rf"^bad log line {line}: not an event record: "
                           r"TypeError\('payload is a list, not an object'\)$"),) * 2
       for name, line in [("header payload not an object", 1),
                          ("middle payload not an object", 5)]},
    "not UTF-8 middle line": (
        (CorruptLog, r"^bad log line 5: not UTF-8 \(invalid start byte at byte 20\)$"),) * 2,
    "sequence gap": ((CorruptLog, r"^sequence gap at event 6: seq=7$"),) * 2,
    "no header": ((CorruptLog, r"^sequence gap at event 0: seq=1$"),) * 2,
    "old schema": ((LogVersionMismatch, r"^log schema 0, supported 2$"),) * 2,
    "schema 1": ((LogVersionMismatch, r"^log schema 1, supported 2$"),) * 2,
    "no run_finished": ((CorruptLog, r"^log does not end with a run_finished record$"),
                        BUT_LAST),
    "bad second to last line": (_bad("{last_but_one}"),) * 2,
    "torn first line": (_bad(1), EMPTY),
    "blank": (EMPTY, EMPTY),
    "empty": (EMPTY, EMPTY),
}


def _json_events(lines: list[str]) -> list[dict]:
    return [json.loads(line) for line in lines if line.strip()]


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("name", sorted(LOGS))
def test_small_blocks_read_as_one_block_does(run_dir, name, partial):
    """The reader decodes one line at a time, and each log reads as
    ``LOG_OUTCOMES`` pins it: the same events, or the same error naming
    the same line, as a single decode of the whole log gave. The name is
    kept from the reader that decoded the log in blocks, whose every
    block size had to match that single decode."""
    written = _lines(run_dir)
    lines, end = LOGS[name](written)
    path = run_dir / LOG_FILENAME
    path.write_text("\n".join(lines) + end if lines else end, encoding="utf-8",
                    errors="surrogateescape")
    expected = LOG_OUTCOMES[name][partial]
    if expected == EVENTS:
        assert read_log(path, partial=partial) == _json_events(lines)
    elif expected == BUT_LAST:
        assert read_log(path, partial=partial) == _json_events(written)[:-1]
    else:
        error, pattern = expected
        with pytest.raises(error) as raised:
            read_log(path, partial=partial)
        assert type(raised.value) is error
        assert re.search(pattern.format(last=len(written), last_but_one=len(written) - 1),
                         str(raised.value))


@pytest.fixture(scope="module")
def multibyte_log(finished, tmp_path_factory) -> Path:
    """The finished run's log with multi-byte UTF-8 text in every idea,
    as an LLM's ideas may hold it."""
    records = [json.loads(line) for line in _lines(finished)]
    for record in records:
        if record["kind"] == EventKind.NODE_PROPOSED:
            record["payload"]["node"]["idea_text"] += " é ß 漢字 🌳"
    path = tmp_path_factory.mktemp("multibyte") / LOG_FILENAME
    path.write_bytes(b"".join(encode_json(record) + b"\n" for record in records))
    return path


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_log_cut_anywhere_reads_up_to_its_last_whole_line(multibyte_log, data):
    """A log cut at any byte, as a crash leaves it, inside a multi-byte
    character too, reads with ``partial`` as the events of its whole
    lines; a line that is whole when the file ends without its newline
    counts. Without ``partial`` the cut log raises. A bad line anywhere
    but last still raises, naming its line, with ``partial`` too."""
    written = multibyte_log.read_bytes()
    full = read_log(multibyte_log)
    # a cut before the last line's end, which a crash leaves unfinished;
    # half of the cuts fall inside a character, before a continuation byte
    end = len(written.rstrip(b"\n"))
    inside = [i for i in range(end) if 0x80 <= written[i] < 0xC0]
    cut = data.draw(st.one_of(st.integers(0, end - 1), st.sampled_from(inside)), label="cut")
    kept = written[:cut]
    # a line counts when its text is all there, newline or not: when the
    # newline that ends it is at the cut or before it
    whole = written.count(b"\n", 0, cut + 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / LOG_FILENAME
        path.write_bytes(kept)
        with pytest.raises(CorruptLog):
            read_log(path)
        if whole == 0:
            with pytest.raises(CorruptLog, match="is empty"):
                read_log(path, partial=True)
            return
        assert read_log(path, partial=True) == full[:whole]
        lines = kept.split(b"\n")
        last = max(i for i, line in enumerate(lines) if line.strip())
        if last == 0:
            return
        bad = data.draw(st.integers(0, last - 1), label="bad line index")
        lines[bad] = b"not json at all"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(CorruptLog, match=rf"^bad log line {bad + 1}:"):
            read_log(path, partial=True)


# ---- verify_replay's comparison ----

def _verify_with_snapshot(run_dir: Path, document: bytes) -> bool:
    (run_dir / FINAL_SNAPSHOT_FILENAME).write_bytes(document)
    return verify_replay(run_dir)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_replay_sees_any_changed_byte(finished, data):
    """The piecewise comparison finds a one-byte change anywhere in the
    final snapshot, at its first and last byte too."""
    document = (finished / FINAL_SNAPSHOT_FILENAME).read_bytes()
    offset = data.draw(st.one_of(st.sampled_from((0, len(document) - 1)),
                                 st.integers(0, len(document) - 1)), label="offset")
    changed = document[:offset] + bytes([document[offset] ^ 1]) + document[offset + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        shutil.copytree(finished, run_dir)
        assert _verify_with_snapshot(run_dir, document)
        assert not _verify_with_snapshot(run_dir, changed)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_verify_replay_sees_a_truncated_snapshot_or_trailing_bytes(finished, data):
    document = (finished / FINAL_SNAPSHOT_FILENAME).read_bytes()
    length = data.draw(st.integers(0, len(document) - 1), label="length")
    trailing = data.draw(st.sampled_from((b" ", b"\n", b"x", b"\x00", document)),
                         label="trailing")
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        shutil.copytree(finished, run_dir)
        assert not _verify_with_snapshot(run_dir, document[:length])
        assert not _verify_with_snapshot(run_dir, document + trailing)


def _cut_last_byte(document: bytes, end: int) -> bytes:
    return document[:end - 1] + document[end:]


def _add_a_byte(document: bytes, end: int) -> bytes:
    return document[:end] + b" " + document[end:]


def _change_a_byte(document: bytes, end: int) -> bytes:
    return document[:end - 1] + bytes([document[end - 1] ^ 1]) + document[end:]


@pytest.mark.parametrize("edit", [_cut_last_byte, _add_a_byte, _change_a_byte])
@pytest.mark.parametrize("where", ["the document", "the last chunk"])
def test_verify_replay_sees_an_edit_at_the_end_of_the_last_chunk(finished, tmp_path,
                                                                 monkeypatch, edit, where):
    """With chunks of eight nodes, so that the run's snapshot has
    several: its last byte cut, a byte added or a byte changed, at the
    end of the document or of its last chunk, fails the comparison."""
    monkeypatch.setattr(tree_module, "SNAPSHOT_CHUNK", 8)
    run_dir = tmp_path / "run"
    shutil.copytree(finished, run_dir)
    document = (run_dir / FINAL_SNAPSHOT_FILENAME).read_bytes()
    pieces = list(replay(run_dir / LOG_FILENAME).snapshot_pieces())
    assert len(pieces) > 4 and b"".join(pieces) == document
    end = len(document) if where == "the document" else len(document) - len(pieces[-1])
    assert verify_replay(run_dir)
    assert not _verify_with_snapshot(run_dir, edit(document, end))


# ---- the decoder: orjson, and json where orjson refuses ----

def _sorted_keys(value):
    """``value`` with every dict's keys in sorted order, as the writer's
    ``sort_keys`` leaves them in the file."""
    if isinstance(value, dict):
        return {key: _sorted_keys(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_sorted_keys(item) for item in value]
    return value


_WRITTEN_SCALARS = st.one_of(
    st.none(), st.booleans(), st.text(),
    st.sampled_from(("\x00\x1f\x7f\n\t\"\\", "é ß 漢字 🌳 \u2028")),
    st.sampled_from((-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                     1e16, 1e17, 0.1)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2**63, 2**64 - 1), st.sampled_from((-2**63, 2**63 - 1, 2**63, 2**64 - 1)),
)
_WRITTEN_PAYLOADS = st.dictionaries(
    st.text().filter(lambda key: key not in ("self", "kind")),
    st.recursive(
        _WRITTEN_SCALARS,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=12,
    ),
    max_size=4,
)


def _written_run(path: Path, payloads) -> list[dict]:
    """A log holding a header, one event per payload and a terminal
    record, flushed in two parts; returns the payloads as written."""
    log = RunLog(path=path)
    written = [log.append(EventKind.RUN_STARTED)["payload"]]
    for i, payload in enumerate(payloads):
        written.append(log.append(EventKind.STAGE_STARTED, **payload)["payload"])
        if i == len(payloads) // 2:
            log.flush()
    written.append(log.append(EventKind.RUN_FINISHED)["payload"])
    log.close()
    return written


@settings(max_examples=150, deadline=None)
@given(st.lists(_WRITTEN_PAYLOADS, max_size=6))
def test_what_the_writer_writes_reads_back_the_same(payloads):
    """Payloads the writer can produce read back equal value for value,
    by ``repr``, so 0.0 and -0.0, 1 and 1.0 and True, the extreme
    doubles and the 64-bit integers stay what they were."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / LOG_FILENAME
        written = _written_run(path, payloads)
        read = read_log(path)
    assert [repr(event["payload"]) for event in read] == [repr(_sorted_keys(p)) for p in written]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.5, {"x": -math.inf}]])
def test_non_finite_payloads_read_back_through_json(tmp_path, monkeypatch, value):
    """The writer refuses a non-finite float, but a log edited by hand
    may spell one as ``NaN`` or ``Infinity``, which orjson refuses, so
    its line is read by json."""
    path = tmp_path / LOG_FILENAME
    written = _written_run(path, [{"value": 0}])
    lines = path.read_text(encoding="utf-8").splitlines()
    event = json.loads(lines[1])
    event["payload"]["value"] = value
    lines[1] = json.dumps(event)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
    read = read_log(path)
    assert len(calls) == 1
    assert repr(read[1]["payload"]) == repr({"value": value})
    assert [e["payload"] for e in read[2:]] == written[2:]


@pytest.mark.parametrize("text", [
    "NaN", "[Infinity, -Infinity]", "1e400", "-1e400", '{"a": [1e999]}',
    '"\\ud800"', '{"\\udc00": "x\\ud83c"}', '"\ud800"',
])
def test_decode_json_reads_what_orjson_refuses_as_json_does(text):
    assert repr(decode_json(text)) == repr(json.loads(text))


@pytest.mark.parametrize("text", [
    "", "{", "[1,]", "not json", '{"a" 1}', '"\x01"', "[1] [2]", '{"a": [1}', "\ufeff[]",
])
def test_decode_json_raises_jsons_error(text):
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as raised:
        decode_json(text)
    assert type(raised.value) is json.JSONDecodeError
    assert str(raised.value) == str(expected.value)
    assert (raised.value.lineno, raised.value.colno) == (expected.value.lineno,
                                                         expected.value.colno)


@pytest.fixture(scope="module")
def grow_log(tmp_path_factory) -> Path:
    """The log of the benchmark's grow-25k run of seed 1 (2 MB)."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(bench))
        workloads = importlib.import_module("workloads")
    config = RunConfig.from_dict(workloads.run_config(workloads.WORKLOADS["grow-25k"], seed=1))
    out = tmp_path_factory.mktemp("grow-25k") / "run"
    execute_run(config, build_synthetic_ports(config), out)
    return out / LOG_FILENAME


def test_decode_json_equals_json_on_every_line_of_a_grow_run(grow_log):
    lines = grow_log.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 8000
    for line in lines:
        assert repr(decode_json(line)) == repr(json.loads(line))
    block = "[[" + "],\n[".join(lines) + "]]"
    assert repr(decode_json(block)) == repr(json.loads(block))
