"""Append-only run log: structured, strictly ordered events.

Every state change in a run is recorded as one event, so the log is the
run's only per-stage record: the final tree, or the tree at any
checkpoint, is rebuilt from the log alone (see orchestrator.replay and
orchestrator.replay_events), and reports are derived from it. A
checkpoint is a position in the log, the ``checkpoint_written`` event
after a stage; the events before it rebuild the tree as it was then.

An event is one record, the same dict in memory and on disk:
``{"kind": str, "payload": dict, "seq": int, "ts": float}``, its kind
the ``EventKind`` value as a plain string. ``RunLog.append`` builds it,
``RunLog.flush`` writes it as one line, and ``iter_log`` yields the dict
that line decodes to, so readers dispatch on ``record["kind"]`` and no
other event type is built on either side.

A run is read back as a stream: ``iter_log`` decodes the log one line
at a time and yields each record once its line has passed the reader's
checks, so a reader that keeps only what it builds
(``orchestrator.replay``, ``report.progress_report`` and
``run_summary``) never holds the whole log; ``read_log`` is the same
stream as a list.

The log and the snapshot have one codec. ``encode_json`` writes each
record as orjson's UTF-8 JSON with sorted keys and no whitespace, and
raises for what it cannot write back exactly: a non-finite float, an
integer beyond 64 bits, a lone surrogate, a type JSON cannot hold.
``decode_json`` reads a snapshot, and ``iter_log`` each log line, the
same way: orjson decodes, and json decodes again only text that orjson
refuses, to raise json's error for a bad line or to read a value orjson
cannot (``NaN``, ``Infinity``, lone surrogates), as a hand-edited file
may hold. A log line that is not UTF-8 is a bad line. A log of an
older schema (``LOG_SCHEMA_VERSION``) is refused, not read.

Reading a run back (``read_log``, ``orchestrator.replay`` and
``verify_replay``, ``report.progress_report`` and ``run_summary``,
``IdeationTree.restore``) runs under ``collector_paused``: a read keeps
what it builds until it returns, so a cyclic collection during it
would walk every record and free none. The pause wraps the consumer of
a generator, the function that walks ``iter_log`` to its end, never the
generator itself: a decorated generator function returns its generator
at once, and its pause would end before the first record is read.
Writing a run does not pause the collector, since ports may run user
code and threads.
"""

from __future__ import annotations

import functools
import gc
import json
from enum import Enum
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Optional, TypeVar

import orjson

from .errors import CorruptLog, LogVersionMismatch

LOG_SCHEMA_VERSION = 2

T = TypeVar("T")

# the log file in a run directory
LOG_FILENAME = "run.jsonl"

# the bytes JSON counts as whitespace: a log line of these alone is
# blank, and ``iter_log`` skips it
_JSON_WHITESPACE = b" \t\n\r"


class EventKind(str, Enum):
    RUN_STARTED = "run_started"
    STAGE_STARTED = "stage_started"
    STAGE_FINISHED = "stage_finished"
    SKIPPED_STAGE = "skipped_stage"
    NODE_PROPOSED = "node_proposed"
    NODE_EVALUATED = "node_evaluated"
    PREDICTION_MADE = "prediction_made"
    MERGE_ATTEMPTED = "merge_attempted"
    MEMORY_PROMOTED = "memory_promoted"
    CHECKPOINT_WRITTEN = "checkpoint_written"
    BUDGET_EXHAUSTED = "budget_exhausted"
    RUN_FINISHED = "run_finished"


# the kinds a log record may hold, as the strings it holds them
_KIND_VALUES = frozenset(kind.value for kind in EventKind)
_RUN_STARTED = EventKind.RUN_STARTED.value
_RUN_FINISHED = EventKind.RUN_FINISHED.value
# stands for a line orjson refused, which json decodes again
_REFUSED = object()


class RunLog:
    """The event records of a run not yet written, with an optional file
    sink (one record per line).

    ``flush`` writes every pending event and drops it, so a log with a
    file holds only the events of the stage in progress; ``read_log``
    reads the run's history back from the file. A log without a file
    writes nothing and keeps every event it was given. ``append``
    returns the record it queued, which ``flush`` encodes as it is, so
    the record a reader gets back from the file equals it. ``seq`` comes
    from a counter, so it stays contiguous across flushes and closes.

    The first flush opens the file with ``"w"``, so a run into an
    existing run directory does not add its events to the old run's,
    and the handle then stays open until ``close``. A flush encodes
    every pending line with ``encode_json`` before its one write, so a
    flush that fails to encode writes nothing and keeps its events, and
    a flush retried after it cannot write a line twice."""

    def __init__(self, clock=None, path: Optional[Path] = None):
        self.events: list[dict] = []
        self.clock = clock
        self.path = Path(path) if path is not None else None
        self._seq = 0
        self._opened = False
        self._fh: Optional[IO[bytes]] = None

    def append(self, kind: EventKind, **payload) -> dict:
        ts = float(self.clock.elapsed()) if self.clock is not None else 0.0
        # ``_value_`` skips the Enum ``value`` property's descriptor call
        value = kind._value_
        if value == _RUN_STARTED:
            payload.setdefault("log_schema", LOG_SCHEMA_VERSION)
        record = {"kind": value, "payload": payload, "seq": self._seq, "ts": ts}
        self._seq += 1
        self.events.append(record)
        return record

    def flush(self) -> None:
        if self.path is None:
            return
        data = b"".join(encode_json(record) + b"\n" for record in self.events)
        if self._fh is None:
            if not self._opened:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            # a log closed and then flushed again is appended to
            self._fh = self.path.open("ab" if self._opened else "wb")
            self._opened = True
        self._fh.write(data)
        self._fh.flush()
        self.events = []

    def close(self) -> None:
        """Flush what is pending, then close the file, even when the
        flush fails."""
        try:
            self.flush()
        finally:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class collector_paused:
    """Pause the cyclic garbage collector, if it runs, for the body of a
    ``with collector_paused():`` block, or, as the decorator
    ``@collector_paused()``, for each call of the function.

    A read of a run keeps every record it decodes until it returns, so
    a collection during it frees nothing, yet each one walks the records
    made so far, and a gen-2 collection the whole heap. The collector is
    restored as it was found, also when the body raises, and a nested
    pause leaves it paused until the outermost one ends. Objects freed
    inside the pause lower the collector's allocation count again, so a
    read that drops what it built leaves no collection due; one that
    returns its records is collected once, after it returns. The switch
    is process-wide: another thread's cyclic garbage waits for the end
    of the pause.

    It is a class, not a ``contextlib.contextmanager``, whose exit
    allocates a StopIteration after the collector is back on: here
    nothing is allocated after that, so no collection starts before a
    decorated call has returned."""

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._enabled:
            gc.enable()

    def __call__(self, func: Callable[..., T]) -> Callable[..., T]:
        @functools.wraps(func)
        def paused(*args, **kwargs) -> T:
            with collector_paused():
                return func(*args, **kwargs)

        return paused


def encode_json(value: Any) -> bytes:
    """The JSON text of ``value`` as UTF-8 bytes, keys sorted at every
    level and no whitespace: the one encoder of the log and the
    snapshot, paired with ``decode_json``.

    orjson encodes, and its TypeError is let through: for a type JSON
    cannot hold (a set, a numpy scalar), a non-``str`` key, an integer
    outside [-2**63, 2**64), a lone surrogate, or a circular value.
    orjson writes NaN and the infinities as ``null``, so output holding
    ``null`` is checked again by json, which raises ValueError for a
    non-finite float; a record with no None in it skips the check."""
    data = orjson.dumps(value, option=orjson.OPT_SORT_KEYS)
    if b"null" in data:
        json.dumps(value, allow_nan=False)
    return data


def decode_json(text: str) -> Any:
    """The value of a JSON text, as ``json.loads`` reads it: decoded by
    orjson, or by json where orjson refuses the text.

    json therefore raises every decode error, with its own message and
    position, and reads what orjson refuses but json accepts: the
    ``NaN`` and ``Infinity`` literals, numbers that overflow a double
    (``1e400``) and lone surrogates. The one difference left is that
    orjson decodes an integer outside [-2**63, 2**64) as a float;
    ``encode_json`` writes none."""
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return json.loads(text)


def iter_log(path: Path, *, partial: bool = False) -> Iterator[dict]:
    """The event records of a log file, read and verified one line at a
    time: valid UTF-8 JSON lines, one event record each, contiguous
    sequence numbers from zero, a versioned header, and a terminal
    record. Lines of JSON whitespace alone are skipped.

    With ``partial`` the log of a crashed or killed run is read too: a
    missing ``run_finished`` is accepted, and a last line that is not an
    event, torn by the crash (inside a UTF-8 character too), is dropped.
    A bad line followed by another line that is not blank still raises.
    Every defect raises CorruptLog, naming the line, counted from the
    start of the file.

    Each record is yielded once its line has passed these checks, so a
    reader holds one line of the log at a time, and a defect is raised
    when the read reaches it, after the records before it. The file is
    opened at the first ``next``. This is a generator: pause the
    collector around the loop that consumes it, not on it (see the
    module docstring).

    The file is read as bytes, so only ``\\n`` ends a line. orjson
    decodes each line's bytes, and json decodes again, from UTF-8, only
    a line that orjson refuses, as ``decode_json`` does. A record is the
    dict its line decodes to, with its ``kind`` the string the line
    holds. Its ``seq`` is an int or an integral float (``4.0`` reads as
    ``4``) and its ``ts`` an int or a float (``1`` reads as ``1.0``),
    converted in place; any other value makes the line bad. So the
    records equal ``json.loads``'s reading of each line, those two
    fields converted, but for one difference: an integer outside
    [-2**63, 2**64) decodes as a float."""
    path = Path(path)
    loads = orjson.loads
    expected = 0  # the seq of the next record
    last: Optional[dict] = None
    # with ``partial``, the error of a bad line, raised if a line follows it
    torn: Optional[CorruptLog] = None
    with path.open("rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                record = loads(line)
            except orjson.JSONDecodeError:
                if not line.strip(_JSON_WHITESPACE):
                    continue
                record = _REFUSED
            if torn is not None:
                # the bad line is not the last, so no crash tore it
                raise torn
            try:
                if record is _REFUSED:
                    record = json.loads(line.decode("utf-8"))
                seq = record["seq"]
                if type(seq) is not int:
                    if type(seq) is not float or not seq.is_integer():
                        raise TypeError(f"seq {seq!r} is not an integer")
                    seq = record["seq"] = int(seq)
                if type(record["ts"]) is not float:
                    if type(record["ts"]) is not int:
                        raise TypeError(f"ts {record['ts']!r} is not a number")
                    record["ts"] = float(record["ts"])
                kind = record["kind"]
                if kind not in _KIND_VALUES:
                    raise KeyError(kind)
                payload = record["payload"]
                if type(payload) is not dict:
                    raise TypeError(f"payload is a {type(payload).__name__}, not an object")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                if isinstance(exc, json.JSONDecodeError):
                    reason = exc.msg
                elif isinstance(exc, UnicodeDecodeError):
                    reason = f"not UTF-8 ({exc.reason} at byte {exc.start})"
                else:
                    reason = f"not an event record: {exc!r}"
                torn = CorruptLog(f"bad log line {number}: {reason}")
                if not partial:
                    raise torn from None
                continue
            if seq != expected:
                raise CorruptLog(f"sequence gap at event {expected}: seq={seq}")
            if expected == 0:
                if kind != _RUN_STARTED:
                    raise CorruptLog("log does not begin with a run_started record")
                version = payload.get("log_schema")
                if version != LOG_SCHEMA_VERSION:
                    raise LogVersionMismatch(
                        f"log schema {version!r}, supported {LOG_SCHEMA_VERSION}")
            expected += 1
            last = record
            yield record
    if last is None:
        raise CorruptLog(f"{path} is empty")
    if not partial and last["kind"] != _RUN_FINISHED:
        raise CorruptLog("log does not end with a run_finished record")


@collector_paused()
def read_log(path: Path, *, partial: bool = False) -> list[dict]:
    """Every event record of a log file, as ``iter_log`` reads and
    verifies them, in a list; raises what ``iter_log`` raises. The read
    runs with the garbage collector paused (``collector_paused``)."""
    return list(iter_log(path, partial=partial))
