"""Append-only run log: structured, strictly ordered events.

Every state change in a run is recorded as one event, so the log is the
run's only per-stage record: the final tree, or the tree at any
checkpoint, is rebuilt from the log alone (see orchestrator.replay and
orchestrator.replay_events), and reports are derived from it. A
checkpoint is a position in the log, the ``checkpoint_written`` event
after a stage; the events before it rebuild the tree as it was then.

Reading a run back (``read_log``, ``orchestrator.replay`` and
``verify_replay``, ``report.progress_report`` and ``run_summary``,
``IdeationTree.restore``) runs under ``collector_paused``: a read keeps
what it decodes until it returns, so a cyclic collection during it
would walk every record and free none. Writing a run does not pause the
collector, since ports may run user code and threads.
"""

from __future__ import annotations

import functools
import gc
import json
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import IO, Callable, NamedTuple, Optional, Sequence, TypeVar

from .errors import CorruptLog, LogVersionMismatch

LOG_SCHEMA_VERSION = 1

T = TypeVar("T")

# the log file in a run directory
LOG_FILENAME = "run.jsonl"


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
    DEBUG_ATTEMPT = "debug_attempt"
    CHECKPOINT_WRITTEN = "checkpoint_written"
    BUDGET_EXHAUSTED = "budget_exhausted"
    RUN_FINISHED = "run_finished"


# EventKind by its value, so that decoding a log calls no Enum(value)
_KINDS = {kind.value: kind for kind in EventKind}

# raises TypeError for a value JSON cannot hold, as json.dumps does
_unencodable = json.JSONEncoder().default


def _encode_lines(events: Sequence[Event]) -> list[str]:
    """Each event's log line, without its newline: the bytes of
    ``json.dumps(record, sort_keys=True)``.

    One C encoder, the one json.dumps itself uses, is built for the
    call, with json.dumps's default settings, sorted keys and a fresh
    circular-reference ``markers`` dict: after an error the encoder
    leaves stale entries in it, so it is never shared between calls."""
    encode = c_make_encoder({}, _unencodable, encode_basestring_ascii, None,
                            ": ", ", ", True, False, True)
    return [
        "".join(encode({"kind": e.kind.value, "payload": e.payload, "seq": e.seq, "ts": e.ts}, 0))
        for e in events
    ]


class Event(NamedTuple):
    seq: int
    ts: float
    kind: EventKind
    payload: dict

    def to_json(self) -> str:
        return _encode_lines((self,))[0]


class RunLog:
    """The events of a run not yet written, with an optional file sink
    (one JSON object per line).

    ``flush`` writes every pending event and drops it, so a log with a
    file holds only the events of the stage in progress; ``read_log``
    reads the run's history back from the file. A log without a file
    writes nothing and keeps every event it was given. ``seq`` comes
    from a counter, so it stays contiguous across flushes and closes.

    The first flush opens the file with ``"w"``, so a run into an
    existing run directory does not add its events to the old run's,
    and the handle then stays open until ``close``. A flush encodes
    every pending line before its one write, so a flush that fails to
    encode writes nothing and keeps its events, and a flush retried
    after it cannot write a line twice."""

    def __init__(self, clock=None, path: Optional[Path] = None):
        self.events: list[Event] = []
        self.clock = clock
        self.path = Path(path) if path is not None else None
        self._seq = 0
        self._opened = False
        self._fh: Optional[IO[str]] = None

    def append(self, kind: EventKind, **payload) -> Event:
        ts = float(self.clock.elapsed()) if self.clock is not None else 0.0
        if kind is EventKind.RUN_STARTED:
            payload.setdefault("log_schema", LOG_SCHEMA_VERSION)
        event = Event(self._seq, ts, kind, payload)
        self._seq += 1
        self.events.append(event)
        return event

    def flush(self) -> None:
        if self.path is None:
            return
        lines = _encode_lines(self.events)
        text = "\n".join(lines) + "\n" if lines else ""
        if self._fh is None:
            if not self._opened:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            # a log closed and then flushed again is appended to
            self._fh = self.path.open("a" if self._opened else "w", encoding="utf-8")
            self._opened = True
        self._fh.write(text)
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


def _decode_events(text: str) -> list[Event]:
    """The events of the log text, in one decode of the whole text.

    Each line is wrapped in brackets and the lines joined by commas
    inside an outer array, keeping every newline, so the decoder's line
    numbers are the file's. A blank line decodes to an empty array and
    is skipped; a line holding one JSON value decodes to a one-element
    array. A newline inside a string is invalid JSON, so the added
    brackets are never string content, and a decode error is reported
    on the line where the decoder found it. Raises CorruptLog."""
    try:
        lines = json.loads("[[" + text.replace("\n", "],\n[") + "]]")
    except json.JSONDecodeError as exc:
        # an error at a line's opening bracket (column 1) is the
        # previous line's: it left the decoder where no array may start
        raise CorruptLog(f"bad log line {exc.lineno - (exc.colno == 1)}: {exc.msg}") from None
    if len(lines) != text.count("\n") + 1:
        # unbalanced brackets in some line's text moved the line breaks
        raise CorruptLog("the log's lines do not hold one JSON value each")
    events: list[Event] = []
    append = events.append
    for number, values in enumerate(lines, 1):
        if not values:
            continue
        try:
            (d,) = values
            append(Event(int(d["seq"]), float(d["ts"]), _KINDS[d["kind"]], d["payload"]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(values, list) and len(values) > 1:
                reason = f"{len(values)} JSON values on one line"
            else:
                reason = f"not an event record: {exc!r}"
            raise CorruptLog(f"bad log line {number}: {reason}") from None
    return events


@collector_paused()
def read_log(path: Path, *, partial: bool = False) -> list[Event]:
    """Load and verify a log file: valid JSON lines, one event each,
    contiguous sequence numbers from zero, a versioned header, and a
    terminal record. Blank lines are skipped.

    With ``partial`` the log of a crashed or killed run is read too: a
    missing ``run_finished`` is accepted, and a last line that is not an
    event, torn by the crash, is dropped. Any other defect still raises
    CorruptLog, naming the line. The read runs with the garbage
    collector paused (``collector_paused``)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        events = _decode_events(text)
    except CorruptLog:
        if not partial:
            raise
        # the crash may have torn the last line; the lines before it
        # must read, so a bad line anywhere else still raises
        kept = text.rstrip()
        events = _decode_events(kept[:kept.rfind("\n") + 1])
    if not events:
        raise CorruptLog(f"{path} is empty")
    if [event.seq for event in events] != list(range(len(events))):
        i = next(i for i, event in enumerate(events) if event.seq != i)
        raise CorruptLog(f"sequence gap at event {i}: seq={events[i].seq}")
    head = events[0]
    if head.kind is not EventKind.RUN_STARTED:
        raise CorruptLog("log does not begin with a run_started record")
    version = head.payload.get("log_schema")
    if version != LOG_SCHEMA_VERSION:
        raise LogVersionMismatch(f"log schema {version!r}, supported {LOG_SCHEMA_VERSION}")
    if not partial and events[-1].kind is not EventKind.RUN_FINISHED:
        raise CorruptLog("log does not end with a run_finished record")
    return events
