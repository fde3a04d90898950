"""Append-only run log: structured, strictly ordered events.

Every state change in a run is recorded as one event, so the log is the
run's only per-stage record: the final tree, or the tree at any
checkpoint, is rebuilt from the log alone (see orchestrator.replay and
orchestrator.replay_events), and reports are derived from it. A
checkpoint is a position in the log, the ``checkpoint_written`` event
after a stage; the events before it rebuild the tree as it was then.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

from .errors import CorruptLog, LogVersionMismatch

LOG_SCHEMA_VERSION = 1

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


@dataclass(frozen=True)
class Event:
    seq: int
    ts: float
    kind: EventKind
    payload: dict

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "ts": self.ts, "kind": self.kind.value, "payload": self.payload},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        try:
            d = json.loads(line)
            return cls(seq=int(d["seq"]), ts=float(d["ts"]), kind=EventKind(d["kind"]), payload=d["payload"])
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise CorruptLog(f"bad log line: {exc}") from exc


class RunLog:
    """In-memory event list with an optional file sink (one JSON object
    per line). ``flush`` writes everything not yet written; the first
    flush replaces the file, so a run into an existing run directory
    does not add its events to the old run's."""

    def __init__(self, clock=None, path: Optional[Path] = None):
        self.events: list[Event] = []
        self.clock = clock
        self.path = Path(path) if path is not None else None
        self._flushed = 0

    def append(self, kind: EventKind, **payload) -> Event:
        ts = float(self.clock.elapsed()) if self.clock is not None else 0.0
        if kind is EventKind.RUN_STARTED:
            payload.setdefault("log_schema", LOG_SCHEMA_VERSION)
        event = Event(seq=len(self.events), ts=ts, kind=kind, payload=payload)
        self.events.append(event)
        return event

    def flush(self) -> None:
        if self.path is None:
            return
        if self._flushed == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a" if self._flushed else "w", encoding="utf-8") as fh:
            for event in self.events[self._flushed:]:
                fh.write(event.to_json() + "\n")
        self._flushed = len(self.events)

    def of_kind(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]


def read_log(path: Path, *, partial: bool = False) -> list[Event]:
    """Load and verify a log file: valid JSON lines, contiguous sequence
    numbers from zero, a versioned header, and a terminal record.

    With ``partial`` the log of a crashed or killed run is read too: a
    missing ``run_finished`` is accepted, and a last line that does not
    decode, torn by the crash, is dropped. Any other defect still raises
    CorruptLog."""
    path = Path(path)
    events: list[Event] = []
    torn: Optional[CorruptLog] = None
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if torn is not None:
                # the bad line was not the last
                raise torn
            try:
                events.append(Event.from_json(line))
            except CorruptLog as exc:
                if not partial:
                    raise
                torn = exc
    if not events:
        raise CorruptLog(f"{path} is empty")
    for i, event in enumerate(events):
        if event.seq != i:
            raise CorruptLog(f"sequence gap at line {i}: seq={event.seq}")
    head = events[0]
    if head.kind is not EventKind.RUN_STARTED:
        raise CorruptLog("log does not begin with a run_started record")
    version = head.payload.get("log_schema")
    if version != LOG_SCHEMA_VERSION:
        raise LogVersionMismatch(f"log schema {version!r}, supported {LOG_SCHEMA_VERSION}")
    if not partial and events[-1].kind is not EventKind.RUN_FINISHED:
        raise CorruptLog("log does not end with a run_finished record")
    return events
