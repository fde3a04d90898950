"""Post-run analysis over event logs: per-iteration progress tables,
cross-run comparisons, and standing against a human leaderboard.

Every number here is recomputed from ``run.jsonl`` alone. The other run
artifacts (result.json, snapshots) are conveniences; reports must not
need them, so a log shipped on its own stays fully analyzable. A report
walks the log once, as a stream (``events.iter_log``), keeping only its
tallies and rows. The log of a crashed run is read up to its last whole
line; its progress rows end before the last iteration the log reaches,
which the crash may have cut short.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .errors import CorruptLog, MalformedLeaderboardFile, MissingRunArtifacts
from .events import LOG_FILENAME, EventKind, collector_paused, iter_log
# read_log stays importable here for bench/rep.py, whose --trace 1
# patches it by this name
from .events import read_log  # noqa: F401
from .tree import MetricDirection, MetricSpec, NodeLevel, NodeStatus, ProvenanceKind


@dataclass(frozen=True)
class ReportRow:
    """Search state at the end of one loop iteration.

    ``elapsed`` is in whatever units the run's clock used: wall minutes
    for real runs, cost units for simulated ones. Iteration 0 is the
    state right after initialization. ``merged_count`` counts nodes of
    any level created by recombination.
    """

    iteration: int
    elapsed: float
    best_oriented_score: Optional[float]
    fe_count: int
    mt_count: int
    merged_count: int


# node fields as the log holds them
_FE = NodeLevel.FE.value
_MT = NodeLevel.MT.value
_MERGED = ProvenanceKind.MERGED.value
_EVALUATED = NodeStatus.EVALUATED.value
_STAGE_STARTED = EventKind.STAGE_STARTED.value
_RUN_FINISHED = EventKind.RUN_FINISHED.value


class _LogWalk:
    """Running tallies, and the progress rows, while scanning a log
    front to back.

    ``feed`` hands each event record's payload to the handler for its
    kind, in ``_HANDLERS``, keyed by the kind string the record holds;
    node fields are compared as the strings the log holds too, so a scan
    builds no enum members.

    ``rows`` gets one row per iteration, plus row 0 for the initialized
    tree. A row captures the state just before the next iteration's
    first stage starts (or at RunFinished for the last, after which no
    row is added). Best score is oriented, so the non-decreasing
    invariant holds for either metric direction."""

    def __init__(self) -> None:
        self.rows: list[ReportRow] = []
        # the last iteration with a row; None once run_finished is fed
        self._rowed: Optional[int] = -1
        self.metric: Optional[MetricSpec] = None
        self.seed: Optional[int] = None
        self.budget: Optional[float] = None
        self.fe_count = 0
        self.mt_count = 0
        self.merged_count = 0
        self.best_oriented: Optional[float] = None
        self.best_node_id: Optional[int] = None
        self.best_raw: Optional[float] = None
        self.evaluations = 0
        self.failures = 0
        self.predictions = 0
        self.merges_attempted = 0
        self.merges_succeeded = 0
        self.skipped_stages = 0
        self.iterations = 0
        self.budget_exhausted = False
        self.elapsed = 0.0

    def _offer_score(self, node_id: int, raw: Optional[float]) -> None:
        if raw is None or self.metric is None:
            return
        oriented = self.metric.orient(raw)
        if self.best_oriented is None or oriented > self.best_oriented:
            self.best_oriented = oriented
            self.best_node_id = node_id
            self.best_raw = raw

    def feed(self, event: dict) -> None:
        kind, payload, ts = event["kind"], event["payload"], event["ts"]
        if kind == _STAGE_STARTED and self._rowed is not None:
            iteration = payload["iteration"]
            if iteration > self._rowed + 1:
                # ``elapsed`` is still the previous event's stamp
                self.rows.append(self.row(iteration - 1, self.elapsed))
                self._rowed = iteration - 1
        self.elapsed = ts
        handler = _HANDLERS.get(kind)
        if handler is not None:
            handler(self, payload)
        if kind == _RUN_FINISHED and self._rowed is not None:
            self.rows.append(self.row(self._rowed + 1, ts))
            self._rowed = None

    def _run_started(self, payload: dict) -> None:
        self.metric = MetricSpec.from_dict(payload["metric"])
        self.seed = payload.get("seed")
        self.budget = payload.get("budget_minutes")

    def _node_proposed(self, payload: dict) -> None:
        node = payload["node"]
        level = node["level"]
        if level == _FE:
            self.fe_count += 1
        elif level == _MT:
            self.mt_count += 1
        if node["provenance"]["kind"] == _MERGED:
            self.merged_count += 1
        # resampled copies arrive already scored
        if node["status"] == _EVALUATED:
            self._offer_score(node["id"], node.get("raw_score"))

    def _node_evaluated(self, payload: dict) -> None:
        if payload["status"] == _EVALUATED:
            self.evaluations += 1
            self._offer_score(payload["node_id"], payload.get("raw_score"))
        else:
            self.failures += 1

    def _prediction_made(self, payload: dict) -> None:
        self.predictions += 1

    def _merge_attempted(self, payload: dict) -> None:
        self.merges_attempted += 1
        if payload.get("outcome") == "success":
            self.merges_succeeded += 1

    def _skipped_stage(self, payload: dict) -> None:
        self.skipped_stages += 1

    def _stage_started(self, payload: dict) -> None:
        self.iterations = max(self.iterations, payload["iteration"])

    def _budget_exhausted(self, payload: dict) -> None:
        self.budget_exhausted = True

    def _run_finished(self, payload: dict) -> None:
        self.iterations = payload["iterations"]
        self.budget_exhausted = payload["budget_exhausted"]

    def summary(self, run_dir: Path) -> dict:
        """The whole-run summary of the run in ``run_dir`` as walked."""
        run_dir = Path(run_dir)
        return {
            "run_dir": str(run_dir),
            "label": run_dir.name,
            "seed": self.seed,
            "budget": self.budget,
            "metric": self.metric.to_dict() if self.metric else None,
            "iterations": self.iterations,
            "budget_exhausted": self.budget_exhausted,
            "elapsed": self.elapsed,
            "best_node_id": self.best_node_id,
            "best_raw_score": self.best_raw,
            "best_oriented_score": self.best_oriented,
            "fe_count": self.fe_count,
            "mt_count": self.mt_count,
            "merged_count": self.merged_count,
            "evaluations": self.evaluations,
            "failed_evaluations": self.failures,
            "predictions": self.predictions,
            "merges_attempted": self.merges_attempted,
            "merges_succeeded": self.merges_succeeded,
            "skipped_stages": self.skipped_stages,
        }

    def row(self, iteration: int, elapsed: float) -> ReportRow:
        return ReportRow(
            iteration=iteration,
            elapsed=elapsed,
            best_oriented_score=self.best_oriented,
            fe_count=self.fe_count,
            mt_count=self.mt_count,
            merged_count=self.merged_count,
        )


_HANDLERS = {
    EventKind.RUN_STARTED.value: _LogWalk._run_started,
    EventKind.NODE_PROPOSED.value: _LogWalk._node_proposed,
    EventKind.NODE_EVALUATED.value: _LogWalk._node_evaluated,
    EventKind.PREDICTION_MADE.value: _LogWalk._prediction_made,
    EventKind.MERGE_ATTEMPTED.value: _LogWalk._merge_attempted,
    EventKind.SKIPPED_STAGE.value: _LogWalk._skipped_stage,
    EventKind.STAGE_STARTED.value: _LogWalk._stage_started,
    EventKind.BUDGET_EXHAUSTED.value: _LogWalk._budget_exhausted,
    EventKind.RUN_FINISHED.value: _LogWalk._run_finished,
}


def walk_run_log(run_dir: Path) -> _LogWalk:
    """One walk of a run directory's log, read as a stream, from which
    both the progress rows and the summary are taken. A crashed or
    killed run's log is read too, up to its last whole line. A record
    whose payload lacks a field the walk reads, or holds one of the
    wrong type, is a CorruptLog naming its seq."""
    path = Path(run_dir) / LOG_FILENAME
    if not path.exists():
        raise MissingRunArtifacts(f"no {LOG_FILENAME} in {run_dir}")
    walk = _LogWalk()
    # one try around the whole loop, none per record: a report pays the
    # walk's per-record cost on every line of the log
    try:
        for event in iter_log(path, partial=True):
            walk.feed(event)
    except (LookupError, TypeError, ValueError) as exc:
        raise CorruptLog(f"event {event['seq']} does not apply: {exc!r}") from exc
    return walk


@collector_paused()
def progress_report(run_dir: Path) -> list[ReportRow]:
    """The per-iteration rows of the run in ``run_dir``, recomputed from
    the log with the garbage collector paused."""
    return walk_run_log(run_dir).rows


@collector_paused()
def run_summary(run_dir: Path) -> dict:
    """Structured whole-run summary, recomputed from the log with the
    garbage collector paused."""
    return walk_run_log(run_dir).summary(run_dir)


# =====================================================================
# Cross-run comparisons
# =====================================================================

PROGRESS_COLUMNS = (
    "iteration", "elapsed", "best_oriented_score", "fe_count", "mt_count", "merged_count",
)

ABLATION_COLUMNS = (
    "label", "best_oriented_score", "best_raw_score", "iterations",
    "fe_count", "mt_count", "merged_count", "evaluations",
)

ACCELERATION_COLUMNS = (
    "label", "iterations", "evaluations", "predictions", "elapsed",
    "budget", "iterations_per_budget", "speedup",
)


def ablation_table(run_dirs: Sequence[Path]) -> list[dict]:
    """Best-score comparison across runs, one dict per run directory."""
    return [
        {key: summary[key] for key in ABLATION_COLUMNS}
        for summary in map(run_summary, run_dirs)
    ]


def acceleration_table(run_dirs: Sequence[Path]) -> list[dict]:
    """Iteration-throughput comparison. The first run directory is the
    baseline: speedup = iterations relative to it at equal budget."""
    out: list[dict] = []
    baseline: Optional[float] = None
    for summary in map(run_summary, run_dirs):
        budget = summary["budget"] or 0.0
        per_budget = summary["iterations"] / budget if budget else 0.0
        if baseline is None:
            baseline = per_budget
        out.append({
            "label": summary["label"],
            "iterations": summary["iterations"],
            "evaluations": summary["evaluations"],
            "predictions": summary["predictions"],
            "elapsed": summary["elapsed"],
            "budget": summary["budget"],
            "iterations_per_budget": per_budget,
            "speedup": per_budget / baseline if baseline else 0.0,
        })
    return out


# =====================================================================
# Rendering
# =====================================================================

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_table(columns: Sequence[str], rows: Sequence[dict],
                 delimiter: str = "\t") -> str:
    lines = [delimiter.join(columns)]
    for row in rows:
        lines.append(delimiter.join(_cell(row.get(name)) for name in columns))
    return "\n".join(lines) + "\n"


def render_summary(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


# =====================================================================
# Leaderboard standing
# =====================================================================

def read_leaderboard(path: Path) -> tuple[MetricDirection, list[float]]:
    """Parse a leaderboard file: a direction header line, then one
    numeric human score per line. Blank lines are ignored."""
    path = Path(path)
    if not path.exists():
        raise MalformedLeaderboardFile(f"leaderboard file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedLeaderboardFile(f"leaderboard file cannot be read: {path}: {exc}")
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise MalformedLeaderboardFile(f"{path} is empty")
    header = lines[0].lower()
    try:
        direction = MetricDirection(header)
    except ValueError:
        raise MalformedLeaderboardFile(
            f"first line must be one of {[d.value for d in MetricDirection]}, "
            f"got {lines[0]!r}"
        )
    scores: list[float] = []
    for i, line in enumerate(lines[1:], start=2):
        try:
            score = float(line)
        except ValueError:
            raise MalformedLeaderboardFile(f"line {i} is not a number: {line!r}")
        if not math.isfinite(score):
            raise MalformedLeaderboardFile(f"line {i} is not a finite number: {line!r}")
        scores.append(score)
    if not scores:
        raise MalformedLeaderboardFile(f"{path} has a header but no scores")
    return direction, scores


def percent_humans_beaten(
    best_raw_score: Optional[float],
    scores: Sequence[float],
    direction: MetricDirection,
) -> float:
    """Share of human entries strictly worse than the run's best, in
    percent. A run with no scored submission beats nobody: 0.0."""
    if best_raw_score is None or not scores:
        return 0.0
    if direction is MetricDirection.HIGHER_BETTER:
        beaten = sum(1 for s in scores if s < best_raw_score)
    else:
        beaten = sum(1 for s in scores if s > best_raw_score)
    return 100.0 * beaten / len(scores)


def leaderboard_standing(summary: dict, leaderboard_path: Path) -> dict:
    """Compare the best score of a run's summary against a human
    leaderboard."""
    direction, scores = read_leaderboard(leaderboard_path)
    percent = percent_humans_beaten(summary["best_raw_score"], scores, direction)
    return {
        "leaderboard": str(leaderboard_path),
        "direction": direction.value,
        "entries": len(scores),
        "best_raw_score": summary["best_raw_score"],
        "percent_humans_beaten": percent,
    }
