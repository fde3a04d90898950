"""Candidate evaluation: a simulated score landscape for desk-scale
runs, a subprocess executor for real code artifacts, the fast-mode
debugging transform, and the bounded debug loop with its error memory.

Full-mode results are the scores of record; debug-mode runs exist only
to shake out errors cheaply and are never written back to a node.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Optional, Protocol

import numpy as np

from .clock import WallClock
from .embedding import parse_idea_vector
from .errors import EvaluationFailure, InvalidParams, UnparseableIdea
from .events import EventKind, RunLog
from .tree import MetricDirection, MetricSpec, Node, ProvenanceKind

logger = logging.getLogger(__name__)


class EvalMode(str, Enum):
    FULL = "full"
    DEBUG = "debug"


class FailureKind(str, Enum):
    TIMEOUT = "timeout"
    NONZERO_EXIT = "nonzero_exit"
    MISSING_RESULT = "missing_result"
    UNPARSEABLE_RESULT = "unparseable_result"
    BAD_IDEA = "bad_idea"
    RUNTIME_ERROR = "runtime_error"


@dataclass(frozen=True)
class FailureReport:
    kind: FailureKind
    message: str
    stdout: str = ""
    stderr: str = ""
    exit_code: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "message": self.message,
            "stdout": self.stdout,
            "stderr": self.stderr,
            "exit_code": self.exit_code,
        }


class EvaluationPort(Protocol):
    """What stages need from an evaluator: a raw metric value for a node
    in a given mode (raising EvaluationFailure with a report otherwise)
    and the known cost of a call, None when only wall time applies."""

    def evaluate(self, node: Node, mode: EvalMode) -> float: ...

    def cost(self, mode: EvalMode) -> Optional[float]: ...


# =====================================================================
# Simulated landscape
# =====================================================================

@dataclass(frozen=True)
class LandscapeConfig:
    """A smooth synthetic score surface over the idea space.

    Quality peaks at ``optimum`` and decays with Euclidean distance.
    Merged-provenance nodes earn ``merge_bonus`` scaled by their own
    landscape quality, so combining good parents pays off. The costs
    are what ``SimulatedEvaluator.cost`` reports; the engine charges
    them to the run's clock.
    """

    dimension: int
    optimum: tuple[float, ...] = ()
    noise_sigma: float = 0.0
    full_cost: float = 1.0
    debug_cost: float = 0.1
    merge_bonus: float = 0.0

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidParams(f"dimension must be >= 1, got {self.dimension}")
        opt = self.optimum or tuple(0.0 for _ in range(self.dimension))
        if len(opt) != self.dimension:
            raise InvalidParams(
                f"optimum has {len(opt)} coordinates, dimension is {self.dimension}"
            )
        object.__setattr__(self, "optimum", tuple(float(v) for v in opt))
        if self.noise_sigma < 0:
            raise InvalidParams("noise_sigma must be non-negative")
        if self.full_cost <= 0 or self.debug_cost <= 0:
            raise InvalidParams("costs must be positive")
        if self.debug_cost > self.full_cost:
            raise InvalidParams("debug_cost cannot exceed full_cost")


def simulated_evaluate(
    node: Node,
    landscape: LandscapeConfig,
    metric: MetricSpec,
    rng: Optional[np.random.Generator],
) -> float:
    """Score one node on the landscape.

    quality = 1 / (1 + distance-to-optimum), plus merge_bonus * quality
    for merged-provenance nodes, plus Gaussian noise of scale
    ``noise_sigma`` drawn from ``rng``. ``rng`` is read only when
    ``noise_sigma > 0``, and may be None otherwise. Raw value is the
    quality for higher-is-better metrics and 1 - quality for
    lower-is-better ones.
    """
    values = parse_idea_vector(node.idea_text)
    if len(values) != landscape.dimension:
        raise UnparseableIdea(
            f"idea has {len(values)} coordinates, landscape wants {landscape.dimension}"
        )
    diff = np.subtract(values, landscape.optimum)
    # as np.linalg.norm computes it, without its dispatch
    distance = math.sqrt(diff.dot(diff))
    quality = 1.0 / (1.0 + distance)
    if node.provenance.kind is ProvenanceKind.MERGED:
        quality += landscape.merge_bonus * (1.0 / (1.0 + distance))
    if landscape.noise_sigma > 0:
        quality += landscape.noise_sigma * float(rng.standard_normal())
    if metric.direction is MetricDirection.HIGHER_BETTER:
        return quality
    return 1.0 - quality


class SimulatedEvaluator:
    """EvaluationPort over a landscape.

    Noise is drawn only when the landscape's ``noise_sigma > 0``, from
    a Generator keyed by the evaluator seed and the idea text, so repeat
    evaluations of the same idea agree regardless of call order; that
    also makes parallel evaluation safe. With zero noise no Generator is
    built. It charges no clock: the engine charges ``cost(mode)`` for
    each call that returns.
    """

    def __init__(self, landscape: LandscapeConfig, metric: MetricSpec, seed: int):
        self.landscape = landscape
        self.metric = metric
        self.seed = int(seed)

    def _rng_for(self, node: Node) -> np.random.Generator:
        digest = hashlib.sha256(f"{self.seed}:{node.idea_text}".encode("utf-8")).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))

    def evaluate(self, node: Node, mode: EvalMode) -> float:
        # both modes score alike; they differ only in cost
        rng = self._rng_for(node) if self.landscape.noise_sigma > 0 else None
        return simulated_evaluate(node, self.landscape, self.metric, rng)

    def cost(self, mode: EvalMode) -> Optional[float]:
        return self.landscape.full_cost if mode is EvalMode.FULL else self.landscape.debug_cost


# =====================================================================
# Subprocess executor
# =====================================================================

@dataclass(frozen=True)
class ExecLimits:
    """Caps on one candidate execution."""

    wall_minutes: float = 30.0

    def __post_init__(self):
        if self.wall_minutes <= 0:
            raise InvalidParams("wall_minutes must be positive")


RESULT_FILENAME = "result.txt"


def subprocess_evaluate(
    node: Node,
    workspace: Path,
    limits: ExecLimits,
    metric: MetricSpec,
    *,
    mode: EvalMode = EvalMode.FULL,
    subset_percent: Optional[float] = None,
) -> float:
    """Run a node's code artifact as a Python script in its own
    workspace subdirectory and read the single numeric result it writes
    to ``result.txt``. Raises EvaluationFailure with a full report on
    timeout, nonzero exit, or a missing/unparseable result.

    Contract for the script: run with cwd set to a fresh directory,
    ``INPUT_DIR`` pointing at shared read-only inputs, and (debug mode)
    ``DATA_SUBSET_PERCENT`` set; it must write the metric value as text
    to ``result.txt`` in its working directory.
    """
    if node.code_artifact is None:
        raise EvaluationFailure(
            "node has no code artifact",
            report=FailureReport(kind=FailureKind.BAD_IDEA, message="no code artifact"),
        )
    workspace = Path(workspace)
    run_dir = workspace / "nodes" / f"node_{node.id:05d}_{mode.value}"
    run_dir.mkdir(parents=True, exist_ok=True)
    script = run_dir / "candidate.py"
    script.write_text(node.code_artifact, encoding="utf-8")
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "INPUT_DIR": str(workspace / "input"),
        "HOME": str(run_dir),
    }
    if mode is EvalMode.DEBUG and subset_percent is not None:
        env["DATA_SUBSET_PERCENT"] = str(subset_percent)
    try:
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=run_dir,
            env=env,
            capture_output=True,
            text=True,
            timeout=limits.wall_minutes * 60.0,
        )
    except subprocess.TimeoutExpired as exc:
        report = FailureReport(
            kind=FailureKind.TIMEOUT,
            message=f"exceeded {limits.wall_minutes} minutes",
            stdout=_as_text(exc.stdout),
            stderr=_as_text(exc.stderr),
        )
        _write_exec_logs(run_dir, report.stdout, report.stderr)
        raise EvaluationFailure(report.message, report=report)
    _write_exec_logs(run_dir, proc.stdout, proc.stderr)
    if proc.returncode != 0:
        report = FailureReport(
            kind=FailureKind.NONZERO_EXIT,
            message=f"exit code {proc.returncode}: {_last_line(proc.stderr)}",
            stdout=proc.stdout,
            stderr=proc.stderr,
            exit_code=proc.returncode,
        )
        raise EvaluationFailure(report.message, report=report)
    result_path = run_dir / RESULT_FILENAME
    if not result_path.exists():
        report = FailureReport(
            kind=FailureKind.MISSING_RESULT,
            message=f"{RESULT_FILENAME} was not written",
            stdout=proc.stdout,
            stderr=proc.stderr,
            exit_code=proc.returncode,
        )
        raise EvaluationFailure(report.message, report=report)
    raw_text = result_path.read_text(encoding="utf-8").strip()
    try:
        value = float(raw_text)
        if not math.isfinite(value):
            raise ValueError("non-finite")
    except ValueError:
        report = FailureReport(
            kind=FailureKind.UNPARSEABLE_RESULT,
            message=f"result file holds {raw_text[:60]!r}, not a finite number",
            stdout=proc.stdout,
            stderr=proc.stderr,
            exit_code=proc.returncode,
        )
        raise EvaluationFailure(report.message, report=report)
    return value


def _as_text(raw) -> str:
    if raw is None:
        return ""
    if isinstance(raw, bytes):
        return raw.decode("utf-8", errors="replace")
    return str(raw)


def _last_line(text: str) -> str:
    lines = [l for l in (text or "").strip().splitlines() if l.strip()]
    return lines[-1] if lines else "(no stderr)"


def _write_exec_logs(run_dir: Path, stdout: str, stderr: str) -> None:
    (run_dir / "stdout.txt").write_text(stdout or "", encoding="utf-8")
    (run_dir / "stderr.txt").write_text(stderr or "", encoding="utf-8")


# the shortest timeout a run's remaining wall time clamps a subprocess to
MIN_TIMEOUT_MINUTES = 1.0 / 60.0


class SubprocessEvaluator:
    """EvaluationPort that executes code artifacts in subprocesses.
    Costs are wall time, so ``cost`` reports None for both modes.

    Under a ``WallClock`` each call's timeout is the smaller of
    ``limits.wall_minutes`` and the run's remaining time, but never
    below ``MIN_TIMEOUT_MINUTES``, so no candidate outlives the budget
    by more than that."""

    def __init__(self, workspace: Path, limits: ExecLimits, metric: MetricSpec,
                 subset_percent: Optional[float] = None, clock=None):
        self.workspace = Path(workspace)
        self.limits = limits
        self.metric = metric
        self.subset_percent = subset_percent
        self.clock = clock

    def _call_limits(self) -> ExecLimits:
        if not isinstance(self.clock, WallClock):
            return self.limits
        remaining = max(MIN_TIMEOUT_MINUTES, self.clock.remaining())
        if remaining >= self.limits.wall_minutes:
            return self.limits
        return replace(self.limits, wall_minutes=remaining)

    def evaluate(self, node: Node, mode: EvalMode) -> float:
        return subprocess_evaluate(
            node, self.workspace, self._call_limits(), self.metric,
            mode=mode, subset_percent=self.subset_percent,
        )

    def cost(self, mode: EvalMode) -> Optional[float]:
        return None


# =====================================================================
# Fast-mode transform
# =====================================================================

@dataclass(frozen=True)
class FastModeTransform:
    """Parameter caps applied to a code artifact before debug runs.

    ``rules`` maps a parameter name to its cap; any whole-line integer
    assignment ``name = value`` (spaces optional) is lowered to
    min(value, cap). ``subset_fraction`` is the percentage of data the
    executor should use in debug mode; it rides along to the evaluator
    rather than editing the code.
    """

    rules: dict[str, int] = field(default_factory=lambda: {"epochs": 2})
    subset_fraction: float = 10.0

    def __post_init__(self):
        for name, cap in self.rules.items():
            if cap < 1:
                raise InvalidParams(f"cap for {name!r} must be >= 1, got {cap}")
        if not 0 < self.subset_fraction <= 100:
            raise InvalidParams("subset_fraction must be a percentage in (0, 100]")


@dataclass(frozen=True)
class RestoreToken:
    """Everything needed to undo a fast-mode application, even after a
    fixer has edited other parts of the code."""

    original: str
    fast: str
    replacements: tuple[tuple[str, str, str], ...]  # (name, original value, capped value)
    subset_fraction: float


def _assignment_pattern(name: str) -> re.Pattern:
    return re.compile(rf"^(\s*{re.escape(name)}\s*=\s*)(\d+)(\s*)$", re.MULTILINE)


def apply_fast_mode(code: str, transform: FastModeTransform) -> tuple[str, RestoreToken]:
    """Cap matching parameter assignments; returns the transformed code
    and a token that restores the original exactly."""
    fast = code
    replacements: list[tuple[str, str, str]] = []
    for name in sorted(transform.rules):
        cap = transform.rules[name]

        def lower(match: re.Match) -> str:
            original_value = match.group(2)
            capped = min(int(original_value), cap)
            if capped != int(original_value):
                replacements.append((name, original_value, str(capped)))
            return f"{match.group(1)}{capped}{match.group(3)}"

        fast = _assignment_pattern(name).sub(lower, fast)
    token = RestoreToken(
        original=code, fast=fast,
        replacements=tuple(replacements),
        subset_fraction=transform.subset_fraction,
    )
    return fast, token


def restore_fast_mode(code: str, token: RestoreToken) -> str:
    """Undo the caps. Untouched fast code restores byte-exactly; code a
    fixer has edited keeps its fixes and only the capped values are put
    back."""
    if code == token.fast:
        return token.original
    restored = code
    for name, original_value, capped in token.replacements:
        pattern = re.compile(rf"^(\s*{re.escape(name)}\s*=\s*){re.escape(capped)}(\s*)$", re.MULTILINE)
        restored = pattern.sub(rf"\g<1>{original_value}\g<2>", restored, count=1)
    return restored


# =====================================================================
# Error memory and the debug loop
# =====================================================================

_DIGITS = re.compile(r"\d+")
_PATHS = re.compile(r"(?:[A-Za-z]:)?[\\/][\w.\-\\/]+")


def error_signature(error_class: str, message: str) -> str:
    """Stable digest of an error with volatile parts (numbers, paths)
    normalized away."""
    normalized = _PATHS.sub("<path>", message or "")
    normalized = _DIGITS.sub("#", normalized)
    digest = hashlib.sha256(f"{error_class}|{normalized}".encode("utf-8")).hexdigest()
    return digest[:16]


class DebugOutcome(str, Enum):
    DEBUGGED_OK = "debugged_ok"
    REGENERATE = "regenerate"
    ABANDONED = "abandoned"


@dataclass
class ErrorRecord:
    signature: str
    error_class: str
    attempts: int = 0
    outcome: Optional[str] = None


@dataclass
class ErrorLog:
    """Run-wide memory of failures, keyed by normalized signature, plus
    the flat attempt history the recurrence rule is audited against."""

    records: dict[str, ErrorRecord] = field(default_factory=dict)
    attempts: list[dict] = field(default_factory=list)

    def seen(self, signature: str) -> bool:
        return signature in self.records

    def record_error(self, signature: str, error_class: str, node_id: int, attempt: int) -> None:
        rec = self.records.get(signature)
        if rec is None:
            rec = ErrorRecord(signature=signature, error_class=error_class)
            self.records[signature] = rec
        rec.attempts += 1
        self.attempts.append(
            {"node_id": node_id, "attempt": attempt, "ok": False, "signature": signature}
        )

    def record_success(self, node_id: int, attempt: int) -> None:
        self.attempts.append({"node_id": node_id, "attempt": attempt, "ok": True, "signature": None})

    def set_outcome(self, signature: str, outcome: str) -> None:
        if signature in self.records:
            self.records[signature].outcome = outcome


def debug_loop(
    node: Node,
    port: EvaluationPort,
    fixer: Callable[[str, FailureReport], str],
    transform: FastModeTransform,
    max_retries: int,
    error_log: ErrorLog,
    *,
    log: Optional[RunLog] = None,
) -> DebugOutcome:
    """Drive a failing candidate through cheap debug-mode runs.

    The artifact runs with fast-mode caps applied. Errors whose
    signature was seen before (this node or any earlier one) skip the
    fixer and ask for regeneration; fresh errors go to the fixer, up to
    ``max_retries`` attempts. On success the parameter caps are undone
    (keeping any fixes) and the node carries the repaired artifact; on
    any other exit the artifact is exactly as it started.
    """
    if max_retries < 1:
        raise InvalidParams(f"max_retries must be >= 1, got {max_retries}")
    if node.code_artifact is None:
        raise EvaluationFailure("node has no code artifact to debug")
    original = node.code_artifact
    fast, token = apply_fast_mode(original, transform)
    code = fast
    outcome = DebugOutcome.ABANDONED
    last_signature: Optional[str] = None
    try:
        for attempt in range(1, max_retries + 1):
            node.code_artifact = code
            try:
                port.evaluate(node, EvalMode.DEBUG)
            except EvaluationFailure as exc:
                report = exc.report or FailureReport(
                    kind=FailureKind.RUNTIME_ERROR, message=str(exc)
                )
                signature = error_signature(report.kind.value, report.message)
                recurring = error_log.seen(signature)
                error_log.record_error(signature, report.kind.value, node.id, attempt)
                last_signature = signature
                _debug_event(log, node.id, attempt, ok=False, signature=signature,
                             recurring=recurring)
                if recurring:
                    outcome = DebugOutcome.REGENERATE
                    return outcome
                if attempt == max_retries:
                    outcome = DebugOutcome.ABANDONED
                    return outcome
                code = fixer(code, report)
            else:
                error_log.record_success(node.id, attempt)
                _debug_event(log, node.id, attempt, ok=True, signature=None, recurring=False)
                outcome = DebugOutcome.DEBUGGED_OK
                return outcome
        return outcome
    finally:
        if outcome is DebugOutcome.DEBUGGED_OK:
            node.code_artifact = restore_fast_mode(code, token)
        else:
            node.code_artifact = original
        if last_signature is not None:
            error_log.set_outcome(
                last_signature,
                {
                    DebugOutcome.DEBUGGED_OK: "fixed",
                    DebugOutcome.REGENERATE: "regenerated",
                    DebugOutcome.ABANDONED: "abandoned",
                }[outcome],
            )


def _debug_event(log: Optional[RunLog], node_id: int, attempt: int, *, ok: bool,
                 signature: Optional[str], recurring: bool) -> None:
    if log is not None:
        log.append(EventKind.DEBUG_ATTEMPT, node_id=node_id, attempt=attempt, ok=ok,
                   signature=signature, recurring=recurring)
