"""Candidate evaluation: a simulated score landscape for desk-scale
runs and a subprocess executor for real code artifacts.

Full-mode results are the scores of record; debug-mode runs exist only
to shake out errors cheaply and are never written back to a node. The
engine charges each debug run at the evaluator's debug cost.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Protocol

import numpy as np

from .clock import WallClock
from .embedding import parse_idea_vector
from .errors import EvaluationFailure, UnparseableIdea
from .tree import MetricDirection, MetricSpec, Node, ProvenanceKind

if TYPE_CHECKING:
    from .config import SyntheticConfig


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


class EvaluationPort(Protocol):
    """What stages need from an evaluator: a raw metric value for a node
    in a given mode (raising EvaluationFailure with a report otherwise)
    and the known cost of a call, None when only wall time applies."""

    def evaluate(self, node: Node, mode: EvalMode) -> float: ...

    def cost(self, mode: EvalMode) -> Optional[float]: ...


# =====================================================================
# Simulated landscape
# =====================================================================

def landscape_optimum(syn: SyntheticConfig) -> tuple[float, ...]:
    """``syn.optimum`` as floats; the origin when it is empty."""
    return tuple(float(v) for v in syn.optimum) or (0.0,) * syn.dimension


def simulated_evaluate(
    node: Node,
    syn: SyntheticConfig,
    metric: MetricSpec,
    rng: Optional[np.random.Generator],
    optimum: Optional[tuple[float, ...]] = None,
) -> float:
    """Score one node on the landscape of ``syn``.

    quality = 1 / (1 + distance-to-optimum), plus merge_bonus * quality
    for merged-provenance nodes, plus Gaussian noise of scale
    ``noise_sigma`` drawn from ``rng``. ``rng`` is read only when
    ``noise_sigma > 0``, and may be None otherwise. ``optimum``, if
    given, is ``landscape_optimum(syn)`` computed once by the caller.
    Raw value is the quality for higher-is-better metrics and
    1 - quality for lower-is-better ones.
    """
    values = parse_idea_vector(node.idea_text)
    if len(values) != syn.dimension:
        raise UnparseableIdea(
            f"idea has {len(values)} coordinates, landscape wants {syn.dimension}"
        )
    diff = np.subtract(values, optimum or landscape_optimum(syn))
    # as np.linalg.norm computes it, without its dispatch
    distance = math.sqrt(diff.dot(diff))
    quality = 1.0 / (1.0 + distance)
    if node.provenance.kind is ProvenanceKind.MERGED:
        quality += syn.merge_bonus * (1.0 / (1.0 + distance))
    if syn.noise_sigma > 0:
        quality += syn.noise_sigma * float(rng.standard_normal())
    if metric.direction is MetricDirection.HIGHER_BETTER:
        return quality
    return 1.0 - quality


class SimulatedEvaluator:
    """EvaluationPort over the landscape of a ``SyntheticConfig``.

    Noise is drawn only when ``noise_sigma > 0``, from a Generator
    keyed by the evaluator seed and the idea text, so repeat
    evaluations of the same idea agree regardless of call order; that
    also makes parallel evaluation safe. With zero noise no Generator is
    built. It charges no clock: the engine charges ``cost(mode)`` for
    each call that returns.
    """

    def __init__(self, syn: SyntheticConfig, metric: MetricSpec, seed: int):
        self.syn = syn
        self.metric = metric
        self.seed = int(seed)
        self.optimum = landscape_optimum(syn)

    def _rng_for(self, node: Node) -> np.random.Generator:
        digest = hashlib.sha256(f"{self.seed}:{node.idea_text}".encode("utf-8")).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))

    def evaluate(self, node: Node, mode: EvalMode) -> float:
        # both modes score alike; they differ only in cost
        rng = self._rng_for(node) if self.syn.noise_sigma > 0 else None
        return simulated_evaluate(node, self.syn, self.metric, rng, self.optimum)

    def cost(self, mode: EvalMode) -> Optional[float]:
        return self.syn.full_cost if mode is EvalMode.FULL else self.syn.debug_cost


# =====================================================================
# Subprocess executor
# =====================================================================

RESULT_FILENAME = "result.txt"


def subprocess_evaluate(
    node: Node,
    workspace: Path,
    wall_minutes: float,
    *,
    mode: EvalMode = EvalMode.FULL,
    subset_percent: Optional[float] = None,
) -> float:
    """Run a node's code artifact as a Python script in its own
    workspace subdirectory, for at most ``wall_minutes``, and read the
    single numeric result it writes to ``result.txt``. Raises
    EvaluationFailure with a full report on timeout, nonzero exit, or a
    missing/unparseable result.

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
            timeout=wall_minutes * 60.0,
        )
    except subprocess.TimeoutExpired as exc:
        report = FailureReport(
            kind=FailureKind.TIMEOUT,
            message=f"exceeded {wall_minutes} minutes",
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
    ``wall_minutes`` and the run's remaining time, but never
    below ``MIN_TIMEOUT_MINUTES``, so no candidate outlives the budget
    by more than that."""

    def __init__(self, workspace: Path, wall_minutes: float,
                 subset_percent: Optional[float] = None, clock=None):
        self.workspace = Path(workspace)
        self.wall_minutes = wall_minutes
        self.subset_percent = subset_percent
        self.clock = clock

    def _call_minutes(self) -> float:
        if not isinstance(self.clock, WallClock):
            return self.wall_minutes
        return min(self.wall_minutes, max(MIN_TIMEOUT_MINUTES, self.clock.remaining()))

    def evaluate(self, node: Node, mode: EvalMode) -> float:
        return subprocess_evaluate(
            node, self.workspace, self._call_minutes(),
            mode=mode, subset_percent=self.subset_percent,
        )

    def cost(self, mode: EvalMode) -> Optional[float]:
        return None
