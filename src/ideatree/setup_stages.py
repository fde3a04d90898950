"""Run preparation: read the task, infer its metric, split the data,
sanity-check the split with a baseline.

The port builder reads the task (``read_task``) and infers its metric
(``infer_metric``) once, as it builds a run's ports. The run's setup
then agrees on a split: the baseliner can reject a split plan, which
sends the validator back for an alternative strategy, a bounded number
of times. Everything downstream treats the outputs as settled facts.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Optional, Protocol

from .config import RunConfig
from .errors import ResplitsExhausted, StageFailure
from .tree import MetricDirection, MetricSpec

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TaskSpec:
    """What the dataset is and what the task asks for."""

    description: str
    schema: dict[str, str] = field(default_factory=dict)
    row_count: int = 0
    target_column: Optional[str] = None


@dataclass(frozen=True)
class SplitPlan:
    """How train/validation data will be partitioned."""

    strategy: str
    train_fraction: float = 0.8
    notes: tuple[str, ...] = ()
    use_subset: bool = False
    subset_percent: Optional[float] = None


class BaselineVerdict(str, Enum):
    SPLIT_OK = "split_ok"
    RESPLIT_REQUESTED = "resplit_requested"


@dataclass(frozen=True)
class BaselineResult:
    score: float
    verdict: BaselineVerdict
    notes: str = ""


class ValidatorPort(Protocol):
    def split(self, task: TaskSpec, attempt: int) -> SplitPlan: ...


class BaselinerPort(Protocol):
    def baseline(self, task: TaskSpec, plan: SplitPlan) -> BaselineResult: ...


@dataclass(frozen=True)
class SetupResult:
    plan: SplitPlan
    baseline: BaselineResult
    validator_runs: int


def pipeline_setup(
    task: TaskSpec,
    config: RunConfig,
    *,
    validator: Optional[ValidatorPort] = None,
    baseliner: Optional[BaselinerPort] = None,
) -> SetupResult:
    """Validator → Baseliner on ``task``, with bounded resplits.

    A baseline verdict of RESPLIT_REQUESTED reruns the validator with an
    incremented attempt counter (its cue to try another strategy), at
    most ``config.max_resplits`` times beyond the first split. Large
    datasets (row count over ``validator_size_threshold``) get the plan's
    subset flag and ``subset_size_in_percent``; the run only logs the
    flag, as ``subset`` in ``run_started``. The validator and baseliner
    default to a fresh ``RotatingValidator`` and ``ScriptedBaseliner``.
    """
    if validator is None:
        validator = RotatingValidator()
    if baseliner is None:
        baseliner = ScriptedBaseliner()

    def make_plan(attempt: int) -> SplitPlan:
        plan = _run_stage("validator", lambda: validator.split(task, attempt))
        if task.row_count > config.validator_size_threshold and not plan.use_subset:
            plan = replace(plan, use_subset=True, subset_percent=config.subset_size_in_percent)
        return plan

    attempt = 0
    validator_runs = 1
    plan = make_plan(attempt)
    while True:
        result = _run_stage("baseliner", lambda: baseliner.baseline(task, plan))
        if result.verdict is BaselineVerdict.SPLIT_OK:
            return SetupResult(plan=plan, baseline=result, validator_runs=validator_runs)
        attempt += 1
        if attempt > config.max_resplits:
            raise ResplitsExhausted(
                f"baseliner rejected {validator_runs} split plans, giving up"
            )
        logger.info("baseliner requested a resplit (attempt %d)", attempt)
        plan = make_plan(attempt)
        validator_runs += 1


def _run_stage(name: str, fn):
    try:
        return fn()
    except StageFailure:
        raise
    except Exception as exc:
        raise StageFailure(name, str(exc)) from exc


# =====================================================================
# Stock implementations
# =====================================================================

@dataclass
class RotatingValidator:
    """Cycles through named strategies as resplits are requested."""

    strategies: tuple[str, ...] = ("random_holdout", "stratified_holdout", "grouped_holdout")
    train_fraction: float = 0.8

    def split(self, task: TaskSpec, attempt: int) -> SplitPlan:
        strategy = self.strategies[attempt % len(self.strategies)]
        return SplitPlan(
            strategy=strategy,
            train_fraction=self.train_fraction,
            notes=(f"attempt {attempt}",),
        )


@dataclass
class ScriptedBaseliner:
    """Returns verdicts from a script, repeating the last one forever.
    Real baselining trains a stock model; for engine verification we
    only need the verdict protocol."""

    verdicts: tuple[BaselineVerdict, ...] = (BaselineVerdict.SPLIT_OK,)
    score: float = 0.0
    _calls: int = 0

    def baseline(self, task: TaskSpec, plan: SplitPlan) -> BaselineResult:
        verdict = self.verdicts[min(self._calls, len(self.verdicts) - 1)]
        self._calls += 1
        return BaselineResult(score=self.score, verdict=verdict,
                              notes=f"strategy {plan.strategy}")


# ---- the task and its metric, from a dataset directory ----

DESCRIPTION_FILENAME = "description.txt"
DATA_FILENAME = "data.csv"

_METRIC_LINE = re.compile(
    r"^metric:\s*(?P<name>[\w.\- ]+?)\s*\((?P<direction>higher|lower) is better\)\s*$",
    re.IGNORECASE | re.MULTILINE,
)


def read_task(dataset_dir: Path) -> TaskSpec:
    """The task of the documented dataset layout: ``description.txt``
    with the task text and ``data.csv`` with a header row plus one row
    per record. A failure to read either, a missing description
    included, is a StageFailure of stage ``reader``."""
    return _run_stage("reader", lambda: _read_dataset(Path(dataset_dir)))


def _read_dataset(dataset_dir: Path) -> TaskSpec:
    description_path = dataset_dir / DESCRIPTION_FILENAME
    if not description_path.exists():
        raise FileNotFoundError(f"{DESCRIPTION_FILENAME} missing in {dataset_dir}")
    description = description_path.read_text(encoding="utf-8").strip()
    schema: dict[str, str] = {}
    row_count = 0
    data_path = dataset_dir / DATA_FILENAME
    if data_path.exists():
        with data_path.open(encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header:
                schema = {name.strip(): "unknown" for name in header}
            row_count = sum(1 for _ in reader)
    return TaskSpec(description=description, schema=schema, row_count=row_count)


def infer_metric(task: TaskSpec) -> MetricSpec:
    """The metric a ``metric: <name> (<higher|lower> is better)`` line
    of the task description names; accuracy when there is none."""
    match = _METRIC_LINE.search(task.description)
    if match:
        direction = (
            MetricDirection.HIGHER_BETTER
            if match.group("direction").lower() == "higher"
            else MetricDirection.LOWER_BETTER
        )
        return MetricSpec(match.group("name").strip(), direction)
    return MetricSpec("accuracy", MetricDirection.HIGHER_BETTER)
