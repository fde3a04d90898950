"""Run preparation: read the task, pick the metric, split the data,
sanity-check the split with a baseline.

Four small ports run in a fixed order. The baseliner can reject a split
plan, which sends the validator back for an alternative strategy, a
bounded number of times. Everything downstream treats the outputs as
settled facts.
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


class ReaderPort(Protocol):
    def read(self, dataset_dir: Path) -> TaskSpec: ...


class MetricPort(Protocol):
    def infer(self, task: TaskSpec) -> MetricSpec: ...


class ValidatorPort(Protocol):
    def split(self, task: TaskSpec, attempt: int) -> SplitPlan: ...


class BaselinerPort(Protocol):
    def baseline(self, task: TaskSpec, plan: SplitPlan) -> BaselineResult: ...


@dataclass
class SetupStages:
    reader: ReaderPort
    metric: MetricPort
    validator: ValidatorPort
    baseliner: BaselinerPort


@dataclass(frozen=True)
class SetupResult:
    task: TaskSpec
    metric: MetricSpec
    plan: SplitPlan
    baseline: BaselineResult
    validator_runs: int


def pipeline_setup(dataset_dir: Path, stages: SetupStages, config: RunConfig) -> SetupResult:
    """Reader → Metric → Validator → Baseliner, with bounded resplits.

    A baseline verdict of RESPLIT_REQUESTED reruns the validator with an
    incremented attempt counter (its cue to try another strategy), at
    most ``config.max_resplits`` times beyond the first split. Large
    datasets (row count over ``validator_size_threshold``) get the plan's
    subset flag set so training runs on ``subset_size_in_percent`` of
    the rows.
    """
    task = _run_stage("reader", lambda: stages.reader.read(Path(dataset_dir)))
    metric = _run_stage("metric", lambda: stages.metric.infer(task))

    def make_plan(attempt: int) -> SplitPlan:
        plan = _run_stage("validator", lambda: stages.validator.split(task, attempt))
        if task.row_count > config.validator_size_threshold and not plan.use_subset:
            plan = replace(plan, use_subset=True, subset_percent=config.subset_size_in_percent)
        return plan

    attempt = 0
    validator_runs = 1
    plan = make_plan(attempt)
    while True:
        result = _run_stage("baseliner", lambda: stages.baseliner.baseline(task, plan))
        if result.verdict is BaselineVerdict.SPLIT_OK:
            return SetupResult(
                task=task, metric=metric, plan=plan,
                baseline=result, validator_runs=validator_runs,
            )
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
class StaticReader:
    """Hands back a prebuilt TaskSpec, ignoring the directory. The
    synthetic port set and most tests use this."""

    task: TaskSpec

    def read(self, dataset_dir: Path) -> TaskSpec:
        return self.task


@dataclass
class StaticMetric:
    metric: MetricSpec

    def infer(self, task: TaskSpec) -> MetricSpec:
        return self.metric


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


# ---- directory-backed reader and metric ----

DESCRIPTION_FILENAME = "description.txt"
DATA_FILENAME = "data.csv"

_METRIC_LINE = re.compile(
    r"^metric:\s*(?P<name>[\w.\- ]+?)\s*\((?P<direction>higher|lower) is better\)\s*$",
    re.IGNORECASE | re.MULTILINE,
)


@dataclass
class DirectoryReader:
    """Reads the documented dataset layout: ``description.txt`` with the
    task text and ``data.csv`` with a header row plus one row per
    record."""

    def read(self, dataset_dir: Path) -> TaskSpec:
        dataset_dir = Path(dataset_dir)
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


@dataclass
class DescriptionMetric:
    """Parses a ``metric: <name> (<higher|lower> is better)`` line out of
    the task description; defaults to accuracy when absent."""

    def infer(self, task: TaskSpec) -> MetricSpec:
        match = _METRIC_LINE.search(task.description)
        if match:
            direction = (
                MetricDirection.HIGHER_BETTER
                if match.group("direction").lower() == "higher"
                else MetricDirection.LOWER_BETTER
            )
            return MetricSpec(match.group("name").strip(), direction)
        return MetricSpec("accuracy", MetricDirection.HIGHER_BETTER)
