"""Run preparation: read the task, infer its metric, decide the subset.

The llm port builder reads the task (``read_task``) and infers its
metric (``infer_metric``) once, as it builds a run's ports. The run's
one setup decision is whether the table is large enough to evaluate
debug runs on a subset of its rows (``pipeline_setup``). Everything
downstream treats these as settled facts.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

from .config import RunConfig
from .errors import StageFailure
from .tree import MetricDirection, MetricSpec


@dataclass(frozen=True)
class TaskSpec:
    """What the dataset is and what the task asks for."""

    description: str
    row_count: int = 0


def pipeline_setup(task: TaskSpec, config: RunConfig) -> bool:
    """The run's one setup decision, the subset flag: True for a table
    of more than ``validator_size_threshold`` rows. The run logs it as
    ``subset`` in ``run_started``, and the llm port builder gives the
    subprocess evaluator ``subset_size_in_percent`` only when it is
    set."""
    return task.row_count > config.validator_size_threshold


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
    try:
        return _read_dataset(Path(dataset_dir))
    except Exception as exc:
        raise StageFailure("reader", str(exc)) from exc


def _read_dataset(dataset_dir: Path) -> TaskSpec:
    description_path = dataset_dir / DESCRIPTION_FILENAME
    if not description_path.exists():
        raise FileNotFoundError(f"{DESCRIPTION_FILENAME} missing in {dataset_dir}")
    description = description_path.read_text(encoding="utf-8").strip()
    row_count = 0
    data_path = dataset_dir / DATA_FILENAME
    if data_path.exists():
        with data_path.open(encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)  # the header row
            row_count = sum(1 for _ in reader)
    return TaskSpec(description=description, row_count=row_count)


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
