"""Inputs for the layer timings: one seeded grow-25k run, made once per
session with the benchmark's own workload config, and that run's
synthetic ports."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, run_config  # noqa: E402

from ideatree import RunConfig, build_synthetic_ports, execute_run  # noqa: E402
from ideatree.events import LOG_FILENAME, read_log  # noqa: E402
from ideatree.orchestrator import RunResult  # noqa: E402


@pytest.fixture(scope="session")
def grow_config():
    return RunConfig.from_dict(run_config(WORKLOADS["grow-25k"], seed=1))


class GrowRun(NamedTuple):
    result: RunResult
    events: list[dict]
    run_dir: Path


@pytest.fixture(scope="session")
def grow_run(tmp_path_factory, grow_config) -> GrowRun:
    """The grow-25k run of seed 1: its result, its logged event records
    (about 5,200 nodes and 8,800 events) and its run directory, which
    the cases only read."""
    out = tmp_path_factory.mktemp("grow-25k") / "run"
    result = execute_run(grow_config, build_synthetic_ports(grow_config), out)
    return GrowRun(result, read_log(out / LOG_FILENAME), out)


@pytest.fixture
def grow_ports(grow_config):
    """Fresh ports of the grow-25k config, as a run of seed 1 starts
    with them."""
    return build_synthetic_ports(grow_config)
