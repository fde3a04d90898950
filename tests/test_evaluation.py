"""Simulated landscape and subprocess execution."""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideatree.clock import SimulatedClock, WallClock
from ideatree.config import SyntheticConfig
from ideatree.embedding import render_idea_vector
from ideatree.errors import EvaluationFailure, UnparseableIdea
from ideatree.evaluation import (
    EvalMode,
    FailureKind,
    MIN_TIMEOUT_MINUTES,
    SimulatedEvaluator,
    SubprocessEvaluator,
    landscape_optimum,
    simulated_evaluate,
    subprocess_evaluate,
)
from ideatree.tree import NodeLevel, Provenance

from helpers import HIGHER, LOWER, new_tree, reference_simulated_evaluate, spawn


def _mt(idea, provenance=None, artifact=None):
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "0.0,0.0")
    extra = spawn(tree, tree.root.id, NodeLevel.FE, "0.1,0.1")
    node = spawn(tree, fe.id, NodeLevel.MT, idea, provenance=provenance, code_artifact=artifact)
    return node


# ---- simulated evaluation ----

def test_an_empty_optimum_is_the_origin():
    cfg = SyntheticConfig(dimension=3)
    assert landscape_optimum(cfg) == (0.0, 0.0, 0.0)
    origin = _mt("0.0,0.0,0.0")
    assert simulated_evaluate(origin, cfg, HIGHER, None) == 1.0
    assert SimulatedEvaluator(cfg, HIGHER, seed=0).evaluate(origin, EvalMode.FULL) == 1.0


def test_simulated_score_at_optimum():
    cfg = SyntheticConfig(dimension=2, optimum=[0.5, -0.5])
    node = _mt("0.5,-0.5")
    rng = np.random.default_rng(0)
    assert simulated_evaluate(node, cfg, HIGHER, rng) == pytest.approx(1.0)


def test_simulated_quality_decays_with_distance():
    cfg = SyntheticConfig(dimension=1)
    rng = np.random.default_rng(0)
    near = simulated_evaluate(_mt("0.1"), cfg, HIGHER, rng)
    far = simulated_evaluate(_mt("3.0"), cfg, HIGHER, rng)
    assert near > far
    assert near == pytest.approx(1.0 / 1.1)
    assert far == pytest.approx(1.0 / 4.0)


def test_simulated_lower_better_flips():
    cfg = SyntheticConfig(dimension=1)
    rng = np.random.default_rng(0)
    node = _mt("1.0")
    hi = simulated_evaluate(node, cfg, HIGHER, rng)
    lo = simulated_evaluate(node, cfg, LOWER, rng)
    assert lo == pytest.approx(1.0 - hi)


def test_simulated_merge_bonus():
    cfg = SyntheticConfig(dimension=1, merge_bonus=0.2)
    rng = np.random.default_rng(0)
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "0.0")
    a = spawn(tree, fe.id, NodeLevel.MT, "0.9")
    b = spawn(tree, fe.id, NodeLevel.MT, "1.1")
    plain = simulated_evaluate(_mt("1.0"), cfg, HIGHER, rng)
    merged_node = spawn(tree, fe.id, NodeLevel.MT, "1.0", provenance=Provenance.merged(a.id, b.id))
    merged = simulated_evaluate(merged_node, cfg, HIGHER, rng)
    assert merged == pytest.approx(plain * 1.2)


def test_simulated_rejects_wrong_dimension():
    cfg = SyntheticConfig(dimension=3)
    with pytest.raises(UnparseableIdea):
        simulated_evaluate(_mt("1.0,2.0"), cfg, HIGHER, np.random.default_rng(0))
    with pytest.raises(UnparseableIdea):
        simulated_evaluate(_mt("not numbers"), cfg, HIGHER, np.random.default_rng(0))


def test_evaluator_noise_is_repeatable_per_idea():
    cfg = SyntheticConfig(dimension=1, noise_sigma=0.1)
    ev = SimulatedEvaluator(cfg, HIGHER, seed=7)
    a = _mt("0.4")
    b = _mt("0.4")
    c = _mt("0.6")
    assert ev.evaluate(a, EvalMode.FULL) == ev.evaluate(b, EvalMode.FULL)
    assert ev.evaluate(a, EvalMode.FULL) == ev.evaluate(a, EvalMode.FULL)
    assert ev.evaluate(a, EvalMode.FULL) != ev.evaluate(c, EvalMode.FULL)
    other_seed = SimulatedEvaluator(cfg, HIGHER, seed=8)
    assert ev.evaluate(a, EvalMode.FULL) != other_seed.evaluate(a, EvalMode.FULL)


@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_simulated_modes_score_alike_and_cost_apart(noise):
    """A debug run scores what a full run scores; only its cost, the
    landscape's debug_cost, differs."""
    cfg = SyntheticConfig(dimension=2, noise_sigma=noise, full_cost=4.0, debug_cost=0.5)
    ev = SimulatedEvaluator(cfg, LOWER, seed=3)
    node = _mt("0.3,-0.2")
    assert ev.evaluate(node, EvalMode.DEBUG) == ev.evaluate(node, EvalMode.FULL)
    assert ev.cost(EvalMode.FULL) == 4.0
    assert ev.cost(EvalMode.DEBUG) == 0.5


_COORD = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 8), st.data())
def test_simulated_evaluator_matches_its_numpy_form(seed, dimension, data):
    """The evaluator gives the float of the form that builds a keyed
    Generator on every call and measures with np.linalg.norm, bit for
    bit: with and without noise, merged or generated, either direction,
    in both modes."""
    coords = st.lists(_COORD, min_size=dimension, max_size=dimension)
    landscape = SyntheticConfig(
        dimension=dimension,
        optimum=data.draw(coords),
        noise_sigma=data.draw(st.just(0.0) | st.floats(1e-6, 5.0)),
        merge_bonus=data.draw(st.just(0.0) | st.floats(-2.0, 2.0)),
    )
    metric = data.draw(st.sampled_from([HIGHER, LOWER]))
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    a = spawn(tree, fe.id, NodeLevel.MT, "a")
    b = spawn(tree, fe.id, NodeLevel.MT, "b")
    provenance = Provenance.merged(a.id, b.id) if data.draw(st.booleans()) else None
    node = spawn(tree, fe.id, NodeLevel.MT, render_idea_vector(data.draw(coords)),
                      provenance=provenance)
    expected = reference_simulated_evaluate(node, landscape, metric, seed)
    evaluator = SimulatedEvaluator(landscape, metric, seed)
    for mode in EvalMode:
        assert evaluator.evaluate(node, mode).hex() == expected.hex()


# ---- subprocess execution ----

OK_SCRIPT = """\
with open("result.txt", "w") as fh:
    fh.write("0.875")
"""


def test_subprocess_happy_path(tmp_path):
    node = _mt("any", artifact=OK_SCRIPT)
    value = subprocess_evaluate(node, tmp_path, 1.0)
    assert value == pytest.approx(0.875)
    run_dir = tmp_path / "nodes" / f"node_{node.id:05d}_full"
    assert (run_dir / "stdout.txt").exists()
    assert (run_dir / "stderr.txt").exists()


def test_subprocess_no_artifact(tmp_path):
    node = _mt("any")
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0)
    assert err.value.report.kind is FailureKind.BAD_IDEA


def test_subprocess_nonzero_exit(tmp_path):
    node = _mt("any", artifact="raise ValueError('bad split')\n")
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0)
    report = err.value.report
    assert report.kind is FailureKind.NONZERO_EXIT
    assert "bad split" in report.stderr
    assert report.exit_code != 0


def test_subprocess_missing_result(tmp_path):
    node = _mt("any", artifact="print('done, forgot the file')\n")
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0)
    assert err.value.report.kind is FailureKind.MISSING_RESULT


def test_subprocess_unparseable_result(tmp_path):
    node = _mt("any", artifact='open("result.txt", "w").write("not a number")\n')
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0)
    assert err.value.report.kind is FailureKind.UNPARSEABLE_RESULT
    node2 = _mt("any", artifact='open("result.txt", "w").write("inf")\n')
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node2, tmp_path, 1.0)
    assert err.value.report.kind is FailureKind.UNPARSEABLE_RESULT


def test_subprocess_timeout(tmp_path):
    node = _mt("any", artifact="import time\ntime.sleep(30)\n")
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0 / 60.0)  # one second
    assert err.value.report.kind is FailureKind.TIMEOUT


def test_subprocess_debug_mode_exposes_subset(tmp_path):
    script = """\
import os
with open("result.txt", "w") as fh:
    fh.write(os.environ.get("DATA_SUBSET_PERCENT", "none"))
"""
    node = _mt("any", artifact=script)
    value = subprocess_evaluate(
        node, tmp_path, 1.0,
        mode=EvalMode.DEBUG, subset_percent=10.0,
    )
    assert value == pytest.approx(10.0)


SUBSET_SCRIPT = """\
import os
with open("result.txt", "w") as fh:
    fh.write(os.environ.get("DATA_SUBSET_PERCENT", "-1"))
"""


def test_subprocess_subset_reaches_debug_runs_only(tmp_path):
    """A full run sees no subset even when one is given; a debug run
    without one sees none either."""
    node = _mt("any", artifact=SUBSET_SCRIPT)
    full = subprocess_evaluate(node, tmp_path, 1.0,
                               mode=EvalMode.FULL, subset_percent=10.0)
    debug = subprocess_evaluate(node, tmp_path, 1.0, mode=EvalMode.DEBUG)
    assert full == -1.0
    assert debug == -1.0


def test_subprocess_runs_in_its_own_directory_with_a_minimal_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("IDEATREE_TEST_PROBE", "leaked")
    script = """\
import json, os
with open("seen.json", "w") as fh:
    json.dump({"cwd": os.getcwd(), "env": dict(os.environ)}, fh)
with open("result.txt", "w") as fh:
    fh.write("1")
"""
    node = _mt("any", artifact=script)
    subprocess_evaluate(node, tmp_path, 1.0)
    run_dir = tmp_path / "nodes" / f"node_{node.id:05d}_full"
    seen = json.loads((run_dir / "seen.json").read_text(encoding="utf-8"))
    assert Path(seen["cwd"]).resolve() == run_dir.resolve()
    assert seen["env"]["INPUT_DIR"] == str(tmp_path / "input")
    assert seen["env"]["HOME"] == str(run_dir)
    assert "IDEATREE_TEST_PROBE" not in seen["env"]
    assert "DATA_SUBSET_PERCENT" not in seen["env"]


def test_subprocess_modes_keep_separate_run_directories(tmp_path):
    script = """\
import os
print("subset", os.environ.get("DATA_SUBSET_PERCENT", "all"))
open("result.txt", "w").write("0.5")
"""
    node = _mt("any", artifact=script)
    subprocess_evaluate(node, tmp_path, 1.0, mode=EvalMode.DEBUG, subset_percent=5.0)
    subprocess_evaluate(node, tmp_path, 1.0, mode=EvalMode.FULL)
    for mode, printed in ((EvalMode.DEBUG, "subset 5.0\n"), (EvalMode.FULL, "subset all\n")):
        run_dir = tmp_path / "nodes" / f"node_{node.id:05d}_{mode.value}"
        assert (run_dir / "candidate.py").read_text(encoding="utf-8") == script
        assert (run_dir / "stdout.txt").read_text(encoding="utf-8") == printed


def test_subprocess_nonzero_exit_without_stderr(tmp_path):
    node = _mt("any", artifact="import sys\nsys.exit(3)\n")
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0)
    report = err.value.report
    assert report.kind is FailureKind.NONZERO_EXIT
    assert report.exit_code == 3
    assert report.message == "exit code 3: (no stderr)"
    run_dir = tmp_path / "nodes" / f"node_{node.id:05d}_full"
    assert (run_dir / "stderr.txt").read_text(encoding="utf-8") == ""


def test_subprocess_nonzero_exit_message_is_the_last_stderr_line(tmp_path):
    script = 'import sys\nsys.stderr.write("first\\nlast words\\n\\n  \\n")\nsys.exit(2)\n'
    node = _mt("any", artifact=script)
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0)
    assert err.value.report.message == "exit code 2: last words"
    assert str(err.value) == "exit code 2: last words"
    run_dir = tmp_path / "nodes" / f"node_{node.id:05d}_full"
    assert (run_dir / "stderr.txt").read_text(encoding="utf-8") == "first\nlast words\n\n  \n"


def test_subprocess_timeout_keeps_the_output_so_far(tmp_path):
    """The output a killed candidate wrote before its timeout reaches
    the report and the run directory as text."""
    script = """\
import sys, time
print("started", flush=True)
sys.stderr.write("working\\n")
sys.stderr.flush()
time.sleep(30)
"""
    node = _mt("any", artifact=script)
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0 / 60.0)
    report = err.value.report
    assert report.kind is FailureKind.TIMEOUT
    assert report.stdout == "started\n"
    assert report.stderr == "working\n"
    run_dir = tmp_path / "nodes" / f"node_{node.id:05d}_full"
    assert (run_dir / "stdout.txt").read_text(encoding="utf-8") == "started\n"
    assert (run_dir / "stderr.txt").read_text(encoding="utf-8") == "working\n"


def test_subprocess_result_whitespace_is_ignored(tmp_path):
    node = _mt("any", artifact='open("result.txt", "w").write("  \\n-0.25\\n\\n")\n')
    assert subprocess_evaluate(node, tmp_path, 1.0) == -0.25


@pytest.mark.parametrize("text", ["nan", "-inf", "", "1e400"])
def test_subprocess_non_finite_or_empty_result_is_unparseable(tmp_path, text):
    node = _mt("any", artifact=f'open("result.txt", "w").write({text!r})\n')
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, 1.0)
    report = err.value.report
    assert report.kind is FailureKind.UNPARSEABLE_RESULT
    assert report.exit_code == 0
    assert repr(text) in report.message


def test_subprocess_evaluator_port(tmp_path):
    ev = SubprocessEvaluator(tmp_path, 1.0)
    node = _mt("any", artifact=OK_SCRIPT)
    assert ev.evaluate(node, EvalMode.FULL) == pytest.approx(0.875)
    assert ev.cost(EvalMode.FULL) is None


def test_subprocess_evaluator_passes_its_subset_to_debug_runs(tmp_path):
    ev = SubprocessEvaluator(tmp_path, 1.0, subset_percent=25.0)
    node = _mt("any", artifact=SUBSET_SCRIPT)
    assert ev.evaluate(node, EvalMode.DEBUG) == 25.0
    assert ev.evaluate(node, EvalMode.FULL) == -1.0
    assert ev.cost(EvalMode.DEBUG) is None


class _EndingClock(WallClock):
    """A wall clock whose remaining time is fixed, in minutes."""

    def __init__(self, remaining: float):
        super().__init__(budget_minutes=30.0)
        self._remaining = remaining

    def remaining(self) -> float:
        return self._remaining


@pytest.mark.parametrize("remaining, timeout", [
    (2.0 / 60.0, 2.0 / 60.0),
    (0.0, MIN_TIMEOUT_MINUTES),
    (-5.0, MIN_TIMEOUT_MINUTES),
])
def test_subprocess_timeout_is_clamped_to_the_runs_remaining_time(tmp_path, remaining, timeout):
    """Under a wall clock near the end of its budget a sleeping
    candidate fails by timeout within seconds, not after
    runtime_error_time; a spent budget still gets the floor."""
    ev = SubprocessEvaluator(tmp_path, 30.0, clock=_EndingClock(remaining))
    node = _mt("any", artifact="import time\ntime.sleep(30)\n")
    start = time.monotonic()
    with pytest.raises(EvaluationFailure) as err:
        ev.evaluate(node, EvalMode.FULL)
    assert err.value.report.kind is FailureKind.TIMEOUT
    assert err.value.report.message == f"exceeded {timeout} minutes"
    assert time.monotonic() - start < timeout * 60.0 + 10.0


def test_subprocess_timeout_is_not_clamped_off_a_wall_clock(tmp_path):
    """A simulated clock counts cost units, not minutes, and a wall
    clock with more time left than the limit leaves the limit alone."""
    node = _mt("any", artifact=OK_SCRIPT)
    for clock in (None, SimulatedClock(0.001), _EndingClock(5.0)):
        ev = SubprocessEvaluator(tmp_path, 1.0, clock=clock)
        assert ev._call_minutes() == 1.0
        assert ev.evaluate(node, EvalMode.FULL) == pytest.approx(0.875)
