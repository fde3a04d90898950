"""Simulated landscape, subprocess execution, fast-mode caps, debug loop."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideatree.clock import SimulatedClock, WallClock
from ideatree.embedding import render_idea_vector
from ideatree.errors import EvaluationFailure, InvalidParams, UnparseableIdea
from ideatree.evaluation import (
    DebugOutcome,
    ErrorLog,
    EvalMode,
    ExecLimits,
    FailureKind,
    FailureReport,
    FastModeTransform,
    MIN_TIMEOUT_MINUTES,
    LandscapeConfig,
    SimulatedEvaluator,
    SubprocessEvaluator,
    apply_fast_mode,
    debug_loop,
    error_signature,
    restore_fast_mode,
    simulated_evaluate,
    subprocess_evaluate,
)
from ideatree.tree import IdeationTree, NodeLevel, Provenance

from helpers import HIGHER, LOWER, reference_simulated_evaluate


def _mt(idea, provenance=None, artifact=None):
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "0.0,0.0")
    extra = tree.spawn(tree.root.id, NodeLevel.FE, "0.1,0.1")
    node = tree.spawn(fe.id, NodeLevel.MT, idea, provenance=provenance, code_artifact=artifact)
    return node


# ---- landscape config ----

def test_landscape_validation():
    with pytest.raises(InvalidParams):
        LandscapeConfig(dimension=0)
    with pytest.raises(InvalidParams):
        LandscapeConfig(dimension=2, optimum=(0.0,))
    with pytest.raises(InvalidParams):
        LandscapeConfig(dimension=1, noise_sigma=-1.0)
    with pytest.raises(InvalidParams):
        LandscapeConfig(dimension=1, debug_cost=2.0, full_cost=1.0)
    cfg = LandscapeConfig(dimension=3)
    assert cfg.optimum == (0.0, 0.0, 0.0)


# ---- simulated evaluation ----

def test_simulated_score_at_optimum():
    cfg = LandscapeConfig(dimension=2, optimum=(0.5, -0.5))
    node = _mt("0.5,-0.5")
    rng = np.random.default_rng(0)
    assert simulated_evaluate(node, cfg, HIGHER, rng) == pytest.approx(1.0)


def test_simulated_quality_decays_with_distance():
    cfg = LandscapeConfig(dimension=1)
    rng = np.random.default_rng(0)
    near = simulated_evaluate(_mt("0.1"), cfg, HIGHER, rng)
    far = simulated_evaluate(_mt("3.0"), cfg, HIGHER, rng)
    assert near > far
    assert near == pytest.approx(1.0 / 1.1)
    assert far == pytest.approx(1.0 / 4.0)


def test_simulated_lower_better_flips():
    cfg = LandscapeConfig(dimension=1)
    rng = np.random.default_rng(0)
    node = _mt("1.0")
    hi = simulated_evaluate(node, cfg, HIGHER, rng)
    lo = simulated_evaluate(node, cfg, LOWER, rng)
    assert lo == pytest.approx(1.0 - hi)


def test_simulated_merge_bonus():
    cfg = LandscapeConfig(dimension=1, merge_bonus=0.2)
    rng = np.random.default_rng(0)
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "0.0")
    a = tree.spawn(fe.id, NodeLevel.MT, "0.9")
    b = tree.spawn(fe.id, NodeLevel.MT, "1.1")
    plain = simulated_evaluate(_mt("1.0"), cfg, HIGHER, rng)
    merged_node = tree.spawn(fe.id, NodeLevel.MT, "1.0", provenance=Provenance.merged(a.id, b.id))
    merged = simulated_evaluate(merged_node, cfg, HIGHER, rng)
    assert merged == pytest.approx(plain * 1.2)


def test_simulated_rejects_wrong_dimension():
    cfg = LandscapeConfig(dimension=3)
    with pytest.raises(UnparseableIdea):
        simulated_evaluate(_mt("1.0,2.0"), cfg, HIGHER, np.random.default_rng(0))
    with pytest.raises(UnparseableIdea):
        simulated_evaluate(_mt("not numbers"), cfg, HIGHER, np.random.default_rng(0))


def test_evaluator_noise_is_repeatable_per_idea():
    cfg = LandscapeConfig(dimension=1, noise_sigma=0.1)
    ev = SimulatedEvaluator(cfg, HIGHER, seed=7)
    a = _mt("0.4")
    b = _mt("0.4")
    c = _mt("0.6")
    assert ev.evaluate(a, EvalMode.FULL) == ev.evaluate(b, EvalMode.FULL)
    assert ev.evaluate(a, EvalMode.FULL) == ev.evaluate(a, EvalMode.FULL)
    assert ev.evaluate(a, EvalMode.FULL) != ev.evaluate(c, EvalMode.FULL)
    other_seed = SimulatedEvaluator(cfg, HIGHER, seed=8)
    assert ev.evaluate(a, EvalMode.FULL) != other_seed.evaluate(a, EvalMode.FULL)


_COORD = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(1, 8), st.data())
def test_simulated_evaluator_matches_its_numpy_form(seed, dimension, data):
    """The evaluator gives the float of the form that builds a keyed
    Generator on every call and measures with np.linalg.norm, bit for
    bit: with and without noise, merged or generated, either direction,
    in both modes."""
    coords = st.lists(_COORD, min_size=dimension, max_size=dimension)
    landscape = LandscapeConfig(
        dimension=dimension,
        optimum=tuple(data.draw(coords)),
        noise_sigma=data.draw(st.just(0.0) | st.floats(1e-6, 5.0)),
        merge_bonus=data.draw(st.just(0.0) | st.floats(-2.0, 2.0)),
    )
    metric = data.draw(st.sampled_from([HIGHER, LOWER]))
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    a = tree.spawn(fe.id, NodeLevel.MT, "a")
    b = tree.spawn(fe.id, NodeLevel.MT, "b")
    provenance = Provenance.merged(a.id, b.id) if data.draw(st.booleans()) else None
    node = tree.spawn(fe.id, NodeLevel.MT, render_idea_vector(data.draw(coords)),
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
    value = subprocess_evaluate(node, tmp_path, ExecLimits(wall_minutes=1.0), HIGHER)
    assert value == pytest.approx(0.875)
    run_dir = tmp_path / "nodes" / f"node_{node.id:05d}_full"
    assert (run_dir / "stdout.txt").exists()
    assert (run_dir / "stderr.txt").exists()


def test_subprocess_no_artifact(tmp_path):
    node = _mt("any")
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, ExecLimits(wall_minutes=1.0), HIGHER)
    assert err.value.report.kind is FailureKind.BAD_IDEA


def test_subprocess_nonzero_exit(tmp_path):
    node = _mt("any", artifact="raise ValueError('bad split')\n")
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, ExecLimits(wall_minutes=1.0), HIGHER)
    report = err.value.report
    assert report.kind is FailureKind.NONZERO_EXIT
    assert "bad split" in report.stderr
    assert report.exit_code != 0


def test_subprocess_missing_result(tmp_path):
    node = _mt("any", artifact="print('done, forgot the file')\n")
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, ExecLimits(wall_minutes=1.0), HIGHER)
    assert err.value.report.kind is FailureKind.MISSING_RESULT


def test_subprocess_unparseable_result(tmp_path):
    node = _mt("any", artifact='open("result.txt", "w").write("not a number")\n')
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, ExecLimits(wall_minutes=1.0), HIGHER)
    assert err.value.report.kind is FailureKind.UNPARSEABLE_RESULT
    node2 = _mt("any", artifact='open("result.txt", "w").write("inf")\n')
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node2, tmp_path, ExecLimits(wall_minutes=1.0), HIGHER)
    assert err.value.report.kind is FailureKind.UNPARSEABLE_RESULT


def test_subprocess_timeout(tmp_path):
    node = _mt("any", artifact="import time\ntime.sleep(30)\n")
    limits = ExecLimits(wall_minutes=1.0 / 60.0)  # one second
    with pytest.raises(EvaluationFailure) as err:
        subprocess_evaluate(node, tmp_path, limits, HIGHER)
    assert err.value.report.kind is FailureKind.TIMEOUT


def test_subprocess_debug_mode_exposes_subset(tmp_path):
    script = """\
import os
with open("result.txt", "w") as fh:
    fh.write(os.environ.get("DATA_SUBSET_PERCENT", "none"))
"""
    node = _mt("any", artifact=script)
    value = subprocess_evaluate(
        node, tmp_path, ExecLimits(wall_minutes=1.0), HIGHER,
        mode=EvalMode.DEBUG, subset_percent=10.0,
    )
    assert value == pytest.approx(10.0)


def test_subprocess_evaluator_port(tmp_path):
    ev = SubprocessEvaluator(tmp_path, ExecLimits(wall_minutes=1.0), HIGHER)
    node = _mt("any", artifact=OK_SCRIPT)
    assert ev.evaluate(node, EvalMode.FULL) == pytest.approx(0.875)
    assert ev.cost(EvalMode.FULL) is None


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
    limits = ExecLimits(wall_minutes=30.0)
    ev = SubprocessEvaluator(tmp_path, limits, HIGHER, clock=_EndingClock(remaining))
    node = _mt("any", artifact="import time\ntime.sleep(30)\n")
    start = time.monotonic()
    with pytest.raises(EvaluationFailure) as err:
        ev.evaluate(node, EvalMode.FULL)
    assert err.value.report.kind is FailureKind.TIMEOUT
    assert err.value.report.message == f"exceeded {timeout} minutes"
    assert time.monotonic() - start < timeout * 60.0 + 10.0
    assert ev.limits is limits


def test_subprocess_timeout_is_not_clamped_off_a_wall_clock(tmp_path):
    """A simulated clock counts cost units, not minutes, and a wall
    clock with more time left than the limit leaves the limit alone."""
    limits = ExecLimits(wall_minutes=1.0)
    node = _mt("any", artifact=OK_SCRIPT)
    for clock in (None, SimulatedClock(0.001), _EndingClock(5.0)):
        ev = SubprocessEvaluator(tmp_path, limits, HIGHER, clock=clock)
        assert ev._call_limits() is limits
        assert ev.evaluate(node, EvalMode.FULL) == pytest.approx(0.875)


def test_exec_limits_validation():
    with pytest.raises(InvalidParams):
        ExecLimits(wall_minutes=0.0)


# ---- fast mode ----

SLOW_CODE = """\
import sys
epochs = 100
n_estimators = 500
learning_rate = 0.1
train(epochs, n_estimators)
"""


def test_apply_fast_mode_caps_assignments():
    transform = FastModeTransform(rules={"epochs": 2, "n_estimators": 10})
    fast, token = apply_fast_mode(SLOW_CODE, transform)
    assert "epochs = 2" in fast
    assert "n_estimators = 10" in fast
    assert "learning_rate = 0.1" in fast  # untouched, not an int rule
    assert token.original == SLOW_CODE
    assert len(token.replacements) == 2


def test_apply_fast_mode_leaves_small_values():
    transform = FastModeTransform(rules={"epochs": 100})
    code = "epochs = 3\n"
    fast, token = apply_fast_mode(code, transform)
    assert fast == code
    assert token.replacements == ()


def test_apply_fast_mode_skips_non_assignment_uses():
    transform = FastModeTransform(rules={"epochs": 2})
    code = "run(epochs = 100)\nresults[epochs] = 100\n"
    fast, _ = apply_fast_mode(code, transform)
    assert fast == code


def test_restore_untouched_is_byte_exact():
    transform = FastModeTransform(rules={"epochs": 2, "n_estimators": 10})
    fast, token = apply_fast_mode(SLOW_CODE, transform)
    assert restore_fast_mode(fast, token) == SLOW_CODE


def test_restore_after_fixer_edit_keeps_the_fix():
    transform = FastModeTransform(rules={"epochs": 2})
    fast, token = apply_fast_mode(SLOW_CODE, transform)
    fixed = fast.replace("import sys", "import sys\nimport os")
    restored = restore_fast_mode(fixed, token)
    assert "import os" in restored
    assert "epochs = 100" in restored
    assert "epochs = 2" not in restored


def test_fast_mode_transform_validation():
    with pytest.raises(InvalidParams):
        FastModeTransform(rules={"epochs": 0})
    with pytest.raises(InvalidParams):
        FastModeTransform(subset_fraction=0.0)
    with pytest.raises(InvalidParams):
        FastModeTransform(subset_fraction=150.0)


# ---- error signatures ----

def test_error_signature_normalizes_volatile_parts():
    a = error_signature("KeyError", "missing row 17 in /tmp/run4/data.csv")
    b = error_signature("KeyError", "missing row 99 in /var/other/data.csv")
    assert a == b
    assert error_signature("ValueError", "missing row 17") != a
    assert len(a) == 16


def test_error_log_bookkeeping():
    log = ErrorLog()
    sig = error_signature("ValueError", "boom")
    assert not log.seen(sig)
    log.record_error(sig, "ValueError", node_id=3, attempt=1)
    assert log.seen(sig)
    assert log.records[sig].attempts == 1
    log.record_success(node_id=3, attempt=2)
    log.set_outcome(sig, "fixed")
    assert log.records[sig].outcome == "fixed"
    assert [a["ok"] for a in log.attempts] == [False, True]


# ---- debug loop ----

class ScriptedPort:
    """Evaluation port that fails according to a script of reports."""

    def __init__(self, script):
        self.script = list(script)
        self.seen_artifacts = []

    def evaluate(self, node, mode):
        assert mode is EvalMode.DEBUG
        self.seen_artifacts.append(node.code_artifact)
        step = self.script.pop(0)
        if step is None:
            return 0.5
        raise EvaluationFailure(step.message, report=step)

    def cost(self, mode):
        return None


def _report(kind, message):
    return FailureReport(kind=kind, message=message)


def test_debug_loop_success_restores_caps_keeps_fix():
    node = _mt("any", artifact=SLOW_CODE)
    report = _report(FailureKind.NONZERO_EXIT, "NameError: train")
    port = ScriptedPort([report, None])

    def fixer(code, rep):
        return code.replace("train(", "print(")

    log = ErrorLog()
    outcome = debug_loop(node, port, fixer, FastModeTransform(rules={"epochs": 2}), 3, log)
    assert outcome is DebugOutcome.DEBUGGED_OK
    assert "print(" in node.code_artifact
    assert "epochs = 100" in node.code_artifact  # caps undone
    assert "epochs = 2" in port.seen_artifacts[0]  # but the runs used the caps


def test_debug_loop_clean_first_run_restores_exact_artifact():
    node = _mt("any", artifact=SLOW_CODE)
    port = ScriptedPort([None])
    outcome = debug_loop(node, port, lambda c, r: c, FastModeTransform(rules={"epochs": 2}), 3, ErrorLog())
    assert outcome is DebugOutcome.DEBUGGED_OK
    assert node.code_artifact == SLOW_CODE


def test_debug_loop_recurring_signature_regenerates():
    node = _mt("any", artifact="code v1\n")
    same = _report(FailureKind.NONZERO_EXIT, "KeyError: 'target' at line 44")
    same_again = _report(FailureKind.NONZERO_EXIT, "KeyError: 'target' at line 91")
    port = ScriptedPort([same, same_again])
    log = ErrorLog()
    outcome = debug_loop(node, port, lambda c, r: c + "# attempt\n", FastModeTransform(), 5, log)
    assert outcome is DebugOutcome.REGENERATE
    assert node.code_artifact == "code v1\n"  # untouched on non-success
    sig = error_signature(FailureKind.NONZERO_EXIT.value, same.message)
    assert log.records[sig].attempts == 2
    assert log.records[sig].outcome == "regenerated"


def test_debug_loop_cross_node_recurrence():
    log = ErrorLog()
    report = _report(FailureKind.NONZERO_EXIT, "KeyError: 'target'")
    first = _mt("any", artifact="a\n")
    assert debug_loop(first, ScriptedPort([report, None]), lambda c, r: c, FastModeTransform(), 3, log) \
        is DebugOutcome.DEBUGGED_OK
    # a different node hitting the same signature bails out immediately
    second = _mt("any", artifact="b\n")
    outcome = debug_loop(second, ScriptedPort([report]), lambda c, r: c, FastModeTransform(), 3, log)
    assert outcome is DebugOutcome.REGENERATE


def test_debug_loop_abandons_after_max_retries():
    node = _mt("any", artifact="original\n")
    reports = [
        _report(FailureKind.NONZERO_EXIT, "error alpha"),
        _report(FailureKind.NONZERO_EXIT, "error beta"),
        _report(FailureKind.NONZERO_EXIT, "error gamma"),
    ]
    port = ScriptedPort(reports)
    log = ErrorLog()
    outcome = debug_loop(node, port, lambda c, r: c + "#\n", FastModeTransform(), 3, log)
    assert outcome is DebugOutcome.ABANDONED
    assert node.code_artifact == "original\n"
    assert len(port.seen_artifacts) == 3
    assert len(log.records) == 3


def test_debug_loop_parameter_validation():
    node = _mt("any", artifact="x\n")
    with pytest.raises(InvalidParams):
        debug_loop(node, ScriptedPort([None]), lambda c, r: c, FastModeTransform(), 0, ErrorLog())
    bare = _mt("any")
    with pytest.raises(EvaluationFailure):
        debug_loop(bare, ScriptedPort([None]), lambda c, r: c, FastModeTransform(), 3, ErrorLog())
