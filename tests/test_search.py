"""Selection primitives, merge memory, and both stages.

The softmax implementation is checked against a 50-digit mpmath oracle;
sampling weights are checked against Monte Carlo frequencies.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import combinations
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ideatree.errors import (
    BudgetExhausted,
    EmptyInput,
    GeneratorFailure,
    InsufficientParents,
    InvalidParams,
    NoEvaluatedChildren,
    NonFiniteScore,
)
from ideatree.clock import SimulatedClock, WallClock
from ideatree.config import RunConfig
from ideatree.evaluation import EvalMode
from ideatree.events import EventKind, RunLog
from ideatree.generation import SegmentTag
from ideatree.search import (
    SMALL_DRAW,
    MergeMemory,
    PendingSet,
    _book_merge,
    _draw_index,
    _pairwise_sum,
    _sample_scored_fe,
    adding_stage,
    draw_merge_pairs,
    evaluation_modes,
    merge_delta,
    merging_stage,
    orient_scores,
    pair_key,
    sample_top,
    softmax_select,
)
from ideatree.tree import (
    NodeLevel,
    NodeStatus,
    ProvenanceKind,
    backpropagate,
)

from helpers import (
    HIGHER,
    LOWER,
    RecordingEvaluator,
    SleepyEvaluator,
    attach_evaluated_fe,
    children,
    make_world,
    new_tree,
    of_kind,
    reference_numpy_draw,
    reference_sample_scored_fe,
    spawn,
)


def softmax_oracle(scores, temperature=1.0):
    """High-precision softmax, independent of the engine implementation."""
    with mpmath.workdps(50):
        exps = [mpmath.exp(mpmath.mpf(repr(s)) / mpmath.mpf(repr(temperature))) for s in scores]
        total = mpmath.fsum(exps)
        return [float(e / total) for e in exps]


# ---- orientation ----

def test_orient_scores_directions():
    assert orient_scores([0.3, -1.0], HIGHER) == [0.3, -1.0]
    assert orient_scores([0.3, -1.0], LOWER) == [-0.3, 1.0]


def test_orient_scores_rejects_non_finite():
    with pytest.raises(NonFiniteScore):
        orient_scores([0.1, float("nan")], HIGHER)


# ---- softmax ----

def test_softmax_matches_oracle_known_case():
    dist = softmax_select([1.0, 2.0, 3.0])
    want = softmax_oracle([1.0, 2.0, 3.0])
    for got, expected in zip(dist.probabilities, want):
        assert got == pytest.approx(expected, abs=1e-12)


def test_softmax_matches_oracle_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        scores = (rng.normal(0, 50, n)).tolist()
        tau = float(rng.uniform(0.1, 5.0))
        dist = softmax_select(scores, tau)
        want = softmax_oracle(scores, tau)
        for got, expected in zip(dist.probabilities, want):
            assert got == pytest.approx(expected, abs=1e-12)


def test_softmax_extreme_scores_no_overflow():
    dist = softmax_select([1000.0, 0.0])
    assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert math.isfinite(sum(dist.probabilities))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        scores = rng.normal(0, 5, 6)
        base = softmax_select(scores.tolist()).probabilities
        shifted = softmax_select((scores + 123.456).tolist()).probabilities
        for a, b in zip(base, shifted):
            assert a == pytest.approx(b, abs=1e-12)


def test_softmax_monotone_in_score():
    probs = softmax_select([0.1, 0.9, 0.5]).probabilities
    assert probs[1] > probs[2] > probs[0]


def test_softmax_input_validation():
    with pytest.raises(EmptyInput):
        softmax_select([])
    with pytest.raises(InvalidParams):
        softmax_select([1.0], temperature=0.0)
    with pytest.raises(NonFiniteScore):
        softmax_select([float("inf"), 1.0])


# weights that cover n == 1, zero entries, subnormal and tiny masses
# beside large ones, and many equal entries
_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-320, 1e-300),
              st.floats(0.0, 1.0), st.floats(1.0, 1e300)),
    min_size=1, max_size=40,
).filter(lambda w: 0.0 < math.fsum(w) < math.inf)


@settings(max_examples=500, deadline=None)
@given(_WEIGHTS, st.integers(0, 2**32 - 1))
def test_draw_index_matches_generator_choice(weights, seed):
    """Inverting one uniform draw through the cdf gives the index
    ``Generator.choice(n, p=p)`` gives, and leaves the generator in the
    same state, draw after draw."""
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    ours, listed = np.random.default_rng(seed), np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    for _ in range(5):
        got = _draw_index(p, ours)
        assert type(got) is int
        assert got == theirs.choice(len(p), p=p)
        assert p[got] > 0
        assert ours.bit_generator.state == theirs.bit_generator.state
        # the small draws hand it a list of the same floats
        assert _draw_index(p.tolist(), listed) == got
        assert listed.bit_generator.state == theirs.bit_generator.state


class _FixedUniform:
    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize("u, index", [(0.0, 1), (0.25, 1), (0.5, 3), (0.75, 3)])
def test_draw_index_skips_zero_mass_at_cdf_steps(u, index):
    """A uniform draw equal to a cdf value goes to the next entry with
    mass, as in ``Generator.choice``: never to an entry of zero mass."""
    assert _draw_index(np.array([0.0, 0.5, 0.0, 0.5]), _FixedUniform(u)) == index
    assert _draw_index([0.0, 0.5, 0.0, 0.5], _FixedUniform(u)) == index


def test_sample_without_replacement_basics():
    dist = softmax_select([1.0, 1.0, 1.0], node_ids=[10, 20, 30])
    rng = np.random.default_rng(0)
    picked = dist.sample_without_replacement(2, rng)
    assert len(picked) == len(set(picked)) == 2
    assert set(picked) <= {10, 20, 30}
    # asking for more than exists returns everything
    assert sorted(dist.sample_without_replacement(99, rng)) == [10, 20, 30]


def test_sample_without_replacement_stops_when_the_mass_left_is_zero():
    """Every probability but the first underflows to zero: one draw is
    made, and then the draws stop instead of renormalizing a zero sum."""
    dist = softmax_select([1e6, -1e6, -1e6], 0.05, node_ids=[7, 8, 9])
    assert dist.probabilities.tolist() == [1.0, 0.0, 0.0]
    rng = np.random.default_rng(3)
    reference = np.random.default_rng(3)
    assert dist.sample_without_replacement(2, rng) == [7]
    # the one draw consumed the stream as an ordinary draw does
    assert reference.choice(3, p=dist.probabilities) == 0
    assert rng.bit_generator.state == reference.bit_generator.state


# ---- small draws on Python floats ----

@settings(max_examples=300, deadline=None)
@given(st.integers(0, SMALL_DRAW).flatmap(lambda n: st.lists(
    st.one_of(st.floats(0.0, 1.0), st.floats(-1e150, 1e150), st.just(-0.0)),
    min_size=n, max_size=n)))
@example([-0.0] * 9)
def test_pairwise_sum_is_numpys_sum(values):
    """The small draws' totals are numpy's, float for float, at every
    size they take: a numpy whose summation order changed fails here
    rather than moving run trajectories."""
    want = float(np.sum(np.asarray(values, dtype=float)))
    assert np.float64(_pairwise_sum(values)).tobytes() == np.float64(want).tobytes()


@st.composite
def _draw_cases(draw):
    """Scores on both sides of the cut-off, some spread far enough that
    all but one probability underflows, with ids as a list, an array
    or not given."""
    n = draw(st.integers(1, SMALL_DRAW + 8))
    score = draw(st.sampled_from((st.floats(-1e6, 1e6), st.sampled_from((1e6, -1e6, 0.0)),
                                  st.floats(-3.0, 3.0))))
    scores = draw(st.lists(score, min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    ids = draw(st.sampled_from((ids, np.asarray(ids, dtype=np.int64), None)))
    return (scores, draw(st.booleans()), draw(st.floats(0.05, 100.0)),
            draw(st.sampled_from((HIGHER, LOWER))), ids, draw(st.integers(0, n + 1)),
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=400, deadline=None)
@given(_draw_cases())
@example(([1e6, -1e6, -1e6], False, 0.05, HIGHER, [7, 8, 9], 2, 3))
@example(([1e6, -1e6, -1e6], True, 0.05, LOWER, None, 4, 3))
def test_softmax_draws_match_the_numpy_reference(case):
    """Below and above ``SMALL_DRAW``, a softmax draw computes the
    probabilities the numpy-only draw computes, inverts the same
    vectors it hands ``rng.choice``, float for float, picks the same
    ids and leaves the generator in the same state."""
    scores, as_array, temperature, metric, ids, k, seed = case
    oriented = metric.orient(np.asarray(scores, dtype=float))
    if not as_array:
        oriented = oriented.tolist()
    reference = np.random.default_rng(seed)
    probabilities, expected, vectors = reference_numpy_draw(
        oriented, temperature, ids, k, reference)
    dist = softmax_select(oriented, temperature, ids)
    assert dist.probabilities.dtype == np.float64
    assert dist.probabilities.tobytes() == probabilities.tobytes()
    rng = _RecordingRng(seed)
    with mock.patch("ideatree.search._draw_index", _recording_draw_index):
        got = dist.sample_without_replacement(k, rng)
    assert got == expected
    assert all(type(i) is int for i in got)
    assert rng.vectors == vectors
    assert rng.inner.bit_generator.state == reference.bit_generator.state


# ---- sample_top ----

def _tree_with_children(scores, metric_vals=None):
    tree = new_tree("root")
    fe_id = attach_evaluated_fe(tree, scores)
    return tree, fe_id


def test_sample_top_equal_scores_frequencies():
    tree, fe_id = _tree_with_children([0.5, 0.5])
    child_ids = [c.id for c in children(tree, fe_id)]
    rng = np.random.default_rng(11)
    counts = {cid: 0 for cid in child_ids}
    for _ in range(10_000):
        picked = sample_top(tree, fe_id, 1, rng, metric=HIGHER, temperature=1.0,
                            proportional=False)
        counts[picked[0].id] += 1
    for cid in child_ids:
        assert counts[cid] / 10_000 == pytest.approx(0.5, abs=0.05)


def test_sample_top_softmax_frequencies_match_oracle():
    tree, fe_id = _tree_with_children([0.0, 1.0, 2.0])
    rng = np.random.default_rng(12)
    want = softmax_oracle([0.0, 1.0, 2.0])
    child_ids = [c.id for c in children(tree, fe_id)]
    counts = {cid: 0 for cid in child_ids}
    for _ in range(10_000):
        picked = sample_top(tree, fe_id, 1, rng, metric=HIGHER, temperature=1.0,
                            proportional=False)
        counts[picked[0].id] += 1
    for cid, expected in zip(child_ids, want):
        assert counts[cid] / 10_000 == pytest.approx(expected, abs=0.05)


def test_sample_top_proportional_mode():
    tree, fe_id = _tree_with_children([1.0, 3.0])
    rng = np.random.default_rng(13)
    child_ids = [c.id for c in children(tree, fe_id)]
    counts = {cid: 0 for cid in child_ids}
    for _ in range(10_000):
        picked = sample_top(tree, fe_id, 1, rng, metric=HIGHER, temperature=1.0,
                            proportional=True)
        counts[picked[0].id] += 1
    assert counts[child_ids[0]] / 10_000 == pytest.approx(0.25, abs=0.05)
    assert counts[child_ids[1]] / 10_000 == pytest.approx(0.75, abs=0.05)


def test_sample_top_proportional_rejects_non_positive():
    tree, fe_id = _tree_with_children([1.0, -3.0])
    rng = np.random.default_rng(14)
    with pytest.raises(InvalidParams):
        sample_top(tree, fe_id, 1, rng, metric=HIGHER, temperature=1.0, proportional=True)


def test_sample_top_orientation_lower_better():
    tree, fe_id = _tree_with_children([0.1, 5.0])  # 0.1 is the good one
    rng = np.random.default_rng(15)
    good = children(tree, fe_id)[0].id
    wins = sum(
        sample_top(tree, fe_id, 1, rng, metric=LOWER, temperature=1.0,
                   proportional=False)[0].id == good
        for _ in range(2000)
    )
    assert wins / 2000 > 0.9


def test_sample_top_k_edge_cases():
    tree, fe_id = _tree_with_children([0.2, 0.4])
    rng = np.random.default_rng(16)
    softmax = {"metric": HIGHER, "temperature": 1.0, "proportional": False}
    assert sample_top(tree, fe_id, 0, rng, **softmax) == []
    both = sample_top(tree, fe_id, 5, rng, **softmax)
    assert len(both) == 2 and len({n.id for n in both}) == 2
    empty_fe = spawn(tree, tree.root.id, NodeLevel.FE, "no kids")
    with pytest.raises(NoEvaluatedChildren):
        sample_top(tree, empty_fe.id, 1, rng, **softmax)


# ---- merge memory ----

def test_pair_key_canonical_and_distinct():
    assert pair_key(7, 3) == (3, 7) == pair_key(3, 7)
    with pytest.raises(InvalidParams):
        pair_key(4, 4)


def test_memory_promotion_at_threshold():
    mem = MergeMemory(theta_fail=2)
    key = pair_key(1, 2)
    assert mem.record_failure(key) is False
    assert mem.short_term[key] == 1 and key not in mem.long_term
    assert mem.record_failure(key) is True
    assert key in mem.long_term and key not in mem.short_term


def test_memory_theta_one_promotes_immediately():
    mem = MergeMemory(theta_fail=1)
    key = pair_key(1, 2)
    assert mem.record_failure(key) is True
    assert key in mem.long_term and not mem.short_term


def test_memory_success_goes_long():
    mem = MergeMemory(theta_fail=3)
    key = pair_key(5, 9)
    mem.record_failure(key)
    mem.record_success(key)
    assert key in mem.long_term and key not in mem.short_term


def test_memory_partition_always_disjoint():
    rng = np.random.default_rng(17)
    mem = MergeMemory(theta_fail=2)
    keys = [pair_key(int(a), int(b)) for a, b in rng.integers(0, 12, size=(300, 2)) if a != b]
    for key in keys:
        if rng.random() < 0.8:
            mem.record_failure(key)
        else:
            mem.record_success(key)
        assert not (set(mem.short_term) & mem.long_term)
        assert all(v < mem.theta_fail for v in mem.short_term.values())


# ---- merge verdict ----

def _booked_verdict(tree, merged, a, b, metric, epsilon):
    """The outcome the merging stage books for a committed merge, with
    the memory it leaves."""
    mem, log = MergeMemory(theta_fail=2), RunLog()
    _book_merge(tree, mem, pair_key(a, b), merged, metric, epsilon, log)
    (event,) = of_kind(log, EventKind.MERGE_ATTEMPTED)
    key = pair_key(a, b)
    if event["payload"]["outcome"] == "success":
        assert key in mem.long_term and not mem.short_term
    else:
        assert mem.short_term == {key: 1} and not mem.long_term
    return event["payload"]["outcome"]


def test_merge_delta_lower_better_example():
    tree = new_tree("root")
    a = attach_evaluated_fe(tree, [0.30, 0.9])
    b = attach_evaluated_fe(tree, [0.25, 0.8])
    merged = attach_evaluated_fe(tree, [0.20])
    assert merge_delta(tree, merged, a, b, LOWER) == pytest.approx(0.05)
    assert _booked_verdict(tree, merged, a, b, LOWER, epsilon=0.04) == "success"
    # the delta must beat epsilon
    assert _booked_verdict(tree, merged, a, b, LOWER, epsilon=0.05) == "failure"


def test_merge_tie_is_failure():
    tree = new_tree("root")
    a = attach_evaluated_fe(tree, [0.7])
    b = attach_evaluated_fe(tree, [0.6])
    merged = attach_evaluated_fe(tree, [0.7])
    assert _booked_verdict(tree, merged, a, b, HIGHER, epsilon=0.0) == "failure"


def test_merge_delta_requires_children():
    tree = new_tree("root")
    a = attach_evaluated_fe(tree, [0.7])
    b = attach_evaluated_fe(tree, [0.6])
    bare = spawn(tree, tree.root.id, NodeLevel.FE, "no children")
    with pytest.raises(NoEvaluatedChildren):
        merge_delta(tree, bare.id, a, b, HIGHER)


# ---- adding stage ----

def test_adding_stage_counting_invariant():
    for n, m, k in [(1, 1, 1), (2, 2, 2), (3, 2, 1), (1, 3, 3)]:
        world = make_world(seed=100 + n * 10 + m, n_fe=3, m_mt=2)
        fe_before = len(world.tree.fe_nodes())
        mt_before = len(world.tree.nodes_at_level(NodeLevel.MT))
        config = RunConfig(number_of_ideas_data=n, number_of_ideas_modelling=m,
                           number_of_selected_node=k, max_add_idea=m)
        adding_stage(world.tree, world.ctx, world.ports, config, world.rng)
        assert len(world.tree.fe_nodes()) == fe_before + n
        assert len(world.tree.nodes_at_level(NodeLevel.MT)) == mt_before + n * m + k * m


def test_adding_stage_new_nodes_scored_and_aggregated():
    world = make_world(seed=7)
    config = RunConfig(number_of_ideas_data=2, number_of_ideas_modelling=2,
                       number_of_selected_node=1)
    adding_stage(world.tree, world.ctx, world.ports, config, world.rng)
    for fe in world.tree.fe_nodes():
        kids = world.tree.evaluated_mt_children(fe.id)
        assert kids, f"fe {fe.id} ended with no evaluated children"
        assert fe.aggregated_score == pytest.approx(
            sum(c.raw_score for c in kids) / len(kids)
        )


def test_adding_stage_deterministic_for_seed():
    def run_once():
        world = make_world(seed=21)
        config = RunConfig(number_of_ideas_data=2, number_of_ideas_modelling=2,
                           number_of_selected_node=2)
        adding_stage(world.tree, world.ctx, world.ports, config, world.rng)
        return world.tree.snapshot()

    assert run_once() == run_once()


def test_adding_stage_generator_failure_leaves_tree():
    world = make_world(seed=5)

    class FailingGen:
        def enrich_eda(self, tree, ctx):
            return None

        def query_external(self, ctx):
            return []

        def propose_fe(self, ctx, n):
            raise GeneratorFailure("endpoint down")

    before = world.tree.snapshot()
    config = RunConfig(number_of_ideas_data=1, number_of_ideas_modelling=1,
                       number_of_selected_node=1)
    with pytest.raises(GeneratorFailure):
        adding_stage(world.tree, world.ctx, replace(world.ports, gen=FailingGen()), config,
                     world.rng)
    assert world.tree.snapshot() == before


@pytest.mark.parametrize("rag_policy, kept", [("always", 2), ("never", 0)])
def test_adding_stage_keeps_external_segments_up_to_the_cap(rag_policy, kept):
    """The stage asks the generator for external references unless
    ``rag_policy`` is ``never``, and appends at most ``number_rag_ideas``
    of them to the context."""
    world = make_world(seed=6)

    class ThreeReferences:
        def __init__(self, inner):
            self.inner = inner

        def query_external(self, ctx):
            return ["first", "second", "third"]

        def __getattr__(self, name):
            return getattr(self.inner, name)

    config = RunConfig(number_of_ideas_data=1, number_of_ideas_modelling=1,
                       number_of_selected_node=1, number_rag_ideas=2, rag_policy=rag_policy)
    adding_stage(world.tree, world.ctx, replace(world.ports, gen=ThreeReferences(world.gen)),
                 config, world.rng)
    external = [seg.text for seg in world.ctx.segments if seg.tag is SegmentTag.EXTERNAL]
    assert external == ["first", "second"][:kept]


def test_adding_stage_budget_exhaustion_commits_partial():
    world = make_world(seed=9, budget=1e9)
    # leave room for the pre-existing evaluations plus two more full runs
    spent = world.clock.elapsed()
    world.clock.budget = spent + 2.0 * world.syn.full_cost
    config = RunConfig(number_of_ideas_data=2, number_of_ideas_modelling=2,
                       number_of_selected_node=2)
    mt_before = len(world.tree.nodes_at_level(NodeLevel.MT))
    with pytest.raises(BudgetExhausted):
        adding_stage(world.tree, world.ctx, world.ports, config, world.rng)
    evaluated_new = [
        n for n in world.tree.nodes_at_level(NodeLevel.MT)
        if n.status is NodeStatus.EVALUATED
    ]
    # exactly two additional evaluations fit the remaining budget
    assert len(evaluated_new) == mt_before + 2
    # aggregates were refreshed before unwinding
    for fe in world.tree.fe_nodes():
        kids = world.tree.evaluated_mt_children(fe.id)
        if kids:
            assert fe.aggregated_score == pytest.approx(
                sum(c.raw_score for c in kids) / len(kids)
            )


def test_stages_charge_each_returned_call():
    """The stages charge ``cost(mode)`` for every debug and full call
    that returned, and nothing for a call that raised."""
    world = make_world(seed=13)
    evaluator = RecordingEvaluator(
        world.evaluator,
        fail=lambda node, mode: zlib.crc32(f"{node.idea_text}|{mode.value}".encode()) % 4 == 0,
    )
    ports = replace(world.ports, evaluator=evaluator)
    config = RunConfig(validation_attempts=2, number_of_ideas_data=3,
                       number_of_ideas_modelling=3, number_of_selected_node=2, max_add_idea=3,
                       number_of_selected_node_merging=3, number_of_iterations_children=1)
    adding_stage(world.tree, world.ctx, ports, config, world.rng)
    merging_stage(world.tree, MergeMemory(), ports, config, world.rng, ctx=world.ctx)
    raised = {mode for _, mode, returned in evaluator.calls if not returned}
    assert raised == {EvalMode.DEBUG, EvalMode.FULL}
    assert world.clock.elapsed() == pytest.approx(evaluator.returned_cost())


def test_unexpected_port_error_waits_for_jobs_in_flight():
    """A port error that is not a GeneratorFailure propagates, but only
    once the stage has waited for its evaluations and committed them."""
    world = make_world(seed=17)
    evaluator = SleepyEvaluator(world.evaluator, max_s=0.05)

    class BreaksOnThirdProposal:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def propose_mt(self, fe_node, ctx, m):
            self.calls += 1
            if self.calls == 3:
                raise RuntimeError("port bug")
            return self.inner.propose_mt(fe_node, ctx, m)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    before = set(world.tree.nodes)
    ports = replace(world.ports, gen=BreaksOnThirdProposal(world.gen), evaluator=evaluator)
    config = RunConfig(number_of_ideas_data=3, number_of_ideas_modelling=2,
                       number_of_selected_node=1)
    with ThreadPoolExecutor(max_workers=2) as pool:
        with pytest.raises(RuntimeError, match="port bug"):
            adding_stage(world.tree, world.ctx, ports, config, world.rng, pool=pool)
        # the pool is still open: the stage itself waited
        assert evaluator.started == evaluator.finished == 4
    fresh = [n for n in world.tree.nodes_at_level(NodeLevel.MT) if n.id not in before]
    assert len(fresh) == 4
    assert all(n.status is NodeStatus.EVALUATED for n in fresh)


def test_budget_projection_counts_validation_runs():
    """Pending jobs are projected at their validation runs plus their
    metric run: with room for less than two such jobs, the stage
    starts exactly two."""
    world = make_world(seed=9)
    job_cost = 2 * world.syn.debug_cost + world.syn.full_cost
    world.clock.budget = 2 * job_cost - 0.5 * world.syn.debug_cost
    mt_before = {n.id for n in world.tree.nodes_at_level(NodeLevel.MT)}
    config = RunConfig(validation_attempts=2, number_of_ideas_data=2,
                       number_of_ideas_modelling=2, number_of_selected_node=2)
    with pytest.raises(BudgetExhausted):
        adding_stage(world.tree, world.ctx, world.ports, config, world.rng)
    fresh = [n for n in world.tree.nodes_at_level(NodeLevel.MT) if n.id not in mt_before]
    assert sum(n.status is NodeStatus.EVALUATED for n in fresh) == 2
    assert world.clock.elapsed() == pytest.approx(2 * job_cost)


def _fresh_mt(world):
    """A new unevaluated MT node under the world's first FE node."""
    fe = world.tree.fe_nodes()[0]
    text = world.gen.propose_mt(fe, world.ctx, 1)[0]
    return spawn(world.tree, fe.id, NodeLevel.MT, text)


@pytest.mark.parametrize("attempts, accelerated", [(0, True), (2, True), (2, False)])
def test_pending_job_runs_its_validation_runs_then_the_metric_run(attempts, accelerated):
    """A job makes ``validation_attempts`` shake-out calls, in debug
    mode when accelerated and in full mode otherwise, then one full
    call whose value is the score; commit charges each call's cost."""
    world = make_world(seed=21)
    evaluator = RecordingEvaluator(world.evaluator)
    modes = evaluation_modes(
        RunConfig(validation_attempts=attempts, accelerated_debugging=accelerated))
    log = RunLog()
    pending = PendingSet(world.tree, evaluator, modes, clock=world.clock, log=log)
    node = _fresh_mt(world)
    pending.dispatch(node)
    pending.commit()
    shakeout = EvalMode.DEBUG if accelerated else EvalMode.FULL
    assert evaluator.calls == [(node.id, shakeout, True)] * attempts + [(node.id, EvalMode.FULL, True)]
    assert node.status is NodeStatus.EVALUATED
    assert node.raw_score == world.evaluator.evaluate(node, EvalMode.FULL)
    shakeout_cost = world.syn.debug_cost if accelerated else world.syn.full_cost
    assert world.clock.elapsed() == pytest.approx(
        attempts * shakeout_cost + world.syn.full_cost)
    (event,) = of_kind(log, EventKind.NODE_EVALUATED)
    assert event["payload"] == {"node_id": node.id, "raw_score": node.raw_score,
                             "status": NodeStatus.EVALUATED.value}


def test_failed_validation_run_skips_the_metric_run():
    """A shake-out call that raises ends the job: no later call is
    made, the node fails, and only the calls that returned are
    charged."""
    world = make_world(seed=22)
    debug_calls = []

    def second_debug_call_fails(node, mode):
        if mode is EvalMode.DEBUG:
            debug_calls.append(node.id)
            return len(debug_calls) == 2
        return False

    evaluator = RecordingEvaluator(world.evaluator, fail=second_debug_call_fails)
    log = RunLog()
    pending = PendingSet(world.tree, evaluator,
                         evaluation_modes(RunConfig(validation_attempts=3)),
                         clock=world.clock, log=log)
    node = _fresh_mt(world)
    pending.dispatch(node)
    pending.commit()
    assert evaluator.calls == [(node.id, EvalMode.DEBUG, True), (node.id, EvalMode.DEBUG, False)]
    assert node.status is NodeStatus.FAILED
    assert node.raw_score is None
    assert world.clock.elapsed() == pytest.approx(world.syn.debug_cost)
    (event,) = of_kind(log, EventKind.NODE_EVALUATED)
    assert event["payload"] == {"node_id": node.id, "raw_score": None,
                             "status": NodeStatus.FAILED.value, "error": "injected failure"}


class _CostlessEvaluator:
    """Scores as ``inner`` does and reports no cost, as a real evaluator
    timed by a wall clock does."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, node, mode):
        return self.inner.evaluate(node, mode)

    def cost(self, mode):
        return None


class _ReturnsValue:
    """Returns ``value`` from every call and reports ``inner``'s costs."""

    def __init__(self, inner, value):
        self.inner = inner
        self.value = value

    def evaluate(self, node, mode):
        return self.value

    def cost(self, mode):
        return self.inner.cost(mode)


def test_pending_set_refuses_a_budget_its_evaluator_never_charges():
    """A simulated clock is charged only the costs the evaluator reports,
    so with a budget and an evaluator that reports none a run would
    never end. The pending set refuses that pairing; an unbudgeted
    simulated clock or a wall clock takes the same evaluator."""
    world = make_world(seed=23)
    evaluator = _CostlessEvaluator(world.evaluator)
    with pytest.raises(InvalidParams, match="simulated clock with a budget needs an evaluator"):
        PendingSet(world.tree, evaluator, (EvalMode.FULL,), clock=SimulatedClock(100.0))
    PendingSet(world.tree, evaluator, (EvalMode.FULL,))
    PendingSet(world.tree, evaluator, (EvalMode.FULL,), clock=WallClock(1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("attempts", [0, 1])
def test_a_non_finite_evaluator_value_fails_the_node(value, attempts):
    """A call that returns a value that is not finite fails its job as an
    EvaluationFailure would, in a validation run too: the node is marked
    failed with the value in its error, and the call is not charged."""
    world = make_world(seed=24)
    evaluator = RecordingEvaluator(_ReturnsValue(world.evaluator, value))
    log = RunLog()
    pending = PendingSet(world.tree, evaluator,
                         evaluation_modes(RunConfig(validation_attempts=attempts)),
                         clock=world.clock, log=log)
    elapsed = world.clock.elapsed()
    node = _fresh_mt(world)
    pending.dispatch(node)
    pending.commit()
    assert len(evaluator.calls) == 1
    assert node.status is NodeStatus.FAILED and node.raw_score is None
    assert world.clock.elapsed() == elapsed
    (event,) = of_kind(log, EventKind.NODE_EVALUATED)
    assert event["payload"] == {"node_id": node.id, "raw_score": None,
                                "status": NodeStatus.FAILED.value,
                                "error": f"evaluator returned {value}"}


def test_adding_stage_prediction_gating():
    world = make_world(seed=31)
    config = RunConfig(number_of_ideas_data=2, number_of_ideas_modelling=2,
                       number_of_selected_node=1, predict_fraction=0.5)
    mt_before = {n.id for n in world.tree.nodes_at_level(NodeLevel.MT)}
    adding_stage(world.tree, world.ctx, world.ports, config, world.rng,
                 predict_fn=lambda text: 0.5)
    fresh = [n for n in world.tree.nodes_at_level(NodeLevel.MT) if n.id not in mt_before]
    assert len(fresh) == 6
    evaluated = [n for n in fresh if n.status is NodeStatus.EVALUATED]
    pruned = [n for n in fresh if n.status is NodeStatus.PROPOSED]
    # half of each 2-candidate batch gets the real run
    assert len(evaluated) == 3 and len(pruned) == 3
    for node in pruned:
        assert node.predicted_score is not None and node.raw_score is None


def test_adding_stage_prediction_failure_falls_back_to_full():
    world = make_world(seed=32)

    def flaky_predict(text):
        raise RuntimeError("predictor offline")

    config = RunConfig(number_of_ideas_data=1, number_of_ideas_modelling=2,
                       number_of_selected_node=1, predict_fraction=0.5)
    mt_before = {n.id for n in world.tree.nodes_at_level(NodeLevel.MT)}
    adding_stage(world.tree, world.ctx, world.ports, config, world.rng,
                 predict_fn=flaky_predict)
    fresh = [n for n in world.tree.nodes_at_level(NodeLevel.MT) if n.id not in mt_before]
    assert all(n.status is NodeStatus.EVALUATED for n in fresh)


def test_non_finite_prediction_falls_back_to_full():
    """A predictor that returns an infinity or NaN has failed, as one
    that raises has: the node gets a real evaluation and no predicted
    score, and no ``prediction_made`` event carries the value. An
    infinity would otherwise win the pruning rank, and a NaN make the
    rank's order depend on position."""
    world = make_world(seed=32)
    cycle = [math.inf, -math.inf, math.nan, 0.25, 0.75]
    calls: list[str] = []

    def predict(text):
        calls.append(text)
        return cycle[(len(calls) - 1) % len(cycle)]

    log = RunLog()
    config = RunConfig(number_of_ideas_data=2, number_of_ideas_modelling=3,
                       number_of_selected_node=1, max_add_idea=3, predict_fraction=0.5)
    mt_before = {n.id for n in world.tree.nodes_at_level(NodeLevel.MT)}
    adding_stage(world.tree, world.ctx, world.ports, config, world.rng, log=log,
                 predict_fn=predict)
    fresh = sorted((n for n in world.tree.nodes_at_level(NodeLevel.MT)
                    if n.id not in mt_before), key=lambda n: n.id)
    assert [n.idea_text for n in fresh] == calls and len(calls) == 9
    made = of_kind(log, EventKind.PREDICTION_MADE)
    assert all(math.isfinite(e["payload"]["predicted"]) for e in made)
    finite = set()
    for i, node in enumerate(fresh):
        value = cycle[i % len(cycle)]
        if math.isfinite(value):
            finite.add(node.id)
            assert node.predicted_score == value
        else:
            assert node.predicted_score is None
            assert node.status is NodeStatus.EVALUATED
    assert {e["payload"]["node_id"] for e in made} == finite
    # the finite predictions still prune
    assert any(n.status is NodeStatus.PROPOSED for n in fresh)


def test_adding_stage_mt_literal_mode_runs():
    world = make_world(seed=33)
    config = RunConfig(number_of_ideas_data=2, number_of_ideas_modelling=2,
                       number_of_selected_node=2, selection_mode="mt_literal")
    mt_before = len(world.tree.nodes_at_level(NodeLevel.MT))
    adding_stage(world.tree, world.ctx, world.ports, config, world.rng)
    # literal mode still adds n*m fresh plus n_selected batches of m
    assert len(world.tree.nodes_at_level(NodeLevel.MT)) == mt_before + 2 * 2 + 2 * 2


def test_adding_stage_parent_window_limits_targets():
    world = make_world(seed=34)
    world.tree.iteration = 10  # preloaded FE nodes were created at iteration 0
    config = RunConfig(number_of_ideas_data=1, number_of_ideas_modelling=1,
                       number_of_selected_node=3, number_of_iterations_parents=2)
    adding_stage(world.tree, world.ctx, world.ports, config, world.rng)
    # only the single FE node created this stage was eligible, so the
    # selected subset collapses to it
    recent = [fe for fe in world.tree.fe_nodes() if fe.created_iteration == 10]
    assert len(recent) == 1
    assert len(children(world.tree, recent[0].id)) == 1 + 1  # fresh batch + expansion


@pytest.mark.parametrize("age, eligible", [(1, True), (2, False)])
def test_parent_window_admits_nodes_younger_than_the_window(age, eligible):
    world = make_world(seed=34)
    world.tree.iteration = age  # preloaded FE nodes were created at iteration 0
    before = {fe.id: len(children(world.tree, fe.id)) for fe in world.tree.fe_nodes()}
    config = RunConfig(number_of_ideas_data=1, number_of_ideas_modelling=1,
                       number_of_selected_node=len(before) + 1,
                       number_of_iterations_parents=2)
    adding_stage(world.tree, world.ctx, world.ports, config, world.rng)
    expanded = [fe_id for fe_id, n in before.items() if len(children(world.tree, fe_id)) > n]
    assert expanded == (sorted(before) if eligible else [])


@st.composite
def _scored_fe_cases(draw):
    """A tree whose FE nodes were created over several iterations, some
    with no evaluated child, and the draw's parameters."""
    tree = new_tree("root")
    fe_ids = []
    for _ in range(draw(st.integers(0, 40))):
        tree.iteration += draw(st.integers(0, 2))
        if fe_ids and draw(st.booleans()):
            fe_id = draw(st.sampled_from(fe_ids))
            mt = spawn(tree, fe_id, NodeLevel.MT, "mt")
            if draw(st.integers(0, 3)):
                tree.mark_evaluated(mt.id, draw(st.floats(-1e6, 1e6)))
            else:
                tree.mark_failed(mt.id)
        else:
            fe_ids.append(spawn(tree, tree.root.id, NodeLevel.FE, "fe").id)
    backpropagate(tree)
    n = draw(st.integers(1, 8))
    temperature = draw(st.sampled_from((0.05, 0.5, 1.0, 3.0, 100.0)))
    metric = draw(st.sampled_from((HIGHER, LOWER)))
    window = draw(st.one_of(st.none(), st.integers(1, 6)))
    return tree, n, temperature, metric, window, draw(st.integers(0, 2**32 - 1))


class _RecordingRng:
    """Forwards ``choice`` and ``random`` to a seeded generator, and
    keeps the bytes of every probability vector a draw used: the one
    handed to ``choice`` by the list-based draw, or, through
    ``_recording_draw_index``, the one the engine's draw inverts."""

    def __init__(self, seed: int):
        self.inner = np.random.default_rng(seed)
        self.vectors: list[bytes] = []

    def choice(self, n, p):
        self.vectors.append(np.asarray(p, dtype=float).tobytes())
        return self.inner.choice(n, p=p)

    def random(self):
        return self.inner.random()


def _recording_draw_index(p, rng: _RecordingRng) -> int:
    rng.vectors.append(np.asarray(p, dtype=float).tobytes())
    return _draw_index(p, rng)


@settings(max_examples=300, deadline=None)
@given(_scored_fe_cases())
def test_sample_scored_fe_matches_list_reference(case):
    """The FE table draw picks the ids the list-based draw picks,
    inverts the probability vectors the list-based draw hands
    ``rng.choice``, float for float, and leaves the generator in the
    same state."""
    tree, n, temperature, metric, window, seed = case
    rng_ref, rng_new = _RecordingRng(seed), _RecordingRng(seed)
    expected = reference_sample_scored_fe(tree, n, temperature, metric, rng_ref, window)
    with mock.patch("ideatree.search._draw_index", _recording_draw_index):
        got = _sample_scored_fe(tree, n, temperature, metric, rng_new, window=window)
    assert got == expected
    assert all(type(fe_id) is int for fe_id in got)
    assert rng_new.vectors == rng_ref.vectors
    assert rng_new.inner.bit_generator.state == rng_ref.inner.bit_generator.state


# ---- merging stage ----

def test_merging_stage_structure_and_memory():
    world = make_world(seed=51, n_fe=3, m_mt=2)
    mem = MergeMemory(theta_fail=2)
    config = RunConfig(number_of_selected_node_merging=2, number_of_ideas_modelling=2,
                       number_of_iterations_children=1, merge_epsilon=0.0)
    fe_before = {n.id for n in world.tree.fe_nodes()}
    merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)
    merged = [n for n in world.tree.fe_nodes() if n.id not in fe_before]
    assert len(merged) == 2
    for node in merged:
        assert node.provenance.kind is ProvenanceKind.MERGED
        kids = children(world.tree, node.id)
        fresh = [k for k in kids if k.provenance.kind is ProvenanceKind.GENERATED]
        copies = [k for k in kids if k.provenance.kind is ProvenanceKind.RESAMPLED]
        assert len(fresh) == 2
        assert len(copies) == 2  # one per parent
        for copy in copies:
            origin = world.tree.nodes[copy.provenance.sources[0]]
            assert copy.raw_score == origin.raw_score
            assert copy.idea_text == origin.idea_text
        # every attempted pair got booked exactly once
    booked = len(mem.short_term) + len(mem.long_term)
    assert booked == 2


def test_merging_stage_budget_stop_books_finished_pairs():
    """When the clock runs out in the second pair, the first pair's
    verdict is still booked, before the stage's finish event; the
    second pair, cut short, gets none."""
    world = make_world(seed=53, n_fe=4, m_mt=2)
    world.clock.budget = world.clock.elapsed() + 3.0 * world.syn.full_cost
    mem = MergeMemory()
    log = RunLog()
    config = RunConfig(number_of_selected_node_merging=3, number_of_ideas_modelling=2,
                       number_of_iterations_children=1)
    with pytest.raises(BudgetExhausted):
        merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx, log=log)
    merged = [e["payload"]["node"]["id"] for e in of_kind(log, EventKind.NODE_PROPOSED)
              if e["payload"]["node"]["level"] == NodeLevel.FE.value]
    verdicts = of_kind(log, EventKind.MERGE_ATTEMPTED)
    assert len(merged) == 2
    assert [e["payload"]["merged_id"] for e in verdicts] == merged[:1]
    assert len(mem.short_term) + len(mem.long_term) == 1
    finish = of_kind(log, EventKind.STAGE_FINISHED)
    assert [e["payload"]["outcome"] for e in finish] == ["budget_exhausted"]
    assert verdicts[0]["seq"] < finish[0]["seq"]


def test_merging_stage_generator_failure_books_finished_pairs():
    """A generator failure in the second pair unwinds the stage; the
    first pair's evaluations are committed and its verdict booked."""
    world = make_world(seed=54, n_fe=4, m_mt=2)

    class FailsSecondMerge:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def merge_fe(self, a, b, ctx):
            self.calls += 1
            if self.calls == 2:
                raise GeneratorFailure("endpoint down")
            return self.inner.merge_fe(a, b, ctx)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    mem = MergeMemory()
    log = RunLog()
    config = RunConfig(number_of_selected_node_merging=3, number_of_ideas_modelling=2,
                       number_of_iterations_children=1)
    with pytest.raises(GeneratorFailure):
        merging_stage(world.tree, mem, replace(world.ports, gen=FailsSecondMerge(world.gen)),
                      config, world.rng, ctx=world.ctx, log=log)
    assert len(of_kind(log, EventKind.NODE_EVALUATED)) == 2
    assert len(of_kind(log, EventKind.MERGE_ATTEMPTED)) == 1
    assert len(mem.short_term) + len(mem.long_term) == 1
    finish = of_kind(log, EventKind.STAGE_FINISHED)
    assert [e["payload"]["outcome"] for e in finish] == ["generator_failure"]


def test_merging_stage_resample_leaves_origin_untouched():
    world = make_world(seed=52)
    mem = MergeMemory()
    config = RunConfig(number_of_selected_node_merging=1, number_of_ideas_modelling=1,
                       number_of_iterations_children=2)
    originals = {
        n.id: (n.idea_text, n.raw_score, n.parent_id)
        for n in world.tree.nodes_at_level(NodeLevel.MT)
    }
    merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)
    for nid, (text, score, parent) in originals.items():
        node = world.tree.nodes[nid]
        assert (node.idea_text, node.raw_score, node.parent_id) == (text, score, parent)


def test_merging_stage_forced_failure_promotes_after_theta():
    # a huge epsilon means no merge can ever succeed
    mem = MergeMemory(theta_fail=2)
    config = RunConfig(number_of_selected_node_merging=1, number_of_ideas_modelling=1,
                       number_of_iterations_children=1, merge_epsilon=1e9)
    world = make_world(seed=53, n_fe=2, m_mt=1)
    only_pair = tuple(sorted(n.id for n in world.tree.fe_nodes()))
    merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)
    assert mem.short_term.get(only_pair) == 1
    # the failed merge node stays in the tree and would widen the candidate
    # pool, so rule its pairs out to force a retry of the original pair
    for fe in world.tree.fe_nodes():
        if fe.provenance.kind is ProvenanceKind.MERGED:
            for other in world.tree.fe_nodes():
                if other.id != fe.id:
                    mem.record_success(pair_key(fe.id, other.id))
    merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)
    assert only_pair in mem.long_term and only_pair not in mem.short_term


def test_merging_stage_forced_success_records_long_term():
    mem = MergeMemory(theta_fail=2)
    config = RunConfig(number_of_selected_node_merging=1, number_of_ideas_modelling=1,
                       number_of_iterations_children=1, merge_epsilon=-1e9)
    world = make_world(seed=54, n_fe=2, m_mt=1)
    only_pair = tuple(sorted(n.id for n in world.tree.fe_nodes()))
    merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)
    assert only_pair in mem.long_term and not mem.short_term


def test_merging_stage_excluded_pairs_not_reattempted():
    mem = MergeMemory(theta_fail=2)
    world = make_world(seed=55, n_fe=2, m_mt=1)
    only_pair = tuple(sorted(n.id for n in world.tree.fe_nodes()))
    mem.record_success(only_pair)
    config = RunConfig(number_of_selected_node_merging=2, number_of_ideas_modelling=1,
                       number_of_iterations_children=1)
    fe_before = len(world.tree.fe_nodes())
    merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)
    merged = [n for n in world.tree.fe_nodes() if n.provenance.kind is ProvenanceKind.MERGED]
    assert merged == []
    assert len(world.tree.fe_nodes()) == fe_before


def test_merging_stage_insufficient_parents():
    world = make_world(seed=56, n_fe=1)
    mem = MergeMemory()
    config = RunConfig(number_of_selected_node_merging=1, number_of_ideas_modelling=1)
    with pytest.raises(InsufficientParents):
        merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)


def test_merging_stage_merges_best_two_children():
    world = make_world(seed=57, n_fe=2, m_mt=3)
    mem = MergeMemory()
    # two FE nodes make one pair, so the one knob draws that pair and
    # selects two nodes for their best children's merge
    config = RunConfig(number_of_selected_node_merging=2, number_of_ideas_modelling=1,
                       number_of_iterations_children=1, merge_epsilon=1e9)
    mt_merges_before = [
        n for n in world.tree.nodes_at_level(NodeLevel.MT)
        if n.provenance.kind is ProvenanceKind.MERGED
    ]
    assert not mt_merges_before
    merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)
    mt_merges = [
        n for n in world.tree.nodes_at_level(NodeLevel.MT)
        if n.provenance.kind is ProvenanceKind.MERGED
    ]
    assert mt_merges
    for node in mt_merges:
        siblings = world.tree.evaluated_mt_children(node.parent_id)
        others = [s for s in siblings if s.id != node.id and s.provenance.kind is not ProvenanceKind.MERGED]
        ranked = sorted(others, key=lambda n: (-world.metric.orient(n.raw_score), n.id))
        assert set(node.provenance.sources) == {ranked[0].id, ranked[1].id}


def test_merging_stage_deterministic_for_seed():
    def run_once():
        world = make_world(seed=58)
        mem = MergeMemory()
        config = RunConfig(number_of_selected_node_merging=2, number_of_ideas_modelling=2,
                           number_of_iterations_children=2)
        merging_stage(world.tree, mem, world.ports, config, world.rng, ctx=world.ctx)
        return world.tree.snapshot()

    assert run_once() == run_once()


# ---- merge-pair draw ----

def _enumerated_pairs(eligible, mem, n, rng):
    """Reference draw: list every non-excluded pair, index into the list."""
    candidates = [k for k in combinations(eligible, 2) if k not in mem.long_term]
    if not candidates:
        return []
    idx = rng.choice(len(candidates), size=min(n, len(candidates)), replace=False)
    return [candidates[int(i)] for i in idx]


@st.composite
def _pair_draw_cases(draw):
    k = draw(st.integers(min_value=2, max_value=60))
    eligible = sorted(draw(st.sets(st.integers(0, 500), min_size=k, max_size=k)))
    all_pairs = list(combinations(eligible, 2))
    density = draw(st.sampled_from(["none", "sparse", "dense", "full"]))
    if density == "full":
        long_term = set(all_pairs)
    elif density == "none":
        long_term = set()
    else:
        share = 0.1 if density == "sparse" else 0.9
        mask_seed = draw(st.integers(0, 2**32 - 1))
        mask = np.random.default_rng(mask_seed).random(len(all_pairs)) < share
        long_term = {p for p, m in zip(all_pairs, mask) if m}
    # pairs outside the eligible set and non-canonical keys never
    # match an eligible pair, and must not shift the draw
    strays = draw(st.lists(st.tuples(st.integers(0, 600), st.integers(0, 600)), max_size=8))
    long_term |= set(strays)
    n = draw(st.integers(min_value=1, max_value=len(all_pairs) + 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return eligible, long_term, n, seed


@settings(max_examples=300, deadline=None)
@given(_pair_draw_cases())
def test_draw_merge_pairs_matches_enumeration(case):
    eligible, long_term, n, seed = case
    mem = MergeMemory(long_term=long_term)
    rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _enumerated_pairs(eligible, mem, n, rng_ref)
    assert draw_merge_pairs(eligible, mem, n, rng_new) == expected
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_draw_merge_pairs_fully_excluded_draws_nothing():
    eligible = [2, 5, 9]
    mem = MergeMemory(long_term=set(combinations(eligible, 2)))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert draw_merge_pairs(eligible, mem, 4, rng) == []
    assert rng.bit_generator.state == before


@st.composite
def _memory_histories(draw):
    """Eligible ids, and memory writes over keys drawn from a small pool
    (so keys repeat) of eligible ids and strays, in either order."""
    eligible = sorted(draw(st.sets(st.integers(0, 30), min_size=2, max_size=12)))
    ids = st.one_of(st.sampled_from(eligible), st.integers(0, 40))
    pool = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=10))
    writes = draw(st.lists(st.tuples(st.sampled_from(["failure", "success"]),
                                     st.sampled_from(pool)), max_size=40))
    return eligible, writes


@settings(max_examples=200, deadline=None)
@given(theta=st.integers(1, 3), history=_memory_histories(), n=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_memory_columns_follow_the_set_and_the_draw_its_enumeration(theta, history, n, seed):
    """After every write, the long-term columns hold exactly the
    long-term set, and ``draw_merge_pairs`` picks what enumerating the
    candidates picks, leaving the generator in the same state."""
    eligible, writes = history
    mem = MergeMemory(theta_fail=theta)
    for verdict, key in writes:
        if verdict == "failure":
            mem.record_failure(key)
        else:
            mem.record_success(key)
        first, second = mem.long_term_columns()
        columns = list(zip(first.tolist(), second.tolist()))
        assert len(columns) == len(mem.long_term) and set(columns) == mem.long_term
        rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        assert draw_merge_pairs(eligible, mem, n, rng_new) == _enumerated_pairs(
            eligible, mem, n, rng_ref)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state
