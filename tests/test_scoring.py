"""Anchor construction, prompt assembly, and the baseline predictor."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from ideatree.clock import SimulatedClock
from ideatree.config import RunConfig, SyntheticConfig
from ideatree.embedding import VectorIdeaEmbedding, render_idea_vector
from ideatree.errors import AnchorConstructionFailed
from ideatree.evaluation import EvalMode, SimulatedEvaluator
from ideatree.orchestrator import PortSet
from ideatree.scoring import (
    BaselinePredictor,
    assemble_prediction_prompt,
    build_anchor_set,
    parse_predicted_value,
)
from ideatree.setup_stages import TaskSpec
from ideatree.tree import NodeLevel, NodeStatus, backpropagate

from helpers import (
    HIGHER,
    LOWER,
    FlakyEvaluator,
    RecordingEvaluator,
    anchor_score_bounds,
    attach_evaluated_fe,
    evaluated_anchors,
    new_tree,
    reference_baseline_predict,
    spawn,
)


def _prepared_tree(aggregates):
    """Tree with one evaluated-MT FE per aggregate value given."""
    tree = new_tree("root")
    for value in aggregates:
        attach_evaluated_fe(tree, [value], idea=render_idea_vector([value, 0.0]))
    backpropagate(tree)
    return tree


def _evaluator():
    return SimulatedEvaluator(SyntheticConfig(dimension=2), HIGHER, seed=0)


ARCHS = [render_idea_vector(v) for v in ([0.1, 0.1], [0.5, 0.5], [0.9, 0.9])]


class _Proposes:
    """A generator whose every ``propose_mt`` returns ``texts``, and
    which records the FE node and the count each call asked for."""

    def __init__(self, texts):
        self.texts, self.calls = list(texts), []

    def propose_mt(self, fe, ctx, n):
        self.calls.append((fe.id, n))
        return list(self.texts)


def _ports(evaluator, metric=HIGHER, clock=None, archs=ARCHS):
    """The ports an anchor sweep reads: a generator proposing ``archs``,
    an evaluator, a metric and a clock, unbudgeted when none is given."""
    return PortSet(task=TaskSpec(description="anchor test"), gen=_Proposes(archs),
                   evaluator=evaluator, metric=metric, clock=clock)


def _build(tree, ports, config=None):
    return build_anchor_set(tree, None, ports, config or RunConfig())


def _best_fe(tree):
    return max(tree.fe_nodes(), key=lambda n: n.aggregated_score)


# ---- build_anchor_set ----

def test_build_single_fe_all_architectures():
    tree = _prepared_tree([0.5])
    anchors = _build(tree, _ports(_evaluator()))
    assert len(anchors) == 3
    assert {a.parent_id for a in anchors} == {tree.fe_nodes()[0].id}
    assert [a.idea_text for a in anchors] == ARCHS


def test_build_two_phase_counts():
    tree = _prepared_tree([0.3, 0.9, 0.6])
    top = _best_fe(tree)
    anchors = _build(tree, _ports(_evaluator(), archs=ARCHS[:2]))
    # 2 from the sweep + 2 more feature nodes with the winning arch
    assert len(anchors) == 4
    phase1 = [a for a in anchors if a.parent_id == top.id]
    phase2 = [a for a in anchors if a.parent_id != top.id]
    assert len(phase1) == 2 and len(phase2) == 2
    assert len({a.idea_text for a in phase2}) == 1


def test_build_picks_best_aggregate_fe():
    tree = _prepared_tree([0.3, 0.9, 0.6])
    best_fe = _best_fe(tree)
    ports = _ports(_evaluator())
    anchors = _build(tree, ports)
    assert ports.gen.calls == [(best_fe.id, RunConfig().number_of_ideas_modelling)]
    assert anchors[0].parent_id == best_fe.id
    # lower-is-better flips which feature node wins
    tree2 = _prepared_tree([0.3, 0.9, 0.6])
    best_low = min(tree2.fe_nodes(), key=lambda n: n.aggregated_score)
    low_eval = SimulatedEvaluator(SyntheticConfig(dimension=2), LOWER, seed=0)
    low_ports = _ports(low_eval, LOWER)
    anchors2 = _build(tree2, low_ports)
    assert low_ports.gen.calls[0][0] == best_low.id
    assert anchors2[0].parent_id == best_low.id


def test_build_phase2_arch_is_phase1_winner():
    tree = _prepared_tree([0.3, 0.9])
    top = _best_fe(tree)
    anchors = _build(tree, _ports(_evaluator()))
    phase1 = [a for a in anchors if a.parent_id == top.id]
    phase2 = [a for a in anchors if a.parent_id != top.id]
    winner = max(phase1, key=lambda a: a.raw_score)
    assert phase2 and all(a.idea_text == winner.idea_text for a in phase2)


def test_build_respects_max_anchors():
    tree = _prepared_tree([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    anchors = _build(tree, _ports(_evaluator()), RunConfig(number_of_ideas_max=5))
    assert len(anchors) == 5


def test_build_anchors_are_real_tree_nodes():
    """Each anchor is the evaluated MT node the sweep attached, in
    ascending id, and sweep one's sit under the top-ranked FE node."""
    tree = _prepared_tree([0.3, 0.9, 0.6])
    top = _best_fe(tree)
    anchors = _build(tree, _ports(_evaluator()))
    assert isinstance(anchors, tuple)
    assert all(a is tree.nodes[a.id] for a in anchors)
    assert [a.id for a in anchors] == sorted(a.id for a in anchors)
    assert all(a.status is NodeStatus.EVALUATED and a.level is NodeLevel.MT for a in anchors)
    assert [a.parent_id for a in anchors[:len(ARCHS)]] == [top.id] * len(ARCHS)
    assert all(a.parent_id != top.id for a in anchors[len(ARCHS):])


def test_build_failed_anchor_omitted():
    tree = _prepared_tree([0.3, 0.9])
    flaky = FlakyEvaluator(_evaluator(), should_fail=lambda n: n.idea_text == ARCHS[1])
    anchors = _build(tree, _ports(flaky))
    assert all(a.idea_text != ARCHS[1] for a in anchors)
    failed = [n for n in tree.nodes_at_level(NodeLevel.MT) if n.status is NodeStatus.FAILED]
    assert len(failed) >= 1


def test_build_charges_each_returned_call():
    """Anchor evaluations charge ``cost(FULL)`` for every call that
    returned and nothing for a call that raised."""
    tree = _prepared_tree([0.3, 0.9, 0.6])
    clock = SimulatedClock(budget_minutes=1.0)
    evaluator = RecordingEvaluator(_evaluator(), fail=lambda n, mode: n.idea_text == ARCHS[1])
    _build(tree, _ports(evaluator, clock=clock))
    assert {mode for _, mode, _ in evaluator.calls} == {EvalMode.FULL}
    assert [returned for _, _, returned in evaluator.calls].count(False) == 1
    assert clock.elapsed() == pytest.approx(evaluator.returned_cost())
    assert clock.elapsed() > clock.budget


def test_build_too_few_survivors():
    tree = _prepared_tree([0.3])
    flaky = FlakyEvaluator(_evaluator(), should_fail=lambda n: n.idea_text in ARCHS[1:])
    with pytest.raises(AnchorConstructionFailed):
        _build(tree, _ports(flaky), RunConfig(number_of_ideas_min=2))


@pytest.mark.parametrize("archs, fail, proposed", [
    ([], lambda n: False, 0),
    (ARCHS, lambda n: True, 3),
])
def test_build_with_nothing_scored_in_sweep_one_fails(archs, fail, proposed):
    """No architecture proposed and every sweep-one evaluation failed
    end the same way, with one message that reads right for both; each
    node the sweep attached is marked failed."""
    tree = _prepared_tree([0.3, 0.9])
    before = set(tree.nodes)
    flaky = FlakyEvaluator(_evaluator(), should_fail=fail)
    with pytest.raises(AnchorConstructionFailed,
                       match=f"scored no anchor out of {proposed} proposed architectures"):
        _build(tree, _ports(flaky, archs=archs))
    added = [tree.nodes[i] for i in set(tree.nodes) - before]
    assert len(added) == proposed
    assert all(n.status is NodeStatus.FAILED for n in added)


# ---- prompt assembly ----

def test_prompt_contains_all_sections():
    anchors = evaluated_anchors([("anchor 2", 0.4), ("anchor 5", 0.9)])
    prompt = assemble_prediction_prompt("try stacking", anchors, "tabular sales data",
                                        metric_name="rmse")
    assert "tabular sales data" in prompt
    assert "try stacking" in prompt
    assert prompt.count("- idea:") == 2
    assert "0.4" in prompt and "0.9" in prompt
    assert "rmse" in prompt


def test_prompt_is_permutation_invariant():
    a, b = evaluated_anchors([("anchor 2", 0.4), ("anchor 5", 0.9)])
    one = assemble_prediction_prompt("c", (a, b), "d")
    two = assemble_prediction_prompt("c", (b, a), "d")
    assert one == two
    assert one.index("anchor 2") < one.index("anchor 5")


def test_prompt_is_deterministic():
    anchors = evaluated_anchors([("anchor 2", 0.4)])
    assert (assemble_prediction_prompt("c", anchors, "d")
            == assemble_prediction_prompt("c", anchors, "d"))


# ---- baseline predictor ----

def test_baseline_equidistant_anchors_average():
    emb = VectorIdeaEmbedding(dimension=2)
    anchors = evaluated_anchors([
        (render_idea_vector([1.0, 0.0]), 0.9),
        (render_idea_vector([-1.0, 0.0]), 0.5),
    ])
    candidate = render_idea_vector([0.0, 1.0])  # same angle to both
    assert BaselinePredictor(emb).predict(candidate, anchors) == pytest.approx(0.7)


def test_baseline_concentrates_on_identical_anchor():
    emb = VectorIdeaEmbedding(dimension=2)
    target = render_idea_vector([0.5, 0.5])
    anchors = evaluated_anchors([(target, 0.9), (render_idea_vector([-3.0, -3.0]), 0.1)])
    sharp = BaselinePredictor(emb, temperature=0.01).predict(target, anchors)
    assert sharp == pytest.approx(0.9, abs=1e-6)


def test_baseline_stays_in_anchor_hull():
    predictor = BaselinePredictor(VectorIdeaEmbedding(dimension=3))
    rng = np.random.default_rng(4)
    anchors = evaluated_anchors(
        (render_idea_vector(rng.uniform(-1, 1, 3)), float(rng.uniform(0, 1)))
        for _ in range(5)
    )
    lo, hi = anchor_score_bounds(anchors)
    for _ in range(200):
        candidate = render_idea_vector(rng.uniform(-2, 2, 3))
        value = predictor.predict(candidate, anchors)
        assert lo - 1e-12 <= value <= hi + 1e-12


def test_baseline_permutation_invariant():
    predictor = BaselinePredictor(VectorIdeaEmbedding(dimension=2))
    a, b, c = evaluated_anchors([
        (render_idea_vector([1.0, 0.2]), 0.9),
        (render_idea_vector([-0.4, 1.0]), 0.5),
        (render_idea_vector([0.3, -0.8]), 0.2),
    ])
    candidate = render_idea_vector([0.1, 0.1])
    one = predictor.predict(candidate, (a, b, c))
    two = predictor.predict(candidate, (c, a, b))
    assert one == two


_coords = st.floats(-3.0, 3.0)
_points = st.tuples(_coords, _coords).map(render_idea_vector)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_points, st.floats(-10.0, 10.0)), min_size=1, max_size=7),
       st.sampled_from([0.01, 0.1, 1.0]), st.data())
def test_baseline_predictor_keeps_the_floats_of_fresh_embeddings(scored, temperature, data):
    """One predictor, which keeps its anchors' vectors between calls,
    returns the floats of a prediction that embeds every anchor afresh,
    over anchor sets that grow, then come shuffled and overlapping, all
    holding two anchors that share a text."""
    scored = scored + [(scored[0][0], scored[-1][1] + 1.0)]
    pool = evaluated_anchors(scored)
    growing = [pool[:k] for k in range(1, len(pool) + 1)]
    subsets = st.permutations(pool).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda k: order[:k]))
    anchor_sets = growing + data.draw(st.lists(subsets, max_size=4))
    candidates = data.draw(st.lists(
        st.one_of(_points, st.sampled_from([text for text, _ in scored])),
        min_size=1, max_size=3))
    predictor = BaselinePredictor(VectorIdeaEmbedding(dimension=2), temperature=temperature)
    fresh = VectorIdeaEmbedding(dimension=2)
    for anchors in anchor_sets:
        for text in candidates:
            expected = reference_baseline_predict(text, anchors, fresh, temperature)
            assert predictor.predict(text, anchors) == expected


def test_baseline_tracks_landscape_ranks():
    # anchors placed across the space, true scores from the landscape
    landscape = SyntheticConfig(dimension=2)
    evaluator = SimulatedEvaluator(landscape, HIGHER, seed=0)
    # radius just past the data's max norm keeps the lift curved where
    # the candidates live, which is what separates the similarities
    emb = VectorIdeaEmbedding(dimension=2, radius=1.5)
    rng = np.random.default_rng(7)
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "0.0,0.0")
    anchor_points = [(-0.8, -0.8), (-0.4, 0.4), (0.0, 0.0), (0.5, -0.5), (0.9, 0.9)]
    anchors = []
    for point in anchor_points:
        node = spawn(tree, fe.id, NodeLevel.MT, render_idea_vector(point))
        tree.mark_evaluated(node.id, evaluator.evaluate(node, EvalMode.FULL))
        anchors.append(node)
    predictor = BaselinePredictor(embedder=emb, temperature=0.1)
    predicted, truth = [], []
    for _ in range(200):
        point = rng.uniform(-1, 1, 2)
        text = render_idea_vector(point)
        node = spawn(tree, fe.id, NodeLevel.MT, text)
        predicted.append(predictor.predict(text, anchors))
        truth.append(evaluator.evaluate(node, EvalMode.FULL))
    rho = spearmanr(predicted, truth).statistic
    assert rho >= 0.8


# ---- reply parsing ----

def test_parse_predicted_value():
    assert parse_predicted_value(" 0.842 ") == pytest.approx(0.842)
    assert parse_predicted_value("-1.5e-3.") == pytest.approx(-0.0015)
    from ideatree.errors import MalformedResponse
    with pytest.raises(MalformedResponse):
        parse_predicted_value("roughly 0.8, maybe")
