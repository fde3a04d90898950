"""Anchor construction, prompt assembly, and the baseline predictor."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import spearmanr

from ideatree.clock import SimulatedClock
from ideatree.config import RunConfig, SyntheticConfig
from ideatree.embedding import VectorIdeaEmbedding, render_idea_vector
from ideatree.errors import (
    AnchorConstructionFailed,
    EmptyAnchorSet,
    InvalidParams,
    NoFeNodes,
)
from ideatree.evaluation import EvalMode, SimulatedEvaluator
from ideatree.orchestrator import PortSet
from ideatree.scoring import (
    Anchor,
    AnchorSet,
    BaselinePredictor,
    assemble_prediction_prompt,
    baseline_predict,
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
    new_tree,
    spawn,
)


def _anchor(mt_id, score, description=None, fe=1, arch="a"):
    return Anchor(
        description=description or f"anchor {mt_id}",
        true_score=score,
        fe_node_id=fe,
        architecture_tag=arch,
        mt_node_id=mt_id,
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


def _ports(evaluator, metric=HIGHER, clock=None):
    """The ports an anchor sweep reads: an evaluator, a metric and a
    clock, unbudgeted when none is given."""
    return PortSet(task=TaskSpec(description="anchor test"), gen=None, evaluator=evaluator,
                   metric=metric, clock=clock)


# ---- anchor set type ----

def test_anchor_set_rejects_empty():
    with pytest.raises(EmptyAnchorSet):
        AnchorSet(anchors=(), phase1_fe=1, phase2_arch="a")


def test_anchor_set_bounds_and_order():
    s = AnchorSet(anchors=(_anchor(5, 0.9), _anchor(2, 0.4)), phase1_fe=1, phase2_arch="a")
    assert anchor_score_bounds(s) == (0.4, 0.9)
    assert [a.mt_node_id for a in s.sorted_anchors()] == [2, 5]


# ---- build_anchor_set ----

def test_build_single_fe_all_architectures():
    tree = _prepared_tree([0.5])
    anchor_set = build_anchor_set(tree, _ports(_evaluator()), RunConfig(), ARCHS)
    assert len(anchor_set.anchors) == 3
    fe_ids = {a.fe_node_id for a in anchor_set.anchors}
    assert fe_ids == {anchor_set.phase1_fe}


def test_build_two_phase_counts():
    tree = _prepared_tree([0.3, 0.9, 0.6])
    anchor_set = build_anchor_set(tree, _ports(_evaluator()), RunConfig(), ARCHS[:2])
    # 2 from the sweep + 2 more feature nodes with the winning arch
    assert len(anchor_set.anchors) == 4
    phase1 = [a for a in anchor_set.anchors if a.fe_node_id == anchor_set.phase1_fe]
    phase2 = [a for a in anchor_set.anchors if a.fe_node_id != anchor_set.phase1_fe]
    assert len(phase1) == 2 and len(phase2) == 2
    assert all(a.architecture_tag == anchor_set.phase2_arch for a in phase2)


def test_build_picks_best_aggregate_fe():
    tree = _prepared_tree([0.3, 0.9, 0.6])
    best_fe = max(tree.fe_nodes(), key=lambda n: n.aggregated_score)
    anchor_set = build_anchor_set(tree, _ports(_evaluator()), RunConfig(), ARCHS)
    assert anchor_set.phase1_fe == best_fe.id
    # lower-is-better flips which feature node wins
    tree2 = _prepared_tree([0.3, 0.9, 0.6])
    best_low = min(tree2.fe_nodes(), key=lambda n: n.aggregated_score)
    low_eval = SimulatedEvaluator(SyntheticConfig(dimension=2), LOWER, seed=0)
    anchor_set2 = build_anchor_set(tree2, _ports(low_eval, LOWER), RunConfig(), ARCHS)
    assert anchor_set2.phase1_fe == best_low.id


def test_build_phase2_arch_is_phase1_winner():
    tree = _prepared_tree([0.3, 0.9])
    anchor_set = build_anchor_set(tree, _ports(_evaluator()), RunConfig(), ARCHS)
    phase1 = [a for a in anchor_set.anchors if a.fe_node_id == anchor_set.phase1_fe]
    winner = max(phase1, key=lambda a: a.true_score)
    assert anchor_set.phase2_arch == winner.architecture_tag


def test_build_respects_max_anchors():
    tree = _prepared_tree([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    anchor_set = build_anchor_set(tree, _ports(_evaluator()), RunConfig(number_of_ideas_max=5),
                                  ARCHS)
    assert len(anchor_set.anchors) == 5


def test_build_anchors_are_real_tree_nodes():
    tree = _prepared_tree([0.3, 0.9])
    anchor_set = build_anchor_set(tree, _ports(_evaluator()), RunConfig(), ARCHS)
    for anchor in anchor_set.anchors:
        node = tree.nodes[anchor.mt_node_id]
        assert node.status is NodeStatus.EVALUATED
        assert node.raw_score == anchor.true_score
        assert node.parent_id == anchor.fe_node_id


def test_build_failed_anchor_omitted():
    tree = _prepared_tree([0.3, 0.9])
    flaky = FlakyEvaluator(_evaluator(), should_fail=lambda n: n.idea_text == ARCHS[1])
    anchor_set = build_anchor_set(tree, _ports(flaky), RunConfig(), ARCHS)
    assert all(a.architecture_tag != ARCHS[1] for a in anchor_set.anchors)
    failed = [n for n in tree.nodes_at_level(NodeLevel.MT) if n.status is NodeStatus.FAILED]
    assert len(failed) >= 1


def test_build_charges_each_returned_call():
    """Anchor evaluations charge ``cost(FULL)`` for every call that
    returned and nothing for a call that raised."""
    tree = _prepared_tree([0.3, 0.9, 0.6])
    clock = SimulatedClock(budget_minutes=1.0)
    evaluator = RecordingEvaluator(_evaluator(), fail=lambda n, mode: n.idea_text == ARCHS[1])
    build_anchor_set(tree, _ports(evaluator, clock=clock), RunConfig(), ARCHS)
    assert {mode for _, mode, _ in evaluator.calls} == {EvalMode.FULL}
    assert [returned for _, _, returned in evaluator.calls].count(False) == 1
    assert clock.elapsed() == pytest.approx(evaluator.returned_cost())
    assert clock.elapsed() > clock.budget


def test_build_too_few_survivors():
    tree = _prepared_tree([0.3])
    flaky = FlakyEvaluator(_evaluator(), should_fail=lambda n: n.idea_text in ARCHS[1:])
    with pytest.raises(AnchorConstructionFailed):
        build_anchor_set(tree, _ports(flaky), RunConfig(number_of_ideas_min=2), ARCHS)


def test_build_validation():
    tree = new_tree("root")
    with pytest.raises(NoFeNodes):
        build_anchor_set(tree, _ports(_evaluator()), RunConfig(), ARCHS)
    tree2 = _prepared_tree([0.3])
    with pytest.raises(InvalidParams):
        build_anchor_set(tree2, _ports(_evaluator()), RunConfig(), [])


# ---- prompt assembly ----

def test_prompt_contains_all_sections():
    s = AnchorSet(anchors=(_anchor(2, 0.4), _anchor(5, 0.9)), phase1_fe=1, phase2_arch="a")
    prompt = assemble_prediction_prompt("try stacking", s, "tabular sales data",
                                        metric_name="rmse")
    assert "tabular sales data" in prompt
    assert "try stacking" in prompt
    assert prompt.count("- idea:") == 2
    assert "0.4" in prompt and "0.9" in prompt
    assert "rmse" in prompt


def test_prompt_is_permutation_invariant():
    a, b = _anchor(2, 0.4), _anchor(5, 0.9)
    one = assemble_prediction_prompt("c", AnchorSet((a, b), 1, "x"), "d")
    two = assemble_prediction_prompt("c", AnchorSet((b, a), 1, "x"), "d")
    assert one == two


def test_prompt_is_deterministic():
    s = AnchorSet(anchors=(_anchor(2, 0.4),), phase1_fe=1, phase2_arch="a")
    assert assemble_prediction_prompt("c", s, "d") == assemble_prediction_prompt("c", s, "d")


# ---- baseline predictor ----

def test_baseline_equidistant_anchors_average():
    emb = VectorIdeaEmbedding(dimension=2)
    anchors = AnchorSet(
        anchors=(
            _anchor(1, 0.9, description=render_idea_vector([1.0, 0.0])),
            _anchor(2, 0.5, description=render_idea_vector([-1.0, 0.0])),
        ),
        phase1_fe=1, phase2_arch="a",
    )
    candidate = render_idea_vector([0.0, 1.0])  # same angle to both
    assert baseline_predict(candidate, anchors, emb) == pytest.approx(0.7)


def test_baseline_concentrates_on_identical_anchor():
    emb = VectorIdeaEmbedding(dimension=2)
    target = render_idea_vector([0.5, 0.5])
    anchors = AnchorSet(
        anchors=(
            _anchor(1, 0.9, description=target),
            _anchor(2, 0.1, description=render_idea_vector([-3.0, -3.0])),
        ),
        phase1_fe=1, phase2_arch="a",
    )
    sharp = baseline_predict(target, anchors, emb, temperature=0.01)
    assert sharp == pytest.approx(0.9, abs=1e-6)


def test_baseline_stays_in_anchor_hull():
    emb = VectorIdeaEmbedding(dimension=3)
    rng = np.random.default_rng(4)
    anchors = AnchorSet(
        anchors=tuple(
            _anchor(i, float(rng.uniform(0, 1)), description=render_idea_vector(rng.uniform(-1, 1, 3)))
            for i in range(1, 6)
        ),
        phase1_fe=1, phase2_arch="a",
    )
    lo, hi = anchor_score_bounds(anchors)
    for _ in range(200):
        candidate = render_idea_vector(rng.uniform(-2, 2, 3))
        value = baseline_predict(candidate, anchors, emb)
        assert lo - 1e-12 <= value <= hi + 1e-12


def test_baseline_permutation_invariant():
    emb = VectorIdeaEmbedding(dimension=2)
    a = _anchor(1, 0.9, description=render_idea_vector([1.0, 0.2]))
    b = _anchor(2, 0.5, description=render_idea_vector([-0.4, 1.0]))
    c = _anchor(3, 0.2, description=render_idea_vector([0.3, -0.8]))
    candidate = render_idea_vector([0.1, 0.1])
    one = baseline_predict(candidate, AnchorSet((a, b, c), 1, "x"), emb)
    two = baseline_predict(candidate, AnchorSet((c, a, b), 1, "x"), emb)
    assert one == two


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
    for i, point in enumerate(anchor_points, start=1):
        text = render_idea_vector(point)
        node = spawn(tree, fe.id, NodeLevel.MT, text)
        raw = evaluator.evaluate(node, EvalMode.FULL)
        anchors.append(_anchor(node.id, raw, description=text))
    anchor_set = AnchorSet(tuple(anchors), phase1_fe=fe.id, phase2_arch="x")
    predictor = BaselinePredictor(embedder=emb, temperature=0.1)
    predicted, truth = [], []
    for _ in range(200):
        point = rng.uniform(-1, 1, 2)
        text = render_idea_vector(point)
        node = spawn(tree, fe.id, NodeLevel.MT, text)
        predicted.append(predictor.predict(text, anchor_set))
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
