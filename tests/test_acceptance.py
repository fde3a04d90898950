"""Acceptance suite: ten end-to-end guarantees the engine must hold.

Each test is numbered and self-contained, with its tolerances pinned in
the assertions. The conftest hook prints a one-line verdict per
criterion after the run.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import spearmanr

from ideatree.config import RunConfig, SyntheticConfig
from ideatree.embedding import VectorIdeaEmbedding, render_idea_vector
from ideatree.evaluation import EvalMode, SimulatedEvaluator
from ideatree.events import EventKind, RunLog, read_log
from ideatree.generation import ContextState, SegmentTag
from ideatree.orchestrator import (
    FINAL_SNAPSHOT_FILENAME,
    LOG_FILENAME,
    build_synthetic_ports,
    execute_run,
    verify_replay,
)
from ideatree.report import percent_humans_beaten, read_leaderboard
from ideatree.scoring import BaselinePredictor
from ideatree.search import (
    MergeMemory,
    adding_stage,
    merging_stage,
    pair_key,
    sample_top,
    softmax_select,
)
from ideatree.tree import (
    IdeationTree,
    MetricDirection,
    NodeLevel,
    backpropagate,
)

from helpers import (
    HIGHER,
    LOWER,
    anchor_score_bounds,
    build_random_tree,
    children,
    make_world,
    new_tree,
    of_kind,
    oracle_aggregates,
    spawn,
)

CRITERIA = {
    1: "structural invariants hold over 1000 seeded instances each, under 60s",
    2: "aggregates match a brute-force oracle on 1000 trees, rel err <= 1e-12",
    3: "stage node deltas and memory transitions match hand counts on the full grid",
    4: "softmax within 1e-12 of a 50-digit oracle; sampling freqs within 0.05",
    5: "merging beats add-only on >= 19/20 seeded landscapes and in the mean",
    6: "accelerated runs fit >= 5x (full) and >= 2x (debug-only) the iterations",
    7: "predictor Spearman >= 0.8 over 200 candidates, predictions inside the hull",
    8: "same seed gives byte-identical snapshots; replay equals the final snapshot",
    9: "no stage starts after budget exhaustion; stages alternate in every log",
    10: "leaderboard percent matches a counting oracle on 100 files, both directions",
}


def _sim_config(**overrides):
    doc = {
        "clock_mode": "simulated",
        "synthetic": {"full_cost": 10.0, "debug_cost": 1.0},
    }
    synthetic = overrides.pop("synthetic", {})
    doc["synthetic"].update(synthetic)
    doc.update(overrides)
    return RunConfig.from_dict(doc)


def _run(tmp_path: Path, name: str, **overrides):
    config = _sim_config(**overrides)
    ports = build_synthetic_ports(config)
    out = tmp_path / name
    return execute_run(config, ports, out), out


# ---- criterion 1: structural invariants ----

def test_criterion_01_structural_invariants():
    """1000 seeded instances per invariant: single parent, level order,
    merge-memory partition, append-only context, byte-stable restore.
    Wall budget: 60 seconds."""
    started = time.monotonic()
    tags = (SegmentTag.EDA, SegmentTag.READER, SegmentTag.EXTERNAL)
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        tree = build_random_tree(rng)

        parent_of: dict[int, int] = {}
        for node in tree.nodes.values():
            for child in children(tree, node.id):
                assert child.id not in parent_of, "node listed under two parents"
                parent_of[child.id] = node.id
        root = tree.root
        assert root.parent_id is None
        assert root.id not in parent_of
        for node in tree.nodes.values():
            if node.id == root.id:
                continue
            assert parent_of[node.id] == node.parent_id
            parent = tree.nodes[node.parent_id]
            if node.level is NodeLevel.FE:
                assert parent.level is NodeLevel.EDA
            else:
                assert node.level is NodeLevel.MT
                assert parent.level is NodeLevel.FE

        document = tree.snapshot()
        assert IdeationTree.restore(document).snapshot() == document

        mem = MergeMemory(theta_fail=int(rng.integers(1, 4)))
        for _ in range(12):
            a, b = (int(x) for x in rng.choice(8, size=2, replace=False))
            key = pair_key(a, b)
            if rng.random() < 0.7:
                mem.record_failure(key)
            else:
                mem.record_success(key)
            assert not set(mem.short_term) & mem.long_term
            assert all(0 < c < mem.theta_fail for c in mem.short_term.values())

        ctx = ContextState()
        rendered = ctx.render()
        for i in range(6):
            revision = ctx.revision
            ctx.append(tags[int(rng.integers(3))], f"segment {i}")
            assert ctx.revision == revision + 1
            assert ctx.render().startswith(rendered)
            rendered = ctx.render()
        assert len(ctx.segments) == 6

    assert time.monotonic() - started < 60.0


# ---- criterion 2: aggregation oracle ----

def test_criterion_02_backprop_matches_oracle():
    """1000 random trees of up to 100 nodes; every aggregate within
    rel err 1e-12 of an independent brute-force recomputation."""
    for seed in range(1000):
        tree = build_random_tree(np.random.default_rng(10_000 + seed))
        backpropagate(tree)
        for node_id, want in oracle_aggregates(tree).items():
            got = tree.nodes[node_id].aggregated_score
            if want is None:
                assert got is None
            else:
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# ---- criterion 3: stage arithmetic and memory transitions ----

def test_criterion_03_stage_counts_and_memory_grid():
    """Exhaustive (n_fe, m_mt, n_selected, theta_fail) in {1,2,3}^4.

    Hand-derived expectations. Adding, on a tree holding 2 eligible FE
    nodes: n new FE, then n*m fresh children plus min(s, 2+n) selected
    parents getting min(m, max_add=2) children each. Merging, on 3
    eligible FE with clean memory: min(n, 3) pairs, each producing one
    merged FE with m fresh children and 2 resampled copies, then
    min(n, 3+pairs) best-child merges of one child each: a run sets the
    pairs drawn and the nodes selected for a best-child merge with one
    knob, number_of_selected_node_merging. Wall budget: 120 seconds."""
    started = time.monotonic()
    grid = itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3))
    for n, m, s, theta in grid:
        seed = n * 1000 + m * 100 + s * 10 + theta

        world = make_world(seed=seed, n_fe=2, m_mt=2)
        world.tree.iteration = 1
        fe_before = len(world.tree.fe_nodes())
        mt_before = len(world.tree.nodes_at_level(NodeLevel.MT))
        adding_stage(
            world.tree, world.ctx, world.ports,
            RunConfig(number_of_ideas_data=n, number_of_ideas_modelling=m,
                      number_of_selected_node=s, number_of_iterations_parents=2,
                      max_add_idea=2),
            world.rng,
        )
        assert len(world.tree.fe_nodes()) - fe_before == n
        expected_mt = n * m + min(s, 2 + n) * min(m, 2)
        assert len(world.tree.nodes_at_level(NodeLevel.MT)) - mt_before == expected_mt

        for epsilon, forced_failure in ((1e9, True), (-1e9, False)):
            world = make_world(seed=seed + 7, n_fe=3, m_mt=2)
            mem = MergeMemory(theta_fail=theta)
            log = RunLog()
            fe_before = len(world.tree.fe_nodes())
            mt_before = len(world.tree.nodes_at_level(NodeLevel.MT))
            merging_stage(
                world.tree, mem, world.ports,
                RunConfig(number_of_selected_node_merging=n, number_of_ideas_modelling=m,
                          merge_epsilon=epsilon, number_of_iterations_children=1),
                world.rng, ctx=world.ctx, log=log,
            )
            attempts = of_kind(log, EventKind.MERGE_ATTEMPTED)
            pairs = {tuple(e["payload"]["pair"]) for e in attempts}
            n_pairs = min(n, 3)
            assert len(attempts) == n_pairs
            assert len(pairs) == n_pairs
            assert len(world.tree.fe_nodes()) - fe_before == n_pairs
            expected_mt = n_pairs * (m + 2) + min(n, 3 + n_pairs)
            assert (
                len(world.tree.nodes_at_level(NodeLevel.MT)) - mt_before == expected_mt
            )
            if forced_failure:
                assert all(e["payload"]["outcome"] == "failure" for e in attempts)
                if theta == 1:
                    assert mem.long_term == pairs
                    assert not mem.short_term
                else:
                    assert dict.fromkeys(pairs, 1) == mem.short_term
                    assert not mem.long_term
            else:
                assert all(e["payload"]["outcome"] == "success" for e in attempts)
                assert mem.long_term == pairs
                assert not mem.short_term

    for theta in (1, 2, 3):
        mem = MergeMemory(theta_fail=theta)
        key = pair_key(1, 2)
        for i in range(1, theta):
            assert mem.record_failure(key) is False
            assert mem.short_term.get(key, 0) == i
        assert mem.record_failure(key) is True
        assert key in mem.long_term
        assert key not in mem.short_term
        assert mem.record_failure(key) is False
        other = pair_key(3, 4)
        mem.record_success(other)
        assert other in mem.long_term
        assert not mem.short_term

    assert time.monotonic() - started < 120.0


# ---- criterion 4: selection numerics ----

def _softmax_oracle(oriented, temperature):
    with mp.workdps(50):
        exps = [mp.e ** (mp.mpf(v) / mp.mpf(temperature)) for v in oriented]
        total = mp.fsum(exps)
        return [float(e / total) for e in exps]


def test_criterion_04_softmax_and_sampling():
    """Softmax probabilities within 1e-12 (absolute) of a 50-digit
    oracle, including large-magnitude inputs; top-child sampling
    frequencies within 0.05 of the target distribution over 10,000
    draws per case."""
    rng = np.random.default_rng(4)
    scales = (0.01, 1.0, 100.0)
    temperatures = (0.25, 1.0, 4.0)
    for case in range(120):
        dim = int(rng.integers(1, 9))
        scores = rng.normal(0.0, scales[case % 3], size=dim).tolist()
        temperature = temperatures[case % len(temperatures)]
        dist = softmax_select(scores, temperature)
        oracle = _softmax_oracle(scores, temperature)
        for got, want in zip(dist.probabilities, oracle):
            assert abs(got - want) <= 1e-12
    huge = softmax_select([1e8, 1e8 + 1.0], 1.0)
    for got, want in zip(huge.probabilities, _softmax_oracle([1e8, 1e8 + 1.0], 1.0)):
        assert abs(got - want) <= 1e-12

    cases = [
        (HIGHER, [0.1, 0.5, 0.9], 1.0, False),
        (LOWER, [0.1, 0.5, 0.9], 1.0, False),
        (HIGHER, [0.0, 1.0], 0.5, False),
        (HIGHER, [1.0, 2.0, 4.0], 2.0, False),
        (HIGHER, [1.0, 3.0], 1.0, True),
    ]
    draws = 10_000
    for metric, scores, temperature, proportional in cases:
        tree = new_tree("root")
        fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
        child_ids = []
        for k, raw in enumerate(scores):
            mt = spawn(tree, fe.id, NodeLevel.MT, f"mt {k}")
            tree.mark_evaluated(mt.id, raw)
            child_ids.append(mt.id)
        oriented = [metric.orient(raw) for raw in scores]
        if proportional:
            total = sum(oriented)
            expected = {i: v / total for i, v in zip(child_ids, oriented)}
        else:
            expected = dict(zip(child_ids, _softmax_oracle(oriented, temperature)))
        counts = dict.fromkeys(child_ids, 0)
        sample_rng = np.random.default_rng(44)
        for _ in range(draws):
            picked = sample_top(
                tree, fe.id, 1, sample_rng,
                metric=metric, temperature=temperature, proportional=proportional,
            )
            counts[picked[0].id] += 1
        for node_id in child_ids:
            assert abs(counts[node_id] / draws - expected[node_id]) <= 0.05


# ---- criterion 5: merging pays off ----

def test_criterion_05_merging_beats_add_only(tmp_path):
    """20 seeded landscapes with a positive merge bonus: enabling the
    merging stage must win on at least 19 of 20 seeds and on the mean
    best score. Wall budget: 300 seconds."""
    started = time.monotonic()
    with_merge, without_merge = [], []
    for seed in range(20):
        shared = dict(
            seed=seed,
            time_run_minutes=500.0,
            synthetic={"merge_bonus": 0.5},
        )
        merged, _ = _run(tmp_path, f"m{seed}", enable_merging=True, **shared)
        plain, _ = _run(tmp_path, f"p{seed}", enable_merging=False, **shared)
        assert merged.best_raw_score is not None
        assert plain.best_raw_score is not None
        with_merge.append(merged.best_raw_score)
        without_merge.append(plain.best_raw_score)
    wins = sum(1 for a, b in zip(with_merge, without_merge) if a > b)
    assert wins >= 19, f"merging won only {wins}/20 seeds"
    assert np.mean(with_merge) > np.mean(without_merge)
    assert time.monotonic() - started < 300.0


# ---- criterion 6: acceleration arithmetic ----

def test_criterion_06_acceleration_iteration_counts(tmp_path):
    """Fixed simulated budget, full cost 10x debug cost, six debug
    attempts per evaluation. Debug acceleration alone must fit at least
    2x the iterations of the unaccelerated run; adding predictive
    pruning must fit at least 5x, with strict ordering between the
    three. Wall budget: 120 seconds."""
    started = time.monotonic()
    shared = dict(seed=3, time_run_minutes=3000.0, validation_attempts=6)
    none, _ = _run(
        tmp_path, "none", accelerated_debugging=False,
        predict_before_evaluate=False, **shared,
    )
    debug_only, _ = _run(
        tmp_path, "debug", accelerated_debugging=True,
        predict_before_evaluate=False, **shared,
    )
    full, _ = _run(
        tmp_path, "full", accelerated_debugging=True,
        predict_before_evaluate=True, **shared,
    )
    assert none.iterations < debug_only.iterations < full.iterations
    assert debug_only.iterations >= 2 * none.iterations
    assert full.iterations >= 5 * none.iterations
    assert time.monotonic() - started < 120.0


# ---- criterion 7: scoring model sanity ----

def test_criterion_07_predictor_rank_fidelity():
    """200 candidates against 5 landscape-scored anchors: Spearman
    correlation of predicted vs true at least 0.8, and every prediction
    inside the anchor score hull."""
    landscape = SyntheticConfig(dimension=2, full_cost=1.0, debug_cost=0.1, merge_bonus=0.0)
    evaluator = SimulatedEvaluator(landscape, HIGHER, seed=0)
    embedder = VectorIdeaEmbedding(dimension=2, radius=1.5)
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, render_idea_vector([0.0, 0.0]))
    anchors = []
    for point in [(-0.8, -0.8), (-0.4, 0.4), (0.0, 0.0), (0.5, -0.5), (0.9, 0.9)]:
        text = render_idea_vector(point)
        node = spawn(tree, fe.id, NodeLevel.MT, text)
        tree.mark_evaluated(node.id, evaluator.evaluate(node, EvalMode.FULL))
        anchors.append(node)
    low, high = anchor_score_bounds(anchors)
    predictor = BaselinePredictor(embedder=embedder, temperature=0.1)

    rng = np.random.default_rng(7)
    predicted, truth = [], []
    for _ in range(200):
        text = render_idea_vector(rng.uniform(-1, 1, 2))
        node = spawn(tree, fe.id, NodeLevel.MT, text)
        value = predictor.predict(text, anchors)
        assert low - 1e-12 <= value <= high + 1e-12
        predicted.append(value)
        truth.append(evaluator.evaluate(node, EvalMode.FULL))
    rho = spearmanr(predicted, truth).statistic
    assert rho >= 0.8, f"rank correlation {rho:.3f} below 0.8"


# ---- criterion 8: determinism and replay ----

def test_criterion_08_determinism_and_replay(tmp_path):
    """10 seeds, two runs each: final snapshots byte-identical, and the
    event log rebuilds exactly the snapshotted tree."""
    for seed in range(10):
        shared = dict(seed=seed, time_run_minutes=250.0)
        _, dir_a = _run(tmp_path, f"a{seed}", **shared)
        _, dir_b = _run(tmp_path, f"b{seed}", **shared)
        first = (dir_a / FINAL_SNAPSHOT_FILENAME).read_bytes()
        second = (dir_b / FINAL_SNAPSHOT_FILENAME).read_bytes()
        assert first == second
        assert verify_replay(dir_a)


# ---- criterion 9: budget safety and alternation ----

def test_criterion_09_budget_safety_and_alternation(tmp_path):
    """Randomized budgets: nothing starts after the exhaustion event,
    every stage start predates the budget, and the stage sequence
    alternates adding/merging in every log."""
    rng = np.random.default_rng(90)
    for i in range(12):
        budget = float(rng.integers(30, 500))
        _, run_dir = _run(
            tmp_path, f"r{i}",
            seed=100 + i,
            time_run_minutes=budget,
            predict_before_evaluate=(i % 3 == 0),
            enable_merging=(i % 4 != 3),
        )
        events = read_log(run_dir / LOG_FILENAME)
        exhausted = [e["seq"] for e in events if e["kind"] == EventKind.BUDGET_EXHAUSTED]
        starts = [e for e in events if e["kind"] == EventKind.STAGE_STARTED]
        if exhausted:
            assert all(e["seq"] < exhausted[0] for e in starts)
        for e in starts:
            assert e["ts"] < budget
        stages = [e["payload"]["stage"] for e in starts]
        for position, stage in enumerate(stages):
            assert stage == ("adding" if position % 2 == 0 else "merging")


# ---- criterion 10: leaderboard arithmetic ----

def test_criterion_10_leaderboard_against_counting_oracle(tmp_path):
    """100 random leaderboard files covering both directions, ties, and
    the no-submission convention, checked against an independent
    counting loop at rel err 1e-12."""
    rng = np.random.default_rng(55)
    for case in range(100):
        direction = (
            MetricDirection.HIGHER_BETTER if case % 2 == 0
            else MetricDirection.LOWER_BETTER
        )
        scores = [round(float(v), 3) for v in rng.uniform(-5, 5, int(rng.integers(1, 41)))]
        if case % 7 == 0:
            best = None
        elif rng.random() < 0.3:
            best = scores[int(rng.integers(len(scores)))]
        else:
            best = round(float(rng.uniform(-6, 6)), 3)

        path = tmp_path / f"board_{case}.txt"
        header = direction.value.upper() if case % 5 == 0 else direction.value
        path.write_text(header + "\n" + "\n".join(str(s) for s in scores) + "\n")
        read_direction, read_scores = read_leaderboard(path)
        assert read_direction is direction
        assert read_scores == pytest.approx(scores)

        got = percent_humans_beaten(best, read_scores, read_direction)
        if best is None:
            assert got == 0.0
            continue
        if direction is MetricDirection.HIGHER_BETTER:
            beaten = sum(1 for s in scores if s < best)
        else:
            beaten = sum(1 for s in scores if s > best)
        want = 100.0 * beaten / len(scores)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
