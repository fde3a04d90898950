"""Tree structure, backpropagation against a brute-force oracle, snapshots."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideatree.errors import (
    DuplicateId,
    InvariantViolation,
    LevelMismatch,
    MalformedDocument,
    NonFiniteScore,
    UnknownParent,
)
from ideatree.events import EventKind, RunLog
from ideatree.orchestrator import replay_events
from ideatree.tree import (
    IdeationTree,
    Node,
    NodeLevel,
    NodeStatus,
    Provenance,
    backpropagate,
)

from helpers import (
    HIGHER,
    LOWER,
    build_random_tree,
    oracle_aggregates,
    oracle_best,
    reference_snapshot,
)


def test_create_root_only():
    tree = IdeationTree.create("look at the data")
    assert tree.root.level is NodeLevel.EDA
    assert tree.root.parent_id is None
    assert len(tree.nodes) == 1


def test_spawn_respects_levels():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    mt = tree.spawn(fe.id, NodeLevel.MT, "mt")
    assert mt.parent_id == fe.id
    assert [c.id for c in tree.children(fe.id)] == [mt.id]


def test_add_mt_under_root_rejected():
    tree = IdeationTree.create("root")
    with pytest.raises(LevelMismatch):
        tree.spawn(tree.root.id, NodeLevel.MT, "mt under root")


def test_children_under_mt_rejected():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    mt = tree.spawn(fe.id, NodeLevel.MT, "mt")
    with pytest.raises(LevelMismatch):
        tree.spawn(mt.id, NodeLevel.MT, "grandchild")


def test_unknown_parent():
    tree = IdeationTree.create("root")
    with pytest.raises(UnknownParent):
        tree.add_node(99, Node(id=5, level=NodeLevel.FE, parent_id=99, idea_text="x"))


def test_duplicate_id():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    with pytest.raises(DuplicateId):
        tree.add_node(tree.root.id, Node(id=fe.id, level=NodeLevel.FE, parent_id=None, idea_text="dup"))


def test_second_root_rejected():
    tree = IdeationTree.create("root")
    with pytest.raises(InvariantViolation):
        tree.add_node(None, Node(id=7, level=NodeLevel.EDA, parent_id=None, idea_text="another root"))


def test_merged_provenance_validation():
    tree = IdeationTree.create("root")
    a = tree.spawn(tree.root.id, NodeLevel.FE, "a")
    b = tree.spawn(tree.root.id, NodeLevel.FE, "b")
    merged = tree.spawn(tree.root.id, NodeLevel.FE, "a+b", provenance=Provenance.merged(a.id, b.id))
    assert merged.provenance.sources == (a.id, b.id)
    # same node twice is not a valid pair
    with pytest.raises(InvariantViolation):
        tree.spawn(tree.root.id, NodeLevel.FE, "bad", provenance=Provenance.merged(a.id, a.id))
    # cross-level sources are rejected
    mt = tree.spawn(a.id, NodeLevel.MT, "mt")
    with pytest.raises(InvariantViolation):
        tree.spawn(tree.root.id, NodeLevel.FE, "bad", provenance=Provenance.merged(mt.id, b.id))


def test_non_finite_score_rejected():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    mt = tree.spawn(fe.id, NodeLevel.MT, "mt")
    with pytest.raises(NonFiniteScore):
        tree.mark_evaluated(mt.id, float("nan"))
    with pytest.raises(NonFiniteScore):
        tree.mark_evaluated(mt.id, float("inf"))


def test_backpropagate_two_children_example():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    for s in (0.8, 0.6):
        mt = tree.spawn(fe.id, NodeLevel.MT, "mt")
        tree.mark_evaluated(mt.id, s)
    backpropagate(tree)
    assert tree.nodes[fe.id].aggregated_score == pytest.approx(0.7, abs=1e-15)
    assert tree.root.aggregated_score == pytest.approx(0.7, abs=1e-15)


def test_backpropagate_ignores_unevaluated():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    mt1 = tree.spawn(fe.id, NodeLevel.MT, "mt1")
    tree.mark_evaluated(mt1.id, 2.0)
    tree.spawn(fe.id, NodeLevel.MT, "mt2")  # stays proposed
    mt3 = tree.spawn(fe.id, NodeLevel.MT, "mt3")
    tree.mark_failed(mt3.id)
    backpropagate(tree)
    assert tree.nodes[fe.id].aggregated_score == 2.0


def test_backpropagate_empty_fe_unset():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    backpropagate(tree)
    assert tree.nodes[fe.id].aggregated_score is None
    assert tree.root.aggregated_score is None


def test_backpropagate_oracle_1000_random_trees():
    rng = np.random.default_rng(20260815)
    for _ in range(1000):
        tree = build_random_tree(rng, max_nodes=100)
        backpropagate(tree)
        expected = oracle_aggregates(tree)
        for nid, want in expected.items():
            got = tree.nodes[nid].aggregated_score
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_backpropagate_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        tree = build_random_tree(rng, max_nodes=60)
        backpropagate(tree)
        first = {n.id: n.aggregated_score for n in tree.nodes.values()}
        backpropagate(tree)
        second = {n.id: n.aggregated_score for n in tree.nodes.values()}
        assert first == second


def test_best_evaluated_mt_orientation_and_ties():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    a = tree.spawn(fe.id, NodeLevel.MT, "a")
    b = tree.spawn(fe.id, NodeLevel.MT, "b")
    c = tree.spawn(fe.id, NodeLevel.MT, "c")
    tree.mark_evaluated(a.id, 0.3)
    tree.mark_evaluated(b.id, 0.1)
    tree.mark_evaluated(c.id, 0.3)
    assert tree.best_evaluated_mt(HIGHER).id == a.id  # tie with c, lower id wins
    assert tree.best_evaluated_mt(LOWER).id == b.id


def test_best_evaluated_mt_none_when_empty():
    tree = IdeationTree.create("root")
    assert tree.best_evaluated_mt(HIGHER) is None


def test_snapshot_roundtrip_byte_identical():
    rng = np.random.default_rng(99)
    for _ in range(25):
        tree = build_random_tree(rng, max_nodes=40)
        backpropagate(tree)
        doc = tree.snapshot()
        restored = IdeationTree.restore(doc)
        assert restored.snapshot() == doc


def test_snapshot_declares_schema():
    tree = IdeationTree.create("root")
    doc = json.loads(tree.snapshot())
    assert doc["tree_schema"] == 1


def test_restore_rejects_garbage():
    with pytest.raises(MalformedDocument):
        IdeationTree.restore("{not json")
    with pytest.raises(MalformedDocument):
        IdeationTree.restore(json.dumps({"tree_schema": 1}))
    with pytest.raises(MalformedDocument):
        IdeationTree.restore(json.dumps({"tree_schema": 2, "nodes": []}))


def test_restore_rejects_generated_node_with_sources():
    tree = IdeationTree.create("root")
    tree.spawn(tree.root.id, NodeLevel.FE, "a")
    doc = json.loads(tree.snapshot())
    doc["nodes"][1]["provenance"]["sources"] = [0]
    with pytest.raises(InvariantViolation):
        IdeationTree.restore(json.dumps(doc))


def test_restore_rejects_duplicate_node_entries():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    doc = json.loads(tree.snapshot())
    clash = dict(doc["nodes"][1])
    clash["idea_text"] = "same id, different parent story"
    doc["nodes"].append(clash)
    with pytest.raises(InvariantViolation):
        IdeationTree.restore(json.dumps(doc))


def test_restore_rejects_two_roots():
    doc = {
        "tree_schema": 1,
        "iteration": 0,
        "next_id": 2,
        "nodes": [
            {"id": 0, "level": "eda", "parent_id": None, "idea_text": "r1",
             "code_artifact": None, "raw_score": None, "predicted_score": None,
             "aggregated_score": None, "status": "implemented",
             "provenance": {"kind": "generated", "sources": []}, "created_iteration": 0},
            {"id": 1, "level": "eda", "parent_id": None, "idea_text": "r2",
             "code_artifact": None, "raw_score": None, "predicted_score": None,
             "aggregated_score": None, "status": "implemented",
             "provenance": {"kind": "generated", "sources": []}, "created_iteration": 0},
        ],
    }
    with pytest.raises(InvariantViolation):
        IdeationTree.restore(json.dumps(doc))


def test_restore_rejects_score_without_evaluated_status():
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    mt = tree.spawn(fe.id, NodeLevel.MT, "mt")
    tree.mark_evaluated(mt.id, 1.0)
    doc = json.loads(tree.snapshot())
    for rec in doc["nodes"]:
        if rec["id"] == mt.id:
            rec["status"] = "proposed"
    with pytest.raises(InvariantViolation):
        IdeationTree.restore(json.dumps(doc))


def test_fe_nodes_attach_in_ascending_id_order():
    tree = IdeationTree.create("root")
    late = Node(id=tree.allocate_id(), level=NodeLevel.FE, parent_id=None, idea_text="late")
    tree.spawn(tree.root.id, NodeLevel.FE, "early")
    with pytest.raises(InvariantViolation):
        tree.add_node(tree.root.id, late)
    assert late.id not in tree.nodes
    assert tree.fe_table.ids.tolist() == [n.id for n in tree.fe_nodes()]


def test_ids_not_reused_after_restore():
    tree = IdeationTree.create("root")
    tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    restored = IdeationTree.restore(tree.snapshot())
    used = set(restored.nodes)
    fresh = restored.spawn(restored.root.id, NodeLevel.FE, "later fe")
    assert fresh.id not in used


# ---- incremental indexes against full scans ----

_INDEX_OPS = ("fe", "mt", "mt", "evaluate", "evaluate", "fail", "resample", "restore", "replay",
              "iteration")


def _full_recompute(tree: IdeationTree) -> dict:
    """Every aggregate from a scan of all FE nodes, the way
    ``backpropagate`` worked before it kept a dirty set."""
    out = {}
    root_parts = []
    for fe in [n for n in tree.nodes.values() if n.level is NodeLevel.FE]:
        scores = [c.raw_score for c in tree.children(fe.id) if c.status is NodeStatus.EVALUATED]
        if scores:
            out[fe.id] = float(sum(scores) / len(scores))
            root_parts.append(out[fe.id])
        else:
            out[fe.id] = None
    out[tree.root.id] = float(sum(root_parts) / len(root_parts)) if root_parts else None
    return out


def _apply_index_op(tree: IdeationTree, log: RunLog, op: str, data) -> IdeationTree:
    """One mutation, mirrored into ``log`` the way the engine logs it."""
    fes = [n.id for n in tree.nodes.values() if n.level is NodeLevel.FE]
    mts = [n.id for n in tree.nodes.values() if n.level is NodeLevel.MT]
    score = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    if op == "fe":
        node = tree.spawn(tree.root.id, NodeLevel.FE, "fe", status=NodeStatus.IMPLEMENTED)
        log.append(EventKind.NODE_PROPOSED, node=node.to_dict())
    elif op == "mt" and fes:
        node = tree.spawn(data.draw(st.sampled_from(fes)), NodeLevel.MT, "mt")
        log.append(EventKind.NODE_PROPOSED, node=node.to_dict())
    elif op in ("evaluate", "fail") and mts:
        node_id = data.draw(st.sampled_from(mts))
        if op == "evaluate":
            tree.mark_evaluated(node_id, data.draw(score))
        else:
            tree.mark_failed(node_id)
        node = tree.nodes[node_id]
        log.append(EventKind.NODE_EVALUATED, node_id=node_id,
                   raw_score=node.raw_score, status=node.status.value)
    elif op == "resample" and fes:
        scored = [i for i in mts if tree.nodes[i].status is NodeStatus.EVALUATED]
        if scored:
            origin = tree.nodes[data.draw(st.sampled_from(scored))]
            copy = Node(
                id=tree.allocate_id(), level=NodeLevel.MT,
                parent_id=data.draw(st.sampled_from(fes)), idea_text=origin.idea_text,
                raw_score=origin.raw_score, status=NodeStatus.EVALUATED,
                provenance=Provenance.resampled(origin.id),
            )
            tree.add_node(copy.parent_id, copy)
            log.append(EventKind.NODE_PROPOSED, node=copy.to_dict())
    elif op == "restore":
        tree = IdeationTree.restore(tree.snapshot())
    elif op == "replay":
        tree = replay_events(log.events)
    elif op == "iteration":
        tree.iteration += 1
        log.append(EventKind.STAGE_STARTED, stage="adding", iteration=tree.iteration)
    return tree


def _assert_fe_table_matches_scan(tree: IdeationTree) -> None:
    """The FE table equals a scan of every node: one row per FE node,
    in attach order, which is id order, holding the node's aggregate
    (NaN for none), created iteration and evaluated-children count."""
    fes = sorted((n for n in tree.nodes.values() if n.level is NodeLevel.FE), key=lambda n: n.id)
    table = tree.fe_table
    assert table.ids.tolist() == [fe.id for fe in fes] == [fe.id for fe in tree.fe_nodes()]
    assert table.created.tolist() == [fe.created_iteration for fe in fes]
    assert table.evaluated.tolist() == [
        sum(1 for c in tree.nodes.values()
            if c.parent_id == fe.id and c.status is NodeStatus.EVALUATED)
        for fe in fes
    ]
    for got, fe in zip(table.aggregates.tolist(), fes):
        assert math.isnan(got) if fe.aggregated_score is None else got == fe.aggregated_score


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_indexes_match_full_scans(data):
    """Random mutation sequences, a few mutations between checks: the
    dirty-set backpropagate equals a full recompute float for float and
    the brute-force oracle, and every index equals a scan of all nodes.
    The FE table is checked against a scan after every mutation too,
    restores and replays included."""
    tree = IdeationTree.create("root")
    log = RunLog()
    log.append(EventKind.NODE_PROPOSED, node=tree.root.to_dict())
    for _ in range(data.draw(st.integers(1, 30))):
        for _ in range(data.draw(st.integers(1, 3))):
            tree = _apply_index_op(tree, log, data.draw(st.sampled_from(_INDEX_OPS)), data)
            _assert_fe_table_matches_scan(tree)
        backpropagate(tree)
        _assert_fe_table_matches_scan(tree)

        full = _full_recompute(tree)
        assert {nid: tree.nodes[nid].aggregated_score for nid in full} == full
        for nid, want in oracle_aggregates(tree).items():
            got = tree.nodes[nid].aggregated_score
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15) if want is not None else got is None
        for level in NodeLevel:
            scanned = [n for n in tree.nodes.values() if n.level is level]
            assert [id(n) for n in tree.nodes_at_level(level)] == [id(n) for n in scanned]
        assert tree.eligible_fe_ids() == sorted(
            fe.id for fe in tree.fe_nodes() if tree.evaluated_mt_children(fe.id)
        )
        assert replay_events(log.events).snapshot() == tree.snapshot()


# ---- snapshot and running best against cold recomputes ----

_BEST_OPS = _INDEX_OPS + ("best", "mt_scored", "rescore_best", "fail_best", "exotic")

# floats whose shortest repr takes an exponent or a sign, and ints past
# 64 bits: the snapshot encoder must spell each as json.dumps does
_EXTREME_FLOATS = st.one_of(
    st.sampled_from((-0.0, 1e-05, 1e-4, 1e16, 1e17, 5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_EXTREME_SCORES = st.one_of(_EXTREME_FLOATS, st.integers(-2**70, 2**70))


def _apply_best_op(tree: IdeationTree, log: RunLog, op: str, data) -> IdeationTree:
    """One mutation, or a best-node query that leaves the running best
    warm for the mutations after it."""
    if op in _INDEX_OPS:
        return _apply_index_op(tree, log, op, data)
    if op == "exotic":
        fes = [n.id for n in tree.nodes.values() if n.level is NodeLevel.FE]
        if fes:
            # non-ASCII text, and extreme values where they feed no mean
            node = tree.spawn(
                data.draw(st.sampled_from(fes)), NodeLevel.MT, data.draw(st.text()),
                code_artifact=data.draw(st.text()), status=NodeStatus.EVALUATED,
                raw_score=data.draw(st.floats(-1e300, 1e300)),
            )
            node.predicted_score = data.draw(_EXTREME_SCORES)
            log.append(EventKind.NODE_PROPOSED, node=node.to_dict())
        return tree
    metric = data.draw(st.sampled_from((HIGHER, LOWER)))
    if op == "best":
        tree.best_evaluated_mt(metric)
    elif op == "mt_scored":
        fes = [n.id for n in tree.nodes.values() if n.level is NodeLevel.FE]
        if fes:
            node = tree.spawn(
                data.draw(st.sampled_from(fes)), NodeLevel.MT, "scored mt",
                status=NodeStatus.EVALUATED,
                raw_score=data.draw(st.floats(min_value=-1e3, max_value=1e3)),
            )
            log.append(EventKind.NODE_PROPOSED, node=node.to_dict())
    else:
        best = tree.best_evaluated_mt(metric)
        if best is not None:
            if op == "rescore_best":
                worse = data.draw(st.floats(min_value=0.0, max_value=1e3))
                lower = best.raw_score - worse if metric is HIGHER else best.raw_score + worse
                tree.mark_evaluated(best.id, lower)
            else:
                tree.mark_failed(best.id)
            log.append(EventKind.NODE_EVALUATED, node_id=best.id,
                       raw_score=best.raw_score, status=best.status.value)
    return tree


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_snapshot_and_running_best_match_cold_scans(data):
    """Random mutations, with best-node queries among them so the
    running best is warm when scores change: every snapshot equals a
    cold encode of the whole tree, and the best evaluated MT node
    equals a full scan for either metric direction."""
    tree = IdeationTree.create("root")
    log = RunLog()
    log.append(EventKind.NODE_PROPOSED, node=tree.root.to_dict())
    for _ in range(data.draw(st.integers(1, 30))):
        for _ in range(data.draw(st.integers(1, 4))):
            tree = _apply_best_op(tree, log, data.draw(st.sampled_from(_BEST_OPS)), data)
        if data.draw(st.booleans()):
            backpropagate(tree)
        assert tree.snapshot() == reference_snapshot(tree)
        for metric in data.draw(st.permutations((HIGHER, LOWER))):
            assert tree.best_evaluated_mt(metric) is oracle_best(tree, metric)


def test_snapshot_encodes_equal_values_apart():
    """0.0 and -0.0, or 1, 1.0 and True, compare equal but encode
    apart; the snapshot keeps each as it was written."""
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "fe")
    mt = tree.spawn(fe.id, NodeLevel.MT, "mt")
    tree.mark_evaluated(mt.id, -0.0)
    for predicted in (1, 1.0, True):
        mt.predicted_score = predicted
        assert tree.snapshot() == reference_snapshot(tree)


@pytest.mark.parametrize("text", ["é ü 漢字 🙂", "\u2028\x00\"\\", ""])
def test_snapshot_encodes_non_ascii_text_and_extreme_floats(text):
    """Non-ASCII and control characters in idea and code text, and
    floats at the edges of their repr, encode as json.dumps encodes
    them."""
    tree = IdeationTree.create(text)
    fe = tree.spawn(tree.root.id, NodeLevel.FE, text)
    for value in (1e-05, 1e16, 5e-324, 1.7976931348623157e308, -0.0, 2**64):
        mt = tree.spawn(fe.id, NodeLevel.MT, text, code_artifact=text * 2)
        mt.predicted_score = value
        assert tree.snapshot() == reference_snapshot(tree)
    tree.mark_evaluated(mt.id, 1e-300)
    backpropagate(tree)
    assert tree.snapshot() == reference_snapshot(tree)


def test_node_dict_keys_are_sorted():
    """The snapshot encoder does not sort keys, so every dict a node
    encodes to is built in sorted key order."""
    tree = IdeationTree.create("root")
    a = tree.spawn(tree.root.id, NodeLevel.FE, "a")
    b = tree.spawn(tree.root.id, NodeLevel.FE, "b")
    merged = tree.spawn(tree.root.id, NodeLevel.FE, "ab", provenance=Provenance.merged(a.id, b.id))
    for node in tree.nodes.values():
        d = node.to_dict()
        assert list(d) == sorted(d)
        assert list(d["provenance"]) == sorted(d["provenance"])
    assert merged.provenance.to_dict()["sources"] == [a.id, b.id]
    # spawned generated nodes share one immutable provenance
    assert a.provenance is b.provenance
