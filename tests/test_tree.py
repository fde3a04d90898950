"""Tree structure, backpropagation against a brute-force oracle, snapshots."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideatree.errors import (
    CorruptLog,
    DuplicateId,
    InvariantViolation,
    LevelMismatch,
    MalformedDocument,
    NonFiniteScore,
    UnknownParent,
)
from ideatree.events import EventKind, RunLog, encode_json
from ideatree.orchestrator import replay_events
from ideatree.tree import (
    SNAPSHOT_CHUNK,
    IdeationTree,
    Node,
    NodeLevel,
    NodeStatus,
    Provenance,
    backpropagate,
    sum_in_order,
)

from helpers import (
    HIGHER,
    LOWER,
    build_random_tree,
    children,
    new_tree,
    oracle_aggregates,
    oracle_best,
    reference_snapshot,
    spawn,
)


def test_create_root_only():
    tree = new_tree("look at the data")
    assert tree.root.level is NodeLevel.EDA
    assert tree.root.parent_id is None
    assert len(tree.nodes) == 1


def test_spawn_respects_levels():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    mt = spawn(tree, fe.id, NodeLevel.MT, "mt")
    assert mt.parent_id == fe.id
    assert [c.id for c in children(tree, fe.id)] == [mt.id]


def test_add_mt_under_root_rejected():
    tree = new_tree("root")
    with pytest.raises(LevelMismatch):
        spawn(tree, tree.root.id, NodeLevel.MT, "mt under root")


def test_children_under_mt_rejected():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    mt = spawn(tree, fe.id, NodeLevel.MT, "mt")
    with pytest.raises(LevelMismatch):
        spawn(tree, mt.id, NodeLevel.MT, "grandchild")


def test_unknown_parent():
    tree = new_tree("root")
    with pytest.raises(UnknownParent):
        tree.add_node(99, Node(id=5, level=NodeLevel.FE, parent_id=99, idea_text="x"))


def test_duplicate_id():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    with pytest.raises(DuplicateId):
        tree.add_node(tree.root.id, Node(id=fe.id, level=NodeLevel.FE, parent_id=None, idea_text="dup"))


def test_second_root_rejected():
    tree = new_tree("root")
    with pytest.raises(InvariantViolation):
        tree.add_node(None, Node(id=7, level=NodeLevel.EDA, parent_id=None, idea_text="another root"))


def test_merged_provenance_validation():
    tree = new_tree("root")
    a = spawn(tree, tree.root.id, NodeLevel.FE, "a")
    b = spawn(tree, tree.root.id, NodeLevel.FE, "b")
    merged = spawn(tree, tree.root.id, NodeLevel.FE, "a+b", provenance=Provenance.merged(a.id, b.id))
    assert merged.provenance.sources == (a.id, b.id)
    # same node twice is not a valid pair
    with pytest.raises(InvariantViolation):
        spawn(tree, tree.root.id, NodeLevel.FE, "bad", provenance=Provenance.merged(a.id, a.id))
    # cross-level sources are rejected
    mt = spawn(tree, a.id, NodeLevel.MT, "mt")
    with pytest.raises(InvariantViolation):
        spawn(tree, tree.root.id, NodeLevel.FE, "bad", provenance=Provenance.merged(mt.id, b.id))


def test_non_finite_score_rejected():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    mt = spawn(tree, fe.id, NodeLevel.MT, "mt")
    with pytest.raises(NonFiniteScore):
        tree.mark_evaluated(mt.id, float("nan"))
    with pytest.raises(NonFiniteScore):
        tree.mark_evaluated(mt.id, float("inf"))


def test_backpropagate_two_children_example():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    for s in (0.8, 0.6):
        mt = spawn(tree, fe.id, NodeLevel.MT, "mt")
        tree.mark_evaluated(mt.id, s)
    backpropagate(tree)
    assert tree.nodes[fe.id].aggregated_score == pytest.approx(0.7, abs=1e-15)
    assert tree.root.aggregated_score == pytest.approx(0.7, abs=1e-15)


def test_backpropagate_ignores_unevaluated():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    mt1 = spawn(tree, fe.id, NodeLevel.MT, "mt1")
    tree.mark_evaluated(mt1.id, 2.0)
    spawn(tree, fe.id, NodeLevel.MT, "mt2")  # stays proposed
    mt3 = spawn(tree, fe.id, NodeLevel.MT, "mt3")
    tree.mark_failed(mt3.id)
    backpropagate(tree)
    assert tree.nodes[fe.id].aggregated_score == 2.0


def test_backpropagate_empty_fe_unset():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    backpropagate(tree)
    assert tree.nodes[fe.id].aggregated_score is None
    assert tree.root.aggregated_score is None


def test_root_mean_is_the_one_the_last_backpropagate_left():
    """The root mean is taken when the root is read, over the FE rows
    the last backpropagate covered, so it reads as if taken then: an FE
    node attached later, even one carrying an aggregate, and a child
    scored later change it only at the next backpropagate."""
    tree = new_tree("root")
    fe = spawn(tree, tree.root_id, NodeLevel.FE, "fe")
    first = spawn(tree, fe.id, NodeLevel.MT, "mt")
    tree.mark_evaluated(first.id, 1.0)
    backpropagate(tree)
    carried = tree.new_node(tree.root_id, NodeLevel.FE, "carried", aggregated_score=5.0)
    tree.add_node(carried.parent_id, carried)
    second = spawn(tree, fe.id, NodeLevel.MT, "mt")
    tree.mark_evaluated(second.id, 3.0)
    assert tree.root.aggregated_score == 1.0
    backpropagate(tree)
    assert tree.nodes[carried.id].aggregated_score is None
    assert tree.root.aggregated_score == 2.0


# scores whose left-to-right sum is 0.0 and whose exact sum is 2.0
_ORDER_SENSITIVE = [0.1] * 10 + [1e16, 1.0, -1e16]


def test_aggregates_add_their_scores_left_to_right():
    """An FE aggregate and the root mean add their terms one after
    another, as the built-in ``sum`` did up to Python 3.11; since 3.12
    that compensates, and on these scores gives the exact 2.0."""
    assert math.fsum(_ORDER_SENSITIVE) == 2.0
    assert sum_in_order(_ORDER_SENSITIVE) == 0.0
    assert sum_in_order(_ORDER_SENSITIVE[1:], _ORDER_SENSITIVE[0]) == 0.0
    tree = new_tree("root")
    fe = spawn(tree, tree.root_id, NodeLevel.FE, "fe")
    for score in _ORDER_SENSITIVE:
        tree.mark_evaluated(spawn(tree, fe.id, NodeLevel.MT, "mt").id, score)
    backpropagate(tree)
    assert tree.nodes[fe.id].aggregated_score == 0.0
    tree = new_tree("root")
    for score in _ORDER_SENSITIVE:
        parent = spawn(tree, tree.root_id, NodeLevel.FE, "fe")
        tree.mark_evaluated(spawn(tree, parent.id, NodeLevel.MT, "mt").id, score)
    backpropagate(tree)
    assert tree.root.aggregated_score == 0.0


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
        # the root's mean is taken when the root is read
        first = {tree.root_id: tree.root.aggregated_score,
                 **{n.id: n.aggregated_score for n in tree.nodes.values()}}
        backpropagate(tree)
        second = {tree.root_id: tree.root.aggregated_score,
                  **{n.id: n.aggregated_score for n in tree.nodes.values()}}
        assert first == second


def test_best_evaluated_mt_orientation_and_ties():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    a = spawn(tree, fe.id, NodeLevel.MT, "a")
    b = spawn(tree, fe.id, NodeLevel.MT, "b")
    c = spawn(tree, fe.id, NodeLevel.MT, "c")
    tree.mark_evaluated(a.id, 0.3)
    tree.mark_evaluated(b.id, 0.1)
    tree.mark_evaluated(c.id, 0.3)
    assert tree.best_evaluated_mt(HIGHER).id == a.id  # tie with c, lower id wins
    assert tree.best_evaluated_mt(LOWER).id == b.id


def test_best_evaluated_mt_none_when_empty():
    tree = new_tree("root")
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
    tree = new_tree("root")
    doc = json.loads(tree.snapshot())
    assert doc["tree_schema"] == 2


def test_restore_rejects_garbage():
    with pytest.raises(MalformedDocument):
        IdeationTree.restore("{not json")
    with pytest.raises(MalformedDocument):
        IdeationTree.restore(json.dumps({"tree_schema": 2}))
    for nodes in ({}, None, "nodes"):
        with pytest.raises(MalformedDocument, match="lacks a nodes list"):
            IdeationTree.restore(json.dumps({"tree_schema": 2, "nodes": nodes}))
    with pytest.raises(MalformedDocument, match="unsupported tree_schema 1"):
        IdeationTree.restore(json.dumps({"tree_schema": 1, "nodes": []}))


def test_restore_rejects_generated_node_with_sources():
    tree = new_tree("root")
    spawn(tree, tree.root.id, NodeLevel.FE, "a")
    doc = json.loads(tree.snapshot())
    doc["nodes"][1]["provenance"]["sources"] = [0]
    with pytest.raises(InvariantViolation):
        IdeationTree.restore(json.dumps(doc))


def test_restore_rejects_duplicate_node_entries():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    doc = json.loads(tree.snapshot())
    clash = dict(doc["nodes"][1])
    clash["idea_text"] = "same id, different parent story"
    doc["nodes"].append(clash)
    with pytest.raises(InvariantViolation):
        IdeationTree.restore(json.dumps(doc))


def test_restore_rejects_two_roots():
    doc = {
        "tree_schema": 2,
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


def _three_node_snapshot() -> dict:
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    spawn(tree, fe.id, NodeLevel.MT, "mt")
    return json.loads(tree.snapshot())


def test_restore_rejects_nodes_out_of_id_order():
    """The writer emits nodes in id order, so restore attaches them in
    one pass and rejects any other order, even one whose parents still
    come first."""
    doc = _three_node_snapshot()
    _, fe, mt = doc["nodes"]
    doc["nodes"].append(dict(fe, id=mt["id"] + 1, idea_text="another fe"))
    doc["nodes"][2], doc["nodes"][3] = doc["nodes"][3], doc["nodes"][2]
    with pytest.raises(InvariantViolation, match="ascend"):
        IdeationTree.restore(json.dumps(doc))


def test_restore_rejects_a_snapshot_that_does_not_begin_with_its_root():
    doc = _three_node_snapshot()
    doc["nodes"].append(doc["nodes"].pop(0))
    with pytest.raises(InvariantViolation, match="not its root"):
        IdeationTree.restore(json.dumps(doc))


def test_restore_rejects_a_snapshot_without_nodes():
    with pytest.raises(InvariantViolation):
        IdeationTree.restore(json.dumps({"tree_schema": 2, "iteration": 0, "nodes": []}))


def test_restore_rejects_score_without_evaluated_status():
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    mt = spawn(tree, fe.id, NodeLevel.MT, "mt")
    tree.mark_evaluated(mt.id, 1.0)
    doc = json.loads(tree.snapshot())
    for rec in doc["nodes"]:
        if rec["id"] == mt.id:
            rec["status"] = "proposed"
    with pytest.raises(InvariantViolation):
        IdeationTree.restore(json.dumps(doc))


# ---- the leaner decode and attach reject what they rejected ----

def _record(node_id: int, level: str, parent_id, **fields) -> dict:
    return {"created_iteration": 0, "id": node_id, "idea_text": f"idea {node_id}",
            "level": level, "parent_id": parent_id,
            "provenance": {"kind": "generated", "sources": []},
            "status": "implemented", **fields}


# a root, two FE nodes and an evaluated MT node under the first
_PREFIX = [
    _record(0, "eda", None),
    _record(1, "fe", 0),
    _record(2, "fe", 0),
    _record(3, "mt", 1, status="evaluated", raw_score=1.0),
]


def _as_document(records: list[dict]) -> str:
    return json.dumps({"iteration": 0, "next_id": len(records), "nodes": records,
                       "tree_schema": 2})


def _as_events(records: list[dict]) -> list[dict]:
    return [{"kind": "node_proposed", "payload": {"node": record}, "seq": seq, "ts": 0.0}
            for seq, record in enumerate(records)]


@pytest.mark.parametrize("record, error, message", [
    (_record(4, "mt", 1, provenance={"kind": "merged", "sources": [3]}),
     InvariantViolation, "merged provenance needs two distinct sources"),
    (_record(4, "mt", 1, status="evaluated"),
     InvariantViolation, "evaluated node 4 has no raw score"),
    (_record(4, "mt", 1, status="proposed", raw_score=0.5),
     InvariantViolation, "node 4 has a raw score but status proposed"),
    (_record(4, "mt", 3),
     LevelMismatch, "mt nodes cannot have children"),
], ids=["merged with one source", "evaluated without a raw score",
        "raw score on a proposed node", "child under an MT node"])
def test_restore_and_replay_reject_a_bad_node_record(record, error, message):
    """Each node record is rejected by ``restore`` with the error the
    attach raises, and by ``replay_events`` as a CorruptLog naming its
    seq, though the decode takes the shared generated provenance and
    the attach skips the checks a valid record cannot fail."""
    IdeationTree.restore(_as_document(_PREFIX))
    replay_events(_as_events(_PREFIX))
    with pytest.raises(error, match=message):
        IdeationTree.restore(_as_document(_PREFIX + [record]))
    with pytest.raises(CorruptLog, match=f"^event 4 does not apply: .*{message}"):
        replay_events(_as_events(_PREFIX + [record]))


def test_restore_and_replay_reject_an_fe_node_attached_out_of_order():
    """Restore and replay attach through ``add_node``, which refuses an
    id below the tree's next id, at any level, and names both ids."""
    fe_descending = [_record(0, "eda", None), _record(5, "fe", 0), _record(3, "fe", 0)]
    mt_descending = [_record(0, "eda", None), _record(1, "fe", 0), _record(5, "mt", 1),
                     _record(3, "mt", 1)]
    for records in (fe_descending, mt_descending):
        with pytest.raises(InvariantViolation, match="^node id 3 is below next id 6;"):
            IdeationTree.restore(_as_document(records))
        with pytest.raises(CorruptLog,
                           match=f"^event {len(records) - 1} does not apply: .*node id 3 is below next id 6;"):
            replay_events(_as_events(records))


def test_fe_nodes_attach_in_ascending_id_order():
    tree = new_tree("root")
    late = Node(id=1, level=NodeLevel.FE, parent_id=None, idea_text="late")
    tree.add_node(tree.root.id, Node(id=2, level=NodeLevel.FE, parent_id=None, idea_text="early"))
    with pytest.raises(InvariantViolation):
        tree.add_node(tree.root.id, late)
    assert late.id not in tree.nodes
    assert tree.fe_table.ids.tolist() == [n.id for n in tree.fe_nodes()]


def test_ids_not_reused_after_restore():
    tree = new_tree("root")
    spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    restored = IdeationTree.restore(tree.snapshot())
    used = set(restored.nodes)
    fresh = spawn(restored, restored.root.id, NodeLevel.FE, "later fe")
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
        scores = [c.raw_score for c in children(tree, fe.id) if c.status is NodeStatus.EVALUATED]
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
        node = spawn(tree, tree.root.id, NodeLevel.FE, "fe", status=NodeStatus.IMPLEMENTED)
        log.append(EventKind.NODE_PROPOSED, node=node.to_record())
    elif op == "mt" and fes:
        node = spawn(tree, data.draw(st.sampled_from(fes)), NodeLevel.MT, "mt")
        log.append(EventKind.NODE_PROPOSED, node=node.to_record())
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
            copy = tree.new_node(
                data.draw(st.sampled_from(fes)), NodeLevel.MT, origin.idea_text,
                raw_score=origin.raw_score, status=NodeStatus.EVALUATED,
                provenance=Provenance.resampled(origin.id),
            )
            tree.add_node(copy.parent_id, copy)
            log.append(EventKind.NODE_PROPOSED, node=copy.to_record())
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
    tree = new_tree("root")
    log = RunLog()
    log.append(EventKind.NODE_PROPOSED, node=tree.root.to_record())
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
        assert tree.eligible_fe_ids().tolist() == sorted(
            fe.id for fe in tree.fe_nodes() if tree.evaluated_mt_children(fe.id)
        )
        assert replay_events(log.events).snapshot() == tree.snapshot()


# ---- snapshot and running best against cold recomputes ----

_BEST_OPS = _INDEX_OPS + ("best", "mt_scored", "rescore_best", "fail_best", "exotic")

# floats whose shortest repr takes an exponent or a sign, and ints at
# the ends of the 64-bit range: the snapshot must spell each as a cold
# encode of the whole document does
_EXTREME_FLOATS = st.one_of(
    st.sampled_from((-0.0, 1e-05, 1e-4, 1e16, 1e17, 5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_EXTREME_SCORES = st.one_of(_EXTREME_FLOATS, st.integers(-2**63, 2**64 - 1))


def _apply_best_op(tree: IdeationTree, log: RunLog, op: str, data) -> IdeationTree:
    """One mutation, or a best-node query that leaves the running best
    warm for the mutations after it."""
    if op in _INDEX_OPS:
        return _apply_index_op(tree, log, op, data)
    if op == "exotic":
        fes = [n.id for n in tree.nodes.values() if n.level is NodeLevel.FE]
        if fes:
            # non-ASCII text, and extreme values where they feed no mean
            node = spawn(tree, 
                data.draw(st.sampled_from(fes)), NodeLevel.MT, data.draw(st.text()),
                code_artifact=data.draw(st.text()), status=NodeStatus.EVALUATED,
                raw_score=data.draw(st.floats(-1e300, 1e300)),
            )
            node.predicted_score = data.draw(_EXTREME_SCORES)
            log.append(EventKind.NODE_PROPOSED, node=node.to_record())
        return tree
    metric = data.draw(st.sampled_from((HIGHER, LOWER)))
    if op == "best":
        tree.best_evaluated_mt(metric)
    elif op == "mt_scored":
        fes = [n.id for n in tree.nodes.values() if n.level is NodeLevel.FE]
        if fes:
            node = spawn(tree, 
                data.draw(st.sampled_from(fes)), NodeLevel.MT, "scored mt",
                status=NodeStatus.EVALUATED,
                raw_score=data.draw(st.floats(min_value=-1e3, max_value=1e3)),
            )
            log.append(EventKind.NODE_PROPOSED, node=node.to_record())
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
    tree = new_tree("root")
    log = RunLog()
    log.append(EventKind.NODE_PROPOSED, node=tree.root.to_record())
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
    tree = new_tree("root")
    fe = spawn(tree, tree.root.id, NodeLevel.FE, "fe")
    mt = spawn(tree, fe.id, NodeLevel.MT, "mt")
    tree.mark_evaluated(mt.id, -0.0)
    for predicted in (1, 1.0, True):
        mt.predicted_score = predicted
        assert tree.snapshot() == reference_snapshot(tree)


@pytest.mark.parametrize("text", ["é ü 漢字 🙂", "\u2028\x00\"\\", ""])
def test_snapshot_encodes_non_ascii_text_and_extreme_floats(text):
    """Non-ASCII and control characters in idea and code text, and
    floats at the edges of their repr, encode as a cold encode of the
    whole document encodes them."""
    tree = new_tree(text)
    fe = spawn(tree, tree.root.id, NodeLevel.FE, text)
    for value in (1e-05, 1e16, 5e-324, 1.7976931348623157e308, -0.0, 2**64 - 1):
        mt = spawn(tree, fe.id, NodeLevel.MT, text, code_artifact=text * 2)
        mt.predicted_score = value
        assert tree.snapshot() == reference_snapshot(tree)
    tree.mark_evaluated(mt.id, 1e-300)
    backpropagate(tree)
    assert tree.snapshot() == reference_snapshot(tree)


def _tree_of(n_nodes: int) -> IdeationTree:
    """A tree of ``n_nodes`` nodes: the root, an FE node every tenth id
    and MT nodes under the latest one, every third scored and every
    fifth predicted, and the aggregates brought up to date."""
    tree = new_tree("root")
    fe = None
    while len(tree.nodes) < n_nodes:
        i = len(tree.nodes)
        if fe is None or i % 10 == 0:
            fe = spawn(tree, tree.root_id, NodeLevel.FE, f"fe {i}")
            continue
        mt = spawn(tree, fe.id, NodeLevel.MT, f"mt {i}",
                        predicted_score=i / 7 if i % 5 == 0 else None)
        if i % 3 == 0:
            tree.mark_evaluated(mt.id, i / 3)
    backpropagate(tree)
    return tree


@pytest.mark.parametrize("n_nodes", [1, SNAPSHOT_CHUNK, SNAPSHOT_CHUNK + 1,
                                     2 * SNAPSHOT_CHUNK + 2])
def test_snapshot_chunks_join_to_a_cold_encode(n_nodes):
    """The root's piece, then a piece per SNAPSHOT_CHUNK other nodes,
    the last one short or not, join between the head and the tail to a
    cold encode of the whole document."""
    tree = _tree_of(n_nodes)
    assert len(tree.nodes) == n_nodes
    pieces = list(tree.snapshot_pieces())
    # the head, the root, the chunks of the other nodes, the tail
    assert len(pieces) == 3 + math.ceil((n_nodes - 1) / SNAPSHOT_CHUNK)
    assert b"".join(pieces).decode() == reference_snapshot(tree)
    assert tree.snapshot() == reference_snapshot(tree)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["predicted_score", "aggregated_score"])
def test_a_non_finite_score_in_a_later_chunk_is_refused(field, value):
    """Only a piece holding ``null`` is checked again for non-finite
    floats; orjson writes one as ``null``, so a chunk far from the root
    is checked too."""
    tree = _tree_of(2 * SNAPSHOT_CHUNK + 2)
    level = NodeLevel.MT if field == "predicted_score" else NodeLevel.FE
    last = tree.nodes_at_level(level)[-1]
    assert last.id > SNAPSHOT_CHUNK
    setattr(last, field, value)
    with pytest.raises(ValueError):
        tree.snapshot()


def test_node_records_encode_with_sorted_keys():
    """A node record's keys come out sorted at every level, whatever
    order the record was built in, so equal nodes encode to equal
    bytes."""
    tree = new_tree("root")
    a = spawn(tree, tree.root.id, NodeLevel.FE, "a")
    b = spawn(tree, tree.root.id, NodeLevel.FE, "b")
    merged = spawn(tree, tree.root.id, NodeLevel.FE, "ab", provenance=Provenance.merged(a.id, b.id))
    spawn(tree, merged.id, NodeLevel.MT, "mt", code_artifact="print(1)")
    for node in tree.nodes.values():
        record = node.to_record()
        d = json.loads(encode_json(dict(reversed(record.items()))))
        assert d == record
        assert list(d) == sorted(d)
        assert list(d["provenance"]) == sorted(d["provenance"])
    assert merged.provenance.to_dict()["sources"] == [a.id, b.id]
    # spawned generated nodes share one immutable provenance
    assert a.provenance is b.provenance
