"""One writer per stage: every node that initialization, the adding and
merging stages and the anchor sweeps attach is spawned by their
``PendingSet``, which logs it in exactly one ``node_proposed`` event
before any event names it. A stage given no log and no clock grows the
tree an in-memory log and an unbudgeted clock grow."""

from __future__ import annotations

import math

import pytest

from ideatree.clock import SimulatedClock
from ideatree.config import RunConfig
from ideatree.events import EventKind, RunLog
from ideatree.generation import ContextState
from ideatree.orchestrator import build_synthetic_ports, initialize_tree
from ideatree.scoring import build_anchor_set
from ideatree.search import MergeMemory, StageParams, adding_stage, merging_stage
from ideatree.tree import NodeLevel, ProvenanceKind

from helpers import make_world

PARAMS = StageParams(n_fe=2, m_mt=2, n_selected=2)


def _named(payload: dict) -> list[int]:
    """The ids of the nodes an event that is not ``node_proposed`` names."""
    ids = [payload[key] for key in ("node_id", "merged_id") if key in payload]
    return ids + payload.get("pair", [])


def assert_proposed_once_before_named(log: RunLog, tree, before: set[int]) -> None:
    """Each node ``tree`` gained over ``before`` has one ``node_proposed``
    event in ``log``, after its parent's, and no event names it earlier."""
    proposed: set[int] = set()
    for event in log.events:
        payload = event["payload"]
        if event["kind"] == EventKind.NODE_PROPOSED:
            node = payload["node"]
            assert node["id"] not in proposed | before
            assert node["parent_id"] is None or node["parent_id"] in proposed | before
            proposed.add(node["id"])
        else:
            assert set(_named(payload)) <= proposed | before, event
    assert proposed == set(tree.nodes) - before


def _adding(world, **kwargs):
    adding_stage(world.tree, world.ctx, world.gen, world.evaluator, PARAMS, world.metric,
                 world.rng, **kwargs)


def _merging(world, **kwargs):
    merging_stage(world.tree, MergeMemory(), world.gen, world.evaluator, PARAMS,
                  world.metric, world.rng, ctx=world.ctx, resample_k=1, **kwargs)


def test_initialize_tree_logs_every_node_it_attaches():
    config = RunConfig.from_dict({"seed": 7, "clock_mode": "simulated"})
    ports = build_synthetic_ports(config)
    log = RunLog()
    tree = initialize_tree(ContextState(), ports.gen, ports.evaluator, config,
                           metric=ports.metric, log=log, clock=ports.clock)
    assert_proposed_once_before_named(log, tree, set())


def test_adding_stage_logs_every_node_it_attaches():
    world = make_world(seed=41)
    before = set(world.tree.nodes)
    log = RunLog()
    _adding(world, log=log, clock=world.clock)
    assert_proposed_once_before_named(log, world.tree, before)


def test_merging_stage_logs_every_node_it_attaches():
    """The merged FE nodes and their fresh children, the resampled
    copies and the best-child merges."""
    world = make_world(seed=41)
    before = set(world.tree.nodes)
    log = RunLog()
    _merging(world, log=log, clock=world.clock)
    new = [world.tree.nodes[i] for i in sorted(set(world.tree.nodes) - before)]
    assert any(n.provenance.kind is ProvenanceKind.RESAMPLED for n in new)
    assert any(n.level is NodeLevel.MT and n.provenance.kind is ProvenanceKind.MERGED
               for n in new)
    assert_proposed_once_before_named(log, world.tree, before)


def test_build_anchor_set_logs_every_node_it_attaches():
    world = make_world(seed=43)
    before = set(world.tree.nodes)
    log = RunLog()
    architectures = world.gen.propose_mt(world.tree.fe_nodes()[0], world.ctx, 3)
    build_anchor_set(world.tree, world.evaluator, architectures, world.metric,
                     log=log, clock=world.clock)
    assert_proposed_once_before_named(log, world.tree, before)


@pytest.mark.parametrize("stage", [_adding, _merging])
def test_no_log_and_no_clock_grow_the_tree_a_log_and_an_unbudgeted_clock_grow(stage):
    bare, written = make_world(seed=47), make_world(seed=47)
    stage(bare)
    stage(written, log=RunLog(), clock=SimulatedClock(math.inf))
    assert bare.tree.snapshot() == written.tree.snapshot()
