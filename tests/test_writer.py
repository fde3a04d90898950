"""One writer per stage: every node that initialization, the adding and
merging stages and the anchor sweeps attach is spawned by their
``PendingSet``, which logs it in exactly one ``node_proposed`` event
before any event names it. A stage given no log and no clock grows the
tree an in-memory log and an unbudgeted clock grow: the clock a stage
charges is its ports'.

One mutation path: outside ``tree.py`` the package changes a tree only
by applying the records it logs (``IdeationTree.apply``), and a run
decodes no node record to do so."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from ideatree.clock import SimulatedClock
from ideatree.config import RunConfig
from ideatree.events import EventKind, RunLog
from ideatree.generation import ContextState
from ideatree import orchestrator
from ideatree.orchestrator import build_synthetic_ports, execute_run, initialize_tree, verify_replay
from ideatree.scoring import build_anchor_set
from ideatree.search import MergeMemory, adding_stage, merging_stage
from ideatree.tree import Node, NodeLevel, ProvenanceKind

from helpers import make_world

CONFIG = RunConfig(number_of_ideas_data=2, number_of_ideas_modelling=2, number_of_selected_node=2,
                   number_of_selected_node_merging=2, number_of_iterations_children=1)


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


def _adding(world, ports, **kwargs):
    adding_stage(world.tree, world.ctx, ports, CONFIG, world.rng, **kwargs)


def _merging(world, ports, **kwargs):
    merging_stage(world.tree, MergeMemory(), ports, CONFIG, world.rng, ctx=world.ctx, **kwargs)


def test_initialize_tree_logs_every_node_it_attaches():
    config = RunConfig.from_dict({"seed": 7, "clock_mode": "simulated"})
    ports = build_synthetic_ports(config)
    log = RunLog()
    tree = initialize_tree(ContextState(), ports, config, log=log)
    assert_proposed_once_before_named(log, tree, set())


def test_adding_stage_logs_every_node_it_attaches():
    world = make_world(seed=41)
    before = set(world.tree.nodes)
    log = RunLog()
    _adding(world, world.ports, log=log)
    assert_proposed_once_before_named(log, world.tree, before)


def test_merging_stage_logs_every_node_it_attaches():
    """The merged FE nodes and their fresh children, the resampled
    copies and the best-child merges."""
    world = make_world(seed=41)
    before = set(world.tree.nodes)
    log = RunLog()
    _merging(world, world.ports, log=log)
    new = [world.tree.nodes[i] for i in sorted(set(world.tree.nodes) - before)]
    assert any(n.provenance.kind is ProvenanceKind.RESAMPLED for n in new)
    assert any(n.level is NodeLevel.MT and n.provenance.kind is ProvenanceKind.MERGED
               for n in new)
    assert_proposed_once_before_named(log, world.tree, before)


def test_build_anchor_set_logs_every_node_it_attaches():
    world = make_world(seed=43)
    before = set(world.tree.nodes)
    log = RunLog()
    build_anchor_set(world.tree, world.ctx, world.ports, RunConfig(), log=log)
    assert_proposed_once_before_named(log, world.tree, before)


@pytest.mark.parametrize("stage", [_adding, _merging])
def test_no_log_and_no_clock_grow_the_tree_a_log_and_an_unbudgeted_clock_grow(stage):
    bare, written = make_world(seed=47), make_world(seed=47)
    stage(bare, dataclasses.replace(bare.ports, clock=None))
    stage(written, dataclasses.replace(written.ports, clock=SimulatedClock(math.inf)),
          log=RunLog())
    assert bare.tree.snapshot() == written.tree.snapshot()


# the tree's methods that change it, and the attributes of a tree or a
# node that only the tree may assign
TREE_MUTATORS = {"add_node", "mark_evaluated", "mark_failed"}
TREE_ATTRIBUTES = {f.name for f in dataclasses.fields(Node)} | {"iteration"}


def test_only_the_tree_changes_a_tree():
    """Outside tree.py no module of the package calls a tree's mutators
    or assigns a node field or the iteration, so a run's tree changes
    only through ``IdeationTree.apply`` (and ``restore`` and
    ``backpropagate``, in tree.py)."""
    package = Path(orchestrator.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "tree.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in TREE_MUTATORS:
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node.func)}()")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Attribute) and part.attr in TREE_ATTRIBUTES:
                            found.append(f"{path.name}:{node.lineno}: {ast.unparse(part)} =")
    assert found == []


def test_a_run_decodes_no_node_record(tmp_path, monkeypatch):
    """The live path applies each ``node_proposed`` with the node it
    built, so a run calls ``Node.from_dict`` 0 times; replay decodes
    every node."""
    calls = []
    from_dict = Node.from_dict

    def counting(record):
        calls.append(record)
        return from_dict(record)

    monkeypatch.setattr(Node, "from_dict", counting)
    config = RunConfig.from_dict({"seed": 5, "clock_mode": "simulated",
                                  "time_run_minutes": 500.0,
                                  "predict_before_evaluate": True})
    result = execute_run(config, build_synthetic_ports(config), tmp_path / "run")
    assert calls == []
    assert verify_replay(tmp_path / "run")
    assert len(calls) == len(result.tree.nodes)
