"""Shared test fixtures: random tree construction and reference oracles.

Oracles here are written independently of the engine code paths they
check (plain loops, no shared helpers) so a bug cannot hide on both
sides of a comparison.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from pathlib import Path

import numpy as np

from ideatree.embedding import HashedEmbedding
from ideatree.errors import EvaluationFailure
from ideatree.evaluation import FailureKind, FailureReport
from ideatree.events import Event, EventKind, RunLog
from ideatree.tree import (
    IdeationTree,
    MetricDirection,
    MetricSpec,
    NodeLevel,
    NodeStatus,
    Provenance,
    ProvenanceKind,
)

HIGHER = MetricSpec(name="score", direction=MetricDirection.HIGHER_BETTER)
LOWER = MetricSpec(name="loss", direction=MetricDirection.LOWER_BETTER)


def of_kind(log: RunLog, kind: EventKind) -> list[Event]:
    """The events of one kind in a log, in order."""
    return [e for e in log.events if e.kind is kind]


def build_random_tree(rng: np.random.Generator, max_nodes: int = 100) -> IdeationTree:
    """Grow a legal tree by random spawn operations.

    Roughly a third of MT nodes are left unevaluated or failed so that
    aggregation code sees every status mix.
    """
    tree = IdeationTree.create("root analysis")
    n_fe = int(rng.integers(1, 8))
    fe_ids = []
    for i in range(n_fe):
        fe = tree.spawn(tree.root.id, NodeLevel.FE, f"fe idea {i}")
        fe.status = NodeStatus.IMPLEMENTED
        fe_ids.append(fe.id)
    budget = max_nodes - len(tree.nodes)
    while budget > 0 and rng.random() < 0.95:
        fe_id = int(rng.choice(fe_ids))
        mt = tree.spawn(fe_id, NodeLevel.MT, f"mt idea {len(tree.nodes)}")
        roll = rng.random()
        if roll < 0.66:
            tree.mark_evaluated(mt.id, float(rng.normal(0.0, 10.0)))
        elif roll < 0.8:
            tree.mark_failed(mt.id)
        budget -= 1
    return tree


def oracle_aggregates(tree: IdeationTree) -> dict[int, float | None]:
    """Brute-force recomputation of every aggregate from raw leaf scores."""
    expected: dict[int, float | None] = {}
    fe_values = []
    for node in tree.nodes.values():
        if node.level is not NodeLevel.FE:
            continue
        scores = []
        for child in tree.nodes.values():
            if child.parent_id == node.id and child.status is NodeStatus.EVALUATED:
                scores.append(child.raw_score)
        if scores:
            mean = sum(scores) / len(scores)
            expected[node.id] = mean
            fe_values.append(mean)
        else:
            expected[node.id] = None
    root = tree.root
    expected[root.id] = sum(fe_values) / len(fe_values) if fe_values else None
    return expected


def reference_sample_scored_fe(
    tree: IdeationTree,
    n_selected: int,
    temperature: float,
    metric: MetricSpec,
    rng: np.random.Generator,
    window: int | None = None,
) -> list[int]:
    """The list-based FE softmax draw: every FE node with an aggregate
    (and, with ``window``, created within that many recent iterations),
    sorted by id, each oriented on its own; a softmax over them turned
    into a tuple of Python floats; then draws without replacement, each
    renormalizing the probabilities left and deleting the one drawn,
    until every probability left is zero."""
    cands = [
        fe for fe in sorted(tree.fe_nodes(), key=lambda n: n.id)
        if fe.aggregated_score is not None
        and (window is None or tree.iteration - fe.created_iteration < window)
    ]
    if not cands:
        return []
    arr = np.asarray([metric.orient(fe.aggregated_score) for fe in cands], dtype=float)
    e = np.exp((arr - arr.max()) / temperature)
    probs = np.asarray(tuple(float(x) for x in e / e.sum()), dtype=float)
    ids = [fe.id for fe in cands]
    picked = []
    for _ in range(min(n_selected, len(ids))):
        if not any(probs):
            break
        idx = int(rng.choice(len(ids), p=probs / probs.sum()))
        picked.append(ids.pop(idx))
        probs = np.delete(probs, idx)
    return picked


def reference_snapshot(tree: IdeationTree) -> str:
    """A cold encode of the whole tree: every field of every node read
    afresh and the whole document encoded in one ``json.dumps`` call,
    keys sorted and separators compact."""
    nodes = []
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        nodes.append({
            "id": node.id,
            "level": node.level.value,
            "parent_id": node.parent_id,
            "idea_text": node.idea_text,
            "code_artifact": node.code_artifact,
            "raw_score": node.raw_score,
            "predicted_score": node.predicted_score,
            "aggregated_score": node.aggregated_score,
            "status": node.status.value,
            "provenance": {"kind": node.provenance.kind.value,
                           "sources": list(node.provenance.sources)},
            "created_iteration": node.created_iteration,
        })
    doc = {"tree_schema": 1, "iteration": tree.iteration,
           "next_id": tree._next_id, "nodes": nodes}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def oracle_best(tree: IdeationTree, metric: MetricSpec):
    """Full scan for the best evaluated MT node: the highest score on a
    higher-is-better axis, ties to the lowest id; None when none."""
    best = None
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if node.level is not NodeLevel.MT or node.status is not NodeStatus.EVALUATED:
            continue
        score = node.raw_score
        if metric.direction is MetricDirection.LOWER_BETTER:
            score = -score
        if best is None or score > best[0]:
            best = (score, node)
    return None if best is None else best[1]


def reference_retrieve(corpus_dir, query: str, k: int, dimension: int = 64):
    """Read, parse, embed (with a fresh ``HashedEmbedding``) and rank
    every ``*.txt`` file afresh.

    Returns ``(file name, source, title, body)`` for the top k, ranked by
    cosine similarity to the query, ties to the lower file name. A file
    starts with header lines (``source:``, ``title:``) up to a blank
    line; a first line that is neither makes the whole file the body."""
    if k <= 0:
        return []
    embedder = HashedEmbedding(dimension)
    q = embedder.embed(query)
    scored = []
    for path in sorted(Path(corpus_dir).glob("*.txt")):
        lines = path.read_text(encoding="utf-8").splitlines()
        source, title, start = "local", path.stem, len(lines)
        for i, line in enumerate(lines):
            key, colon, value = line.strip().partition(":")
            if not line.strip():
                start = i + 1
                break
            if colon and key.lower() == "source":
                value = value.strip().lower()
                source = value if value in ("papers", "competitions", "local") else "local"
            elif colon and key.lower() == "title":
                title = value.strip()
            else:
                start = 0
                break
        body = "\n".join(lines[start:]).strip()
        d = embedder.embed(title + "\n" + body)
        nq, nd = float(np.linalg.norm(q)), float(np.linalg.norm(d))
        sim = 0.0 if nq == 0.0 or nd == 0.0 else float(np.dot(q, d) / (nq * nd))
        scored.append((-sim, path.name, source, title, body))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(name, source, title, body) for _, name, source, title, body in scored[:k]]


def _reference_parse(text: str) -> list[float]:
    return [float(part.strip()) for part in text.strip().split(",")]


def _reference_render(values: np.ndarray) -> str:
    return ",".join(repr(float(v)) for v in values)


class ReferenceGenerator:
    """The synthetic generator's proposals and merges on numpy arrays,
    as they were written before the ports moved to Python floats."""

    def __init__(self, space, seed: int):
        self.space = space
        self._rng = np.random.default_rng(int(seed))

    def propose_fe(self, ctx, n: int) -> list[str]:
        return [
            _reference_render(self._rng.uniform(self.space.low, self.space.high, self.space.dimension))
            for _ in range(n)
        ]

    def propose_mt(self, fe_node, ctx, m: int) -> list[str]:
        base = np.asarray(_reference_parse(fe_node.idea_text))
        return [
            _reference_render(base + self._rng.normal(0.0, self.space.mt_jitter, self.space.dimension))
            for _ in range(m)
        ]

    def _merge(self, a, b) -> str:
        va = np.asarray(_reference_parse(a.idea_text))
        vb = np.asarray(_reference_parse(b.idea_text))
        mid = (va + vb) / 2.0
        if self.space.merge_jitter > 0:
            mid = mid + self._rng.normal(0.0, self.space.merge_jitter, self.space.dimension)
        return _reference_render(mid)

    def merge_fe(self, a, b, ctx) -> str:
        return self._merge(a, b)

    def merge_mt(self, a, b, ctx) -> str:
        return self._merge(a, b)


def reference_simulated_evaluate(node, landscape, metric: MetricSpec, seed: int) -> float:
    """A simulated evaluation with its own keyed Generator, built and
    drawn from on every call whatever ``noise_sigma`` is, and the
    distance from ``np.linalg.norm``."""
    digest = hashlib.sha256(f"{int(seed)}:{node.idea_text}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    point = np.asarray(_reference_parse(node.idea_text), dtype=float)
    distance = float(np.linalg.norm(point - np.asarray(landscape.optimum)))
    quality = 1.0 / (1.0 + distance)
    if node.provenance.kind is ProvenanceKind.MERGED:
        quality += landscape.merge_bonus * (1.0 / (1.0 + distance))
    quality += landscape.noise_sigma * float(rng.standard_normal())
    if metric.direction is MetricDirection.HIGHER_BETTER:
        return quality
    return 1.0 - quality


def make_world(
    seed: int = 0,
    dim: int = 2,
    n_fe: int = 3,
    m_mt: int = 2,
    noise: float = 0.0,
    merge_bonus: float = 0.0,
    budget: float = 1e9,
    metric: MetricSpec = HIGHER,
    mt_jitter: float = 0.05,
):
    """A small ready-to-search world: seeded synthetic generator, a
    simulated landscape evaluator, a clock for the stages to charge
    (the preloaded evaluations are not charged), and a tree preloaded
    with ``n_fe`` FE nodes carrying ``m_mt`` evaluated children each."""
    from types import SimpleNamespace

    from ideatree.clock import SimulatedClock
    from ideatree.evaluation import EvalMode, LandscapeConfig, SimulatedEvaluator
    from ideatree.generation import ContextState, SpaceConfig, SyntheticGenerator
    from ideatree.tree import backpropagate

    space = SpaceConfig(dimension=dim, mt_jitter=mt_jitter)
    gen = SyntheticGenerator(space, seed)
    landscape = LandscapeConfig(
        dimension=dim, noise_sigma=noise, full_cost=1.0, debug_cost=0.1,
        merge_bonus=merge_bonus,
    )
    clock = SimulatedClock(budget)
    evaluator = SimulatedEvaluator(landscape, metric, seed=seed)
    tree = IdeationTree.create("root analysis")
    ctx = ContextState()
    for text in gen.propose_fe(ctx, n_fe):
        fe = tree.spawn(tree.root.id, NodeLevel.FE, text)
        fe.status = NodeStatus.IMPLEMENTED
        for t in gen.propose_mt(fe, ctx, m_mt):
            mt = tree.spawn(fe.id, NodeLevel.MT, t)
            tree.mark_evaluated(mt.id, evaluator.evaluate(mt, EvalMode.FULL))
    backpropagate(tree)
    return SimpleNamespace(
        tree=tree, ctx=ctx, gen=gen, evaluator=evaluator, metric=metric,
        clock=clock, landscape=landscape, space=space,
        rng=np.random.default_rng(seed),
    )


def attach_evaluated_fe(
    tree: IdeationTree, scores: list[float], idea: str = "fe", vector: str | None = None
) -> int:
    """Spawn one FE node with the given evaluated MT children, return its id."""
    fe = tree.spawn(tree.root.id, NodeLevel.FE, vector or idea)
    fe.status = NodeStatus.IMPLEMENTED
    for k, s in enumerate(scores):
        mt = tree.spawn(fe.id, NodeLevel.MT, vector or f"{idea} mt {k}")
        tree.mark_evaluated(mt.id, s)
    return fe.id


class FlakyEvaluator:
    """Wraps another evaluator and fails deterministically for the nodes
    ``should_fail`` picks."""

    def __init__(self, inner, should_fail):
        self.inner = inner
        self.should_fail = should_fail

    def evaluate(self, node, mode):
        if self.should_fail(node):
            raise EvaluationFailure(
                "injected failure",
                report=FailureReport(kind=FailureKind.RUNTIME_ERROR, message="injected failure"),
            )
        return self.inner.evaluate(node, mode)

    def cost(self, mode):
        return self.inner.cost(mode)


class RecordingEvaluator:
    """Forwards to ``inner`` and records every call as ``(node id, mode,
    returned)``; the calls ``fail(node, mode)`` picks raise
    EvaluationFailure instead of forwarding."""

    def __init__(self, inner, fail=lambda node, mode: False):
        self.inner = inner
        self.fail = fail
        self.calls: list = []

    def evaluate(self, node, mode):
        returned = not self.fail(node, mode)
        self.calls.append((node.id, mode, returned))
        if not returned:
            raise EvaluationFailure("injected failure")
        return self.inner.evaluate(node, mode)

    def cost(self, mode):
        return self.inner.cost(mode)

    def returned_cost(self) -> float:
        """What the calls that returned cost, summed in call order."""
        total = 0.0
        for _, mode, returned in self.calls:
            if returned:
                total += self.cost(mode)
        return total


class SleepyEvaluator:
    """Sleeps ``max_s`` times a fraction fixed by the idea text (0 to 2
    ms by default) before each call, so parallel jobs finish out of
    dispatch order. Counts calls started and finished."""

    def __init__(self, inner, max_s: float = 0.002):
        self.inner = inner
        self.max_s = max_s
        self.started = 0
        self.finished = 0
        self._lock = threading.Lock()

    def evaluate(self, node, mode):
        with self._lock:
            self.started += 1
        try:
            digest = hashlib.sha256(node.idea_text.encode("utf-8")).digest()
            time.sleep(self.max_s * digest[0] / 255)
            return self.inner.evaluate(node, mode)
        finally:
            with self._lock:
                self.finished += 1

    def cost(self, mode):
        return self.inner.cost(mode)
