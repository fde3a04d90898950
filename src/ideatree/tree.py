"""Three-level ideation tree with score backpropagation and snapshots.

The tree always has exactly one root at the analysis (EDA) level. Its
children hold feature-engineering ideas (FE) and the leaves hold model
training ideas (MT). Raw metric values live only on evaluated MT nodes;
FE and root aggregates are recomputed from them by ``backpropagate``.

Layout::

    EDA root
    ├── FE idea
    │   ├── MT idea   (raw_score)
    │   └── MT idea   (raw_score)
    └── FE idea
        └── MT idea   (raw_score)

Scores are stored in native metric units; orientation (higher or lower
is better) is applied at comparison time via :class:`MetricSpec`.

The tree keeps four indexes up to date as nodes are attached and
scored, so that a search step costs the same however large the tree
has grown:

* the nodes of each level, in attach order (``nodes_at_level``, and
  ``level_size`` for just the count);
* the set of dirty FE nodes, whose aggregate may be stale: an FE node
  is dirty from the moment it is attached, and again whenever one of
  its children is attached evaluated, marked evaluated or marked
  failed. ``backpropagate`` recomputes only those;
* the FE table (``fe_table``): numpy columns of every FE node's id,
  aggregate (NaN when unset), ``created_iteration`` and number of
  evaluated children, one row per FE node in attach order. FE nodes
  must attach in ascending id order, so the rows are in id order too.
  Softmax selection over FE nodes and the merge-eligible ids
  (``eligible_fe_ids``) are array operations on it, not scans of the
  nodes; ``backpropagate`` writes the aggregates it recomputes into it.

Node status and raw scores must therefore change only through
``mark_evaluated`` and ``mark_failed``.

The tree also keeps the best evaluated MT node for the last metric
asked about as a running best, since every stage's checkpoint event
records the best node so far. ``mark_evaluated`` and the attach of an
evaluated MT node fold new scores into it. Scoring the best node
again, or marking it failed, drops it, and the next
``best_evaluated_mt`` rescans.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .errors import (
    DuplicateId,
    InvariantViolation,
    LevelMismatch,
    MalformedDocument,
    NonFiniteScore,
    UnknownParent,
)
from .events import collector_paused

TREE_SCHEMA_VERSION = 1


class NodeLevel(str, Enum):
    EDA = "eda"
    FE = "fe"
    MT = "mt"


# required child level for each parent level
CHILD_LEVEL = {NodeLevel.EDA: NodeLevel.FE, NodeLevel.FE: NodeLevel.MT}


class NodeStatus(str, Enum):
    PROPOSED = "proposed"
    IMPLEMENTED = "implemented"
    EVALUATED = "evaluated"
    FAILED = "failed"


class ProvenanceKind(str, Enum):
    GENERATED = "generated"
    MERGED = "merged"
    RESAMPLED = "resampled"


class MetricDirection(str, Enum):
    HIGHER_BETTER = "higher_better"
    LOWER_BETTER = "lower_better"


# each enum by its value, so that decoding a node calls no Enum(value)
_LEVELS = {level.value: level for level in NodeLevel}
_STATUSES = {status.value: status for status in NodeStatus}
_PROVENANCE_KINDS = {kind.value: kind for kind in ProvenanceKind}

# the node fields that a node_proposed record omits when they are None
OPTIONAL_NODE_FIELDS = ("code_artifact", "raw_score", "predicted_score", "aggregated_score")


@dataclass(frozen=True)
class MetricSpec:
    """Name and direction of the competition metric, fixed for a run."""

    name: str
    direction: MetricDirection

    def orient(self, raw):
        """Map a raw metric value, or a numpy array of them elementwise,
        onto a higher-is-better axis."""
        if self.direction is MetricDirection.HIGHER_BETTER:
            return raw
        return -raw

    def to_dict(self) -> dict:
        return {"name": self.name, "direction": self.direction.value}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricSpec":
        return cls(name=d["name"], direction=MetricDirection(d["direction"]))


@dataclass(frozen=True)
class Provenance:
    """How a node came to exist.

    ``generated`` nodes have no sources, ``merged`` nodes record exactly
    two distinct source ids at the same level, ``resampled`` nodes record
    the single origin node they were copied from.
    """

    kind: ProvenanceKind = ProvenanceKind.GENERATED
    sources: tuple[int, ...] = ()

    @classmethod
    def generated(cls) -> "Provenance":
        return cls(ProvenanceKind.GENERATED, ())

    @classmethod
    def merged(cls, a: int, b: int) -> "Provenance":
        return cls(ProvenanceKind.MERGED, (int(a), int(b)))

    @classmethod
    def resampled(cls, origin: int) -> "Provenance":
        return cls(ProvenanceKind.RESAMPLED, (int(origin),))

    def validate(self) -> None:
        if self.kind is ProvenanceKind.GENERATED and self.sources:
            raise InvariantViolation("generated nodes carry no sources")
        if self.kind is ProvenanceKind.MERGED:
            if len(self.sources) != 2 or self.sources[0] == self.sources[1]:
                raise InvariantViolation(
                    f"merged provenance needs two distinct sources, got {self.sources}"
                )
        if self.kind is ProvenanceKind.RESAMPLED and len(self.sources) != 1:
            raise InvariantViolation(
                f"resampled provenance needs one origin, got {self.sources}"
            )

    def to_dict(self) -> dict:
        # keys in sorted order, which the snapshot encoder relies on
        return {"kind": self.kind._value_, "sources": list(self.sources)}

    @classmethod
    def from_dict(cls, d: dict) -> "Provenance":
        kind = _PROVENANCE_KINDS[d["kind"]]
        sources = d["sources"]
        if kind is ProvenanceKind.GENERATED and not sources:
            return _GENERATED
        return cls(kind=kind, sources=tuple(int(s) for s in sources))


# provenances are immutable, so every sourceless generated node decoded
# from a document or spawned shares this one
_GENERATED = Provenance.generated()

# The snapshot's keys are sorted where its dicts are built (the document
# in ``snapshot``, ``Node.to_dict`` and ``Provenance.to_dict``), so the
# encoder does not sort them again; the bytes are those of json.dumps
# with sort_keys=True and compact separators.
_SNAPSHOT_ENCODER = json.JSONEncoder(separators=(",", ":"))


@dataclass
class Node:
    """A single idea in the tree.

    ``raw_score`` is set exactly when ``status`` is EVALUATED and only on
    MT nodes. ``aggregated_score`` is maintained by ``backpropagate`` on
    FE nodes and the root. ``predicted_score`` never overwrites either.
    """

    id: int
    level: NodeLevel
    parent_id: Optional[int]
    idea_text: str
    code_artifact: Optional[str] = None
    raw_score: Optional[float] = None
    predicted_score: Optional[float] = None
    aggregated_score: Optional[float] = None
    status: NodeStatus = NodeStatus.PROPOSED
    provenance: Provenance = field(default_factory=Provenance.generated)
    created_iteration: int = 0

    def to_dict(self) -> dict:
        # keys in sorted order, which the snapshot encoder relies on;
        # ``_value_`` skips the Enum ``value`` property's descriptor call
        return {
            "aggregated_score": self.aggregated_score,
            "code_artifact": self.code_artifact,
            "created_iteration": self.created_iteration,
            "id": self.id,
            "idea_text": self.idea_text,
            "level": self.level._value_,
            "parent_id": self.parent_id,
            "predicted_score": self.predicted_score,
            "provenance": self.provenance.to_dict(),
            "raw_score": self.raw_score,
            "status": self.status._value_,
        }

    def to_record(self) -> dict:
        """``to_dict`` without the OPTIONAL_NODE_FIELDS that are None:
        the node as a ``node_proposed`` event carries it."""
        d = self.to_dict()
        for key in OPTIONAL_NODE_FIELDS:
            if d[key] is None:
                del d[key]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Node":
        """The node of a ``to_dict`` or ``to_record`` document: the
        OPTIONAL_NODE_FIELDS default to None, ``created_iteration`` to 0."""
        try:
            return cls(
                id=int(d["id"]),
                level=_LEVELS[d["level"]],
                parent_id=None if d["parent_id"] is None else int(d["parent_id"]),
                idea_text=d["idea_text"],
                code_artifact=d.get("code_artifact"),
                raw_score=d.get("raw_score"),
                predicted_score=d.get("predicted_score"),
                aggregated_score=d.get("aggregated_score"),
                status=_STATUSES[d["status"]],
                provenance=Provenance.from_dict(d["provenance"]),
                created_iteration=int(d.get("created_iteration", 0)),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedDocument(f"bad node record: {exc!r}") from exc


class FeTable:
    """Columns of the FE nodes, one row per node in attach order.

    ``ids``, ``aggregates`` (NaN where the aggregate is unset),
    ``created`` (``created_iteration``) and ``evaluated`` (the number of
    evaluated children) are read-only views of the filled rows. The
    tree appends a row when it attaches an FE node and writes the other
    columns as they change; ``rows`` maps an FE id to its row.
    """

    def __init__(self) -> None:
        self.rows: dict[int, int] = {}
        self._ids = np.empty(0, dtype=np.int64)
        self._aggregates = np.empty(0, dtype=float)
        self._created = np.empty(0, dtype=np.int64)
        self._evaluated = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.rows)

    def append(self, node: Node) -> None:
        row = len(self.rows)
        if row == len(self._ids):
            # doubling keeps appends amortised constant time
            size = max(64, 2 * row)
            for name in ("_ids", "_aggregates", "_created", "_evaluated"):
                grown = np.empty(size, dtype=getattr(self, name).dtype)
                grown[:row] = getattr(self, name)
                setattr(self, name, grown)
        self._ids[row] = node.id
        self._aggregates[row] = np.nan if node.aggregated_score is None else node.aggregated_score
        self._created[row] = node.created_iteration
        self._evaluated[row] = 0
        self.rows[node.id] = row

    def set_aggregate(self, fe_id: int, value: Optional[float]) -> None:
        self._aggregates[self.rows[fe_id]] = np.nan if value is None else value

    def count_evaluated(self, fe_id: int, delta: int) -> None:
        self._evaluated[self.rows[fe_id]] += delta

    def _filled(self, column: np.ndarray) -> np.ndarray:
        view = column[:len(self.rows)]
        view.flags.writeable = False
        return view

    @property
    def ids(self) -> np.ndarray:
        return self._filled(self._ids)

    @property
    def aggregates(self) -> np.ndarray:
        return self._filled(self._aggregates)

    @property
    def created(self) -> np.ndarray:
        return self._filled(self._created)

    @property
    def evaluated(self) -> np.ndarray:
        return self._filled(self._evaluated)


class IdeationTree:
    """Mutable in-memory tree. Node ids are assigned monotonically and
    never reused within a run, including across snapshot round-trips."""

    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self.iteration: int = 0
        self._children: dict[int, list[int]] = {}
        self._root_id: Optional[int] = None
        self._next_id: int = 0
        self._by_level: dict[NodeLevel, list[Node]] = {level: [] for level in NodeLevel}
        self._dirty_fe: set[int] = set()
        self.fe_table = FeTable()
        # (metric, best evaluated MT node) or None when unknown
        self._best: Optional[tuple[MetricSpec, Optional[Node]]] = None

    # ---- construction ----

    @classmethod
    def create(cls, root_idea: str, created_iteration: int = 0) -> "IdeationTree":
        """Make a tree holding just the EDA root."""
        tree = cls()
        root = Node(
            id=tree.allocate_id(),
            level=NodeLevel.EDA,
            parent_id=None,
            idea_text=root_idea,
            status=NodeStatus.IMPLEMENTED,
            created_iteration=created_iteration,
        )
        tree._attach(root)
        return tree

    def allocate_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def add_node(self, parent_id: Optional[int], node: Node) -> Node:
        """Attach ``node`` under ``parent_id`` after validating structure.

        The root is added with ``parent_id=None`` exactly once. Raises
        UnknownParent, LevelMismatch, DuplicateId or InvariantViolation.
        """
        if node.id in self.nodes:
            raise DuplicateId(f"node id {node.id} already in tree")
        node.provenance.validate()
        _check_score_consistency(node)
        if parent_id is None:
            if self._root_id is not None:
                raise InvariantViolation("tree already has a root")
            if node.level is not NodeLevel.EDA:
                raise LevelMismatch(f"root must be {NodeLevel.EDA.value}, got {node.level.value}")
        else:
            parent = self.nodes.get(parent_id)
            if parent is None:
                raise UnknownParent(f"parent id {parent_id} not in tree")
            required = CHILD_LEVEL.get(parent.level)
            if required is None:
                raise LevelMismatch("mt nodes cannot have children")
            if node.level is not required:
                raise LevelMismatch(
                    f"child of {parent.level.value} must be {required.value}, got {node.level.value}"
                )
        if node.provenance.kind is not ProvenanceKind.GENERATED:
            for src in node.provenance.sources:
                source = self.nodes.get(src)
                if source is None:
                    raise InvariantViolation(f"provenance source {src} not in tree")
                if source.level is not node.level:
                    raise InvariantViolation(
                        f"provenance source {src} is {source.level.value}, node is {node.level.value}"
                    )
        node.parent_id = parent_id
        self._attach(node)
        if node.id >= self._next_id:
            self._next_id = node.id + 1
        return node

    def spawn(
        self,
        parent_id: Optional[int],
        level: NodeLevel,
        idea_text: str,
        *,
        provenance: Optional[Provenance] = None,
        status: NodeStatus = NodeStatus.PROPOSED,
        code_artifact: Optional[str] = None,
        raw_score: Optional[float] = None,
    ) -> Node:
        """Allocate an id and attach a new node in one step."""
        node = Node(
            id=self.allocate_id(),
            level=level,
            parent_id=parent_id,
            idea_text=idea_text,
            code_artifact=code_artifact,
            raw_score=raw_score,
            status=status,
            provenance=provenance or _GENERATED,
            created_iteration=self.iteration,
        )
        return self.add_node(parent_id, node)

    def _attach(self, node: Node) -> None:
        table = self.fe_table
        if node.level is NodeLevel.FE and len(table) and node.id <= table.ids[-1]:
            raise InvariantViolation(
                f"FE node {node.id} attached after FE node {int(table.ids[-1])}"
            )
        self.nodes[node.id] = node
        self._children[node.id] = []
        self._by_level[node.level].append(node)
        if node.level is NodeLevel.FE:
            self._dirty_fe.add(node.id)
            table.append(node)
        if node.parent_id is None:
            self._root_id = node.id
        else:
            self._children[node.parent_id].append(node.id)
            if node.status is NodeStatus.EVALUATED:
                self._touch_parent(node, 1)
                self._fold_best(node)

    def _touch_parent(self, node: Node, evaluated_delta: int) -> None:
        """When the parent is an FE node, mark its aggregate stale and
        shift its count of evaluated children."""
        if node.parent_id in self.fe_table.rows:
            self._dirty_fe.add(node.parent_id)
            self.fe_table.count_evaluated(node.parent_id, evaluated_delta)

    def _set_status(self, node: Node, status: NodeStatus) -> None:
        was = node.status is NodeStatus.EVALUATED
        now = status is NodeStatus.EVALUATED
        if was or now:
            self._touch_parent(node, now - was)
        node.status = status

    # ---- access ----

    @property
    def root(self) -> Node:
        if self._root_id is None:
            raise InvariantViolation("tree has no root")
        return self.nodes[self._root_id]

    def children(self, node_id: int) -> list[Node]:
        return [self.nodes[c] for c in self._children.get(node_id, [])]

    def nodes_at_level(self, level: NodeLevel) -> list[Node]:
        """Nodes of one level in attach order (a fresh list)."""
        return list(self._by_level[level])

    def level_size(self, level: NodeLevel) -> int:
        """Number of nodes of one level, without copying them."""
        return len(self._by_level[level])

    def fe_nodes(self) -> list[Node]:
        return self.nodes_at_level(NodeLevel.FE)

    def evaluated_mt_children(self, fe_id: int) -> list[Node]:
        return [c for c in self.children(fe_id) if c.status is NodeStatus.EVALUATED]

    def eligible_fe_ids(self) -> list[int]:
        """Ids of the FE nodes with at least one evaluated child, ascending."""
        table = self.fe_table
        return table.ids[table.evaluated > 0].tolist()

    def mark_evaluated(self, node_id: int, raw_score: float) -> None:
        if not math.isfinite(raw_score):
            raise NonFiniteScore(f"raw score for node {node_id} is {raw_score}")
        node = self.nodes[node_id]
        node.raw_score = float(raw_score)
        self._set_status(node, NodeStatus.EVALUATED)
        self._fold_best(node)

    def mark_failed(self, node_id: int) -> None:
        node = self.nodes[node_id]
        node.raw_score = None
        self._set_status(node, NodeStatus.FAILED)
        if self._best is not None and self._best[1] is node:
            self._best = None

    def best_evaluated_mt(self, metric: MetricSpec) -> Optional[Node]:
        """Evaluated MT node with the maximal oriented raw score; ties go
        to the lowest node id. None when nothing has been evaluated.

        The answer for the last metric asked about is kept as a running
        best: new scores are folded into it as they arrive, and only a
        new metric, or a rescore or failure of the best node itself,
        costs a scan of the MT nodes."""
        if self._best is None or self._best[0] != metric:
            best: Optional[Node] = None
            for node in self._by_level[NodeLevel.MT]:
                if node.status is NodeStatus.EVALUATED and (
                    best is None or _beats(metric, node, best)
                ):
                    best = node
            self._best = (metric, best)
        return self._best[1]

    def _fold_best(self, node: Node) -> None:
        """Bring the running best up to date after ``node`` was scored."""
        if self._best is None or node.level is not NodeLevel.MT:
            return
        metric, best = self._best
        if node is best:
            # its new score may have fallen below another node's
            self._best = None
        elif best is None or _beats(metric, node, best):
            self._best = (metric, node)

    # ---- serialization ----

    def snapshot(self) -> str:
        """Canonical self-describing document; stable byte-for-byte for
        equal trees (nodes sorted by id, keys sorted, compact
        separators, no whitespace)."""
        doc = {
            "iteration": self.iteration,
            "next_id": self._next_id,
            "nodes": [self.nodes[nid].to_dict() for nid in sorted(self.nodes)],
            "tree_schema": TREE_SCHEMA_VERSION,
        }
        return _SNAPSHOT_ENCODER.encode(doc)

    @classmethod
    @collector_paused()
    def restore(cls, document: str) -> "IdeationTree":
        """Rebuild a tree from a snapshot, re-validating every invariant,
        with the garbage collector paused."""
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "nodes" not in doc:
            raise MalformedDocument("snapshot lacks a nodes list")
        if doc.get("tree_schema") != TREE_SCHEMA_VERSION:
            raise MalformedDocument(
                f"unsupported tree_schema {doc.get('tree_schema')!r}"
            )
        records = [Node.from_dict(d) for d in doc["nodes"]]
        seen: dict[int, Node] = {}
        for rec in records:
            if rec.id in seen:
                raise InvariantViolation(f"node id {rec.id} appears more than once")
            seen[rec.id] = rec
        roots = [r for r in records if r.parent_id is None]
        if len(roots) != 1:
            raise InvariantViolation(f"snapshot has {len(roots)} roots, expected 1")
        tree = cls()
        tree.iteration = int(doc.get("iteration", 0))
        # parents must be attached before children; ids are assigned in
        # creation order so sorting by id gives a valid insertion order
        for rec in sorted(records, key=lambda r: r.id):
            _check_score_consistency(rec)
            tree.add_node(rec.parent_id, rec)
        stored_next = doc.get("next_id")
        if stored_next is not None:
            tree._next_id = max(tree._next_id, int(stored_next))
        return tree


def _beats(metric: MetricSpec, node: Node, best: Node) -> bool:
    """True when ``node`` outranks ``best``: a higher oriented raw
    score, or the same score and a lower id."""
    a = metric.orient(node.raw_score)
    b = metric.orient(best.raw_score)
    return a > b or (a == b and node.id < best.id)


def _check_score_consistency(node: Node) -> None:
    if node.status is NodeStatus.EVALUATED:
        if node.raw_score is None:
            raise InvariantViolation(f"evaluated node {node.id} has no raw score")
        if not math.isfinite(node.raw_score):
            raise NonFiniteScore(f"node {node.id} raw score is {node.raw_score}")
    elif node.raw_score is not None:
        raise InvariantViolation(
            f"node {node.id} has a raw score but status {node.status.value}"
        )


def backpropagate(tree: IdeationTree) -> IdeationTree:
    """Bring aggregated scores up to date and return the same tree.

    An FE node's aggregate is the arithmetic mean of its evaluated MT
    children's raw scores, in child order, unset when it has none. Only
    the FE nodes in the tree's dirty set are recomputed, and the set is
    then cleared; every other FE aggregate is already current. Each
    recomputed aggregate is written to the node and to its row of the
    FE table. The result equals a full recompute of every FE node, float
    for float. Idempotent, and independent of insertion order.

    The root aggregate is the mean of the set FE aggregates, taken from
    the table's aggregate column: the set entries, in attach order, are
    summed one after another in Python floats, as a loop over the FE
    nodes would. It is reporting-only, never feeding selection, but it
    is kept current here so the root is up to date when this returns.
    """
    table = tree.fe_table
    for fe_id in tree._dirty_fe:
        scores = [c.raw_score for c in tree.evaluated_mt_children(fe_id)]
        aggregate = float(sum(scores) / len(scores)) if scores else None
        tree.nodes[fe_id].aggregated_score = aggregate
        table.set_aggregate(fe_id, aggregate)
    tree._dirty_fe.clear()
    aggregates = table.aggregates
    root_parts = aggregates[~np.isnan(aggregates)].tolist()
    root = tree.root
    root.aggregated_score = float(sum(root_parts) / len(root_parts)) if root_parts else None
    return tree
