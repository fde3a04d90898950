"""Three-level ideation tree with score backpropagation and snapshots.

The tree always has exactly one root at the analysis (EDA) level. Its
children hold feature-engineering ideas (FE) and the leaves hold model
training ideas (MT). Raw metric values live only on evaluated MT nodes;
FE aggregates are recomputed from them by ``backpropagate``, and the
root's from the FE aggregates when it is read.

Layout::

    EDA root
    ├── FE idea
    │   ├── MT idea   (raw_score)
    │   └── MT idea   (raw_score)
    └── FE idea
        └── MT idea   (raw_score)

Scores are stored in native metric units; orientation (higher or lower
is better) is applied at comparison time via :class:`MetricSpec`.

The tree keeps three indexes up to date as nodes are attached and
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
  evaluated children, one row per FE node in attach order. Nodes
  attach in ascending id order, so the rows are in id order too.
  Softmax selection over FE nodes and the merge-eligible ids
  (``eligible_fe_ids``) are array operations on it, not scans of the
  nodes; ``backpropagate`` writes the aggregates it recomputes into it.

The root aggregate, the mean of the FE aggregates, is reporting-only:
no selection reads it. ``backpropagate`` only notes how many FE rows it
covers, and the mean is taken when the root is read, through ``root``
or by ``snapshot_pieces``. Stage code names the root by ``root_id``,
which computes nothing.

Node status and raw scores must therefore change only through
``mark_evaluated`` and ``mark_failed``. A run changes its tree only
through ``apply``, which takes one event record of the run's log, so
the log replays to the tree the run holds.

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
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import (
    DuplicateId,
    InvariantViolation,
    LevelMismatch,
    MalformedDocument,
    NonFiniteScore,
    UnknownParent,
)
from .events import EventKind, collector_paused, decode_json, encode_json

TREE_SCHEMA_VERSION = 2


def sum_in_order(values: Iterable[float], start: float = 0.0) -> float:
    """``start`` and then each of ``values`` added one after another,
    left to right. Since Python 3.12 the built-in ``sum`` compensates a
    float sum, which can move its last bit; every float total the engine
    keeps is taken here, so a run computes the same values on every
    supported Python."""
    total = start
    for value in values:
        total += value
    return total


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

# the record kinds that ``IdeationTree.apply`` acts on, as a record
# holds them
_PROPOSED = EventKind.NODE_PROPOSED.value
_EVALUATED = EventKind.NODE_EVALUATED.value
_PREDICTED = EventKind.PREDICTION_MADE.value
_STAGE_STARTED = EventKind.STAGE_STARTED.value

# the members that decoding and attaching a node test, read once here
# rather than through the Enum class for every node
_FE = NodeLevel.FE
_MT = NodeLevel.MT
_EVALUATED_STATUS = NodeStatus.EVALUATED
_EVALUATED_VALUE = NodeStatus.EVALUATED.value
_GENERATED_KIND = ProvenanceKind.GENERATED.value

# nodes per ``encode_json`` call in ``snapshot_pieces``. One call per
# chunk rather than per node spreads the call and its ``null`` scan over
# many records, and the chunk's records and bytes are all the encode
# holds at once, so the peak memory of a snapshot or ``verify_replay``
# does not grow with the tree. A snapshot of a 5,246-node synthetic
# tree (2-CPU host, Python 3.11.7) took about 14.5 ms in chunks of one
# node, 8 ms in chunks of 64, within 10% of that from 32 to 256, and
# 9.5 ms in chunks of 512, which also hold six times the memory of 64's
# (about 800 KB of records).
SNAPSHOT_CHUNK = 64

# the node fields that a node record omits when they are None
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
        return {"kind": self.kind._value_, "sources": list(self.sources)}

    @classmethod
    def from_dict(cls, d: dict) -> "Provenance":
        return cls(kind=_PROVENANCE_KINDS[d["kind"]], sources=tuple(int(s) for s in d["sources"]))


# provenances are immutable, so every sourceless generated node decoded
# from a document or spawned shares this one
_GENERATED = Provenance.generated()

@dataclass(slots=True)
class Node:
    """A single idea in the tree.

    ``raw_score`` is set exactly when ``status`` is EVALUATED and only on
    MT nodes. ``aggregated_score`` is maintained by ``backpropagate`` on
    FE nodes, and on the root when it is read (``IdeationTree.root``).
    ``predicted_score`` never overwrites either.
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

    def to_record(self) -> dict:
        """The node as a ``node_proposed`` event and the snapshot carry
        it: every field, but the OPTIONAL_NODE_FIELDS that are None."""
        # ``_value_`` skips the Enum ``value`` property's descriptor call
        record = {
            "created_iteration": self.created_iteration,
            "id": self.id,
            "idea_text": self.idea_text,
            "level": self.level._value_,
            "parent_id": self.parent_id,
            "provenance": self.provenance.to_dict(),
            "status": self.status._value_,
        }
        for key in OPTIONAL_NODE_FIELDS:
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        return record

    @classmethod
    def from_dict(cls, d: dict) -> "Node":
        """The node of a ``to_record`` document, which may also hold the
        OPTIONAL_NODE_FIELDS as null: they default to None,
        ``created_iteration`` to 0."""
        try:
            get = d.get
            parent_id = d["parent_id"]
            provenance = d["provenance"]
            return cls(
                int(d["id"]),
                _LEVELS[d["level"]],
                None if parent_id is None else int(parent_id),
                d["idea_text"],
                get("code_artifact"),
                get("raw_score"),
                get("predicted_score"),
                get("aggregated_score"),
                _STATUSES[d["status"]],
                _GENERATED
                if provenance["kind"] == _GENERATED_KIND and not provenance["sources"]
                else Provenance.from_dict(provenance),
                int(get("created_iteration", 0)),
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
        # FE rows the root aggregate is to be the mean of, when the last
        # backpropagate left it to be computed on read; else None
        self._root_rows: Optional[int] = None
        # (metric, best evaluated MT node) or None when unknown
        self._best: Optional[tuple[MetricSpec, Optional[Node]]] = None

    # ---- construction ----

    def add_node(self, parent_id: Optional[int], node: Node) -> Node:
        """Attach ``node`` under ``parent_id`` after validating structure.

        The root is added with ``parent_id=None`` exactly once, and ids
        strictly ascend: a node's id is at least the tree's next id.
        Raises UnknownParent, LevelMismatch, DuplicateId or
        InvariantViolation.
        """
        if node.id in self.nodes:
            raise DuplicateId(f"node id {node.id} already in tree")
        if node.id < self._next_id:
            raise InvariantViolation(
                f"node id {node.id} is below next id {self._next_id}; ids must strictly ascend")
        provenance = node.provenance
        # the shared sourceless provenance is valid and names no source
        if provenance is not _GENERATED:
            provenance.validate()
        if node.raw_score is not None or node.status is _EVALUATED_STATUS:
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
        if provenance is not _GENERATED:
            for src in provenance.sources:
                source = self.nodes.get(src)
                if source is None:
                    raise InvariantViolation(f"provenance source {src} not in tree")
                if source.level is not node.level:
                    raise InvariantViolation(
                        f"provenance source {src} is {source.level.value}, node is {node.level.value}"
                    )
        node.parent_id = parent_id
        self._attach(node)
        self._next_id = node.id + 1
        return node

    def new_node(self, parent_id: Optional[int], level: NodeLevel, idea_text: str, *,
                 provenance: Optional[Provenance] = None, **fields) -> Node:
        """A new node with the next id, created this iteration, not yet
        attached: the id is taken when ``add_node`` attaches it."""
        return Node(id=self._next_id, level=level, parent_id=parent_id, idea_text=idea_text,
                    provenance=provenance or _GENERATED, created_iteration=self.iteration,
                    **fields)

    def apply(self, record: dict, built: Optional[Node] = None) -> None:
        """Change the tree as one event record says: ``node_proposed``
        attaches ``built``, the node its writer holds, or else the
        record's node decoded; ``node_evaluated``, ``prediction_made``
        and ``stage_started`` set a node's status and score, its
        predicted score and the iteration. Other kinds change nothing."""
        kind, payload = record["kind"], record["payload"]
        if kind == _PROPOSED:
            node = built if built is not None else Node.from_dict(payload["node"])
            self.add_node(node.parent_id, node)
        elif kind == _EVALUATED:
            if payload["status"] == _EVALUATED_VALUE:
                self.mark_evaluated(payload["node_id"], payload["raw_score"])
            else:
                self.mark_failed(payload["node_id"])
        elif kind == _PREDICTED:
            self.nodes[payload["node_id"]].predicted_score = payload["predicted"]
        elif kind == _STAGE_STARTED:
            self.iteration = payload["iteration"]

    def _attach(self, node: Node) -> None:
        level = node.level
        self.nodes[node.id] = node
        # an MT node has no children, so it gets no list
        if level is not _MT:
            self._children[node.id] = []
        self._by_level[level].append(node)
        if level is _FE:
            self._dirty_fe.add(node.id)
            self.fe_table.append(node)
        if node.parent_id is None:
            self._root_id = node.id
        else:
            self._children[node.parent_id].append(node.id)
            if node.status is _EVALUATED_STATUS:
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
    def root_id(self) -> int:
        """The root's id, read without computing its aggregate."""
        if self._root_id is None:
            raise InvariantViolation("tree has no root")
        return self._root_id

    @property
    def root(self) -> Node:
        """The root, its aggregate brought up to date."""
        root = self.nodes[self.root_id]
        self._settle_root()
        return root

    def _settle_root(self) -> None:
        """When the last ``backpropagate`` left it to be read, set the
        root aggregate to the mean of the set FE aggregates among the
        rows it covered: the set entries, in attach order, summed one
        after another in Python floats (``sum_in_order``), as a loop
        over the FE nodes would."""
        rows, self._root_rows = self._root_rows, None
        if rows is None or self._root_id is None:
            return
        aggregates = self.fe_table.aggregates[:rows]
        parts = aggregates[~np.isnan(aggregates)].tolist()
        self.nodes[self._root_id].aggregated_score = (
            float(sum_in_order(parts) / len(parts)) if parts else None)

    def nodes_at_level(self, level: NodeLevel) -> list[Node]:
        """Nodes of one level in attach order (a fresh list)."""
        return list(self._by_level[level])

    def level_size(self, level: NodeLevel) -> int:
        """Number of nodes of one level, without copying them."""
        return len(self._by_level[level])

    def fe_nodes(self) -> list[Node]:
        return self.nodes_at_level(NodeLevel.FE)

    def evaluated_mt_children(self, fe_id: int) -> list[Node]:
        """The evaluated children of an FE node, in attach order, which
        is ascending id: a run attaches each node with the next id
        (``new_node``), and ``restore`` in ascending ids."""
        nodes = self.nodes
        return [child for child_id in self._children.get(fe_id, ())
                if (child := nodes[child_id]).status is _EVALUATED_STATUS]

    def eligible_fe_ids(self) -> np.ndarray:
        """Ids of the FE nodes with at least one evaluated child,
        ascending, as an int64 array."""
        table = self.fe_table
        return table.ids[table.evaluated > 0]

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
        equal trees: the text of the join of ``snapshot_pieces``. Each
        piece is decoded on its own, so the bytes and the text of the
        whole document are never held together."""
        return "".join(piece.decode() for piece in self.snapshot_pieces())

    def snapshot_pieces(self) -> Iterator[bytes]:
        """The snapshot document in UTF-8 pieces: its head up to the
        nodes list's opening bracket, the first node's ``to_record`` in
        id order (the root's, whose null parent is the one ``null`` that
        ``encode_json`` checks again), then the other nodes in id order,
        ``SNAPSHOT_CHUNK`` records to a piece, each piece led by its
        comma, then the tail. A chunk is encoded only when its piece is
        asked for, so a reader that compares the pieces as they come
        (``verify_replay``) never holds the whole document.

        Each piece is ``encode_json``'s (a chunk's is the encoded list
        without its brackets), so the joined bytes are those of
        ``encode_json`` of the whole document: keys sorted, no
        whitespace, and a ValueError for a non-finite score. The root
        aggregate is brought up to date first."""
        self._settle_root()
        head = encode_json({"iteration": self.iteration, "next_id": self._next_id})
        yield head[:-1] + b',"nodes":['
        nodes = self.nodes
        ids = sorted(nodes)
        if ids:
            yield encode_json(nodes[ids[0]].to_record())
        for start in range(1, len(ids), SNAPSHOT_CHUNK):
            chunk = [nodes[nid].to_record() for nid in ids[start:start + SNAPSHOT_CHUNK]]
            yield b"," + encode_json(chunk)[1:-1]
        yield b'],"tree_schema":%d}' % TREE_SCHEMA_VERSION

    @classmethod
    @collector_paused()
    def restore(cls, document: str) -> "IdeationTree":
        """Rebuild a tree from a snapshot, re-validating every invariant,
        with the garbage collector paused. The nodes are attached in one
        pass, so they must come as ``snapshot`` writes them: the root
        first, then ascending ids."""
        try:
            doc = decode_json(document)
        except json.JSONDecodeError as exc:
            raise MalformedDocument(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
            raise MalformedDocument("snapshot lacks a nodes list")
        if doc.get("tree_schema") != TREE_SCHEMA_VERSION:
            raise MalformedDocument(
                f"unsupported tree_schema {doc.get('tree_schema')!r}"
            )
        tree = cls()
        tree.iteration = int(doc.get("iteration", 0))
        # ids are assigned in creation order, so in id order each node's
        # parent and sources are attached before it. The records are
        # popped from the reversed list, so each is released as its node
        # is attached and the decoded document never sits beside the
        # whole tree.
        records = doc["nodes"]
        if not records:
            raise InvariantViolation("snapshot has 0 roots, expected 1")
        records.reverse()
        while records:
            rec = Node.from_dict(records.pop())
            if tree._root_id is None and rec.parent_id is not None:
                raise InvariantViolation(f"snapshot begins with node {rec.id}, not its root")
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
    """Bring FE aggregates up to date and return the same tree.

    An FE node's aggregate is the arithmetic mean of its evaluated MT
    children's raw scores, added in child order (``sum_in_order``),
    unset when it has none. Only the FE nodes in the tree's dirty set
    are recomputed, and the set is then cleared; every other FE
    aggregate is already current. Each recomputed aggregate is written
    to the node and to its row of the FE table. The result equals a full recompute of every FE node, float
    for float. Idempotent, and independent of insertion order. The cost
    is that of the dirty FE nodes' children, not of the tree.

    The root aggregate, the mean of the set FE aggregates, is not
    computed here: this notes how many FE rows it covers, and the root
    takes their mean when it is next read (``IdeationTree.root``, or a
    snapshot). So a stage pays nothing for it, and a reader sees the
    value a recompute here would have given.
    """
    table = tree.fe_table
    tree._root_rows = len(table)
    for fe_id in tree._dirty_fe:
        scores = [c.raw_score for c in tree.evaluated_mt_children(fe_id)]
        aggregate = float(sum_in_order(scores) / len(scores)) if scores else None
        tree.nodes[fe_id].aggregated_score = aggregate
        table.set_aggregate(fe_id, aggregate)
    tree._dirty_fe.clear()
    return tree
