"""Tree search operators: staged expansion, score-guided merging,
softmax selection, and the short/long-term merge memories.

A main-loop pass runs ``adding_stage`` then ``merging_stage``. Both
change the tree through a ``PendingSet``, which logs each change and
applies the record, and stop early (committing partial work) when the
clock runs out.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_right, insort
from concurrent.futures import Executor, Future, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

import numpy as np

from .clock import SimulatedClock, WallClock
from .errors import (
    BudgetExhausted,
    EmptyInput,
    EvaluationFailure,
    GeneratorFailure,
    InsufficientParents,
    InvalidParams,
    NoEvaluatedChildren,
    NonFiniteScore,
    UnknownParent,
)
from .evaluation import EvalMode
from .events import EventKind, RunLog
from .generation import ContextState, ExternalQueryPolicy, SegmentTag, gate_external_query
from .tree import (
    IdeationTree,
    MetricSpec,
    Node,
    NodeLevel,
    NodeStatus,
    Provenance,
    backpropagate,
    sum_in_order,
)

if TYPE_CHECKING:
    # config.py imports SelectionMode from here, and orchestrator.py
    # imports the stages
    from .config import RunConfig
    from .orchestrator import PortSet

logger = logging.getLogger(__name__)

MergePairKey = tuple[int, int]

# the statuses a ``node_evaluated`` record holds, as strings
_EVALUATED = NodeStatus.EVALUATED.value
_FAILED = NodeStatus.FAILED.value


def pair_key(a: int, b: int) -> MergePairKey:
    """Canonical unordered key for an FE pair."""
    if a == b:
        raise InvalidParams(f"a pair needs two distinct nodes, got {a} twice")
    return (a, b) if a < b else (b, a)


# =====================================================================
# Selection primitives
# =====================================================================

def orient_scores(scores: Sequence[float], metric: MetricSpec) -> list[float]:
    """Map raw metric values onto a higher-is-better axis."""
    out = []
    for s in scores:
        if s is None or not math.isfinite(s):
            raise NonFiniteScore(f"cannot orient score {s!r}")
        out.append(metric.orient(float(s)))
    return out


# A distribution over at most this many candidates is computed and drawn
# from in Python floats, one over more on numpy arrays. Either path
# computes the same floats; this is the size at which the two cost about
# the same (2-CPU x86-64 host, Python 3.11, numpy 2.4: about 20 and 19 us
# for two draws over 32 candidates). ``sample_top``, the windowed FE
# draw and the baseline predictor fall below it; the merging stage's
# draw over every scored FE node lies above it once the tree has grown.
SMALL_DRAW = 32


def _pairwise_sum(values: list[float]) -> float:
    """``float(np.sum(values))`` for up to 128 values, numpy's block
    size, computed in Python floats in numpy's order: below 8 values,
    one after another; from 8 on, eight running sums over the values in
    blocks of eight, added in pairs, then the values left over. (Above
    128, numpy sums two halves on their own; a small draw never gets
    there.)"""
    n = len(values)
    if n < 8:
        return sum_in_order(values)
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = values[i:i + 8]
        r0, r1, r2, r3, r4, r5, r6, r7 = (r0 + a0, r1 + a1, r2 + a2, r3 + a3,
                                          r4 + a4, r5 + a5, r6 + a6, r7 + a7)
    total = sum_in_order(values[end:], ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    # added to the reduction's initial value, as numpy does: this only
    # turns a -0.0 into 0.0
    return 0.0 + total


@dataclass(frozen=True, eq=False)
class SelectionDistribution:
    """Aligned ids, any sequence of ints, and their probabilities, a
    float64 array. Only the engine builds one, from weights that are
    non-negative and sum to 1 by construction, so they are not checked
    again.

    Up to ``SMALL_DRAW`` candidates are drawn from in Python floats, which
    saves numpy's cost per call on arrays this small. Each total there is
    taken in numpy's summation order (``_pairwise_sum``) and each prefix
    sum left to right, as ``np.cumsum`` does, so both paths compute the
    same floats: the draws, and the generator's state after them, do not
    depend on the path."""

    node_ids: Sequence[int] | np.ndarray
    probabilities: np.ndarray

    def sample_without_replacement(self, k: int, rng: np.random.Generator) -> list[int]:
        """Draw up to k distinct ids, renormalizing after each draw. The
        draws stop early once every probability left is zero, as it is
        when they have all underflowed."""
        ids = self.node_ids
        if len(ids) <= SMALL_DRAW:
            return self._sample_small(k, rng)
        probs = self.probabilities
        picked: list[int] = []
        taken: list[int] = []   # positions in ids drawn so far, ascending
        draws = min(k, len(ids))
        for draw in range(1, draws + 1):
            total = probs.sum()
            if total == 0:
                break
            idx = _draw_index(probs / total, rng)
            if draw < draws:
                probs = np.concatenate((probs[:idx], probs[idx + 1:]))
            # idx counts the ids not yet drawn; step over the drawn ones
            for position in taken:
                if position > idx:
                    break
                idx += 1
            insort(taken, idx)
            picked.append(int(ids[idx]))
        return picked

    def _sample_small(self, k: int, rng: np.random.Generator) -> list[int]:
        """``sample_without_replacement`` on a list of Python floats: the
        same totals, renormalised vectors and draws."""
        ids = self.node_ids
        probs = self.probabilities.tolist()
        left = list(range(len(probs)))   # positions in ids not drawn yet
        picked: list[int] = []
        for _ in range(min(k, len(probs))):
            total = _pairwise_sum(probs)
            if total == 0:
                break
            idx = _draw_index([x / total for x in probs], rng)
            del probs[idx]
            picked.append(int(ids[left.pop(idx)]))
        return picked


def _draw_index(p: Sequence[float] | np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(p), p=p)`` draws, leaving ``rng`` in
    the same state: one ``rng.random()`` inverted through the cdf of
    ``p``, renormalised to end at exactly 1, as numpy's ``choice`` does
    once it has validated ``p``. ``p`` must be non-negative and sum to
    1 within rounding; a ``SelectionDistribution`` ensures that by its
    construction, so ``choice``'s own per-call checks are not repeated
    here. ``p`` is an array or, for a small draw, a list of floats,
    whose cdf is summed left to right in Python floats: ``np.cumsum``'s
    order, so both give the same cdf and the same index."""
    if isinstance(p, np.ndarray):
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))
    cdf = list(accumulate(p))
    last = cdf[-1]
    # searched as if divided by its last entry, as the array path divides it
    return bisect_right(cdf, rng.random(), key=lambda c: c / last)


def softmax_select(
    oriented: Sequence[float] | np.ndarray,
    temperature: float = 1.0,
    node_ids: Optional[Sequence[int] | np.ndarray] = None,
) -> SelectionDistribution:
    """Softmax over oriented scores, computed with max subtraction so
    large magnitudes cannot overflow. The probabilities are non-negative
    and sum to 1 by construction, so they are not checked again.

    Up to ``SMALL_DRAW`` scores are shifted, scaled and normalised in
    Python floats, with ``np.exp`` still taking the exponentials (the
    last bit of ``math.exp`` can differ from it) and the total taken in
    numpy's summation order (``_pairwise_sum``), so the probabilities
    are the ones the numpy path computes, float for float."""
    n = len(oriented)
    if n == 0:
        raise EmptyInput("softmax over an empty score list")
    if temperature <= 0:
        raise InvalidParams(f"temperature must be positive, got {temperature}")
    if n > SMALL_DRAW:
        arr = np.asarray(oriented, dtype=float)
        if not np.isfinite(arr).all():
            raise NonFiniteScore("non-finite value in oriented scores")
        e = np.exp((arr - arr.max()) / temperature)
        p = e / e.sum()
    else:
        if isinstance(oriented, np.ndarray):
            values = oriented.astype(float, copy=False).tolist()
        else:
            values = [float(s) for s in oriented]
        if not all(map(math.isfinite, values)):
            raise NonFiniteScore("non-finite value in oriented scores")
        top = max(values)
        e = np.exp([(s - top) / temperature for s in values])
        p = e / _pairwise_sum(e.tolist())
    ids = node_ids if node_ids is not None else range(n)
    if len(ids) != n:
        raise InvalidParams("ids and probabilities differ in length")
    return SelectionDistribution(ids, p)


def sample_top(
    tree: IdeationTree,
    fe_node_id: int,
    k: int,
    rng: np.random.Generator,
    *,
    metric: MetricSpec,
    temperature: float,
    proportional: bool,
) -> list[Node]:
    """Sample up to k distinct evaluated MT children of an FE node,
    weighted towards high oriented scores.

    Weights come from a softmax over oriented child scores, or with
    ``proportional`` are directly proportional to the oriented scores,
    which requires them all to be positive. The children are taken in
    ``evaluated_mt_children``'s order, which is ascending id, so the
    draw does not depend on how they were found.
    """
    if fe_node_id not in tree.nodes:
        raise UnknownParent(f"node {fe_node_id} not in tree")
    if k < 0:
        raise InvalidParams(f"k must be non-negative, got {k}")
    children = tree.evaluated_mt_children(fe_node_id)
    if not children:
        raise NoEvaluatedChildren(f"node {fe_node_id} has no evaluated children")
    if k == 0:
        return []
    oriented = orient_scores([c.raw_score for c in children], metric)
    # the distribution is over positions in ``children``
    if proportional:
        if any(s <= 0 for s in oriented):
            raise InvalidParams(
                "proportional sampling needs strictly positive oriented scores"
            )
        dist = SelectionDistribution(range(len(children)),
                                     np.asarray(oriented, dtype=float) / sum_in_order(oriented))
    else:
        dist = softmax_select(oriented, temperature)
    return [children[i] for i in dist.sample_without_replacement(k, rng)]


# =====================================================================
# Merge memory
# =====================================================================

@dataclass
class MergeMemory:
    """Short-term failure counts and the long-term exclusion set.

    A pair lives in at most one buffer. Failures accumulate in
    ``short_term`` until they reach ``theta_fail``, at which point the
    pair is promoted to ``long_term`` and never re-attempted. A
    successful merge also parks its pair in ``long_term`` so the same
    combination is not redone.

    Beside the set, the long-term pairs are kept as two append-only
    int64 columns (``long_term_columns``) that ``draw_merge_pairs``
    reads with array operations. Only ``record_failure`` and
    ``record_success`` write them, so change ``long_term`` only through
    those two, or by passing the set when the memory is built.
    """

    theta_fail: int = 2
    short_term: dict[MergePairKey, int] = field(default_factory=dict)
    long_term: set[MergePairKey] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._pairs = np.array(list(self.long_term), dtype=np.int64).reshape(-1, 2)
        self._size = len(self._pairs)

    def record_failure(self, key: MergePairKey) -> bool:
        """Count one failure; returns True when this promoted the pair."""
        if key in self.long_term:
            return False
        count = self.short_term.get(key, 0) + 1
        if count >= self.theta_fail:
            self.short_term.pop(key, None)
            self._exclude(key)
            return True
        self.short_term[key] = count
        return False

    def record_success(self, key: MergePairKey) -> None:
        self.short_term.pop(key, None)
        if key not in self.long_term:
            self._exclude(key)

    def _exclude(self, key: MergePairKey) -> None:
        self.long_term.add(key)
        size = self._size
        if size == len(self._pairs):
            # doubling keeps appends amortised constant time
            grown = np.empty((max(64, 2 * size), 2), dtype=np.int64)
            grown[:size] = self._pairs
            self._pairs = grown
        self._pairs[size] = key
        self._size = size + 1

    def long_term_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The long-term pairs' first and second ids, as two int64
        arrays, in the order the pairs entered."""
        pairs = self._pairs[:self._size]
        return pairs[:, 0], pairs[:, 1]


def draw_merge_pairs(
    eligible: Sequence[int] | np.ndarray,
    mem: MergeMemory,
    n: int,
    rng: np.random.Generator,
) -> list[MergePairKey]:
    """Draw up to ``n`` distinct pairs uniformly from the eligible pairs.

    ``eligible`` holds ascending FE ids. The candidates are the pairs of
    ``combinations(eligible, 2)`` not in long-term memory, in that
    lexicographic order; ``rng.choice`` picks positions in that list
    without replacement, and each position is mapped straight to its
    pair. Nothing is enumerated: the memory's columns are mapped onto
    positions in ``eligible`` with ``searchsorted``, the ranks of the
    excluded pairs are sorted and skipped over, and the rank left is
    unranked. Those are array operations over the eligible ids and the
    long-term pairs, and only the ``n`` picks are unranked one by one,
    so no Python loop runs over memory or the eligible ids. The draws
    and the generator's state afterwards are those of listing the
    candidates and indexing into the list.
    """
    eligible = np.asarray(eligible, dtype=np.int64)
    k = len(eligible)
    first, second = mem.long_term_columns()
    i = eligible.searchsorted(first)
    j = eligible.searchsorted(second)
    # a pair is excluded when it is canonical and both its ids are
    # eligible; i <= j < k then holds, so both lookups are in range
    inside = (first < second) & (j < k)
    i, j = i[inside], j[inside]
    found = (eligible[i] == first[inside]) & (eligible[j] == second[inside])
    i, j = i[found], j[found]
    excluded = np.sort(_pair_rank(i, j, k))
    n_candidates = k * (k - 1) // 2 - len(excluded)
    if n_candidates <= 0:
        return []
    # preceding[i] is the number of candidates ranked below the i-th
    # excluded rank; the d-th candidate's rank is d plus the number of
    # excluded ranks below it, which are those with preceding[i] <= d
    preceding = excluded - np.arange(len(excluded))
    picked = rng.choice(n_candidates, size=min(n, n_candidates), replace=False)
    ranks = picked + preceding.searchsorted(picked, side="right")
    pairs = []
    for rank in ranks.tolist():
        a, b = _pair_unrank(rank, k)
        pairs.append((int(eligible[a]), int(eligible[b])))
    return pairs


def _pair_rank(i, j, k: int):
    """Position of (i, j), i < j, in ``combinations(range(k), 2)``; of
    each pair, elementwise, when ``i`` and ``j`` are int arrays."""
    return i * (2 * k - i - 1) // 2 + (j - i - 1)


def _pair_unrank(rank: int, k: int) -> tuple[int, int]:
    """Inverse of ``_pair_rank``."""
    from_end = k * (k - 1) // 2 - 1 - rank
    i = k - 2 - (math.isqrt(8 * from_end + 1) - 1) // 2
    return i, rank - _pair_rank(i, i + 1, k) + i + 1


# =====================================================================
# Selection mode and evaluation modes
# =====================================================================

class SelectionMode(str, Enum):
    # expansion targets chosen over FE nodes by aggregated score (default),
    # or over the freshly scored MT nodes themselves
    FE_AGGREGATE = "fe_aggregate"
    MT_LITERAL = "mt_literal"


def evaluation_modes(config: RunConfig) -> tuple[EvalMode, ...]:
    """The evaluator calls a fresh candidate gets, in order: the
    ``validation_attempts`` shake-out runs a candidate needs before its
    metric run, in debug mode with ``accelerated_debugging`` and in full
    mode without, then the metric run."""
    shakeout = EvalMode.DEBUG if config.accelerated_debugging else EvalMode.FULL
    return (shakeout,) * config.validation_attempts + (EvalMode.FULL,)


class _BudgetStop(Exception):
    """Internal: the clock ran out mid-stage."""


# =====================================================================
# Pending evaluations
# =====================================================================

def _run_calls(evaluator, node: Node, modes: tuple[EvalMode, ...]):
    """Make one candidate's evaluator calls in order, stopping at the
    first EvaluationFailure; a call that returns a value that is not
    finite fails as if it had raised one. Returns ``(raw score or None,
    error or None, number of calls that returned, wall seconds the calls
    took)``. May run on a worker thread, so it touches nothing but the
    evaluator."""
    start = time.monotonic()
    for returned, mode in enumerate(modes):
        try:
            value = float(evaluator.evaluate(node, mode))
            if not math.isfinite(value):
                raise EvaluationFailure(f"evaluator returned {value}")
        except EvaluationFailure as exc:
            return None, str(exc) or "evaluation failed", returned, time.monotonic() - start
    return value, None, len(modes), time.monotonic() - start


class _RanInline:
    """A job run at once on the calling thread, read like a done future:
    ``result`` returns its value or raises its exception."""

    __slots__ = ("_value", "_error")

    def __init__(self, fn, *args):
        try:
            self._value, self._error = fn(*args), None
        except Exception as exc:  # raised again when the result is read
            self._value, self._error = None, exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class PendingSet:
    """A stage's writer: the nodes it attaches and the evaluations it
    dispatched and has not yet committed. Each candidate gets the
    evaluator calls ``modes`` names, in order (``evaluation_modes``).

    ``record`` logs an event and applies its record to the tree
    (``IdeationTree.apply``), the one way a writer changes the tree.
    ``spawn`` records a new node, so every node a stage, initialization
    or the anchor sweeps add reaches the tree and the log the same way.

    ``dispatch`` hands a candidate's calls (its validation runs, then
    the metric run) to ``pool``, or makes them at once when there is
    none, and returns, so the caller keeps proposing while they run.
    Nothing a job does reaches the tree, the log or the clock before
    ``commit``: that waits for every job, then in node-id order charges
    ``evaluator.cost(mode)`` for each call that returned (one that
    raised costs nothing) and records the node's ``node_evaluated``,
    evaluated or failed, and last runs the ``after_commit`` callbacks in
    order. A job that raises anything but EvaluationFailure has it
    raised again by ``commit``, once the jobs before it are applied.

    ``check_budget`` is the budget rule: it projects the clock over the
    pending jobs as if all their calls returned, adding their costs in
    commit order, and only when that reaches the budget does it commit
    and check the clock itself. Stop decisions and logged clock
    readings are thus those of one inline worker, whatever the pool,
    and the overrun stays below one job's cost.

    A wall clock is charged nothing, and a real evaluator may report no
    cost, so there the projection is in time: each job is timed on its
    worker, and the clock keeps the longest job committed so far. When
    the time left would not cover the pending jobs and one more, run
    one after another at that length, ``check_budget`` commits; it
    stops when what is left after that would not cover one more job.
    The overrun is then about one job, with any number of workers.

    With no ``log`` the events go to an in-memory ``RunLog``, and with
    no ``clock`` the evaluations charge a simulated clock whose budget
    never runs out. A simulated clock with a budget and an evaluator
    that reports no cost are refused: nothing would ever charge the
    clock, so the run would never end.
    """

    def __init__(self, tree: IdeationTree, evaluator, modes: tuple[EvalMode, ...], *,
                 clock=None, log: Optional[RunLog] = None,
                 pool: Optional[Executor] = None):
        self.tree = tree
        self.evaluator = evaluator
        self.clock = clock if clock is not None else SimulatedClock(math.inf)
        self.log = log if log is not None else RunLog()
        self.pool = pool
        self._modes = modes
        self._costs = [evaluator.cost(mode) for mode in self._modes]
        if (self._costs[-1] is None and isinstance(self.clock, SimulatedClock)
                and math.isfinite(self.clock.budget)):
            raise InvalidParams(
                "a simulated clock with a budget needs an evaluator that reports a cost;"
                " this one reports none, so the budget would never run out")
        self._jobs: list[tuple[int, Node, Future | _RanInline]] = []
        self._after: list[Callable[[], None]] = []

    def record(self, kind: EventKind, built: Optional[Node] = None, **payload) -> None:
        """Append a ``kind`` event and apply its record to the tree."""
        self.tree.apply(self.log.append(kind, **payload), built)

    def spawn(self, parent_id: Optional[int], level: NodeLevel, text: str,
              **fields) -> Node:
        """Record a new node (``IdeationTree.new_node``) under
        ``parent_id`` in a ``node_proposed`` event."""
        node = self.tree.new_node(parent_id, level, text, **fields)
        self.record(EventKind.NODE_PROPOSED, node, node=node.to_record())
        return node

    def dispatch(self, node: Node) -> None:
        if self.pool is None:
            job = _RanInline(_run_calls, self.evaluator, node, self._modes)
        else:
            job = self.pool.submit(_run_calls, self.evaluator, node, self._modes)
        insort(self._jobs, (node.id, node, job))

    def after_commit(self, fn: Callable[[], None]) -> None:
        self._after.append(fn)

    def check_budget(self) -> None:
        """Raise _BudgetStop, after committing, when the clock is out."""
        if isinstance(self.clock, WallClock):
            longest = self.clock.longest_job
            if self.clock.remaining() <= longest * (len(self._jobs) + 1):
                self.commit()
                if self.clock.remaining() <= longest:
                    raise _BudgetStop()
            return
        projected = self.clock.elapsed()
        for _ in self._jobs:
            for cost in self._costs:
                if cost is not None:
                    projected += cost
        if projected >= self.clock.budget:
            self.commit()
            if self.clock.exhausted():
                raise _BudgetStop()

    def commit(self) -> None:
        jobs, self._jobs = self._jobs, []
        after, self._after = self._after, []
        if self.pool is not None:
            wait([job for _, _, job in jobs])
        for _, node, job in jobs:
            score, error, returned, seconds = job.result()
            if isinstance(self.clock, WallClock):
                self.clock.note_job(seconds)
            else:
                for cost in self._costs[:returned]:
                    self.clock.charge(cost)
            if error is None:
                self.record(EventKind.NODE_EVALUATED, node_id=node.id, raw_score=score,
                            status=_EVALUATED)
            else:
                self.record(EventKind.NODE_EVALUATED, node_id=node.id, raw_score=None,
                            status=_FAILED, error=error)
        for fn in after:
            fn()


@contextmanager
def _stage_scope(stage: str, pending: PendingSet) -> Iterator[None]:
    """Close a stage's body, whose start its caller logs, with its
    finish event.

    However the body ends, what it dispatched is committed. On the ways
    out a run carries on from (done, clock out, generator failure) the
    aggregates are refreshed and ``stage_finished`` names the outcome;
    _BudgetStop leaves as BudgetExhausted. Any other exception
    propagates once the jobs in flight have finished.
    """
    tree, log = pending.tree, pending.log

    def finish(outcome: str, **extra) -> None:
        pending.commit()
        backpropagate(tree)
        log.append(EventKind.STAGE_FINISHED, stage=stage, iteration=tree.iteration,
                   outcome=outcome, **extra)

    try:
        yield
    except _BudgetStop:
        finish("budget_exhausted")
        raise BudgetExhausted(f"{stage} stage stopped by the clock")
    except GeneratorFailure as exc:
        finish("generator_failure", error=str(exc))
        raise
    except BaseException:
        pending.commit()
        raise
    finish("ok")


# =====================================================================
# Candidate scoring
# =====================================================================

def _propose_and_score_mt(
    fe_node: Node,
    ctx: ContextState,
    m: int,
    ports: PortSet,
    config: RunConfig,
    pending: PendingSet,
    predict_fn: Optional[Callable[[str], float]],
) -> list[Node]:
    """Attach m fresh MT children under ``fe_node`` and dispatch their
    evaluations. With ``predict_fn``, a batch of two or more is pruned
    first: the candidates are ranked by predicted score and only the top
    ``predict_fraction`` get the real evaluation, the rest keep just
    their prediction; a candidate whose prediction fails gets a real
    evaluation. Returns the new nodes, not yet scored."""
    texts = ports.gen.propose_mt(fe_node, ctx, m)
    spawned = [pending.spawn(fe_node.id, NodeLevel.MT, text) for text in texts]

    to_evaluate = spawned
    if predict_fn is not None and len(spawned) > 1:
        metric = ports.metric
        predicted_ok: list[Node] = []
        fallback: list[Node] = []
        for node in spawned:
            try:
                value = float(predict_fn(node.idea_text))
                if not math.isfinite(value):
                    # an infinity would win the ranking and a NaN
                    # unsettle its order: a failure, like a raise
                    raise ValueError(f"prediction is {value}")
            except Exception as exc:
                logger.debug("prediction failed for node %s: %s", node.id, exc)
                fallback.append(node)
                continue
            pending.record(EventKind.PREDICTION_MADE, node_id=node.id, predicted=value)
            predicted_ok.append(node)
        keep_n = (max(1, math.ceil(config.predict_fraction * len(predicted_ok)))
                  if predicted_ok else 0)
        ranked = sorted(
            predicted_ok,
            key=lambda n: (-metric.orient(n.predicted_score), n.id),
        )
        to_evaluate = sorted(fallback + ranked[:keep_n], key=lambda n: n.id)

    for node in to_evaluate:
        pending.check_budget()
        pending.dispatch(node)
    return spawned


# =====================================================================
# Merge outcome
# =====================================================================

def merge_delta(
    tree: IdeationTree,
    merged_id: int,
    parent_a: int,
    parent_b: int,
    metric: MetricSpec,
) -> float:
    """Oriented improvement of the merged node's best MT child over the
    better of its parents' best children."""
    for nid in (merged_id, parent_a, parent_b):
        if nid not in tree.nodes:
            raise UnknownParent(f"node {nid} not in tree")

    def best(fe_id: int) -> float:
        kids = tree.evaluated_mt_children(fe_id)
        if not kids:
            raise NoEvaluatedChildren(f"node {fe_id} has no evaluated children")
        return max(metric.orient(c.raw_score) for c in kids)

    return best(merged_id) - max(best(parent_a), best(parent_b))


# =====================================================================
# Adding stage
# =====================================================================

def adding_stage(
    tree: IdeationTree,
    ctx: ContextState,
    ports: PortSet,
    config: RunConfig,
    rng: np.random.Generator,
    *,
    log: Optional[RunLog] = None,
    predict_fn: Optional[Callable[[str], float]] = None,
    pool: Optional[Executor] = None,
) -> IdeationTree:
    """One expansion pass, with the ports' generator, evaluator, metric
    and clock and the config's counts.

    Enriches the context, proposes ``number_of_ideas_data`` new FE ideas
    with ``number_of_ideas_modelling`` scored MT children each, then
    softmax-selects ``number_of_selected_node`` FE nodes by aggregated
    score, among those created within ``number_of_iterations_parents``
    recent iterations, and gives each of those
    ``min(number_of_ideas_modelling, max_add_idea)`` more children.
    ``selection_mode`` ``mt_literal`` instead samples the subset over
    the freshly scored MT nodes and expands their parents. With
    ``predict_fn`` each batch of fresh children is pruned by prediction
    (``_propose_and_score_mt``). Evaluations run on ``pool`` when given,
    while the stage keeps proposing, and are committed before each
    selection.

    Raises GeneratorFailure (stage aborted, committed nodes stay) and
    BudgetExhausted (partial results committed).
    """
    gen, m = ports.gen, config.number_of_ideas_modelling
    pending = PendingSet(tree, ports.evaluator, evaluation_modes(config), clock=ports.clock,
                         log=log, pool=pool)
    with _stage_scope("adding", pending):
        pending.check_budget()
        segment = gen.enrich_eda(tree, ctx)
        if segment:
            ctx.append(SegmentTag.EDA, segment)
        gate_external_query(ctx, ExternalQueryPolicy(config.rag_policy), gen,
                            cap=config.number_rag_ideas)

        fe_texts = gen.propose_fe(ctx, config.number_of_ideas_data)
        new_fe = [pending.spawn(tree.root_id, NodeLevel.FE, text, status=NodeStatus.IMPLEMENTED)
                  for text in fe_texts]

        fresh_mt: list[Node] = []
        for fe in new_fe:
            fresh_mt.extend(
                _propose_and_score_mt(fe, ctx, m, ports, config, pending, predict_fn))
        pending.commit()
        backpropagate(tree)

        targets = _select_expansion_targets(tree, fresh_mt, ports.metric, config, rng)
        per_target = min(m, config.max_add_idea)
        for fe_id in targets:
            _propose_and_score_mt(tree.nodes[fe_id], ctx, per_target, ports, config, pending,
                                  predict_fn)
    return tree


def _select_expansion_targets(
    tree: IdeationTree,
    fresh_mt: list[Node],
    metric: MetricSpec,
    config: RunConfig,
    rng: np.random.Generator,
) -> list[int]:
    """FE ids receiving extra children, chosen without replacement from
    a softmax over oriented scores."""
    if SelectionMode(config.selection_mode) is SelectionMode.MT_LITERAL:
        cands = sorted((n for n in fresh_mt if n.status is NodeStatus.EVALUATED),
                       key=lambda n: n.id)
        if not cands:
            return []
        oriented = [metric.orient(n.raw_score) for n in cands]
        dist = softmax_select(oriented, config.softmax_temperature, [n.id for n in cands])
        picked = dist.sample_without_replacement(config.number_of_selected_node, rng)
        return [tree.nodes[mt_id].parent_id for mt_id in picked]

    return _sample_scored_fe(tree, config.number_of_selected_node, config.softmax_temperature,
                             metric, rng, window=config.number_of_iterations_parents)


def _sample_scored_fe(
    tree: IdeationTree,
    n: int,
    temperature: float,
    metric: MetricSpec,
    rng: np.random.Generator,
    window: Optional[int],
) -> list[int]:
    """Draw up to ``n`` FE ids without replacement from a softmax over
    the oriented aggregates of every FE node that has one, in id order.
    With a ``window``, only FE nodes created within that many recent
    iterations take part. The candidates are masked, oriented and
    weighted on the tree's FE table in a few array operations."""
    table = tree.fe_table
    aggregates = table.aggregates
    scored = ~np.isnan(aggregates)
    if window is not None:
        # created within the window: iteration - created < window
        scored &= table.created > tree.iteration - window
    candidates = aggregates[scored]
    if len(candidates) == 0:
        return []
    dist = softmax_select(metric.orient(candidates), temperature, table.ids[scored])
    return dist.sample_without_replacement(n, rng)


# =====================================================================
# Merging stage
# =====================================================================

def merging_stage(
    tree: IdeationTree,
    mem: MergeMemory,
    ports: PortSet,
    config: RunConfig,
    rng: np.random.Generator,
    *,
    ctx: ContextState,
    log: Optional[RunLog] = None,
    pool: Optional[Executor] = None,
) -> tuple[IdeationTree, MergeMemory]:
    """One recombination pass, with the ports' generator, evaluator,
    metric and clock and the config's counts.

    Samples ``number_of_selected_node_merging`` FE pairs uniformly from
    the eligible set (both members have evaluated children, pair not in
    long-term memory), merges each into a new FE node that gets
    ``number_of_ideas_modelling`` fresh scored MT children plus
    ``number_of_iterations_children`` score-carrying copies sampled from
    each parent, and books the outcome into the merge memory. With
    ``sample_top_proportional`` the copies are drawn in proportion to
    the oriented scores of a parent whose children all score above zero,
    and by softmax from any other parent. Then
    ``number_of_selected_node_merging`` FE nodes are softmax-selected
    and each has its two best MT children merged into one new scored
    child. Nothing is pruned by prediction: the merge verdict needs real
    scores. Evaluations run on ``pool`` when given; the merge verdicts
    are booked, in pair order, once the pair loop's evaluations are
    committed.

    Raises InsufficientParents when fewer than two FE nodes are
    eligible, GeneratorFailure, and BudgetExhausted.
    """
    eligible = tree.eligible_fe_ids()
    if len(eligible) < 2:
        raise InsufficientParents(
            f"merging needs >= 2 FE nodes with evaluated children, found {len(eligible)}"
        )
    pending = PendingSet(tree, ports.evaluator, evaluation_modes(config), clock=ports.clock,
                         log=log, pool=pool)
    with _stage_scope("merging", pending):
        for a_id, b_id in draw_merge_pairs(eligible, mem, config.number_of_selected_node_merging,
                                           rng):
            pending.check_budget()
            _merge_one_pair(mem, ports, config, rng, a_id, b_id, ctx, pending)
        pending.commit()
        backpropagate(tree)

        _merge_best_children(ports, config, rng, ctx, pending)
    return tree, mem


def _merge_one_pair(mem, ports, config, rng, a_id, b_id, ctx, pending):
    """Merge one FE pair into a new FE node, dispatch its fresh MT
    children, add the resampled copies, and have the verdict booked
    when the fresh children are committed."""
    tree, metric = pending.tree, ports.metric
    key = pair_key(a_id, b_id)
    node_a, node_b = tree.nodes[a_id], tree.nodes[b_id]
    merged_text = ports.gen.merge_fe(node_a, node_b, ctx)
    merged = pending.spawn(
        tree.root_id, NodeLevel.FE, merged_text,
        provenance=Provenance.merged(a_id, b_id), status=NodeStatus.IMPLEMENTED,
    )

    _propose_and_score_mt(merged, ctx, config.number_of_ideas_modelling, ports, config, pending,
                          None)

    for parent_id in (a_id, b_id):
        # proportional weights need every oriented score positive;
        # a parent with one that is not is resampled by softmax
        proportional = config.sample_top_proportional and all(
            metric.orient(c.raw_score) > 0 for c in tree.evaluated_mt_children(parent_id))
        picks = sample_top(tree, parent_id, config.number_of_iterations_children, rng,
                           metric=metric,
                           temperature=config.softmax_temperature,
                           proportional=proportional)
        for origin in picks:
            pending.spawn(
                merged.id, NodeLevel.MT, origin.idea_text,
                provenance=Provenance.resampled(origin.id),
                status=NodeStatus.EVALUATED,
                raw_score=origin.raw_score,
                code_artifact=origin.code_artifact,
            )

    pending.after_commit(
        lambda: _book_merge(tree, mem, key, merged.id, metric, config.merge_epsilon,
                            pending.log)
    )


def _book_merge(tree, mem, key, merged_id, metric, epsilon, log):
    """Judge a merge by its committed children and record the verdict.
    A merge fails when its best child does not beat both parents' bests
    by more than epsilon, so a tie is a failure."""
    a_id, b_id = key
    if tree.evaluated_mt_children(merged_id):
        delta = merge_delta(tree, merged_id, a_id, b_id, metric)
        failed = delta <= epsilon
    else:
        # every fresh child failed and nothing was resampled
        delta = None
        failed = True

    if failed:
        promoted = mem.record_failure(key)
        log.append(EventKind.MERGE_ATTEMPTED, pair=list(key), merged_id=merged_id,
                   outcome="failure", delta=delta)
        if promoted:
            log.append(EventKind.MEMORY_PROMOTED, pair=list(key), failures=mem.theta_fail)
    else:
        mem.record_success(key)
        log.append(EventKind.MERGE_ATTEMPTED, pair=list(key), merged_id=merged_id,
                   outcome="success", delta=delta)


def _merge_best_children(ports, config, rng, ctx, pending):
    """Within each softmax-selected FE node, merge its two best MT
    children into one new scored child."""
    tree, metric = pending.tree, ports.metric
    for fe_id in _sample_scored_fe(tree, config.number_of_selected_node_merging,
                                   config.softmax_temperature, metric, rng, window=None):
        kids = sorted(
            tree.evaluated_mt_children(fe_id),
            key=lambda n: (-metric.orient(n.raw_score), n.id),
        )
        if len(kids) < 2:
            continue
        u, v = kids[0], kids[1]
        pending.check_budget()
        text = ports.gen.merge_mt(u, v, ctx)
        node = pending.spawn(fe_id, NodeLevel.MT, text, provenance=Provenance.merged(u.id, v.id))
        pending.dispatch(node)
