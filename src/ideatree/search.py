"""Tree search operators: staged expansion, score-guided merging,
softmax selection, and the short/long-term merge memories.

A main-loop pass runs ``adding_stage`` then ``merging_stage``. Both
mutate the tree in place, emit structured events when given a log, and
stop early (committing partial work) when the clock runs out.
"""

from __future__ import annotations

import logging
import math
import time
from bisect import bisect_right, insort
from concurrent.futures import Executor, Future, wait
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .clock import WallClock
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
)

logger = logging.getLogger(__name__)

MergePairKey = tuple[int, int]


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


@dataclass(frozen=True, eq=False)
class SelectionDistribution:
    """Aligned ids and probabilities, held as numpy arrays (int64 and
    float64); checked on construction."""

    node_ids: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.node_ids, dtype=np.int64)
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "node_ids", ids)
        object.__setattr__(self, "probabilities", probs)
        if ids.shape != probs.shape:
            raise InvalidParams("ids and probabilities differ in length")
        if np.any(probs < 0):
            raise InvalidParams("negative probability")
        total = float(probs.sum())
        # written so that a NaN sum fails it too
        if not abs(total - 1.0) <= 1e-9:
            raise InvalidParams(f"probabilities sum to {total}, not 1")

    def sample_without_replacement(self, k: int, rng: np.random.Generator) -> list[int]:
        """Draw up to k distinct ids, renormalizing after each draw. The
        draws stop early once every probability left is zero, as it is
        when they have all underflowed."""
        ids, probs = self.node_ids, self.probabilities
        picked: list[int] = []
        draws = min(k, len(ids))
        for draw in range(1, draws + 1):
            total = probs.sum()
            if total == 0:
                break
            idx = _draw_index(probs / total, rng)
            picked.append(int(ids[idx]))
            if draw < draws:
                ids = np.concatenate((ids[:idx], ids[idx + 1:]))
                probs = np.concatenate((probs[:idx], probs[idx + 1:]))
        return picked


def _draw_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(p), p=p)`` draws, leaving ``rng`` in
    the same state: one ``rng.random()`` inverted through the cdf of
    ``p``, renormalised to end at exactly 1, as numpy's ``choice`` does
    once it has validated ``p``. ``p`` must be non-negative and sum to
    1 within rounding; the callers' checks ensure that, so ``choice``'s
    own per-call checks are not repeated here."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def softmax_select(
    oriented: Sequence[float] | np.ndarray,
    temperature: float = 1.0,
    node_ids: Optional[Sequence[int] | np.ndarray] = None,
) -> SelectionDistribution:
    """Softmax over oriented scores, computed with max subtraction so
    large magnitudes cannot overflow."""
    if len(oriented) == 0:
        raise EmptyInput("softmax over an empty score list")
    if temperature <= 0:
        raise InvalidParams(f"temperature must be positive, got {temperature}")
    arr = np.asarray(oriented, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteScore("non-finite value in oriented scores")
    z = (arr - arr.max()) / temperature
    e = np.exp(z)
    p = e / e.sum()
    ids = node_ids if node_ids is not None else np.arange(len(arr))
    return SelectionDistribution(node_ids=ids, probabilities=p)


def sample_top(
    tree: IdeationTree,
    fe_node_id: int,
    k: int,
    rng: np.random.Generator,
    *,
    metric: Optional[MetricSpec] = None,
    temperature: float = 1.0,
    proportional: bool = False,
) -> list[Node]:
    """Sample up to k distinct evaluated MT children of an FE node,
    weighted towards high oriented scores.

    Weights come from a softmax over oriented child scores by default.
    ``proportional`` switches to probabilities directly proportional to
    the oriented scores, which requires them all to be positive. With no
    metric given, raw scores are treated as higher-is-better.
    """
    if fe_node_id not in tree.nodes:
        raise UnknownParent(f"node {fe_node_id} not in tree")
    if k < 0:
        raise InvalidParams(f"k must be non-negative, got {k}")
    children = sorted(tree.evaluated_mt_children(fe_node_id), key=lambda n: n.id)
    if not children:
        raise NoEvaluatedChildren(f"node {fe_node_id} has no evaluated children")
    if k == 0:
        return []
    raw = [c.raw_score for c in children]
    oriented = orient_scores(raw, metric) if metric is not None else [float(s) for s in raw]
    if proportional:
        if any(s <= 0 for s in oriented):
            raise InvalidParams(
                "proportional sampling needs strictly positive oriented scores"
            )
        total = sum(oriented)
        dist = SelectionDistribution(
            node_ids=tuple(c.id for c in children),
            probabilities=tuple(s / total for s in oriented),
        )
    else:
        dist = softmax_select(oriented, temperature, [c.id for c in children])
    picked = dist.sample_without_replacement(k, rng)
    by_id = {c.id: c for c in children}
    return [by_id[i] for i in picked]


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
    """

    theta_fail: int = 2
    short_term: dict[MergePairKey, int] = field(default_factory=dict)
    long_term: set[MergePairKey] = field(default_factory=set)

    def __post_init__(self):
        if self.theta_fail < 1:
            raise InvalidParams(f"theta_fail must be >= 1, got {self.theta_fail}")

    def record_failure(self, key: MergePairKey) -> bool:
        """Count one failure; returns True when this promoted the pair."""
        if key in self.long_term:
            return False
        count = self.short_term.get(key, 0) + 1
        if count >= self.theta_fail:
            self.short_term.pop(key, None)
            self.long_term.add(key)
            return True
        self.short_term[key] = count
        return False

    def record_success(self, key: MergePairKey) -> None:
        self.short_term.pop(key, None)
        self.long_term.add(key)


def draw_merge_pairs(
    eligible: Sequence[int],
    mem: MergeMemory,
    n: int,
    rng: np.random.Generator,
) -> list[MergePairKey]:
    """Draw up to ``n`` distinct pairs uniformly from the eligible pairs.

    ``eligible`` holds ascending FE ids. The candidates are the pairs of
    ``combinations(eligible, 2)`` not in long-term memory, in that
    lexicographic order; ``rng.choice`` picks positions in that list
    without replacement, and each position is mapped straight to its
    pair. Nothing is enumerated: the ranks of the excluded pairs are
    skipped over and the rank left is unranked, so the cost grows with
    the number of eligible ids and of pairs in long-term memory, not
    with the number of pairs. The draws and the generator's state
    afterwards are those of listing the candidates and indexing into
    the list.
    """
    k = len(eligible)
    position = {fe_id: i for i, fe_id in enumerate(eligible)}
    excluded = sorted(
        _pair_rank(position[a], position[b], k)
        for a, b in mem.long_term
        if a < b and a in position and b in position
    )
    n_candidates = k * (k - 1) // 2 - len(excluded)
    if n_candidates <= 0:
        return []
    # preceding[i] is the number of candidates ranked below the i-th
    # excluded rank; the d-th candidate's rank is d plus the number of
    # excluded ranks below it, which are those with preceding[i] <= d
    preceding = [r - i for i, r in enumerate(excluded)]
    picked = rng.choice(n_candidates, size=min(n, n_candidates), replace=False)
    pairs = []
    for d in picked:
        i, j = _pair_unrank(int(d) + bisect_right(preceding, int(d)), k)
        pairs.append((eligible[i], eligible[j]))
    return pairs


def _pair_rank(i: int, j: int, k: int) -> int:
    """Position of (i, j), i < j, in ``combinations(range(k), 2)``."""
    return i * (2 * k - i - 1) // 2 + (j - i - 1)


def _pair_unrank(rank: int, k: int) -> tuple[int, int]:
    """Inverse of ``_pair_rank``."""
    from_end = k * (k - 1) // 2 - 1 - rank
    i = k - 2 - (math.isqrt(8 * from_end + 1) - 1) // 2
    return i, rank - _pair_rank(i, i + 1, k) + i + 1


# =====================================================================
# Stage parameters and evaluation policy
# =====================================================================

class SelectionMode(str, Enum):
    # expansion targets chosen over FE nodes by aggregated score (default),
    # or over the freshly scored MT nodes themselves
    FE_AGGREGATE = "fe_aggregate"
    MT_LITERAL = "mt_literal"


@dataclass(frozen=True)
class StageParams:
    """Counts and knobs shared by both stages.

    n_fe: new FE ideas per adding stage / FE pairs per merging stage.
    m_mt: MT children attached per expanded or merged node.
    n_selected: size of the post-expansion / merge-target subset.
    """

    n_fe: int
    m_mt: int
    n_selected: int
    softmax_temperature: float = 1.0
    merge_epsilon: float = 0.0

    def __post_init__(self):
        for name in ("n_fe", "m_mt", "n_selected"):
            if getattr(self, name) < 1:
                raise InvalidParams(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.softmax_temperature <= 0:
            raise InvalidParams(
                f"softmax_temperature must be positive, got {self.softmax_temperature}"
            )
        if not math.isfinite(self.merge_epsilon):
            raise InvalidParams("merge_epsilon must be finite")


@dataclass
class EvalPolicy:
    """How fresh candidates get scored.

    ``validation_attempts`` models the shake-out runs a new candidate
    needs before its metric run: charged at debug cost when
    ``accelerated_debug`` is on, at full cost otherwise.

    ``predict_fn`` enables predict-then-evaluate pruning: candidates are
    ranked by predicted score and only the top ``predict_fraction`` get
    the real evaluation; the rest keep just their prediction. Prediction
    failures fall back to a real evaluation.
    """

    validation_attempts: int = 0
    accelerated_debug: bool = True
    predict_fn: Optional[Callable[[str], float]] = None
    predict_fraction: float = 0.5

    def __post_init__(self):
        if self.validation_attempts < 0:
            raise InvalidParams("validation_attempts must be >= 0")
        if not 0.0 < self.predict_fraction <= 1.0:
            raise InvalidParams("predict_fraction must be in (0, 1]")


class _BudgetStop(Exception):
    """Internal: the clock ran out mid-stage."""


def _emit(log: Optional[RunLog], kind: EventKind, **payload):
    if log is not None:
        log.append(kind, **payload)


# =====================================================================
# Pending evaluations
# =====================================================================

def _run_calls(evaluator, node: Node, modes: tuple[EvalMode, ...]):
    """Make one candidate's evaluator calls in order, stopping at the
    first EvaluationFailure. Returns ``(raw score or None, error or
    None, number of calls that returned, wall seconds the calls took)``.
    May run on a worker thread, so it touches nothing but the
    evaluator."""
    start = time.monotonic()
    for returned, mode in enumerate(modes):
        try:
            value = evaluator.evaluate(node, mode)
        except EvaluationFailure as exc:
            return None, str(exc) or "evaluation failed", returned, time.monotonic() - start
    return float(value), None, len(modes), time.monotonic() - start


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
    """A stage's evaluations, dispatched and not yet committed.

    ``dispatch`` hands a candidate's calls (its validation runs, then
    the metric run) to ``pool``, or makes them at once when there is
    none, and returns, so the caller keeps proposing while they run.
    Nothing a job does reaches the tree, the log or the clock before
    ``commit``: that waits for every job, then in node-id order charges
    ``evaluator.cost(mode)`` for each call that returned (one that
    raised costs nothing), marks the node evaluated or failed and logs
    ``node_evaluated``, and last runs the ``after_commit`` callbacks in
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
    """

    def __init__(self, tree: IdeationTree, evaluator, policy: EvalPolicy, *,
                 clock=None, log: Optional[RunLog] = None,
                 pool: Optional[Executor] = None):
        self.tree = tree
        self.evaluator = evaluator
        self.clock = clock
        self.log = log
        self.pool = pool
        shakeout = EvalMode.DEBUG if policy.accelerated_debug else EvalMode.FULL
        self._modes = (shakeout,) * policy.validation_attempts + (EvalMode.FULL,)
        self._costs = [evaluator.cost(mode) for mode in self._modes]
        self._jobs: list[tuple[int, Node, Future | _RanInline]] = []
        self._after: list[Callable[[], None]] = []

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
        if self.clock is None:
            return
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
            elif self.clock is not None:
                for cost in self._costs[:returned]:
                    self.clock.charge(cost)
            if error is None:
                self.tree.mark_evaluated(node.id, score)
                _emit(self.log, EventKind.NODE_EVALUATED, node_id=node.id,
                      raw_score=node.raw_score, status=node.status.value)
            else:
                self.tree.mark_failed(node.id)
                _emit(self.log, EventKind.NODE_EVALUATED, node_id=node.id,
                      raw_score=None, status=node.status.value, error=error)
        for fn in after:
            fn()


@contextmanager
def _stage_scope(tree: IdeationTree, log: Optional[RunLog], stage: str,
                 pending: PendingSet) -> Iterator[None]:
    """Bracket a stage's body with its start and finish events.

    However the body ends, what it dispatched is committed. On the ways
    out a run carries on from (done, clock out, generator failure) the
    aggregates are refreshed and ``stage_finished`` names the outcome;
    _BudgetStop leaves as BudgetExhausted. Any other exception
    propagates once the jobs in flight have finished.
    """
    def finish(outcome: str, **extra) -> None:
        pending.commit()
        backpropagate(tree)
        _emit(log, EventKind.STAGE_FINISHED, stage=stage, iteration=tree.iteration,
              outcome=outcome, **extra)

    _emit(log, EventKind.STAGE_STARTED, stage=stage, iteration=tree.iteration)
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
    tree: IdeationTree,
    fe_node: Node,
    ctx: Optional[ContextState],
    gen,
    m: int,
    metric: MetricSpec,
    policy: EvalPolicy,
    pending: PendingSet,
    log: Optional[RunLog],
) -> list[Node]:
    """Attach m fresh MT children under ``fe_node`` and dispatch their
    evaluations, applying predict-then-evaluate pruning when the policy
    carries a predictor. Returns the new nodes, not yet scored."""
    texts = gen.propose_mt(fe_node, ctx, m)
    spawned = []
    for text in texts:
        node = tree.spawn(fe_node.id, NodeLevel.MT, text)
        _emit(log, EventKind.NODE_PROPOSED, node=node.to_record())
        spawned.append(node)

    to_evaluate = spawned
    if policy.predict_fn is not None and len(spawned) > 1:
        predicted_ok: list[Node] = []
        fallback: list[Node] = []
        for node in spawned:
            try:
                value = float(policy.predict_fn(node.idea_text))
            except Exception as exc:
                logger.debug("prediction failed for node %s: %s", node.id, exc)
                fallback.append(node)
                continue
            node.predicted_score = value
            _emit(log, EventKind.PREDICTION_MADE, node_id=node.id, predicted=value)
            predicted_ok.append(node)
        keep_n = max(1, math.ceil(policy.predict_fraction * len(predicted_ok))) if predicted_ok else 0
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
    gen,
    evaluator,
    params: StageParams,
    metric: MetricSpec,
    rng: np.random.Generator,
    *,
    log: Optional[RunLog] = None,
    clock=None,
    policy: Optional[EvalPolicy] = None,
    external_policy: ExternalQueryPolicy = ExternalQueryPolicy.ALWAYS,
    external_cap: Optional[int] = None,
    max_add: Optional[int] = None,
    parent_window: Optional[int] = None,
    selection_mode: SelectionMode = SelectionMode.FE_AGGREGATE,
    pool: Optional[Executor] = None,
) -> IdeationTree:
    """One expansion pass.

    Enriches the context, proposes ``n_fe`` new FE ideas with ``m_mt``
    scored MT children each, then softmax-selects ``n_selected`` FE
    nodes by aggregated score and gives each of those up to ``m_mt``
    more children (capped by ``max_add`` when set). ``parent_window``
    restricts selection to FE nodes created within that many recent
    iterations. ``selection_mode=MT_LITERAL`` instead samples the subset
    over the freshly scored MT nodes and expands their parents.
    Evaluations run on ``pool`` when given, while the stage keeps
    proposing, and are committed before each selection.

    Raises GeneratorFailure (stage aborted, committed nodes stay) and
    BudgetExhausted (partial results committed).
    """
    policy = policy or EvalPolicy()
    pending = PendingSet(tree, evaluator, policy, clock=clock, log=log, pool=pool)
    with _stage_scope(tree, log, "adding", pending):
        pending.check_budget()
        segment = gen.enrich_eda(tree, ctx)
        if segment:
            ctx.append(SegmentTag.EDA, segment)
        gate_external_query(ctx, external_policy, gen, cap=external_cap)

        fe_texts = gen.propose_fe(ctx, params.n_fe)
        new_fe: list[Node] = []
        for text in fe_texts:
            node = tree.spawn(tree.root.id, NodeLevel.FE, text, status=NodeStatus.IMPLEMENTED)
            _emit(log, EventKind.NODE_PROPOSED, node=node.to_record())
            new_fe.append(node)

        fresh_mt: list[Node] = []
        for fe in new_fe:
            fresh_mt.extend(
                _propose_and_score_mt(tree, fe, ctx, gen, params.m_mt,
                                      metric, policy, pending, log)
            )
        pending.commit()
        backpropagate(tree)

        targets = _select_expansion_targets(
            tree, fresh_mt, params, metric, rng, parent_window, selection_mode
        )
        per_target = params.m_mt if max_add is None else min(params.m_mt, max_add)
        for fe_id in targets:
            _propose_and_score_mt(tree, tree.nodes[fe_id], ctx, gen, per_target,
                                  metric, policy, pending, log)
    return tree


def _select_expansion_targets(
    tree: IdeationTree,
    fresh_mt: list[Node],
    params: StageParams,
    metric: MetricSpec,
    rng: np.random.Generator,
    parent_window: Optional[int],
    selection_mode: SelectionMode,
) -> list[int]:
    """FE ids receiving extra children, chosen without replacement from
    a softmax over oriented scores."""
    if selection_mode is SelectionMode.MT_LITERAL:
        cands = sorted((n for n in fresh_mt if n.status is NodeStatus.EVALUATED),
                       key=lambda n: n.id)
        if not cands:
            return []
        oriented = [metric.orient(n.raw_score) for n in cands]
        dist = softmax_select(oriented, params.softmax_temperature, [n.id for n in cands])
        picked = dist.sample_without_replacement(params.n_selected, rng)
        return [tree.nodes[mt_id].parent_id for mt_id in picked]

    return _sample_scored_fe(tree, params, metric, rng, window=parent_window)


def _sample_scored_fe(
    tree: IdeationTree,
    params: StageParams,
    metric: MetricSpec,
    rng: np.random.Generator,
    window: Optional[int] = None,
) -> list[int]:
    """Draw up to ``n_selected`` FE ids without replacement from a
    softmax over the oriented aggregates of every FE node that has one,
    in id order. With ``window``, only FE nodes created within that many
    recent iterations take part. The candidates are masked, oriented
    and weighted on the tree's FE table in a few array operations."""
    table = tree.fe_table
    aggregates = table.aggregates
    scored = ~np.isnan(aggregates)
    if window is not None:
        scored &= tree.iteration - table.created < window
    if not scored.any():
        return []
    dist = softmax_select(metric.orient(aggregates[scored]), params.softmax_temperature,
                          table.ids[scored])
    return dist.sample_without_replacement(params.n_selected, rng)


# =====================================================================
# Merging stage
# =====================================================================

def merging_stage(
    tree: IdeationTree,
    mem: MergeMemory,
    gen,
    evaluator,
    params: StageParams,
    metric: MetricSpec,
    rng: np.random.Generator,
    *,
    ctx: Optional[ContextState] = None,
    log: Optional[RunLog] = None,
    clock=None,
    policy: Optional[EvalPolicy] = None,
    resample_k: int = 1,
    proportional_resample: bool = False,
    pool: Optional[Executor] = None,
) -> tuple[IdeationTree, MergeMemory]:
    """One recombination pass.

    Samples ``n_fe`` FE pairs uniformly from the eligible set (both
    members have evaluated children, pair not in long-term memory),
    merges each into a new FE node that gets ``m_mt`` fresh scored MT
    children plus ``resample_k`` score-carrying copies sampled from each
    parent, and books the outcome into the merge memory. Then
    ``n_selected`` FE nodes are softmax-selected and each has its two
    best MT children merged into one new scored child. Evaluations run
    on ``pool`` when given; the merge verdicts are booked, in pair
    order, once the pair loop's evaluations are committed.

    Raises InsufficientParents when fewer than two FE nodes are
    eligible, GeneratorFailure, and BudgetExhausted.
    """
    # nothing is pruned here: the merge verdict needs real scores
    policy = replace(policy or EvalPolicy(), predict_fn=None)
    if resample_k < 0:
        raise InvalidParams(f"resample_k must be >= 0, got {resample_k}")
    eligible = tree.eligible_fe_ids()
    if len(eligible) < 2:
        raise InsufficientParents(
            f"merging needs >= 2 FE nodes with evaluated children, found {len(eligible)}"
        )
    pending = PendingSet(tree, evaluator, policy, clock=clock, log=log, pool=pool)
    with _stage_scope(tree, log, "merging", pending):
        for a_id, b_id in draw_merge_pairs(eligible, mem, params.n_fe, rng):
            pending.check_budget()
            _merge_one_pair(tree, mem, gen, params, metric, rng, a_id, b_id,
                            ctx, log, policy, pending, resample_k, proportional_resample)
        pending.commit()
        backpropagate(tree)

        _merge_best_children(tree, gen, params, metric, rng, ctx, log, pending)
    return tree, mem


def _merge_one_pair(
    tree, mem, gen, params, metric, rng,
    a_id, b_id, ctx, log, policy, pending, resample_k, proportional_resample,
):
    """Merge one FE pair into a new FE node, dispatch its fresh MT
    children, add the resampled copies, and have the verdict booked
    when the fresh children are committed."""
    key = pair_key(a_id, b_id)
    node_a, node_b = tree.nodes[a_id], tree.nodes[b_id]
    merged_text = gen.merge_fe(node_a, node_b, ctx)
    merged = tree.spawn(
        tree.root.id, NodeLevel.FE, merged_text,
        provenance=Provenance.merged(a_id, b_id), status=NodeStatus.IMPLEMENTED,
    )
    _emit(log, EventKind.NODE_PROPOSED, node=merged.to_record())

    _propose_and_score_mt(tree, merged, ctx, gen, params.m_mt,
                          metric, policy, pending, log)

    if resample_k > 0:
        for parent_id in (a_id, b_id):
            picks = sample_top(tree, parent_id, resample_k, rng,
                               metric=metric,
                               temperature=params.softmax_temperature,
                               proportional=proportional_resample)
            for origin in picks:
                copy = tree.spawn(
                    merged.id, NodeLevel.MT, origin.idea_text,
                    provenance=Provenance.resampled(origin.id),
                    status=NodeStatus.EVALUATED,
                    raw_score=origin.raw_score,
                    code_artifact=origin.code_artifact,
                )
                _emit(log, EventKind.NODE_PROPOSED, node=copy.to_record())

    pending.after_commit(
        lambda: _book_merge(tree, mem, key, merged.id, metric, params.merge_epsilon, log)
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
        _emit(log, EventKind.MERGE_ATTEMPTED, pair=list(key), merged_id=merged_id,
              outcome="failure", delta=delta)
        if promoted:
            _emit(log, EventKind.MEMORY_PROMOTED, pair=list(key), failures=mem.theta_fail)
    else:
        mem.record_success(key)
        _emit(log, EventKind.MERGE_ATTEMPTED, pair=list(key), merged_id=merged_id,
              outcome="success", delta=delta)


def _merge_best_children(tree, gen, params, metric, rng, ctx, log, pending):
    """Within each softmax-selected FE node, merge its two best MT
    children into one new scored child."""
    for fe_id in _sample_scored_fe(tree, params, metric, rng):
        kids = sorted(
            tree.evaluated_mt_children(fe_id),
            key=lambda n: (-metric.orient(n.raw_score), n.id),
        )
        if len(kids) < 2:
            continue
        u, v = kids[0], kids[1]
        pending.check_budget()
        text = gen.merge_mt(u, v, ctx)
        node = tree.spawn(fe_id, NodeLevel.MT, text, provenance=Provenance.merged(u.id, v.id))
        _emit(log, EventKind.NODE_PROPOSED, node=node.to_record())
        pending.dispatch(node)
