"""The budgeted main loop: initialize, then alternate expansion and
recombination until time runs out, checkpointing as it goes.

Everything stochastic draws from streams spawned off one seed, and the
run changes its tree only by applying the records it logs
(``IdeationTree.apply``), so a finished run can be reproduced
bit-for-bit or reconstructed from its log alone. The log is the only
per-stage record: a checkpoint is a ``checkpoint_written``
event, and replaying the events before it rebuilds the tree at that
stage, for a crashed run too (``iter_log(path, partial=True)``).
"""

from __future__ import annotations

import itertools
import json
import logging
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .clock import SimulatedClock, WallClock
from .config import RunConfig, dump_config
from .errors import (
    BudgetExhausted,
    CorruptLog,
    GeneratorFailure,
    IdeaTreeError,
    InitializationFailure,
    InsufficientParents,
    MissingRunArtifacts,
)
from .evaluation import EvaluationPort, SimulatedEvaluator
from .events import LOG_FILENAME, EventKind, RunLog, collector_paused, iter_log
# read_log stays importable here for bench/rep.py, whose --trace 1
# patches it by this name
from .events import read_log  # noqa: F401
from .generation import ContextState, IdeaGenerator, SegmentTag, SyntheticGenerator
from .embedding import VectorIdeaEmbedding
from .retrieval import FileCorpusRetriever
from .scoring import BaselinePredictor, Predictor, build_anchor_set
from .search import MergeMemory, PendingSet, adding_stage, evaluation_modes, merging_stage
from .setup_stages import TaskSpec, pipeline_setup
from .tree import (
    IdeationTree,
    MetricDirection,
    MetricSpec,
    Node,
    NodeLevel,
    NodeStatus,
    backpropagate,
)

logger = logging.getLogger(__name__)

FINAL_SNAPSHOT_FILENAME = "final_snapshot.json"
RESULT_FILENAME = "result.json"
CONFIG_COPY_FILENAME = "config.yaml"

DEFAULT_ROOT_IDEA = "exploratory data analysis"

# A run ends after this many stages in a row end in GeneratorFailure.
# A failed stage charges nothing to the clock, so without a cap a
# generator that keeps failing would keep the run going forever.
MAX_FAILED_STAGES = 10


@dataclass
class PortSet:
    """Every swappable dependency a run needs, already wired together,
    with the task they were built for and its metric: the one the
    evaluator scores with, which the run ranks by and logs."""

    task: TaskSpec
    gen: IdeaGenerator
    evaluator: EvaluationPort
    metric: MetricSpec
    clock: object
    predictor: Optional[Predictor] = None


@dataclass
class RunResult:
    tree: IdeationTree
    best_node_id: Optional[int]
    best_raw_score: Optional[float]
    iterations: int
    budget_exhausted: bool
    # "budget_exhausted", or "generator_failures" after MAX_FAILED_STAGES
    stop_reason: str = "budget_exhausted"


def build_synthetic_ports(config: RunConfig, corpus_dir: Optional[Path] = None) -> PortSet:
    """Self-contained ports over the simulated landscape: no network, no
    subprocesses, deterministic for a given config. A config that fails
    ``RunConfig.problems`` is ConfigInvalid before any port is built."""
    config.validate()
    syn = config.synthetic
    metric = MetricSpec("landscape_quality", MetricDirection.HIGHER_BETTER)
    clock = build_clock(config)
    retriever = FileCorpusRetriever(corpus_dir) if corpus_dir else None
    gen = SyntheticGenerator(syn, seed=config.seed, retriever=retriever,
                             retrieve_k=config.retrieve_n_papers)
    evaluator = SimulatedEvaluator(syn, metric, seed=config.seed)
    task = TaskSpec(description=f"synthetic {syn.dimension}-dimensional landscape",
                    row_count=100)
    predictor = None
    if config.predict_before_evaluate:
        # radius a bit past the farthest corner keeps the lift curved
        # over the whole idea box
        radius = 1.25 * float(np.sqrt(syn.dimension)) * max(abs(syn.low), abs(syn.high))
        predictor = BaselinePredictor(
            embedder=VectorIdeaEmbedding(dimension=syn.dimension, radius=radius),
            temperature=0.1,
        )
    return PortSet(task=task, gen=gen, evaluator=evaluator, metric=metric,
                   clock=clock, predictor=predictor)


def build_clock(config: RunConfig):
    """The clock ``config.clock_mode`` names, over the run's budget."""
    if config.clock_mode == "simulated":
        return SimulatedClock(config.time_run_minutes)
    return WallClock(config.time_run_minutes)


def _evaluation_pool(worker_count: int):
    """The run's one evaluation pool, as a context manager that shuts it
    down; none for a single worker, whose jobs run inline."""
    if worker_count > 1:
        return ThreadPoolExecutor(max_workers=worker_count,
                                  thread_name_prefix="ideatree-eval")
    return nullcontext()


# =====================================================================
# Initialization
# =====================================================================

def initialize_tree(
    ctx: ContextState,
    ports: PortSet,
    config: RunConfig,
    *,
    log: Optional[RunLog] = None,
    pool: Optional[Executor] = None,
) -> IdeationTree:
    """Build the starting tree: enriched root, a first rank of feature
    ideas, and fully evaluated model children under each.

    Initialization is not budget-gated (a zero-budget run still ends
    with a best node), but evaluations do charge the ports' clock. They
    run on ``pool`` when given and are committed at the end. If not one
    model idea survives evaluation there is nothing to search from and
    InitializationFailure is raised.
    """
    gen = ports.gen
    tree = IdeationTree()
    pending = PendingSet(tree, ports.evaluator, evaluation_modes(config), clock=ports.clock,
                         log=log, pool=pool)
    pending.spawn(None, NodeLevel.EDA, DEFAULT_ROOT_IDEA, status=NodeStatus.IMPLEMENTED)
    for _ in range(config.number_of_ideas_eda):
        note = gen.enrich_eda(tree, ctx)
        if note:
            ctx.append(SegmentTag.EDA, note)
    fe_texts = gen.propose_fe(ctx, config.number_of_ideas_data)
    try:
        for fe_text in fe_texts:
            fe = pending.spawn(tree.root_id, NodeLevel.FE, fe_text)
            for mt_text in gen.propose_mt(fe, ctx, config.number_of_ideas_modelling):
                pending.dispatch(pending.spawn(fe.id, NodeLevel.MT, mt_text))
    finally:
        pending.commit()
    backpropagate(tree)
    if tree.best_evaluated_mt(ports.metric) is None:
        raise InitializationFailure("no model idea survived initial evaluation")
    return tree


# =====================================================================
# Main loop
# =====================================================================

def run_main_loop(
    tree: IdeationTree,
    ctx: ContextState,
    ports: PortSet,
    config: RunConfig,
    *,
    log: RunLog,
    predict_fn=None,
    pool: Optional[Executor] = None,
) -> RunResult:
    """Alternate adding and merging until the budget is gone.

    Budget is checked strictly before each stage starts; a stage that
    runs out mid-way commits its finished work and ends the run. Stages
    run their evaluations on ``pool`` when given. The
    merging phase is skipped (with log events preserving alternation)
    while fewer than two feature nodes have evaluated children.

    A stage that ends in GeneratorFailure keeps its committed work and
    the run moves on, but after MAX_FAILED_STAGES such stages in a row
    (skipped stages neither count nor break the row) the run ends, and
    ``run_finished`` carries ``stop_reason: generator_failures``.

    Each stage is followed by a log flush and, with
    ``checkpoint_every_stage``, first by a ``checkpoint_written`` event
    that records the best node so far. The checkpoint is that position
    in the log: no file is written.

    Stage ``n`` of the loop, counted from 1 with skipped stages
    included, draws from the stream keyed by ``(config.seed, n)``, so
    its draws do not depend on what earlier stages drew.
    """
    clock = ports.clock
    mem = MergeMemory(theta_fail=config.theta_fail)
    iterations = 0
    stage_number = 0
    budget_out = False
    failed_stages = 0

    def note_budget_out() -> None:
        nonlocal budget_out
        budget_out = True
        log.append(EventKind.BUDGET_EXHAUSTED, elapsed=clock.elapsed(),
                   budget=clock.budget)

    def checkpoint() -> None:
        if config.checkpoint_every_stage:
            best = tree.best_evaluated_mt(ports.metric)
            log.append(
                EventKind.CHECKPOINT_WRITTEN,
                sequence=stage_number,
                best_node_id=best.id if best else None,
                best_raw_score=best.raw_score if best else None,
            )
        log.flush()

    # a stage returns False when it was skipped
    def adding(rng: np.random.Generator) -> bool:
        adding_stage(tree, ctx, ports, config, rng, log=log, predict_fn=predict_fn, pool=pool)
        return True

    def merging(rng: np.random.Generator) -> bool:
        if not config.enable_merging:
            _skip_merging(log, iterations, reason="merging disabled")
            return False
        try:
            merging_stage(tree, mem, ports, config, rng, ctx=ctx, log=log, pool=pool)
        except InsufficientParents:
            _skip_merging(log, iterations, reason="fewer than two eligible feature nodes")
            return False
        return True

    for name, stage in itertools.cycle((("adding", adding), ("merging", merging))):
        if clock.exhausted():
            note_budget_out()
            break
        if stage is adding:
            iterations += 1
        tree.apply(log.append(EventKind.STAGE_STARTED, stage=name, iteration=iterations))
        stage_number += 1
        rng = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(stage_number,)))
        try:
            ran = stage(rng)
        except BudgetExhausted:
            note_budget_out()
            checkpoint()
            break
        except GeneratorFailure as exc:
            logger.warning("%s stage failed, moving on: %s", name, exc)
            failed_stages += 1
        else:
            if ran:
                failed_stages = 0
        checkpoint()
        if failed_stages >= MAX_FAILED_STAGES:
            break

    best = tree.best_evaluated_mt(ports.metric)
    stop_reason = "budget_exhausted" if budget_out else "generator_failures"
    if not budget_out:
        logger.warning("%d stages in a row failed, ending the run", failed_stages)
    log.append(
        EventKind.RUN_FINISHED,
        best_node_id=best.id if best else None,
        best_raw_score=best.raw_score if best else None,
        iterations=iterations,
        budget_exhausted=budget_out,
        # budget_exhausted alone tells a budget stop
        **({} if budget_out else {"stop_reason": stop_reason}),
    )
    log.flush()
    return RunResult(
        tree=tree,
        best_node_id=best.id if best else None,
        best_raw_score=best.raw_score if best else None,
        iterations=iterations,
        budget_exhausted=budget_out,
        stop_reason=stop_reason,
    )


def _skip_merging(log: RunLog, iteration: int, reason: str) -> None:
    log.append(EventKind.SKIPPED_STAGE, stage="merging", iteration=iteration, reason=reason)
    log.append(EventKind.STAGE_FINISHED, stage="merging", iteration=iteration,
               outcome="skipped")


# =====================================================================
# Whole-run driver
# =====================================================================

def execute_run(config: RunConfig, ports: PortSet, out_dir: Path) -> RunResult:
    """Setup → initialize → main loop, with the run directory laid out
    for later reporting and replay. A config that fails
    ``RunConfig.problems`` is ConfigInvalid before the directory is
    made.

    One pool of ``worker_count`` threads serves every evaluation of the
    run and is shut down, its jobs finished, however the run ends. The
    pool size changes wall time only: results are committed on this
    thread in node-id order, so the run directory is the same for any
    worker count.

    The log is written through one handle held for the run. It is
    flushed after every stage, and flushed and closed however the run
    ends; when a port raises, that error, not a failure of the last
    flush, is the one that propagates."""
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_config(config, out_dir / CONFIG_COPY_FILENAME)
    clock = ports.clock
    log = RunLog(clock=clock, path=out_dir / LOG_FILENAME)
    try:
        result = _search(config, ports, log)
    except BaseException:
        try:
            log.close()
        except Exception:
            logger.exception("could not write the rest of the log of a failed run")
        raise
    log.close()
    (out_dir / FINAL_SNAPSHOT_FILENAME).write_text(result.tree.snapshot(), encoding="utf-8")
    (out_dir / RESULT_FILENAME).write_text(
        json.dumps(
            {
                "best_node_id": result.best_node_id,
                "best_raw_score": result.best_raw_score,
                "iterations": result.iterations,
                "budget_exhausted": result.budget_exhausted,
                "elapsed_minutes": clock.elapsed(),
                "metric": ports.metric.to_dict(),
            },
            indent=2, sort_keys=True,
        ),
        encoding="utf-8",
    )
    return result


def _search(config: RunConfig, ports: PortSet, log: RunLog) -> RunResult:
    """The logged part of a run: setup of the ports' task,
    initialization and the main loop, on one evaluation pool."""
    subset = pipeline_setup(ports.task, config)
    log.append(
        EventKind.RUN_STARTED,
        seed=config.seed,
        budget_minutes=config.time_run_minutes,
        metric=ports.metric.to_dict(),
        task_rows=ports.task.row_count,
        # no split is chosen; the field keeps the value every run has logged
        split_strategy="random_holdout",
        subset=subset,
    )

    ctx = ContextState()
    ctx.append(SegmentTag.READER, ports.task.description)
    with _evaluation_pool(config.worker_count) as pool:
        tree = initialize_tree(ctx, ports, config, log=log, pool=pool)

        predict_fn = None
        if config.predict_before_evaluate and ports.predictor is not None:
            anchors = _build_anchors(tree, ports, config, ctx, log, pool)
            if anchors is not None:
                predictor = ports.predictor
                dataset_description = ports.task.description

                def predict_fn(text: str) -> float:
                    return predictor.predict(text, anchors, dataset_description)

        result = run_main_loop(
            tree, ctx, ports, config, log=log, predict_fn=predict_fn, pool=pool,
        )
    return result


def _build_anchors(tree, ports: PortSet, config: RunConfig, ctx, log,
                   pool: Optional[Executor]) -> Optional[tuple[Node, ...]]:
    """Anchor evaluations happen once, before the loop, outside the
    budget gate (like initialization). A failure that a port raises (an
    IdeaTreeError) while the anchors are proposed or built turns
    prediction off rather than killing the run; any other exception is
    a fault of the program and ends it."""
    try:
        return build_anchor_set(tree, ctx, ports, config, log=log, pool=pool)
    except IdeaTreeError as exc:
        logger.warning("anchor construction failed, prediction disabled: %s", exc)
        return None


# =====================================================================
# Replay
# =====================================================================

@collector_paused()
def replay(log_path: Path) -> IdeationTree:
    """Rebuild the final tree from the event log alone, no ports
    involved, reading the log as a stream. The result must match the
    run's final snapshot exactly. Runs with the garbage collector
    paused."""
    return replay_events(iter_log(Path(log_path)))


def replay_events(events: Iterable[dict]) -> IdeationTree:
    """The tree that ``events``, event records in log order, build when
    applied to an empty tree as the run applied them to its own; they
    may be any iterable, a stream from ``iter_log`` too. A record that
    does not apply is a CorruptLog naming its seq."""
    tree = IdeationTree()
    for event in events:
        try:
            tree.apply(event)
        except (IdeaTreeError, LookupError, TypeError, ValueError) as exc:
            raise CorruptLog(f"event {event.get('seq')} does not apply: {exc!r}") from exc
    if not tree.nodes:
        raise CorruptLog("log contains no proposed nodes")
    return backpropagate(tree)


@collector_paused()
def verify_replay(run_dir: Path) -> bool:
    """True iff the log replays to exactly the bytes of the final
    snapshot. The replayed tree's snapshot is compared piece by piece
    (``IdeationTree.snapshot_pieces``: the root's node, then chunks of
    ``SNAPSHOT_CHUNK`` nodes) with the file as it is read, so neither
    document is held whole, only one chunk of each. Runs with the
    garbage collector paused."""
    run_dir = Path(run_dir)
    log_path = run_dir / LOG_FILENAME
    snapshot_path = run_dir / FINAL_SNAPSHOT_FILENAME
    if not log_path.exists() or not snapshot_path.exists():
        raise MissingRunArtifacts(
            f"need both {LOG_FILENAME} and {FINAL_SNAPSHOT_FILENAME} in {run_dir}"
        )
    rebuilt = replay(log_path)
    with snapshot_path.open("rb") as fh:
        for piece in rebuilt.snapshot_pieces():
            if fh.read(len(piece)) != piece:
                return False
        return not fh.read(1)
