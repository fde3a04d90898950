"""The budgeted main loop: initialize, then alternate expansion and
recombination until time runs out, checkpointing as it goes.

Everything stochastic draws from streams spawned off one seed, and every
tree mutation is mirrored into the event log, so a finished run can be
reproduced bit-for-bit or reconstructed from its log alone. The log is
the only per-stage record: a checkpoint is a ``checkpoint_written``
event, and replaying the events before it rebuilds the tree at that
stage, for a crashed run too (``iter_log(path, partial=True)``).
"""

from __future__ import annotations

import itertools
import json
import logging
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .clock import SimulatedClock, WallClock
from .config import RunConfig, dump_config
from .errors import (
    BudgetExhausted,
    CorruptLog,
    GeneratorFailure,
    InitializationFailure,
    InsufficientParents,
    MissingRunArtifacts,
)
from .evaluation import EvaluationPort, LandscapeConfig, SimulatedEvaluator
from .events import LOG_FILENAME, Event, EventKind, RunLog, collector_paused, iter_log
# read_log stays importable here for bench/rep.py, whose --trace 1
# patches it by this name
from .events import read_log  # noqa: F401
from .generation import (
    ContextState,
    ExternalQueryPolicy,
    IdeaGenerator,
    SegmentTag,
    SpaceConfig,
    SyntheticGenerator,
)
from .embedding import VectorIdeaEmbedding
from .retrieval import FileCorpusRetriever
from .scoring import AnchorSet, BaselinePredictor, Predictor, build_anchor_set, rank_fe_nodes
from .search import (
    EvalPolicy,
    MergeMemory,
    PendingSet,
    SelectionMode,
    StageParams,
    adding_stage,
    merging_stage,
)
from .setup_stages import (
    RotatingValidator,
    ScriptedBaseliner,
    SetupResult,
    SetupStages,
    StaticMetric,
    StaticReader,
    TaskSpec,
    pipeline_setup,
)
from .tree import (
    IdeationTree,
    MetricDirection,
    MetricSpec,
    Node,
    NodeLevel,
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
    """Every swappable dependency a run needs, already wired together.
    The metric here must be the one the evaluator scores with."""

    stages: SetupStages
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
    run_dir: Optional[Path] = None
    # "budget_exhausted", or "generator_failures" after MAX_FAILED_STAGES
    stop_reason: str = "budget_exhausted"
    setup: Optional[SetupResult] = None


def build_synthetic_ports(config: RunConfig, corpus_dir: Optional[Path] = None) -> PortSet:
    """Self-contained ports over the simulated landscape: no network, no
    subprocesses, deterministic for a given config."""
    syn = config.synthetic
    metric = MetricSpec("landscape_quality", MetricDirection.HIGHER_BETTER)
    clock = build_clock(config)
    space = SpaceConfig(
        dimension=syn.dimension, low=syn.low, high=syn.high,
        mt_jitter=syn.mt_jitter, merge_jitter=syn.merge_jitter,
    )
    retriever = FileCorpusRetriever(corpus_dir) if corpus_dir else None
    gen = SyntheticGenerator(space, seed=config.seed, retriever=retriever,
                             retrieve_k=config.retrieve_n_papers)
    landscape = LandscapeConfig(
        dimension=syn.dimension, optimum=tuple(syn.optimum),
        noise_sigma=syn.noise_sigma, full_cost=syn.full_cost,
        debug_cost=syn.debug_cost, merge_bonus=syn.merge_bonus,
    )
    evaluator = SimulatedEvaluator(landscape, metric, seed=config.seed)
    task = TaskSpec(
        description=f"synthetic {syn.dimension}-dimensional landscape",
        schema={f"x{i}": "float" for i in range(syn.dimension)},
        row_count=100,
    )
    stages = SetupStages(
        reader=StaticReader(task),
        metric=StaticMetric(metric),
        validator=RotatingValidator(),
        baseliner=ScriptedBaseliner(),
    )
    predictor = None
    if config.predict_before_evaluate:
        # radius a bit past the farthest corner keeps the lift curved
        # over the whole idea box
        radius = 1.25 * float(np.sqrt(syn.dimension)) * max(abs(syn.low), abs(syn.high))
        predictor = BaselinePredictor(
            embedder=VectorIdeaEmbedding(dimension=syn.dimension, radius=radius),
            temperature=0.1,
        )
    return PortSet(stages=stages, gen=gen, evaluator=evaluator, metric=metric,
                   clock=clock, predictor=predictor)


def build_clock(config: RunConfig):
    """The clock ``config.clock_mode`` names, over the run's budget."""
    if config.clock_mode == "simulated":
        return SimulatedClock(config.time_run_minutes)
    return WallClock(config.time_run_minutes)


def _eval_policy(config: RunConfig, predict_fn=None) -> EvalPolicy:
    return EvalPolicy(
        validation_attempts=config.validation_attempts,
        accelerated_debug=config.accelerated_debugging,
        predict_fn=predict_fn,
        predict_fraction=config.predict_fraction,
    )


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
    gen: IdeaGenerator,
    evaluator: EvaluationPort,
    config: RunConfig,
    *,
    metric: MetricSpec,
    log: Optional[RunLog] = None,
    root_idea: str = DEFAULT_ROOT_IDEA,
    clock=None,
    pool: Optional[Executor] = None,
) -> IdeationTree:
    """Build the starting tree: enriched root, a first rank of feature
    ideas, and fully evaluated model children under each.

    Initialization is not budget-gated (a zero-budget run still ends
    with a best node), but evaluations do charge ``clock``. They run on
    ``pool`` when given and are committed at the end. If not one model
    idea survives evaluation there is nothing to search from and
    InitializationFailure is raised.
    """
    tree = IdeationTree.create(root_idea)
    if log is not None:
        log.append(EventKind.NODE_PROPOSED, node=tree.root.to_record())
    for _ in range(config.number_of_ideas_eda):
        note = gen.enrich_eda(tree, ctx)
        if note:
            ctx.append(SegmentTag.EDA, note)
    fe_texts = gen.propose_fe(ctx, config.number_of_ideas_data)
    pending = PendingSet(tree, evaluator, _eval_policy(config), clock=clock, log=log, pool=pool)
    try:
        for fe_text in fe_texts:
            fe = tree.spawn(tree.root.id, NodeLevel.FE, fe_text)
            if log is not None:
                log.append(EventKind.NODE_PROPOSED, node=fe.to_record())
            for mt_text in gen.propose_mt(fe, ctx, config.number_of_ideas_modelling):
                node = tree.spawn(fe.id, NodeLevel.MT, mt_text)
                if log is not None:
                    log.append(EventKind.NODE_PROPOSED, node=node.to_record())
                pending.dispatch(node)
    finally:
        pending.commit()
    backpropagate(tree)
    if tree.best_evaluated_mt(metric) is None:
        raise InitializationFailure("no model idea survived initial evaluation")
    return tree


# =====================================================================
# Main loop
# =====================================================================

def run_main_loop(
    tree: IdeationTree,
    ctx: ContextState,
    ports: PortSet,
    mem: MergeMemory,
    config: RunConfig,
    clock,
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
    adding_params = StageParams(
        n_fe=config.number_of_ideas_data,
        m_mt=config.number_of_ideas_modelling,
        n_selected=config.number_of_selected_node,
        softmax_temperature=config.softmax_temperature,
        merge_epsilon=config.merge_epsilon,
    )
    merging_params = StageParams(
        n_fe=config.number_of_selected_node_merging,
        m_mt=config.number_of_ideas_modelling,
        n_selected=config.number_of_selected_node_merging,
        softmax_temperature=config.softmax_temperature,
        merge_epsilon=config.merge_epsilon,
    )
    policy = _eval_policy(config, predict_fn)
    iterations = 0
    stage_number = 0
    budget_out = False
    checkpoint_seq = 0
    failed_stages = 0

    def note_budget_out() -> None:
        nonlocal budget_out
        budget_out = True
        log.append(EventKind.BUDGET_EXHAUSTED, elapsed=clock.elapsed(),
                   budget=clock.budget)

    def checkpoint() -> None:
        nonlocal checkpoint_seq
        checkpoint_seq += 1
        if config.checkpoint_every_stage:
            best = tree.best_evaluated_mt(ports.metric)
            log.append(
                EventKind.CHECKPOINT_WRITTEN,
                sequence=checkpoint_seq,
                best_node_id=best.id if best else None,
                best_raw_score=best.raw_score if best else None,
            )
        log.flush()

    # a stage returns False when it was skipped
    def adding(rng: np.random.Generator) -> bool:
        adding_stage(
            tree, ctx, ports.gen, ports.evaluator, adding_params, ports.metric, rng,
            log=log, clock=clock, policy=policy,
            external_policy=ExternalQueryPolicy(config.rag_policy),
            external_cap=config.external_idea_cap,
            max_add=config.max_add_idea,
            parent_window=config.parent_window,
            selection_mode=SelectionMode(config.selection_mode),
            pool=pool,
        )
        return True

    def merging(rng: np.random.Generator) -> bool:
        if not config.enable_merging:
            _skip_merging(log, tree, reason="merging disabled")
            return False
        try:
            merging_stage(
                tree, mem, ports.gen, ports.evaluator, merging_params,
                ports.metric, rng,
                ctx=ctx, log=log, clock=clock, policy=policy,
                resample_k=config.resample_count,
                proportional_resample=config.sample_top_proportional,
                pool=pool,
            )
        except InsufficientParents:
            _skip_merging(log, tree, reason="fewer than two eligible feature nodes")
            return False
        return True

    for name, stage in itertools.cycle((("adding", adding), ("merging", merging))):
        if clock.exhausted():
            note_budget_out()
            break
        if stage is adding:
            iterations += 1
            tree.iteration = iterations
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


def _skip_merging(log: RunLog, tree: IdeationTree, reason: str) -> None:
    log.append(EventKind.STAGE_STARTED, stage="merging", iteration=tree.iteration)
    log.append(EventKind.SKIPPED_STAGE, stage="merging", iteration=tree.iteration,
               reason=reason)
    log.append(EventKind.STAGE_FINISHED, stage="merging", iteration=tree.iteration,
               outcome="skipped")


# =====================================================================
# Whole-run driver
# =====================================================================

def execute_run(
    config: RunConfig,
    ports: PortSet,
    out_dir: Path,
    dataset_dir: Optional[Path] = None,
) -> RunResult:
    """Setup → initialize → main loop, with the run directory laid out
    for later reporting and replay.

    One pool of ``worker_count`` threads serves every evaluation of the
    run and is shut down, its jobs finished, however the run ends. The
    pool size changes wall time only: results are committed on this
    thread in node-id order, so the run directory is the same for any
    worker count.

    The log is written through one handle held for the run. It is
    flushed after every stage, and flushed and closed however the run
    ends; when a port raises, that error, not a failure of the last
    flush, is the one that propagates."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_config(config, out_dir / CONFIG_COPY_FILENAME)
    clock = ports.clock
    log = RunLog(clock=clock, path=out_dir / LOG_FILENAME)
    try:
        setup, result = _search(config, ports, dataset_dir, log)
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
    result.run_dir = out_dir
    result.setup = setup
    return result


def _search(config: RunConfig, ports: PortSet, dataset_dir: Optional[Path],
            log: RunLog) -> tuple[SetupResult, RunResult]:
    """The logged part of a run: setup, initialization and the main
    loop, on one evaluation pool."""
    clock = ports.clock
    setup = pipeline_setup(dataset_dir or Path("."), ports.stages, config)
    log.append(
        EventKind.RUN_STARTED,
        seed=config.seed,
        budget_minutes=config.time_run_minutes,
        metric=setup.metric.to_dict(),
        task_rows=setup.task.row_count,
        split_strategy=setup.plan.strategy,
        subset=setup.plan.use_subset,
    )

    ctx = ContextState()
    ctx.append(SegmentTag.READER, setup.task.description)
    with _evaluation_pool(config.worker_count) as pool:
        tree = initialize_tree(
            ctx, ports.gen, ports.evaluator, config,
            metric=ports.metric, log=log, clock=clock, pool=pool,
        )

        predict_fn = None
        if config.predict_before_evaluate and ports.predictor is not None:
            anchor_set = _build_anchors(tree, ports, config, ctx, log, pool)
            if anchor_set is not None:
                predictor = ports.predictor
                dataset_description = setup.task.description

                def predict_fn(text: str) -> float:
                    return predictor.predict(text, anchor_set, dataset_description)

        mem = MergeMemory(theta_fail=config.theta_fail)
        result = run_main_loop(
            tree, ctx, ports, mem, config, clock,
            log=log, predict_fn=predict_fn, pool=pool,
        )
    return setup, result


def _build_anchors(tree, ports: PortSet, config: RunConfig, ctx, log,
                   pool: Optional[Executor]) -> Optional[AnchorSet]:
    """Anchor evaluations happen once, before the loop, outside the
    budget gate (like initialization). Failure to build anchors turns
    prediction off rather than killing the run."""
    anchor_fe = rank_fe_nodes(tree.fe_nodes(), ports.metric)[0]
    architectures = ports.gen.propose_mt(anchor_fe, ctx, config.number_of_ideas_modelling)
    try:
        return build_anchor_set(
            tree, ports.evaluator, architectures, ports.metric,
            min_anchors=config.number_of_ideas_min,
            max_anchors=config.number_of_ideas_max,
            log=log, clock=ports.clock, pool=pool,
        )
    except Exception as exc:
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


def replay_events(events: Iterable[Event]) -> IdeationTree:
    """The tree that ``events``, in log order, build; they may be any
    iterable, a stream from ``iter_log`` too."""
    # the kinds replay acts on, bound once rather than looked up on the
    # enum for every event
    proposed, evaluated = EventKind.NODE_PROPOSED, EventKind.NODE_EVALUATED
    predicted, started = EventKind.PREDICTION_MADE, EventKind.STAGE_STARTED
    tree: Optional[IdeationTree] = None
    for event in events:
        kind, payload = event.kind, event.payload
        if kind is proposed:
            node = Node.from_dict(payload["node"])
            if tree is None:
                if node.level is not NodeLevel.EDA:
                    raise CorruptLog("first proposed node is not the root")
                tree = IdeationTree.create(node.idea_text)
                continue
            tree.add_node(node.parent_id, node)
        elif tree is None:
            continue
        elif kind is evaluated:
            node_id = payload["node_id"]
            if payload["status"] == "evaluated":
                tree.mark_evaluated(node_id, payload["raw_score"])
            else:
                tree.mark_failed(node_id)
        elif kind is predicted:
            tree.nodes[payload["node_id"]].predicted_score = payload["predicted"]
        elif kind is started:
            tree.iteration = payload["iteration"]
    if tree is None:
        raise CorruptLog("log contains no proposed nodes")
    return backpropagate(tree)


@collector_paused()
def verify_replay(run_dir: Path) -> bool:
    """True iff the log replays to exactly the bytes of the final
    snapshot. The replayed tree's snapshot is compared piece by piece
    with the file as it is read, so neither document is held whole.
    Runs with the garbage collector paused."""
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
            # a snapshot is ASCII, so characters are bytes
            expected = piece.encode("ascii")
            if fh.read(len(expected)) != expected:
                return False
        return not fh.read(1)
