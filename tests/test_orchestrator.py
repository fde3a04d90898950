"""Setup pipeline, config handling, initialization, the main loop, and
log replay, mostly end to end over the synthetic ports."""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import random
import re
import sys
import threading
import time
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ideatree.config import RunConfig, SyntheticConfig, dump_config, load_config
from ideatree.errors import (
    ConfigInvalid,
    CorruptLog,
    GeneratorFailure,
    InitializationFailure,
    MissingRunArtifacts,
    ResplitsExhausted,
    StageFailure,
)
from ideatree import orchestrator
from ideatree.evaluation import EvalMode
from ideatree.events import EventKind, RunLog, read_log
from ideatree.generation import ContextState, EndpointConfig, SegmentTag
from ideatree.orchestrator import (
    FINAL_SNAPSHOT_FILENAME,
    LOG_FILENAME,
    MAX_FAILED_STAGES,
    RESULT_FILENAME,
    build_synthetic_ports,
    execute_run,
    initialize_tree,
    replay,
    replay_events,
    verify_replay,
)
from ideatree import retrieval
from ideatree.retrieval import FileCorpusRetriever
from ideatree.setup_stages import (
    BaselineResult,
    BaselineVerdict,
    DescriptionMetric,
    DirectoryReader,
    RotatingValidator,
    ScriptedBaseliner,
    SetupStages,
    SplitPlan,
    StaticMetric,
    StaticReader,
    TaskSpec,
    pipeline_setup,
)
from ideatree.tree import (
    IdeationTree,
    MetricDirection,
    MetricSpec,
    Node,
    NodeLevel,
    NodeStatus,
)

from helpers import HIGHER, FlakyEvaluator, RecordingEvaluator, SleepyEvaluator

RESPLIT = BaselineVerdict.RESPLIT_REQUESTED
OK = BaselineVerdict.SPLIT_OK


def _stages(rows=100, verdicts=(OK,), validator=None):
    task = TaskSpec(description="toy task", schema={"a": "float"}, row_count=rows)
    return SetupStages(
        reader=StaticReader(task),
        metric=StaticMetric(HIGHER),
        validator=validator or RotatingValidator(),
        baseliner=ScriptedBaseliner(verdicts=verdicts),
    )


def _sim_config(**overrides):
    doc = {
        "seed": 7,
        "clock_mode": "simulated",
        "time_run_minutes": 200.0,
        "synthetic": {"full_cost": 10.0, "debug_cost": 1.0},
    }
    doc.update(overrides)
    return RunConfig.from_dict(doc)


# ---- setup pipeline ----

def test_setup_happy_path():
    result = pipeline_setup(".", _stages(), RunConfig())
    assert result.validator_runs == 1
    assert result.plan.strategy == "random_holdout"
    assert not result.plan.use_subset
    assert result.baseline.verdict is OK


def test_large_dataset_gets_subset_flag():
    config = RunConfig()
    result = pipeline_setup(".", _stages(rows=20_000), config)
    assert result.plan.use_subset
    assert result.plan.subset_percent == config.subset_size_in_percent


def test_small_dataset_keeps_full_rows():
    config = RunConfig()
    result = pipeline_setup(".", _stages(rows=config.validator_size_threshold), config)
    assert not result.plan.use_subset


def test_resplit_rotates_strategy():
    result = pipeline_setup(".", _stages(verdicts=(RESPLIT, OK)), RunConfig())
    assert result.validator_runs == 2
    assert result.plan.strategy == "stratified_holdout"


def test_resplits_exhausted_after_bounded_retries():
    calls = []

    @dataclass
    class CountingValidator:
        inner: RotatingValidator

        def split(self, task, attempt):
            calls.append(attempt)
            return self.inner.split(task, attempt)

    stages = _stages(verdicts=(RESPLIT,),
                     validator=CountingValidator(RotatingValidator()))
    with pytest.raises(ResplitsExhausted):
        pipeline_setup(".", stages, RunConfig())
    # first split plus max_resplits retries
    assert calls == [0, 1, 2]


def test_stage_failure_names_the_stage():
    class BrokenReader:
        def read(self, dataset_dir):
            raise ValueError("no such dataset")

    stages = _stages()
    stages.reader = BrokenReader()
    with pytest.raises(StageFailure) as exc_info:
        pipeline_setup(".", stages, RunConfig())
    assert exc_info.value.stage == "reader"
    assert "no such dataset" in str(exc_info.value)


def test_directory_reader_and_metric(tmp_path):
    (tmp_path / "description.txt").write_text(
        "Predict late deliveries.\nmetric: f1 (higher is better)\n", encoding="utf-8"
    )
    (tmp_path / "data.csv").write_text(
        "order_id,distance,late\n1,4.0,0\n2,9.5,1\n3,2.2,0\n", encoding="utf-8"
    )
    (tmp_path / "sample_submission.csv").write_text(
        "order_id,late\n1,0\n", encoding="utf-8"
    )
    task = DirectoryReader().read(tmp_path)
    assert task.row_count == 3
    assert set(task.schema) == {"order_id", "distance", "late"}
    metric, checks = DescriptionMetric(dataset_dir=tmp_path).infer(task)
    assert metric.name == "f1"
    assert metric.direction is MetricDirection.HIGHER_BETTER
    assert len(checks) == 2


def test_directory_reader_requires_description(tmp_path):
    stages = _stages()
    stages.reader = DirectoryReader()
    with pytest.raises(StageFailure) as exc_info:
        pipeline_setup(tmp_path, stages, RunConfig())
    assert exc_info.value.stage == "reader"


def test_description_metric_defaults_to_accuracy():
    task = TaskSpec(description="no metric line here")
    metric, _ = DescriptionMetric().infer(task)
    assert metric.name == "accuracy"
    assert metric.direction is MetricDirection.HIGHER_BETTER


def test_description_metric_parses_lower_better():
    task = TaskSpec(description="metric: rmse (lower is better)")
    metric, _ = DescriptionMetric().infer(task)
    assert metric.name == "rmse"
    assert metric.direction is MetricDirection.LOWER_BETTER


# ---- config ----

def test_documented_defaults():
    config = RunConfig()
    assert config.time_run_minutes == 360.0
    assert config.runtime_error_time == 30.0
    assert config.subset_size_in_percent == 10.0
    assert config.validator_size_threshold == 10_000
    assert config.number_of_ideas_eda == 5
    assert config.number_of_ideas_data == 2
    assert config.number_of_ideas_modelling == 2
    assert config.max_add_idea == 2
    assert config.number_of_selected_node == 2
    assert config.number_of_iterations_parents == 2
    assert config.number_of_selected_node_merging == 2
    assert config.number_of_iterations_children == 3
    assert config.number_of_ideas_min == 2
    assert config.number_of_ideas_max == 5
    assert config.retrieve_n_papers == 3
    assert config.number_rag_ideas == 5


def test_named_accessors_track_their_fields():
    config = RunConfig(number_of_iterations_parents=4,
                       number_of_iterations_children=6,
                       number_rag_ideas=9)
    assert config.parent_window == 4
    assert config.resample_count == 6
    assert config.external_idea_cap == 9


def test_every_config_field_is_read():
    """Each config field is read somewhere in the package outside
    config.py, as ``.<field>`` or through a RunConfig property that
    returns it. A field nothing reads is a knob that does nothing."""
    package = Path(orchestrator.__file__).parent
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py")) if path.name != "config.py"
    )
    aliases: dict[str, list[str]] = {}
    for name, member in vars(RunConfig).items():
        if isinstance(member, property):
            for field_name in re.findall(r"self\.(\w+)", inspect.getsource(member.fget)):
                aliases.setdefault(field_name, []).append(name)
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in (RunConfig, SyntheticConfig, EndpointConfig)
        for f in dataclasses.fields(cls)
        if not any(re.search(rf"\.{name}\b", source)
                   for name in [f.name, *aliases.get(f.name, [])])
    ]
    assert unread == []


def test_unknown_key_rejected():
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({"no_such_knob": 1})
    assert any("unknown key 'no_such_knob'" in p for p in exc_info.value.problems)


def test_unknown_synthetic_key_rejected():
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({"synthetic": {"bogus": 1}})
    assert any("synthetic.'bogus'" in p for p in exc_info.value.problems)


def test_memory_size_accepts_nearest_nodes_alias():
    config = RunConfig.from_dict({"memory_size": "nearest_nodes"})
    assert config.memory_size == RunConfig.memory_size
    assert config.memory_strategy == "nearest"


def test_invalid_values_are_collected_not_first_only():
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({"number_of_ideas_data": 0, "clock_mode": "sundial"})
    problems = "\n".join(exc_info.value.problems)
    assert "number_of_ideas_data" in problems
    assert "clock_mode" in problems


def test_min_anchors_cannot_exceed_max():
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict({"number_of_ideas_min": 6, "number_of_ideas_max": 5})


def test_config_yaml_roundtrip(tmp_path):
    config = _sim_config(seed=123, predict_before_evaluate=True)
    path = tmp_path / "run.yaml"
    dump_config(config, path)
    loaded = load_config(path)
    assert loaded.to_dict() == config.to_dict()


def test_config_json_load(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 9, "theta_fail": 1}), encoding="utf-8")
    config = load_config(path)
    assert config.seed == 9
    assert config.theta_fail == 1


def test_config_parse_error(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("seed: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigInvalid):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ConfigInvalid):
        load_config("/nonexistent/run.yaml")


def test_synthetic_section_must_be_mapping():
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict({"synthetic": "fast"})


# ---- initialization ----

def test_initialize_tree_shape():
    config = _sim_config()
    ports = build_synthetic_ports(config)
    ctx = ContextState()
    import numpy as np

    tree = initialize_tree(ctx, ports.gen, ports.evaluator, config,
                           np.random.default_rng(0), metric=ports.metric)
    fe_nodes = tree.fe_nodes()
    assert len(fe_nodes) == config.number_of_ideas_data
    mt_nodes = tree.nodes_at_level(NodeLevel.MT)
    assert len(mt_nodes) == config.number_of_ideas_data * config.number_of_ideas_modelling
    assert all(n.status is NodeStatus.EVALUATED for n in mt_nodes)
    assert all(n.aggregated_score is not None for n in fe_nodes)
    eda_notes = [s for s in ctx.segments if s.tag is SegmentTag.EDA]
    assert len(eda_notes) == config.number_of_ideas_eda


def test_initialize_tree_charges_but_ignores_budget():
    config = _sim_config(time_run_minutes=0.001)
    ports = build_synthetic_ports(config)
    import numpy as np

    tree = initialize_tree(ContextState(), ports.gen, ports.evaluator, config,
                           np.random.default_rng(0), metric=ports.metric, clock=ports.clock)
    assert tree.best_evaluated_mt(ports.metric) is not None
    assert ports.clock.elapsed() > config.time_run_minutes


def test_initialize_tree_charges_each_returned_call():
    """Initialization charges ``cost(mode)`` for every debug and full
    call that returned, and nothing for a call that raised."""
    config = _sim_config(validation_attempts=2, number_of_ideas_data=3,
                         number_of_ideas_modelling=3)
    ports = build_synthetic_ports(config)
    evaluator = RecordingEvaluator(
        ports.evaluator,
        fail=lambda node, mode: zlib.crc32(f"{node.idea_text}|{mode.value}".encode()) % 4 == 0,
    )
    import numpy as np

    initialize_tree(ContextState(), ports.gen, evaluator, config,
                    np.random.default_rng(0), metric=ports.metric, clock=ports.clock)
    raised = {mode for _, mode, returned in evaluator.calls if not returned}
    assert raised == {EvalMode.DEBUG, EvalMode.FULL}
    assert ports.clock.elapsed() == pytest.approx(evaluator.returned_cost())


def test_initialize_tree_raises_when_nothing_survives():
    config = _sim_config()
    ports = build_synthetic_ports(config)
    broken = FlakyEvaluator(ports.evaluator, lambda node: True)
    import numpy as np

    with pytest.raises(InitializationFailure):
        initialize_tree(ContextState(), ports.gen, broken, config,
                        np.random.default_rng(0), metric=ports.metric)


# ---- whole runs ----

def _run(tmp_path, name="run", corpus_dir=None, **overrides):
    config = _sim_config(**overrides)
    ports = build_synthetic_ports(config, corpus_dir=corpus_dir)
    out = tmp_path / name
    result = execute_run(config, ports, out)
    return config, out, result


def _assert_calls_per_node_flat(tmp_path, monkeypatch, targets, **overrides) -> None:
    """Calls of each ``(owner, name)`` target per tree node, from any
    module, stay flat from a seeded 2.5k run to a 10k one (about 510
    and 2,090 nodes)."""
    calls: Counter = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    per_node = {}
    for budget in (2_500.0, 10_000.0):
        calls.clear()
        _, _, result = _run(tmp_path, f"b{int(budget)}", seed=1,
                            time_run_minutes=budget, **overrides)
        nodes = len(result.tree.nodes)
        per_node[budget] = {name: calls[name] / nodes for _, name in targets}
    for name, small in per_node[2_500.0].items():
        large = per_node[10_000.0][name]
        assert large <= 1.25 * small + 1.0, (name, per_node)
        assert large <= 5.0, (name, per_node)


def test_engine_calls_per_node_stay_flat(tmp_path, monkeypatch):
    """Bookkeeping calls grow linearly with the tree: quadrupling the
    budget leaves the calls per node flat. Rescanning every FE node per
    backpropagate makes them grow with the tree and fails this. The
    merge-pair draw calls no method per pair, so it is not counted."""
    _assert_calls_per_node_flat(
        tmp_path, monkeypatch,
        ((IdeationTree, "evaluated_mt_children"),),
        checkpoint_every_stage=False,
    )


def test_checkpoint_calls_per_node_stay_flat(tmp_path, monkeypatch):
    """With a checkpoint after every stage, node encodes and score
    orientations per node stay flat: a checkpoint encodes no node, the
    best node it records is a running best, and the softmax selection
    orients the FE table's scored aggregates in one array call per
    stage. Every orientation counts, from any module. Encoding the tree
    per checkpoint, scanning every MT node for the best, or orienting
    each FE node on its own per stage makes them grow with the tree and
    fails this."""
    _assert_calls_per_node_flat(
        tmp_path, monkeypatch,
        ((Node, "to_dict"), (MetricSpec, "orient")),
        checkpoint_every_stage=True,
    )


def test_snapshot_runs_once_per_run(tmp_path, monkeypatch):
    """With a checkpoint after every stage, a run encodes the whole
    tree once, for final_snapshot.json, at a 2.5k and a 10k budget
    alike. Writing a snapshot per checkpoint fails this."""
    calls: Counter = Counter()
    snapshot = IdeationTree.snapshot

    def counted(tree):
        calls["snapshot"] += 1
        return snapshot(tree)

    monkeypatch.setattr(IdeationTree, "snapshot", counted)
    for budget in (2_500.0, 10_000.0):
        calls.clear()
        _, out, _ = _run(tmp_path, f"b{int(budget)}", seed=1, time_run_minutes=budget,
                         checkpoint_every_stage=True)
        checkpoints = [e for e in read_log(out / LOG_FILENAME)
                       if e.kind is EventKind.CHECKPOINT_WRITTEN]
        assert len(checkpoints) > 10
        assert calls["snapshot"] == 1, (budget, calls)


def test_corpus_is_read_once_per_run(tmp_path, monkeypatch):
    """A run parses each corpus file once, however many stages query the
    corpus. Reading the directory again per query makes the parses grow
    with the run (files times queries) and fails this."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(4):
        (corpus / f"doc_{i}.txt").write_text(
            f"source: papers\ntitle: idea {i}\n\ntree survey nodes {i}", encoding="utf-8")
    calls: Counter = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(retrieval, "_parse_document",
                        counting("parse", retrieval._parse_document))
    monkeypatch.setattr(FileCorpusRetriever, "retrieve",
                        counting("retrieve", FileCorpusRetriever.retrieve))
    for budget in (2_500.0, 10_000.0):
        calls.clear()
        _run(tmp_path, f"b{int(budget)}", corpus_dir=corpus, seed=1,
             time_run_minutes=budget, rag_policy="always")
        assert calls["retrieve"] > 1, calls
        assert calls["parse"] == 4, (budget, calls)


def test_run_artifacts_layout(tmp_path):
    config, out, result = _run(tmp_path)
    assert (out / LOG_FILENAME).exists()
    assert (out / FINAL_SNAPSHOT_FILENAME).exists()
    assert (out / RESULT_FILENAME).exists()
    assert (out / "config.yaml").exists()
    # checkpoints are log events, not files
    assert [e for e in read_log(out / LOG_FILENAME)
            if e.kind is EventKind.CHECKPOINT_WRITTEN]
    assert not (out / "checkpoints").exists()
    assert sorted(p.name for p in out.iterdir()) == sorted(
        (LOG_FILENAME, FINAL_SNAPSHOT_FILENAME, RESULT_FILENAME, "config.yaml"))
    written = json.loads((out / RESULT_FILENAME).read_text(encoding="utf-8"))
    assert written["best_node_id"] == result.best_node_id
    assert written["best_raw_score"] == result.best_raw_score
    assert written["iterations"] == result.iterations
    assert written["budget_exhausted"] is True
    reloaded = load_config(out / "config.yaml")
    assert reloaded.to_dict() == config.to_dict()


def test_stages_alternate_adding_then_merging(tmp_path):
    _, out, result = _run(tmp_path)
    assert result.iterations >= 2
    starts = [e.payload["stage"] for e in read_log(out / LOG_FILENAME)
              if e.kind is EventKind.STAGE_STARTED]
    assert starts, "no stages ran"
    for i, stage in enumerate(starts):
        assert stage == ("adding" if i % 2 == 0 else "merging")


def test_budget_event_recorded_once(tmp_path):
    _, out, result = _run(tmp_path)
    events = read_log(out / LOG_FILENAME)
    budget_events = [e for e in events if e.kind is EventKind.BUDGET_EXHAUSTED]
    assert result.budget_exhausted
    assert len(budget_events) == 1
    assert budget_events[0].payload["elapsed"] >= budget_events[0].payload["budget"]


def test_tiny_budget_still_reports_a_best(tmp_path):
    _, out, result = _run(tmp_path, time_run_minutes=0.001)
    assert result.iterations == 0
    assert result.budget_exhausted
    assert result.best_node_id is not None
    finished = [e for e in read_log(out / LOG_FILENAME)
                if e.kind is EventKind.RUN_FINISHED]
    assert finished[-1].payload["best_node_id"] == result.best_node_id


def test_no_stage_starts_after_budget_event(tmp_path):
    _, out, _ = _run(tmp_path)
    events = read_log(out / LOG_FILENAME)
    exhausted_seq = next(e.seq for e in events
                         if e.kind is EventKind.BUDGET_EXHAUSTED)
    late_starts = [e for e in events
                   if e.kind is EventKind.STAGE_STARTED and e.seq > exhausted_seq]
    assert late_starts == []


def test_checkpoint_best_is_monotone(tmp_path):
    _, out, _ = _run(tmp_path)
    events = read_log(out / LOG_FILENAME)
    bests = [e.payload["best_raw_score"] for e in events
             if e.kind is EventKind.CHECKPOINT_WRITTEN]
    assert len(bests) >= 2
    assert all(b is not None for b in bests)
    assert all(later >= earlier for earlier, later in zip(bests, bests[1:]))


def _run_capturing_checkpoints(tmp_path, monkeypatch, name="run", **overrides):
    """A run, and the tree's snapshot taken in process at each of its
    checkpoint_written events, by event seq."""
    trees: list[IdeationTree] = []
    captured: dict[int, str] = {}
    initialize = orchestrator.initialize_tree
    append = RunLog.append

    def keeping_tree(*args, **kwargs):
        trees.append(initialize(*args, **kwargs))
        return trees[-1]

    def capturing(log, kind, **payload):
        event = append(log, kind, **payload)
        if kind is EventKind.CHECKPOINT_WRITTEN:
            captured[event.seq] = trees[-1].snapshot()
        return event

    with monkeypatch.context() as patch:
        patch.setattr(orchestrator, "initialize_tree", keeping_tree)
        patch.setattr(RunLog, "append", capturing)
        _, out, _ = _run(tmp_path, name, seed=3, time_run_minutes=600.0,
                         predict_before_evaluate=True, validation_attempts=1,
                         checkpoint_every_stage=True, **overrides)
    return out, captured


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpoints_match_log_prefix_replay(tmp_path, monkeypatch, workers):
    """The tree at each checkpoint, as the run held it, is the replay of
    the log up to that checkpoint's event, byte for byte."""
    out, captured = _run_capturing_checkpoints(tmp_path, monkeypatch, worker_count=workers)
    events = read_log(out / LOG_FILENAME)
    checkpoints = [e.seq for e in events if e.kind is EventKind.CHECKPOINT_WRITTEN]
    assert len(checkpoints) >= 4
    assert sorted(captured) == checkpoints
    for seq in checkpoints:
        assert replay_events(events[:seq]).snapshot() == captured[seq]


def test_crashed_log_replays_to_last_checkpoint(tmp_path, monkeypatch):
    """A finished log cut at any byte past its first checkpoint, as a
    crash may leave it: the partial reader and a replay up to the last
    complete checkpoint give the tree as the run held it there."""
    out, captured = _run_capturing_checkpoints(tmp_path, monkeypatch)
    data = (out / LOG_FILENAME).read_bytes()
    # seq of each checkpoint, and the offset just past its JSON object
    ends, offset = [], 0
    for seq, line in enumerate(data.splitlines(keepends=True)):
        offset += len(line)
        if seq in captured:
            ends.append((seq, offset - 1))
    assert len(ends) >= 4
    cuts = random.Random(0).sample(range(ends[0][1], len(data)), 200)
    cuts += [end + d for _, end in ends[1:] for d in (-1, 0, 1)]
    crashed = tmp_path / "crashed.jsonl"
    for cut in cuts:
        crashed.write_bytes(data[:cut])
        events = read_log(crashed, partial=True)
        last = max(e.seq for e in events if e.kind is EventKind.CHECKPOINT_WRITTEN)
        assert last == max(seq for seq, end in ends if end <= cut), cut
        assert replay_events(events[:last]).snapshot() == captured[last], cut


def test_merging_disabled_emits_skip_trio(tmp_path):
    _, out, _ = _run(tmp_path, enable_merging=False)
    events = read_log(out / LOG_FILENAME)
    skips = [e for e in events if e.kind is EventKind.SKIPPED_STAGE]
    assert skips and all(e.payload["reason"] == "merging disabled" for e in skips)
    merge_starts = [e for e in events
                    if e.kind is EventKind.STAGE_STARTED
                    and e.payload["stage"] == "merging"]
    merge_finishes = [e for e in events
                      if e.kind is EventKind.STAGE_FINISHED
                      and e.payload["stage"] == "merging"]
    assert len(merge_starts) == len(skips) == len(merge_finishes)
    assert all(e.payload["outcome"] == "skipped" for e in merge_finishes)


@pytest.mark.parametrize("enable_merging", [True, False])
def test_each_stage_draws_the_next_spawned_stream(tmp_path, monkeypatch, enable_merging):
    """Initialization draws the seed's first spawned stream and every
    stage the next one, a disabled merging stage included, so stage k of
    the run always gets spawn k whatever the stages before it did."""
    seen = []
    for name in ("adding_stage", "merging_stage"):
        def wrapped(*args, _real=getattr(orchestrator, name), _name=name, **kwargs):
            seen.append((_name, args[0].iteration, args[6].bit_generator.state))
            return _real(*args, **kwargs)
        monkeypatch.setattr(orchestrator, name, wrapped)
    config, _, _ = _run(tmp_path, enable_merging=enable_merging)
    assert {name for name, _, _ in seen} == (
        {"adding_stage", "merging_stage"} if enable_merging else {"adding_stage"})
    for name, iteration, state in seen:
        spawn = 2 * iteration - 1 if name == "adding_stage" else 2 * iteration
        expected = np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(spawn,)))
        assert state == expected.bit_generator.state, (name, iteration)


def test_generator_failure_skips_ahead_to_merging(tmp_path):
    config = _sim_config(number_of_ideas_data=1, time_run_minutes=150.0)
    ports = build_synthetic_ports(config)

    class FailSecondProposal:
        """Lets initialization through, fails the first in-loop adding
        stage, then behaves normally."""

        def __init__(self, inner):
            self.inner = inner
            self.fe_calls = 0

        def propose_fe(self, ctx, n):
            self.fe_calls += 1
            if self.fe_calls == 2:
                raise GeneratorFailure("injected outage")
            return self.inner.propose_fe(ctx, n)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    ports.gen = FailSecondProposal(ports.gen)
    out = tmp_path / "run"
    result = execute_run(config, ports, out)
    events = read_log(out / LOG_FILENAME)
    failures = [e for e in events
                if e.kind is EventKind.STAGE_FINISHED
                and e.payload["outcome"] == "generator_failure"]
    assert len(failures) == 1
    assert failures[0].payload["stage"] == "adding"
    # with a single feature node, the same iteration's merging phase is
    # skipped for lack of a second parent
    skips = [e for e in events if e.kind is EventKind.SKIPPED_STAGE]
    assert skips[0].payload["reason"] == "fewer than two eligible feature nodes"
    assert result.iterations >= 2


class _FailsAfterInit:
    """A generator whose every call raises GeneratorFailure once armed,
    or only calls of the method named ``only``. Past a hundred times
    MAX_FAILED_STAGES failed calls it raises RuntimeError, so a run that
    never stops still ends the test."""

    def __init__(self, inner, only=None):
        self.inner = inner
        self.only = only
        self.armed = False
        self.failed = 0

    def __getattr__(self, name):
        method = getattr(self.inner, name)
        if not self.armed or self.only not in (None, name):
            return method

        def failing(*args, **kwargs):
            self.failed += 1
            if self.failed > 100 * MAX_FAILED_STAGES:
                raise RuntimeError("the run did not stop")
            raise GeneratorFailure("endpoint down")
        return failing


def _run_failing_generator(tmp_path, monkeypatch, only=None, budget=500.0, **overrides):
    config = _sim_config(time_run_minutes=budget, **overrides)
    ports = build_synthetic_ports(config)
    gen = ports.gen = _FailsAfterInit(ports.gen, only=only)
    initialize = orchestrator.initialize_tree

    def arming(*args, **kwargs):
        tree = initialize(*args, **kwargs)
        gen.armed = True
        return tree

    monkeypatch.setattr(orchestrator, "initialize_tree", arming)
    out = tmp_path / "run"
    result = execute_run(config, ports, out)
    return ports, out, result


@pytest.mark.parametrize("merging", [True, False])
def test_failing_generator_ends_the_run(tmp_path, monkeypatch, merging):
    """A generator that fails every call after initialization ends the
    run after MAX_FAILED_STAGES stages; skipped merging stages do not
    break the row. A failed stage charges nothing to the clock, so
    without the cap this run never ended."""
    ports, out, result = _run_failing_generator(tmp_path, monkeypatch,
                                                enable_merging=merging)
    assert result.stop_reason == "generator_failures"
    assert not result.budget_exhausted
    assert ports.clock.elapsed() < 500.0
    events = read_log(out / LOG_FILENAME)
    ran = [e.payload["outcome"] for e in events
           if e.kind is EventKind.STAGE_FINISHED and e.payload["outcome"] != "skipped"]
    assert ran == ["generator_failure"] * MAX_FAILED_STAGES
    finished = events[-1].payload
    assert finished["stop_reason"] == "generator_failures"
    assert finished["budget_exhausted"] is False
    written = json.loads((out / RESULT_FILENAME).read_text(encoding="utf-8"))
    assert written["best_node_id"] == result.best_node_id is not None
    assert written["budget_exhausted"] is False
    assert verify_replay(out)


def test_stage_that_finishes_resets_the_failed_row(tmp_path, monkeypatch):
    """Every merging stage fails but every adding stage finishes, so no
    row of failures grows past one and the budget ends the run."""
    _, out, result = _run_failing_generator(tmp_path, monkeypatch, only="merge_fe",
                                            budget=2_500.0)
    assert result.budget_exhausted
    assert result.stop_reason == "budget_exhausted"
    events = read_log(out / LOG_FILENAME)
    failed = [e for e in events if e.kind is EventKind.STAGE_FINISHED
              and e.payload["outcome"] == "generator_failure"]
    assert len(failed) > MAX_FAILED_STAGES
    assert "stop_reason" not in events[-1].payload


def test_run_charges_every_returned_call(tmp_path):
    """Over initialization, anchors and stages, the clock ends at the
    cost of the calls that returned, each charged once."""
    config = _sim_config(predict_before_evaluate=True, validation_attempts=1,
                         time_run_minutes=400.0)
    ports = build_synthetic_ports(config)
    ports.evaluator = RecordingEvaluator(
        ports.evaluator,
        fail=lambda node, mode: zlib.crc32(f"{node.idea_text}|{mode.value}".encode()) % 4 == 0,
    )
    execute_run(config, ports, tmp_path / "run")
    calls = ports.evaluator.calls
    assert {mode for _, mode, returned in calls if not returned} == {EvalMode.DEBUG, EvalMode.FULL}
    result = json.loads((tmp_path / "run" / RESULT_FILENAME).read_text())
    assert result["elapsed_minutes"] == pytest.approx(ports.evaluator.returned_cost())


def _run_dir_files(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    extra_budget=st.floats(0.0, 300.0),
    predict=st.booleans(),
    attempts=st.integers(0, 2),
    fail_every=st.integers(3, 8),
)
def test_worker_count_changes_wall_time_only(tmp_path_factory, seed, extra_budget,
                                             predict, attempts, fail_every):
    """Runs with 1, 2 and 4 workers write the same run directory, byte
    for byte (config.yaml apart from worker_count), though the jobs
    sleep per node and so finish out of order; the clock overruns the
    budget by less than one job's cost."""
    base = tmp_path_factory.mktemp("workers")
    # initialization and anchors cost at most 2*2 jobs of 2+10 units
    # and 5 anchors of 10, so every run reaches its loop
    budget = 100.0 + extra_budget
    runs = {}
    home = os.getcwd()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 4):
            config = _sim_config(seed=seed, time_run_minutes=budget, worker_count=workers,
                                 predict_before_evaluate=predict, validation_attempts=attempts,
                                 checkpoint_every_stage=True)
            ports = build_synthetic_ports(config)
            ports.evaluator = FlakyEvaluator(
                SleepyEvaluator(ports.evaluator),
                lambda node: zlib.crc32(node.idea_text.encode()) % fail_every == 0,
            )
            # the same relative run directory, so logged paths agree
            cwd = base / f"workers{workers}"
            cwd.mkdir()
            os.chdir(cwd)
            try:
                execute_run(config, ports, Path("run"))
            except InitializationFailure:
                pass
            else:
                job_cost = attempts * config.synthetic.debug_cost + config.synthetic.full_cost
                assert ports.clock.elapsed() - budget < job_cost
            finally:
                os.chdir(home)
            files = _run_dir_files(cwd / "run")
            settings_doc = yaml.safe_load(files.pop("config.yaml"))
            assert settings_doc.pop("worker_count") == workers
            runs[workers] = (files, settings_doc)
    finally:
        sys.setswitchinterval(switch)
    assert runs[2] == runs[1]
    assert runs[4] == runs[1]


class _TimedOnlyEvaluator:
    """Sleeps ``seconds`` per call and reports no cost, as a real
    evaluator timed by a wall clock does."""

    def __init__(self, inner, seconds: float):
        self.inner = inner
        self.seconds = seconds

    def evaluate(self, node, mode):
        time.sleep(self.seconds)
        return self.inner.evaluate(node, mode)

    def cost(self, mode):
        return None


def test_wall_clock_overrun_is_one_job_with_two_workers(tmp_path):
    """On a wall clock, with two workers and jobs that report no cost,
    the run ends within one job (plus scheduling slack) of its budget.
    Projecting only with ``evaluator.cost`` commits nothing early, so
    every job dispatched before the budget passes is waited for."""
    job_s, budget_s = 0.2, 4.0
    config = RunConfig.from_dict({
        "seed": 1, "clock_mode": "wall", "time_run_minutes": budget_s / 60.0,
        "worker_count": 2, "number_of_ideas_data": 4, "number_of_ideas_modelling": 4,
    })
    ports = build_synthetic_ports(config)
    ports.evaluator = _TimedOnlyEvaluator(ports.evaluator, job_s)
    result = execute_run(config, ports, tmp_path / "run")
    overrun_s = ports.clock.elapsed() * 60.0 - budget_s
    stages = [e for e in read_log(tmp_path / "run" / LOG_FILENAME)
              if e.kind is EventKind.STAGE_STARTED]
    assert result.budget_exhausted
    assert stages, "initialization used the whole budget"
    assert overrun_s <= job_s + 0.1, overrun_s


def test_one_pool_serves_the_run_and_leaves_no_threads(tmp_path, monkeypatch):
    pools = []

    class CountedPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(orchestrator, "ThreadPoolExecutor", CountedPool)
    threads_before = set(threading.enumerate())

    class ThreadNoting:
        def __init__(self, inner):
            self.inner = inner
            self.threads = set()

        def evaluate(self, node, mode):
            self.threads.add(threading.current_thread())
            return self.inner.evaluate(node, mode)

        def cost(self, mode):
            return self.inner.cost(mode)

    config = _sim_config(worker_count=3, predict_before_evaluate=True)
    ports = build_synthetic_ports(config)
    ports.evaluator = ThreadNoting(ports.evaluator)
    execute_run(config, ports, tmp_path / "run")
    assert len(pools) == 1
    # initialization, anchors and stages all evaluated on that pool
    assert ports.evaluator.threads
    assert all(t.name.startswith("ideatree-eval") for t in ports.evaluator.threads)
    assert set(threading.enumerate()) == threads_before

    # a port that raises mid-stage: the error propagates, every job
    # that started has finished, and no thread is left
    class BreaksInTheLoop:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def merge_fe(self, a, b, ctx):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("port bug")
            return self.inner.merge_fe(a, b, ctx)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    ports = build_synthetic_ports(config)
    ports.evaluator = SleepyEvaluator(ports.evaluator, max_s=0.02)
    ports.gen = BreaksInTheLoop(ports.gen)
    with pytest.raises(RuntimeError, match="port bug"):
        execute_run(config, ports, tmp_path / "broken")
    assert ports.evaluator.started == ports.evaluator.finished > 0
    assert set(threading.enumerate()) == threads_before
    assert len(pools) == 2


def test_run_is_deterministic_per_seed(tmp_path):
    _, out_a, _ = _run(tmp_path, name="a", seed=21)
    _, out_b, _ = _run(tmp_path, name="b", seed=21)
    _, out_c, _ = _run(tmp_path, name="c", seed=22)
    snap_a = (out_a / FINAL_SNAPSHOT_FILENAME).read_bytes()
    snap_b = (out_b / FINAL_SNAPSHOT_FILENAME).read_bytes()
    snap_c = (out_c / FINAL_SNAPSHOT_FILENAME).read_bytes()
    assert snap_a == snap_b
    assert snap_a != snap_c


def test_initialization_failure_flushes_log(tmp_path):
    config = _sim_config()
    ports = build_synthetic_ports(config)
    ports.evaluator = FlakyEvaluator(ports.evaluator, lambda node: True)
    out = tmp_path / "run"
    with pytest.raises(InitializationFailure):
        execute_run(config, ports, out)
    lines = (out / LOG_FILENAME).read_text(encoding="utf-8").splitlines()
    assert lines, "log should hold the events written before the failure"
    first = json.loads(lines[0])
    assert first["kind"] == "run_started"


class _BreaksInIteration:
    """Forwards to ``inner`` until asked to evaluate a node created in
    ``iteration``, then raises RuntimeError, as a port with a bug
    would; keeps the node it raised on."""

    def __init__(self, inner, iteration: int):
        self.inner = inner
        self.iteration = iteration
        self.raised_on = None

    def evaluate(self, node, mode):
        if node.created_iteration == self.iteration:
            self.raised_on = node
            raise RuntimeError("port bug")
        return self.inner.evaluate(node, mode)

    def cost(self, mode):
        return self.inner.cost(mode)


def _fds_open_on(path: Path) -> int:
    fd_dir = Path("/proc/self/fd")
    count = 0
    for fd in fd_dir.iterdir():
        try:
            count += os.readlink(fd) == str(path)
        except OSError:  # the directory's own descriptor, gone by now
            pass
    return count


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_unexpected_port_error_flushes_and_closes_the_log(tmp_path):
    """A port error that is neither GeneratorFailure nor
    BudgetExhausted propagates, and the log keeps every event up to it:
    the stage it broke is in the log, through the node whose evaluation
    raised, and no descriptor stays open."""
    config = _sim_config()
    ports = build_synthetic_ports(config)
    ports.evaluator = _BreaksInIteration(ports.evaluator, iteration=2)
    out = tmp_path / "run"
    fds_before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(RuntimeError, match="port bug"):
        execute_run(config, ports, out)
    assert len(os.listdir("/proc/self/fd")) == fds_before
    assert _fds_open_on(out / LOG_FILENAME) == 0

    events = read_log(out / LOG_FILENAME, partial=True)
    assert events[-1].kind is not EventKind.RUN_FINISHED
    started = max(i for i, e in enumerate(events) if e.kind is EventKind.STAGE_STARTED)
    assert events[started].payload == {"stage": "adding", "iteration": 2}
    stage = events[started + 1:]
    assert EventKind.STAGE_FINISHED not in {e.kind for e in stage}
    proposed = [e.payload["node"]["id"] for e in stage if e.kind is EventKind.NODE_PROPOSED]
    assert ports.evaluator.raised_on.id in proposed
    # the stage before it was flushed whole, with its checkpoint
    assert EventKind.CHECKPOINT_WRITTEN in {e.kind for e in events[:started]}


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_port_error_propagates_when_the_last_flush_fails_too(tmp_path, monkeypatch):
    """When the flush on the way out fails as well, the port's error is
    still the one the caller sees, and the log's file is closed."""
    config = _sim_config()
    ports = build_synthetic_ports(config)
    evaluator = ports.evaluator = _BreaksInIteration(ports.evaluator, iteration=2)
    flush = RunLog.flush

    def flush_until_the_port_breaks(log):
        if evaluator.raised_on is not None:
            raise OSError("no space left on device")
        flush(log)

    monkeypatch.setattr(RunLog, "flush", flush_until_the_port_breaks)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="port bug"):
        execute_run(config, ports, out)
    assert _fds_open_on(out / LOG_FILENAME) == 0
    # the stages before the failing one were flushed
    events = read_log(out / LOG_FILENAME, partial=True)
    assert events[-1].kind is EventKind.CHECKPOINT_WRITTEN


# ---- prediction wiring ----

def test_prediction_gating_produces_prediction_events(tmp_path):
    _, out, result = _run(tmp_path, predict_before_evaluate=True)
    events = read_log(out / LOG_FILENAME)
    predictions = [e for e in events if e.kind is EventKind.PREDICTION_MADE]
    assert predictions
    evaluated_ids = {e.payload["node_id"] for e in events
                     if e.kind is EventKind.NODE_EVALUATED}
    # every prediction refers to a proposed node, and pruned nodes
    # (predicted but never evaluated) must exist for gating to matter
    predicted_ids = {e.payload["node_id"] for e in predictions}
    assert predicted_ids - evaluated_ids, "gating never pruned anything"
    assert verify_replay(out)


# ---- replay ----

def test_replay_matches_final_snapshot(tmp_path):
    _, out, _ = _run(tmp_path)
    assert verify_replay(out)
    rebuilt = replay(out / LOG_FILENAME)
    assert rebuilt.snapshot() == (out / FINAL_SNAPSHOT_FILENAME).read_text(encoding="utf-8")


def test_replay_rejects_truncated_log(tmp_path):
    _, out, _ = _run(tmp_path)
    log_path = out / LOG_FILENAME
    lines = log_path.read_text(encoding="utf-8").splitlines()
    log_path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(CorruptLog):
        verify_replay(out)


def test_replay_rejects_tampered_sequence(tmp_path):
    _, out, _ = _run(tmp_path)
    log_path = out / LOG_FILENAME
    lines = log_path.read_text(encoding="utf-8").splitlines()
    del lines[3]
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorruptLog):
        verify_replay(out)


def test_partial_read_accepts_a_crashed_log(tmp_path):
    """No run_finished and a torn last line: the strict reader rejects
    the log, the partial one drops the torn line and reads the rest."""
    _, out, _ = _run(tmp_path)
    log_path = out / LOG_FILENAME
    full = read_log(log_path)
    lines = log_path.read_text(encoding="utf-8").splitlines()
    log_path.write_text("\n".join(lines[:-2]) + "\n" + lines[-2][:25], encoding="utf-8")
    with pytest.raises(CorruptLog):
        read_log(log_path)
    assert read_log(log_path, partial=True) == full[:-2]
    log_path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert read_log(log_path, partial=True) == full[:-1]


@pytest.mark.parametrize("defect", ["gap", "bad_middle_line", "header", "schema", "empty"])
def test_partial_read_still_rejects_other_defects(tmp_path, defect):
    _, out, _ = _run(tmp_path)
    log_path = out / LOG_FILENAME
    lines = log_path.read_text(encoding="utf-8").splitlines()
    if defect == "gap":
        del lines[3]
    elif defect == "bad_middle_line":
        # a torn copy, so that dropping it would leave no gap
        lines.insert(3, lines[3][:25])
    elif defect == "header":
        lines[0] = lines[0].replace('"run_started"', '"stage_started"')
    elif defect == "schema":
        lines[0] = lines[0].replace('"log_schema": 1', '"log_schema": 99')
    else:
        lines = []
    log_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(CorruptLog):
        read_log(log_path, partial=True)


def test_replay_requires_artifacts(tmp_path):
    with pytest.raises(MissingRunArtifacts):
        verify_replay(tmp_path)
