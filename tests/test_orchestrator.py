"""Setup, config handling, initialization, the main loop, and
log replay, mostly end to end over the synthetic ports."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import re
import sys
import tempfile
import threading
import time
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ideatree.config import RunConfig, SyntheticConfig, dump_config, load_config
from ideatree.embedding import VectorIdeaEmbedding
from ideatree.errors import (
    ConfigInvalid,
    CorruptLog,
    GeneratorFailure,
    InitializationFailure,
    MissingRunArtifacts,
    StageFailure,
)
from ideatree import config as config_module, orchestrator
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
from ideatree.scoring import BaselinePredictor
from ideatree.setup_stages import (
    TaskSpec,
    infer_metric,
    pipeline_setup,
    read_task,
)
from ideatree.tree import (
    IdeationTree,
    MetricDirection,
    MetricSpec,
    Node,
    NodeLevel,
    NodeStatus,
    ProvenanceKind,
)

from helpers import FlakyEvaluator, RecordingEvaluator, SleepyEvaluator, children


def _toy_task(rows: int) -> TaskSpec:
    return TaskSpec(description="toy task", row_count=rows)


def _sim_config(**overrides):
    doc = {
        "seed": 7,
        "clock_mode": "simulated",
        "time_run_minutes": 200.0,
        "synthetic": {"full_cost": 10.0, "debug_cost": 1.0},
    }
    doc.update(overrides)
    return RunConfig.from_dict(doc)


# ---- setup ----

def test_setup_happy_path(tmp_path):
    """A run's ``run_started`` event logs the one split strategy and
    the subset flag of its task."""
    config = _sim_config()
    execute_run(config, build_synthetic_ports(config), tmp_path)
    started = json.loads((tmp_path / LOG_FILENAME).read_text(encoding="utf-8").split("\n")[0])
    assert started["payload"]["split_strategy"] == "random_holdout"
    assert started["payload"]["subset"] is False


def test_large_dataset_gets_subset_flag():
    config = RunConfig()
    assert pipeline_setup(_toy_task(config.validator_size_threshold + 1), config) is True


def test_small_dataset_keeps_full_rows():
    config = RunConfig()
    assert pipeline_setup(_toy_task(config.validator_size_threshold), config) is False


def test_stage_failure_names_the_stage(tmp_path):
    (tmp_path / "description.txt").mkdir()
    with pytest.raises(StageFailure) as exc_info:
        read_task(tmp_path)
    assert exc_info.value.stage == "reader"
    assert "Is a directory" in str(exc_info.value)


def test_directory_reader_and_metric(tmp_path):
    (tmp_path / "description.txt").write_text(
        "Predict late deliveries.\nmetric: f1 (higher is better)\n", encoding="utf-8"
    )
    (tmp_path / "data.csv").write_text(
        "order_id,distance,late\n1,4.0,0\n2,9.5,1\n3,2.2,0\n", encoding="utf-8"
    )
    task = read_task(tmp_path)
    assert task.row_count == 3
    metric = infer_metric(task)
    assert metric.name == "f1"
    assert metric.direction is MetricDirection.HIGHER_BETTER


def test_directory_reader_requires_description(tmp_path):
    with pytest.raises(StageFailure) as exc_info:
        read_task(tmp_path)
    assert exc_info.value.stage == "reader"


@pytest.mark.parametrize("broken", ["description.txt", "data.csv"])
def test_an_unreadable_dataset_file_is_a_reader_failure(tmp_path, broken):
    (tmp_path / "description.txt").write_text("a task", encoding="utf-8")
    (tmp_path / "data.csv").write_text("a\n1\n", encoding="utf-8")
    (tmp_path / broken).write_bytes(b"\xff\xfe not utf-8")
    with pytest.raises(StageFailure) as exc_info:
        read_task(tmp_path)
    assert exc_info.value.stage == "reader"
    assert "can't decode" in str(exc_info.value)


def test_description_metric_defaults_to_accuracy():
    task = TaskSpec(description="no metric line here")
    metric = infer_metric(task)
    assert metric.name == "accuracy"
    assert metric.direction is MetricDirection.HIGHER_BETTER


def test_description_metric_parses_lower_better():
    task = TaskSpec(description="metric: rmse (lower is better)")
    metric = infer_metric(task)
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


def test_every_config_field_is_read():
    """Each config field is read somewhere in the package outside
    config.py, as ``.<field>``. A field nothing reads is a knob that
    does nothing."""
    package = Path(orchestrator.__file__).parent
    source = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py")) if path.name != "config.py"
    )
    unread = [
        f"{cls.__name__}.{f.name}"
        for cls in (RunConfig, SyntheticConfig, EndpointConfig)
        for f in dataclasses.fields(cls)
        if not re.search(rf"\.{f.name}\b", source)
    ]
    assert unread == []


def test_unknown_key_rejected():
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({"no_such_knob": 1})
    assert any("unknown key 'no_such_knob'" in p for p in exc_info.value.problems)


@pytest.mark.parametrize("section", ["synthetic", "endpoint"])
@pytest.mark.parametrize("value, problem", [
    ({"bogus": 1}, "unknown key {section}.'bogus'"),
    ([1, 2], "{section} section must be a mapping"),
], ids=["unknown key", "not a mapping"])
def test_bad_section_rejected(section, value, problem):
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({section: value})
    assert exc_info.value.problems == [problem.format(section=section)]


@pytest.mark.parametrize("doc, problem", [
    ({"memory_size": "nearest_nodes"}, "memory_size must be int, got 'nearest_nodes'"),
    ({"rag_policy": "adaptive"}, "rag_policy must be one of ['always', 'never'], got 'adaptive'"),
], ids=["nearest_nodes", "adaptive"])
def test_removed_spellings_are_refused(doc, problem):
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict(doc)
    assert exc_info.value.problems == [problem]


def test_rag_policy_defaults_to_always():
    assert RunConfig().rag_policy == "always"


def test_invalid_values_are_collected_not_first_only():
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({"number_of_ideas_data": 0, "clock_mode": "sundial"})
    problems = "\n".join(exc_info.value.problems)
    assert "number_of_ideas_data" in problems
    assert "clock_mode" in problems


@pytest.mark.parametrize("values, problem", [
    ({"validation_attempts": -1}, "validation_attempts must be non-negative"),
    ({"predict_fraction": 0.0}, "predict_fraction must be in (0, 1], got 0.0"),
    ({"predict_fraction": 1.5}, "predict_fraction must be in (0, 1], got 1.5"),
    ({"max_resplits": 2}, "unknown key 'max_resplits'"),
    ({"subset_size_in_percent": 150}, "subset_size_in_percent cannot exceed 100"),
    ({"synthetic": {"full_cost": 1.0, "debug_cost": 2.0}},
     "synthetic.debug_cost cannot exceed synthetic.full_cost"),
    ({"synthetic": {"dimension": 3, "optimum": [0.0, 0.0]}},
     "synthetic.optimum length must match synthetic.dimension"),
    ({"synthetic": {"low": 1.0, "high": 1.0}}, "synthetic.low must be below synthetic.high"),
    ({"synthetic": {"dimension": 0}}, "synthetic.dimension must be positive, got 0"),
    ({"synthetic": {"dimension": 1001}}, "synthetic.dimension cannot exceed 1000"),
    ({"synthetic": {"dimension": 2**63 - 1}}, "synthetic.dimension cannot exceed 1000"),
    ({"synthetic": {"noise_sigma": -1}}, "synthetic.noise_sigma must be non-negative"),
    ({"synthetic": {"mt_jitter": -0.1}}, "synthetic.mt_jitter must be non-negative"),
    ({"synthetic": {"merge_jitter": -0.1}}, "synthetic.merge_jitter must be non-negative"),
    ({"synthetic": {"full_cost": 0.0}}, "synthetic.full_cost must be positive, got 0.0"),
    ({"synthetic": {"debug_cost": 0.0}}, "synthetic.debug_cost must be positive, got 0.0"),
])
def test_each_invalid_value_names_its_own_rule(values, problem):
    """One bad value yields exactly its rule's problem, so the message
    points at the key to fix."""
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict(values)
    assert exc_info.value.problems == [problem]


@pytest.mark.parametrize("values, problem", [
    ({"seed": -1}, "seed must be in [0, 2**64), got -1"),
    ({"seed": 2**70}, f"seed must be in [0, 2**64), got {2**70}"),
    ({"seed": 2**64}, f"seed must be in [0, 2**64), got {2**64}"),
    ({"time_run_minutes": 2**63}, f"time_run_minutes must be in [-2**63, 2**63), got {2**63}"),
    ({"synthetic": {"optimum": [-2**63 - 1, 0.0]}},
     f"synthetic.optimum must be in [-2**63, 2**63), got {-2**63 - 1}"),
    ({"endpoint": {"max_tokens": 2**64}},
     f"endpoint.max_tokens must be in [-2**63, 2**63), got {2**64}"),
])
def test_config_integers_must_fit_the_log(values, problem):
    """An integer a run could log must read back as an integer: the seed
    in [0, 2**64), every other one in [-2**63, 2**63). A negative seed
    used to pass and fail later inside numpy's seeding."""
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict(values)
    assert exc_info.value.problems == [problem]


@pytest.mark.parametrize("name, value", [
    ("time_run_minutes", math.inf),
    ("softmax_temperature", math.nan),
    ("merge_epsilon", math.inf),
    ("runtime_error_time", math.inf),
    ("subset_size_in_percent", math.nan),
    ("predict_fraction", math.nan),
    ("synthetic.noise_sigma", math.inf),
    ("synthetic.full_cost", math.inf),
    ("synthetic.low", -math.inf),
    ("synthetic.optimum", math.nan),
    ("endpoint.timeout_s", math.inf),
    ("endpoint.temperature", math.nan),
])
def test_config_floats_must_be_finite(name, value):
    """A non-finite float passes every range check written with ``<``,
    and an infinite budget never ends a simulated run, so each float of
    the config, in its sections too, must be finite. The config is only
    validated here; no run starts."""
    section, _, key = name.rpartition(".")
    doc = {key: [value, 0.0] if key == "optimum" else value}
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({section: doc} if section else doc)
    assert f"{name} must be finite, got {value}" in exc_info.value.problems


@pytest.mark.parametrize("values, problem", [
    ({"number_of_ideas_data": "two"}, "number_of_ideas_data must be int, got 'two'"),
    ({"synthetic": {"dimension": "x"}}, "synthetic.dimension must be int, got 'x'"),
    ({"endpoint": {"timeout_s": "x"}}, "endpoint.timeout_s must be float, got 'x'"),
    ({"synthetic": {"optimum": 3}}, "synthetic.optimum must be list, got 3"),
])
def test_config_value_of_the_wrong_type_is_a_problem(values, problem):
    """Each value is checked against its field's type before any bound
    compares it, so a mistyped value is a problem, not a TypeError."""
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict(values)
    assert exc_info.value.problems == [problem]


def test_config_type_problems_are_all_named_and_an_int_is_a_float():
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({"seed": True, "clock_mode": 3, "synthetic": {"low": "a"}})
    assert exc_info.value.problems == [
        "seed must be int, got True",
        "clock_mode must be str, got 3",
        "synthetic.low must be float, got 'a'",
    ]
    assert RunConfig.from_dict({"softmax_temperature": 2}).softmax_temperature == 2


@pytest.mark.parametrize("values", [
    {"seed": 0}, {"seed": 2**64 - 1}, {"validator_size_threshold": 2**63 - 1},
    {"merge_epsilon": -2**63}, {"enable_merging": True},
])
def test_config_integers_at_their_bounds_pass(values):
    RunConfig.from_dict(values)


@pytest.mark.parametrize("optimum, problems", [
    (["a", "b"], ["synthetic.optimum must be float, got 'a'",
                  "synthetic.optimum must be float, got 'b'"]),
    ([None, 0.0], ["synthetic.optimum must be float, got None"]),
    ([True, 0.0], ["synthetic.optimum must be float, got True"]),
])
def test_config_optimum_elements_must_be_numbers(optimum, problems):
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({"synthetic": {"optimum": optimum}})
    assert exc_info.value.problems == problems


def test_every_bound_names_a_config_field():
    """A renamed field cannot leave a bound that checks nothing."""
    names = {f.name for f in dataclasses.fields(RunConfig)} | {
        f"{section}.{f.name}"
        for section, cls in (("synthetic", SyntheticConfig), ("endpoint", EndpointConfig))
        for f in dataclasses.fields(cls)
    }
    assert set(config_module._BOUNDS) - names == set()


# values of a field's annotated type, where most configs that pass live;
# no large valid int, since the synthetic ports allocate one coordinate
# per unit of synthetic.dimension
_STRINGS = st.one_of(st.text(max_size=2), st.sampled_from([
    "wall", "simulated", "nearest", "random", "never", "mt_literal", "nearest_nodes", "http://x",
]))
_FLOATS = st.one_of(st.integers(0, 6), st.floats(0, 4))
# and values of any type: ints past 64 bits, NaN and infinities too
_SCALARS = st.one_of(
    st.none(), st.booleans(), _FLOATS, st.sampled_from([2**63, 2**64, -2**63 - 1, 2**70]),
    st.floats(), _STRINGS,
)
_VALUES_BY_TYPE = {
    "bool": st.booleans(), "int": st.integers(0, 6), "float": _FLOATS, "str": _STRINGS,
    "Optional[str]": st.one_of(st.none(), _STRINGS), "list": st.lists(_SCALARS, max_size=2),
}
_ANY_VALUE = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))


def _or_any_value(strategy: st.SearchStrategy) -> st.SearchStrategy:
    """``strategy`` seven times in eight, else any value. Not st.one_of,
    which flattens _ANY_VALUE's branches beside ``strategy`` and would
    draw it one time in eight."""
    return st.integers(0, 7).flatmap(lambda draw: strategy if draw else _ANY_VALUE)


def _section_docs(cls) -> st.SearchStrategy:
    """Documents over ``cls``'s keys, each key there or not."""
    return st.fixed_dictionaries({}, optional={
        f.name: _or_any_value(_VALUES_BY_TYPE[f.type]) for f in dataclasses.fields(cls)
    })


_RUN_ENTRIES = st.sampled_from(
    [f for f in dataclasses.fields(RunConfig) if f.type in _VALUES_BY_TYPE]
).flatmap(lambda f: st.tuples(st.just(f.name), _or_any_value(_VALUES_BY_TYPE[f.type])))
# up to four top-level keys, so that some documents pass, and each section
# there or not; or else a synthetic section alone, the one the ports read
_CONFIG_DOCS = st.one_of(
    st.builds(lambda entries, sections: {**dict(entries), **sections},
              st.lists(_RUN_ENTRIES, max_size=4),
              st.fixed_dictionaries({}, optional={
                  "synthetic": _or_any_value(_section_docs(SyntheticConfig)),
                  "endpoint": _or_any_value(_section_docs(EndpointConfig)),
              })),
    _section_docs(SyntheticConfig).map(lambda doc: {"synthetic": doc}),
)


@settings(max_examples=300, deadline=None)
@given(_CONFIG_DOCS)
@example({"synthetic": {"optimum": [None, 0.0]}})
def test_a_mistyped_config_is_invalid_or_builds_its_ports(doc):
    """A config document is either refused with the list of its problems
    or builds the synthetic ports without an error."""
    try:
        config = RunConfig.from_dict(doc)
    except ConfigInvalid:
        return
    build_synthetic_ports(config)


def test_readme_config_example_is_valid():
    """README's YAML config example loads as a valid config."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (example_yaml,) = re.findall(r"```yaml\n(.*?)```", readme, re.DOTALL)
    config = RunConfig.from_dict(yaml.safe_load(example_yaml))
    assert config.endpoint.model == "some-model"


def test_min_anchors_cannot_exceed_max():
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict({"number_of_ideas_min": 6, "number_of_ideas_max": 5})


_ANCHOR_PROBLEM = (
    "number_of_ideas_min (2) exceeds the 1 anchors predict_before_evaluate can build:"
    " min(number_of_ideas_modelling, number_of_ideas_max) + number_of_ideas_data - 1")
_BATCH_PROBLEM = (
    "predict_before_evaluate needs number_of_ideas_modelling of at least 2:"
    " prediction prunes only a batch of two or more fresh MT ideas, and no"
    " batch holds more than number_of_ideas_modelling")


def test_a_predicting_config_whose_anchor_sweeps_cannot_reach_the_minimum_is_refused():
    """With one FE idea and one MT idea, the sweeps gather one anchor,
    and such a run used to turn prediction off with only a warning.
    One MT idea per batch also leaves nothing to prune, which is a
    problem of its own."""
    doc = {"number_of_ideas_data": 1, "number_of_ideas_modelling": 1,
           "predict_before_evaluate": True}
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict(doc)
    assert exc_info.value.problems == [_ANCHOR_PROBLEM, _BATCH_PROBLEM]
    RunConfig.from_dict({**doc, "predict_before_evaluate": False})
    assert RunConfig(**doc, number_of_ideas_min=1).problems() == [_BATCH_PROBLEM]
    with pytest.raises(ConfigInvalid) as exc_info:
        RunConfig.from_dict({**doc, "number_of_ideas_data": 2})
    assert exc_info.value.problems == [_BATCH_PROBLEM]


@pytest.mark.parametrize("data, modelling, most", [
    (1, 2, 1), (1, 2, 5), (2, 2, 5), (1, 3, 2), (3, 3, 4), (3, 2, 2), (2, 3, 5),
])
def test_the_anchor_rule_allows_what_the_sweeps_gather(data, modelling, most):
    """With ports that never fail, the run's anchor sweeps gather as many
    anchors as the largest number_of_ideas_min the config allows, so a
    valid config never falls back for want of anchors."""
    shape = {"number_of_ideas_data": data, "number_of_ideas_modelling": modelling,
             "number_of_ideas_max": most, "predict_before_evaluate": True}
    allowed = max(low for low in range(1, most + 2)
                  if not RunConfig(**shape, number_of_ideas_min=low).problems())
    config = _sim_config(**shape, number_of_ideas_min=1)
    ports = build_synthetic_ports(config)
    ctx = ContextState()
    tree = initialize_tree(ctx, ports, config)
    anchors = orchestrator._build_anchors(tree, ports, config, ctx, RunLog(), None)
    assert len(anchors) == allowed


def test_a_run_at_the_anchor_bound_predicts(tmp_path):
    """The smallest config the anchor rule allows at its default
    minimum builds its anchors and predicts."""
    _, out, _ = _run(tmp_path, seed=1, time_run_minutes=300.0,
                     number_of_ideas_data=1, number_of_ideas_modelling=2,
                     predict_before_evaluate=True)
    kinds = {e["kind"] for e in read_log(out / LOG_FILENAME)}
    assert EventKind.PREDICTION_MADE in kinds


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
    tree = initialize_tree(ctx, ports, config)
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
    tree = initialize_tree(ContextState(), ports, config)
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
    initialize_tree(ContextState(), dataclasses.replace(ports, evaluator=evaluator), config)
    raised = {mode for _, mode, returned in evaluator.calls if not returned}
    assert raised == {EvalMode.DEBUG, EvalMode.FULL}
    assert ports.clock.elapsed() == pytest.approx(evaluator.returned_cost())


def test_initialize_tree_raises_when_nothing_survives():
    config = _sim_config()
    ports = build_synthetic_ports(config)
    broken = FlakyEvaluator(ports.evaluator, lambda node: True)
    with pytest.raises(InitializationFailure):
        initialize_tree(ContextState(), dataclasses.replace(ports, evaluator=broken), config)


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
        ((Node, "to_record"), (MetricSpec, "orient")),
        checkpoint_every_stage=True,
    )


class _NumpyEvaluator:
    """Forwards to ``inner`` and returns its scores as ``np.float64``,
    as a port built on numpy may."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, node, mode):
        return np.float64(self.inner.evaluate(node, mode))

    def cost(self, mode):
        return self.inner.cost(mode)


class _NumpyPredictor:
    def __init__(self, inner):
        self.inner = inner

    def predict(self, *args, **kwargs):
        return np.float64(self.inner.predict(*args, **kwargs))


def test_ports_may_return_numpy_scalars(tmp_path):
    """Ports that score and predict in ``np.float64``, which the log's
    encoder refuses, run as the same ports returning floats do: the
    engine casts what they return before it logs it, so the run
    finishes, logs its predictions, replays, and writes the same bytes."""
    config = _sim_config(predict_before_evaluate=True, time_run_minutes=400.0)
    ports = build_synthetic_ports(config)
    numpy_ports = dataclasses.replace(ports, evaluator=_NumpyEvaluator(ports.evaluator),
                                      predictor=_NumpyPredictor(ports.predictor))
    execute_run(config, numpy_ports, tmp_path / "numpy")
    execute_run(config, build_synthetic_ports(config), tmp_path / "float")
    kinds = {e["kind"] for e in read_log(tmp_path / "numpy" / LOG_FILENAME)}
    assert {EventKind.NODE_EVALUATED, EventKind.PREDICTION_MADE} <= kinds
    assert verify_replay(tmp_path / "numpy")
    for name in (LOG_FILENAME, FINAL_SNAPSHOT_FILENAME):
        assert ((tmp_path / "numpy" / name).read_bytes()
                == (tmp_path / "float" / name).read_bytes())


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
                       if e["kind"] == EventKind.CHECKPOINT_WRITTEN]
        assert len(checkpoints) > 10
        assert calls["snapshot"] == 1, (budget, calls)


def test_root_mean_is_taken_once_per_run(tmp_path, monkeypatch):
    """Stages name the root by ``root_id`` and ``backpropagate`` leaves
    the root mean to be read, so a run takes that mean once, when its
    final snapshot is encoded, at a 2.5k and a 10k budget alike.
    Computing it in every ``backpropagate``, or reading ``root`` in
    stage code, fails this."""
    taken: Counter = Counter()
    settle = IdeationTree._settle_root

    def counted(tree):
        taken["mean"] += tree._root_rows is not None
        return settle(tree)

    monkeypatch.setattr(IdeationTree, "_settle_root", counted)
    for budget in (2_500.0, 10_000.0):
        taken.clear()
        _, out, result = _run(tmp_path, f"b{int(budget)}", seed=1, time_run_minutes=budget)
        assert taken["mean"] == 1, (budget, taken)
        assert result.tree.root.aggregated_score is not None
        assert taken["mean"] == 1


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


def test_a_predicting_run_embeds_each_anchor_text_once(tmp_path, monkeypatch):
    """A predicting run embeds each distinct anchor text once, however
    many predictions read it, and each candidate once per prediction.
    Sweep two runs one architecture under several feature nodes, so
    anchors share texts. Embedding every anchor on every prediction
    makes the calls grow with predictions times anchors and fails this."""
    calls: Counter = Counter()
    built: list = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    build = orchestrator.build_anchor_set

    def keeping_anchors(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(VectorIdeaEmbedding, "embed",
                        counting("embed", VectorIdeaEmbedding.embed))
    monkeypatch.setattr(BaselinePredictor, "predict",
                        counting("predict", BaselinePredictor.predict))
    monkeypatch.setattr(orchestrator, "build_anchor_set", keeping_anchors)
    _run(tmp_path, seed=1, time_run_minutes=2_500.0, predict_before_evaluate=True)
    [anchors] = built
    texts = {node.idea_text for node in anchors}
    assert calls["predict"] > len(anchors) > len(texts), (calls, len(anchors), len(texts))
    assert calls["embed"] == len(texts) + calls["predict"], (calls, len(texts))


def test_a_run_of_an_invalid_config_is_refused_before_its_directory(tmp_path):
    ports = build_synthetic_ports(RunConfig(clock_mode="simulated"))
    config = RunConfig(clock_mode="simulated", time_run_minutes=math.inf)
    with pytest.raises(ConfigInvalid) as exc_info:
        execute_run(config, ports, tmp_path / "run")
    assert exc_info.value.problems == ["time_run_minutes must be finite, got inf"]
    assert not (tmp_path / "run").exists()


def test_synthetic_ports_refuse_an_invalid_config_before_building():
    """A dimension past the bound is refused at once, not after
    building a landscape of two million coordinates."""
    config = RunConfig(synthetic=SyntheticConfig(dimension=2_000_000))
    with pytest.raises(ConfigInvalid) as exc_info:
        build_synthetic_ports(config)
    assert exc_info.value.problems == ["synthetic.dimension cannot exceed 1000"]


_COUNT_KNOBS = (
    "number_of_ideas_eda", "number_of_ideas_data", "number_of_ideas_modelling",
    "max_add_idea", "number_of_selected_node", "number_of_iterations_parents",
    "number_of_selected_node_merging", "number_of_iterations_children",
    "retrieve_n_papers", "number_rag_ideas", "memory_size",
)
_BOOL_KNOBS = (
    "predict_before_evaluate", "sample_top_proportional", "checkpoint_every_stage",
    "accelerated_debugging", "enable_merging",
)
_ENUM_KNOBS = {
    "memory_strategy": ["nearest", "farthest", "random"],
    "rag_policy": ["never", "always"],
    "selection_mode": ["fe_aggregate", "mt_literal"],
}


@st.composite
def _valid_search_docs(draw) -> dict:
    """Config documents that pass ``RunConfig.problems``, over the
    knobs of the search, at the edges of their ranges."""
    doc = {name: draw(st.integers(1, 3)) for name in _COUNT_KNOBS}
    doc.update({name: draw(st.booleans()) for name in _BOOL_KNOBS})
    doc.update({name: draw(st.sampled_from(values)) for name, values in _ENUM_KNOBS.items()})
    low, high = sorted(draw(st.lists(st.integers(1, 3), min_size=2, max_size=2)))
    if doc["predict_before_evaluate"]:
        # batches of at least two to prune, and no more anchors than
        # the two sweeps can gather
        doc["number_of_ideas_modelling"] = max(2, doc["number_of_ideas_modelling"])
        low = min(low, min(doc["number_of_ideas_modelling"], high)
                  + doc["number_of_ideas_data"] - 1)
    doc.update(
        seed=draw(st.integers(0, 2**16)),
        clock_mode="simulated",
        time_run_minutes=draw(st.sampled_from([1.0, 60.0, 100.0])),
        number_of_ideas_min=low,
        number_of_ideas_max=high,
        theta_fail=draw(st.integers(1, 3)),
        validation_attempts=draw(st.integers(0, 2)),
        predict_fraction=draw(st.sampled_from([0.01, 0.5, 1.0])),
        softmax_temperature=draw(st.sampled_from([0.01, 1.0, 50.0])),
        merge_epsilon=draw(st.sampled_from([-1.0, 0.0, 1e9])),
        worker_count=draw(st.integers(1, 2)),
        synthetic={
            "full_cost": 1.0,
            "debug_cost": draw(st.sampled_from([0.1, 1.0])),
            "noise_sigma": draw(st.sampled_from([0.0, 0.05, 1.0])),
            "mt_jitter": draw(st.sampled_from([0.0, 0.1, 2.0])),
            "merge_jitter": draw(st.sampled_from([0.0, 0.1, 2.0])),
            "merge_bonus": draw(st.sampled_from([-0.5, 0.0, 0.1, 2.0])),
        },
    )
    return doc


@settings(max_examples=60, deadline=None)
@given(_valid_search_docs(), st.booleans())
def test_every_valid_config_completes_a_run(doc, with_corpus):
    """The engine checks no range a valid config can break: any valid
    setting of the search knobs finishes a run that replays, with a
    corpus to retrieve from or without."""
    config = RunConfig.from_dict(doc)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = None
        if with_corpus:
            corpus = Path(tmp) / "corpus"
            corpus.mkdir()
            for i in range(4):
                (corpus / f"doc_{i}.txt").write_text(
                    f"title: idea {i}\n\ntree survey nodes {i}", encoding="utf-8")
        execute_run(config, build_synthetic_ports(config, corpus_dir=corpus),
                    Path(tmp) / "run")
        assert verify_replay(Path(tmp) / "run")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_proportional_resampling_falls_back_to_softmax(tmp_path, monkeypatch, seed):
    """With ``sample_top_proportional``, a merge parent with a child
    whose oriented score is not positive is resampled by softmax, and
    any other parent in proportion to its scores; the noisy landscape
    has parents of both kinds."""
    from ideatree import search

    calls = []
    real_sample_top = search.sample_top

    def recording(tree, fe_node_id, k, rng, *, metric, proportional, **kwargs):
        scores = [metric.orient(c.raw_score) for c in tree.evaluated_mt_children(fe_node_id)]
        calls.append((proportional, min(scores) > 0))
        return real_sample_top(tree, fe_node_id, k, rng, metric=metric,
                               proportional=proportional, **kwargs)

    monkeypatch.setattr(search, "sample_top", recording)
    _, out, result = _run(
        tmp_path, seed=seed, time_run_minutes=3_000.0, sample_top_proportional=True,
        synthetic={"full_cost": 10.0, "debug_cost": 1.0, "noise_sigma": 1.0})
    assert result.budget_exhausted
    assert {positive for _, positive in calls} == {True, False}
    assert all(proportional == positive for proportional, positive in calls)
    assert verify_replay(out)


def test_run_artifacts_layout(tmp_path):
    config, out, result = _run(tmp_path)
    assert (out / LOG_FILENAME).exists()
    assert (out / FINAL_SNAPSHOT_FILENAME).exists()
    assert (out / RESULT_FILENAME).exists()
    assert (out / "config.yaml").exists()
    # checkpoints are log events, not files
    assert [e for e in read_log(out / LOG_FILENAME)
            if e["kind"] == EventKind.CHECKPOINT_WRITTEN]
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
    starts = [e["payload"]["stage"] for e in read_log(out / LOG_FILENAME)
              if e["kind"] == EventKind.STAGE_STARTED]
    assert starts, "no stages ran"
    for i, stage in enumerate(starts):
        assert stage == ("adding" if i % 2 == 0 else "merging")


def test_budget_event_recorded_once(tmp_path):
    _, out, result = _run(tmp_path)
    events = read_log(out / LOG_FILENAME)
    budget_events = [e for e in events if e["kind"] == EventKind.BUDGET_EXHAUSTED]
    assert result.budget_exhausted
    assert len(budget_events) == 1
    assert budget_events[0]["payload"]["elapsed"] >= budget_events[0]["payload"]["budget"]


def test_tiny_budget_still_reports_a_best(tmp_path):
    _, out, result = _run(tmp_path, time_run_minutes=0.001)
    assert result.iterations == 0
    assert result.budget_exhausted
    assert result.best_node_id is not None
    finished = [e for e in read_log(out / LOG_FILENAME)
                if e["kind"] == EventKind.RUN_FINISHED]
    assert finished[-1]["payload"]["best_node_id"] == result.best_node_id


def test_no_stage_starts_after_budget_event(tmp_path):
    _, out, _ = _run(tmp_path)
    events = read_log(out / LOG_FILENAME)
    exhausted_seq = next(e["seq"] for e in events
                         if e["kind"] == EventKind.BUDGET_EXHAUSTED)
    late_starts = [e for e in events
                   if e["kind"] == EventKind.STAGE_STARTED and e["seq"] > exhausted_seq]
    assert late_starts == []


def test_checkpoint_best_is_monotone(tmp_path):
    _, out, _ = _run(tmp_path)
    events = read_log(out / LOG_FILENAME)
    bests = [e["payload"]["best_raw_score"] for e in events
             if e["kind"] == EventKind.CHECKPOINT_WRITTEN]
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
            captured[event["seq"]] = trees[-1].snapshot()
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
    checkpoints = [e["seq"] for e in events if e["kind"] == EventKind.CHECKPOINT_WRITTEN]
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
        last = max(e["seq"] for e in events if e["kind"] == EventKind.CHECKPOINT_WRITTEN)
        assert last == max(seq for seq, end in ends if end <= cut), cut
        assert replay_events(events[:last]).snapshot() == captured[last], cut


def test_merging_disabled_emits_skip_trio(tmp_path):
    _, out, _ = _run(tmp_path, enable_merging=False)
    events = read_log(out / LOG_FILENAME)
    skips = [e for e in events if e["kind"] == EventKind.SKIPPED_STAGE]
    assert skips and all(e["payload"]["reason"] == "merging disabled" for e in skips)
    merge_starts = [e for e in events
                    if e["kind"] == EventKind.STAGE_STARTED
                    and e["payload"]["stage"] == "merging"]
    merge_finishes = [e for e in events
                      if e["kind"] == EventKind.STAGE_FINISHED
                      and e["payload"]["stage"] == "merging"]
    assert len(merge_starts) == len(skips) == len(merge_finishes)
    assert all(e["payload"]["outcome"] == "skipped" for e in merge_finishes)


@pytest.mark.parametrize("enable_merging", [True, False])
def test_each_stage_draws_the_next_spawned_stream(tmp_path, monkeypatch, enable_merging):
    """Stage k of the run, counted from 1 with a disabled merging stage
    included, draws the stream keyed by (seed, k), whatever the stages
    before it did."""
    seen = []
    for name in ("adding_stage", "merging_stage"):
        def wrapped(*args, _real=getattr(orchestrator, name), _name=name, **kwargs):
            seen.append((_name, args[0].iteration, args[4].bit_generator.state))
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


def test_keyed_stage_stream_is_the_spawned_stream():
    """The stream keyed by stage number n is the n-th child that
    spawning from the seed hands out (child 0 went to initialization
    before streams were keyed), so keying changed no run's draws."""
    for seed in range(10):
        for n in range(1, 7):
            keyed = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
            spawned = np.random.default_rng(np.random.SeedSequence(seed).spawn(n + 1)[n])
            assert np.array_equal(keyed.random(8), spawned.random(8)), (seed, n)


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
                if e["kind"] == EventKind.STAGE_FINISHED
                and e["payload"]["outcome"] == "generator_failure"]
    assert len(failures) == 1
    assert failures[0]["payload"]["stage"] == "adding"
    # with a single feature node, the same iteration's merging phase is
    # skipped for lack of a second parent
    skips = [e for e in events if e["kind"] == EventKind.SKIPPED_STAGE]
    assert skips[0]["payload"]["reason"] == "fewer than two eligible feature nodes"
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
    ran = [e["payload"]["outcome"] for e in events
           if e["kind"] == EventKind.STAGE_FINISHED and e["payload"]["outcome"] != "skipped"]
    assert ran == ["generator_failure"] * MAX_FAILED_STAGES
    finished = events[-1]["payload"]
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
    failed = [e for e in events if e["kind"] == EventKind.STAGE_FINISHED
              and e["payload"]["outcome"] == "generator_failure"]
    assert len(failed) > MAX_FAILED_STAGES
    assert "stop_reason" not in events[-1]["payload"]


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
              if e["kind"] == EventKind.STAGE_STARTED]
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
    assert events[-1]["kind"] != EventKind.RUN_FINISHED
    started = max(i for i, e in enumerate(events) if e["kind"] == EventKind.STAGE_STARTED)
    assert events[started]["payload"] == {"stage": "adding", "iteration": 2}
    stage = events[started + 1:]
    assert EventKind.STAGE_FINISHED not in {e["kind"] for e in stage}
    proposed = [e["payload"]["node"]["id"] for e in stage if e["kind"] == EventKind.NODE_PROPOSED]
    assert ports.evaluator.raised_on.id in proposed
    # the stage before it was flushed whole, with its checkpoint
    assert EventKind.CHECKPOINT_WRITTEN in {e["kind"] for e in events[:started]}


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
    assert events[-1]["kind"] == EventKind.CHECKPOINT_WRITTEN


# ---- prediction wiring ----

def test_prediction_gating_produces_prediction_events(tmp_path):
    _, out, result = _run(tmp_path, predict_before_evaluate=True)
    events = read_log(out / LOG_FILENAME)
    predictions = [e for e in events if e["kind"] == EventKind.PREDICTION_MADE]
    assert predictions
    evaluated_ids = {e["payload"]["node_id"] for e in events
                     if e["kind"] == EventKind.NODE_EVALUATED}
    # every prediction refers to a proposed node, and pruned nodes
    # (predicted but never evaluated) must exist for gating to matter
    predicted_ids = {e["payload"]["node_id"] for e in predictions}
    assert predicted_ids - evaluated_ids, "gating never pruned anything"
    assert verify_replay(out)


class _AnchorProposalFails:
    """The synthetic generator, but its ``propose_mt`` call numbered
    ``failing`` (from 1) raises GeneratorFailure."""

    def __init__(self, inner, failing: int):
        self.inner, self.failing, self.calls = inner, failing, 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def propose_mt(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.failing:
            raise GeneratorFailure("no architectures for the anchors")
        return self.inner.propose_mt(*args, **kwargs)


def test_a_port_failure_proposing_anchors_turns_prediction_off(tmp_path, caplog):
    """Initialization proposes MT ideas once per FE idea; the next
    ``propose_mt`` call is the anchor sweep's. Its GeneratorFailure
    turns prediction off, as a failed anchor evaluation would, and the
    run goes on."""
    config = _sim_config(predict_before_evaluate=True)
    ports = build_synthetic_ports(config)
    gen = _AnchorProposalFails(ports.gen, failing=config.number_of_ideas_data + 1)
    with caplog.at_level("WARNING", logger="ideatree.orchestrator"):
        execute_run(config, dataclasses.replace(ports, gen=gen), tmp_path / "run")
    assert "prediction disabled: no architectures for the anchors" in caplog.text
    kinds = {e["kind"] for e in read_log(tmp_path / "run" / LOG_FILENAME)}
    assert EventKind.PREDICTION_MADE not in kinds
    assert EventKind.RUN_FINISHED in kinds
    assert verify_replay(tmp_path / "run")


class _AnchorProposalEmpty(_AnchorProposalFails):
    """The synthetic generator, but its ``propose_mt`` call numbered
    ``failing`` (from 1) proposes nothing."""

    def propose_mt(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.failing:
            return []
        return self.inner.propose_mt(*args, **kwargs)


def test_an_empty_anchor_proposal_turns_prediction_off(tmp_path, caplog):
    """An anchor sweep with no architecture to run scores no anchor,
    and turns prediction off with the warning a failed sweep gives; the
    run goes on."""
    config = _sim_config(predict_before_evaluate=True)
    ports = build_synthetic_ports(config)
    gen = _AnchorProposalEmpty(ports.gen, failing=config.number_of_ideas_data + 1)
    with caplog.at_level("WARNING", logger="ideatree.orchestrator"):
        execute_run(config, dataclasses.replace(ports, gen=gen), tmp_path / "run")
    assert ("prediction disabled: the architecture sweep scored no anchor out of 0 proposed"
            " architectures") in caplog.text
    kinds = {e["kind"] for e in read_log(tmp_path / "run" / LOG_FILENAME)}
    assert EventKind.PREDICTION_MADE not in kinds
    assert EventKind.RUN_FINISHED in kinds
    assert verify_replay(tmp_path / "run")


def test_a_program_fault_building_anchors_ends_the_run(tmp_path, monkeypatch):
    """Only the failures ports raise turn prediction off: a TypeError
    from building the anchor set is a fault, and ends the run."""
    def broken(*args, **kwargs):
        raise TypeError("a bug in the anchor path")

    monkeypatch.setattr(orchestrator, "build_anchor_set", broken)
    config = _sim_config(predict_before_evaluate=True)
    with pytest.raises(TypeError, match="a bug in the anchor path"):
        execute_run(config, build_synthetic_ports(config), tmp_path / "run")


def test_children_come_in_ascending_id_order(tmp_path):
    """``sample_top`` draws over ``evaluated_mt_children`` as it comes,
    so its order must be ascending id: every node a run attaches takes
    the next id, merged FE nodes' resampled children too."""
    _, _, result = _run(tmp_path, seed=3, time_run_minutes=1_000.0)
    tree = result.tree
    merged = [fe for fe in tree.fe_nodes() if fe.provenance.kind is ProvenanceKind.MERGED]
    assert any(len(tree.evaluated_mt_children(fe.id)) > 1 for fe in merged)
    for fe in tree.fe_nodes():
        ids = [child.id for child in children(tree, fe.id)]
        assert ids == sorted(ids)
        assert [c.id for c in tree.evaluated_mt_children(fe.id)] == [
            i for i in ids if tree.nodes[i].status is NodeStatus.EVALUATED]


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
        lines[0] = lines[0].replace('"log_schema":2', '"log_schema":99')
    else:
        lines = []
    log_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(CorruptLog):
        read_log(log_path, partial=True)


_ROOT_RECORD = {"kind": "node_proposed", "seq": 0, "ts": 0.0, "payload": {"node": {
    "created_iteration": 0, "id": 0, "idea_text": "root", "level": "eda", "parent_id": None,
    "provenance": {"kind": "generated", "sources": []}, "status": "implemented"}}}


@pytest.mark.parametrize("kind, payload", [
    ("node_evaluated", {"node_id": 99, "raw_score": 0.5, "status": "evaluated"}),
    ("node_evaluated", {"node_id": 0, "raw_score": None, "status": "evaluated"}),
    ("prediction_made", {"node_id": 99, "predicted": 0.5}),
    ("stage_started", {"stage": "adding"}),
    ("node_proposed", {}),
    ("node_proposed", {"node": {**_ROOT_RECORD["payload"]["node"], "id": 1}}),
], ids=["evaluated unknown node", "evaluated without a score", "prediction for unknown node",
        "stage without iteration", "proposed without node", "second root"])
def test_replay_of_a_record_that_does_not_apply_is_a_corrupt_log(kind, payload):
    record = {"kind": kind, "seq": 1, "ts": 0.0, "payload": payload}
    with pytest.raises(CorruptLog, match="event 1 does not apply"):
        replay_events([_ROOT_RECORD, record])


def test_replay_needs_the_root_first_and_some_node():
    fe = {**_ROOT_RECORD["payload"]["node"], "level": "fe", "parent_id": 0}
    with pytest.raises(CorruptLog, match="event 0 does not apply"):
        replay_events([{**_ROOT_RECORD, "payload": {"node": {**fe, "parent_id": None}}}])
    with pytest.raises(CorruptLog, match="event 0 does not apply"):
        replay_events([{**_ROOT_RECORD, "payload": {"node": fe}}])
    stage = {"kind": "stage_started", "seq": 0, "ts": 0.0,
             "payload": {"stage": "adding", "iteration": 1}}
    with pytest.raises(CorruptLog, match="log contains no proposed nodes"):
        replay_events([stage])


class _NonFiniteOnCall:
    """Forwards to ``inner``, but its ``call``-th call returns NaN."""

    def __init__(self, inner, call: int):
        self.inner = inner
        self.call = call
        self.calls = 0
        self.failed_id = None

    def evaluate(self, node, mode):
        self.calls += 1
        if self.calls == self.call:
            self.failed_id = node.id
            return math.nan
        return self.inner.evaluate(node, mode)

    def cost(self, mode):
        return self.inner.cost(mode)


def test_a_non_finite_score_fails_its_node_and_the_run_goes_on(tmp_path):
    config = _sim_config()
    ports = build_synthetic_ports(config)
    ports.evaluator = _NonFiniteOnCall(ports.evaluator, call=20)
    out = tmp_path / "run"
    result = execute_run(config, ports, out)
    node_id = ports.evaluator.failed_id
    assert node_id is not None and result.budget_exhausted
    assert result.tree.nodes[node_id].status is NodeStatus.FAILED
    (event,) = [e for e in read_log(out / LOG_FILENAME)
                if e["kind"] == EventKind.NODE_EVALUATED and e["payload"]["node_id"] == node_id]
    assert event["payload"]["error"] == "evaluator returned nan"
    assert verify_replay(out)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    workers=st.sampled_from([1, 2]),
    predict=st.booleans(),
    attempts=st.integers(0, 1),
    merging=st.booleans(),
    selection_mode=st.sampled_from(["fe_aggregate", "mt_literal"]),
    budget=st.floats(150.0, 1000.0),
)
def test_replaying_a_log_prefix_gives_the_tree_the_run_held(
        seed, workers, predict, attempts, merging, selection_mode, budget):
    """For any run and any ``stage_finished`` record in its log, the log
    replayed up to that record is the tree the run held there, byte for
    byte: the property resuming a run from its log rests on."""
    trees: list[IdeationTree] = []
    captured: dict[int, str] = {}
    initialize = orchestrator.initialize_tree
    append = RunLog.append

    def keeping_tree(*args, **kwargs):
        trees.append(initialize(*args, **kwargs))
        return trees[-1]

    def capturing(log, kind, **payload):
        event = append(log, kind, **payload)
        if kind is EventKind.STAGE_FINISHED:
            captured[event["seq"]] = trees[-1].snapshot()
        return event

    config = _sim_config(seed=seed, worker_count=workers, predict_before_evaluate=predict,
                         validation_attempts=attempts, enable_merging=merging,
                         selection_mode=selection_mode, time_run_minutes=budget)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(orchestrator, "initialize_tree", keeping_tree)
        patch.setattr(RunLog, "append", capturing)
        execute_run(config, build_synthetic_ports(config), Path(tmp) / "run")
        events = read_log(Path(tmp) / "run" / LOG_FILENAME)
    finished = [e["seq"] for e in events if e["kind"] == EventKind.STAGE_FINISHED]
    assert finished and sorted(captured) == finished
    for seq in finished:
        assert replay_events(events[:seq + 1]).snapshot() == captured[seq]


def test_replay_requires_artifacts(tmp_path):
    with pytest.raises(MissingRunArtifacts):
        verify_replay(tmp_path)
