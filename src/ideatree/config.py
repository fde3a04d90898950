"""Run configuration: every tunable in one validated, serializable place.

Unknown keys are rejected rather than ignored so a typo in a config file
fails loudly before a six-hour run starts.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigInvalid
from .generation import EndpointConfig, ExternalQueryPolicy, MemoryStrategy
from .search import SelectionMode


@dataclass
class SyntheticConfig:
    """The simulated world of the synthetic ports: the idea space
    ``SyntheticGenerator`` proposes in and the landscape
    ``SimulatedEvaluator`` scores on. Ideas are points in
    ``[low, high]^dimension``; an MT idea jitters around its FE parent
    with scale ``mt_jitter``, and a merge is the midpoint, jittered with
    scale ``merge_jitter``. Quality peaks at ``optimum`` (the origin
    when empty) and decays with distance; a merged node earns
    ``merge_bonus`` times its quality, and ``noise_sigma`` scales
    Gaussian noise. An evaluation costs ``full_cost``, or ``debug_cost``
    in debug mode. ``RunConfig.problems`` holds every rule of these."""

    dimension: int = 2
    low: float = -1.0
    high: float = 1.0
    mt_jitter: float = 0.1
    merge_jitter: float = 0.0
    noise_sigma: float = 0.0
    full_cost: float = 10.0
    debug_cost: float = 1.0
    merge_bonus: float = 0.1
    optimum: list = field(default_factory=list)


@dataclass
class RunConfig:
    # budget and execution
    time_run_minutes: float = 360.0
    runtime_error_time: float = 30.0
    subset_size_in_percent: float = 10.0
    validator_size_threshold: int = 10_000

    # tree shape
    number_of_ideas_eda: int = 5
    number_of_ideas_data: int = 2
    number_of_ideas_modelling: int = 2
    max_add_idea: int = 2
    number_of_selected_node: int = 2
    # how many consecutive loop iterations a new FE node stays eligible
    # for selected-set expansion
    number_of_iterations_parents: int = 2
    number_of_selected_node_merging: int = 2
    # per merge, how many scored children are resampled from each parent
    # subtree into the merged node
    number_of_iterations_children: int = 3

    # scoring model anchors
    number_of_ideas_min: int = 2
    number_of_ideas_max: int = 5

    # retrieval
    retrieve_n_papers: int = 3
    # most externally retrieved idea segments accepted per query
    number_rag_ideas: int = 5

    # engine
    seed: int = 0
    theta_fail: int = 2
    softmax_temperature: float = 1.0
    clock_mode: str = "wall"  # wall | simulated
    worker_count: int = 1
    predict_before_evaluate: bool = False
    predict_fraction: float = 0.5
    memory_size: int = 5
    memory_strategy: str = MemoryStrategy.RANDOM.value
    merge_epsilon: float = 0.0
    rag_policy: str = ExternalQueryPolicy.ALWAYS.value
    selection_mode: str = SelectionMode.FE_AGGREGATE.value
    sample_top_proportional: bool = False
    # log a checkpoint_written event (a log position, no file) per stage
    checkpoint_every_stage: bool = True
    accelerated_debugging: bool = True
    validation_attempts: int = 0
    enable_merging: bool = True
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    # required only for the llm+subprocess port set; the secret itself
    # stays in the environment variable endpoint.api_key_env names
    endpoint: EndpointConfig = field(default_factory=EndpointConfig)

    # ---- validation ----

    def problems(self) -> list[str]:
        out = _field_problems(self)
        if out:
            # the rules below relate values that each passed their own checks
            return out
        syn = self.synthetic
        if self.number_of_ideas_min > self.number_of_ideas_max:
            out.append("number_of_ideas_min cannot exceed number_of_ideas_max")
        elif self.predict_before_evaluate:
            # the most anchors scoring.build_anchor_set gathers when no
            # evaluation fails: sweep one runs the MT ideas proposed under
            # the best FE node, at most number_of_ideas_max of them, and
            # sweep two one more under each other FE node of the initial tree
            reachable = (min(self.number_of_ideas_modelling, self.number_of_ideas_max)
                         + self.number_of_ideas_data - 1)
            if self.number_of_ideas_min > reachable:
                out.append(
                    f"number_of_ideas_min ({self.number_of_ideas_min}) exceeds the {reachable}"
                    " anchors predict_before_evaluate can build: min(number_of_ideas_modelling,"
                    " number_of_ideas_max) + number_of_ideas_data - 1")
        if self.predict_before_evaluate and self.number_of_ideas_modelling < 2:
            # search._propose_and_score_mt prunes only a batch of two or
            # more, and no batch holds more than number_of_ideas_modelling
            out.append(
                "predict_before_evaluate needs number_of_ideas_modelling of at least 2:"
                " prediction prunes only a batch of two or more fresh MT ideas, and no"
                " batch holds more than number_of_ideas_modelling")
        if syn.low >= syn.high:
            out.append("synthetic.low must be below synthetic.high")
        if syn.debug_cost > syn.full_cost:
            out.append("synthetic.debug_cost cannot exceed synthetic.full_cost")
        if syn.optimum and len(syn.optimum) != syn.dimension:
            out.append("synthetic.optimum length must match synthetic.dimension")
        if self.endpoint.base_url and not self.endpoint.model:
            out.append("endpoint.model is required when endpoint.base_url is set")
        return out

    def validate(self) -> "RunConfig":
        problems = self.problems()
        if problems:
            raise ConfigInvalid(problems)
        return self

    # ---- serialization ----

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigInvalid([f"config document must be a mapping, got {type(doc).__name__}"])
        problems: list[str] = []
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        for key in unknown:
            problems.append(f"unknown key {key!r}")
        kwargs: dict[str, Any] = {}
        for key in set(doc) & known:
            kwargs[key] = doc[key]
        for name, section_cls in (("synthetic", SyntheticConfig), ("endpoint", EndpointConfig)):
            if name in kwargs:
                section = _section(name, kwargs.pop(name), section_cls, problems)
                if section is not None:
                    kwargs[name] = section
        if problems:
            raise ConfigInvalid(problems)
        try:
            config = cls(**kwargs)
        except TypeError as exc:
            raise ConfigInvalid([str(exc)])
        return config.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _section(name: str, value, section_cls, problems: list[str]):
    """The ``section_cls`` a config section reads as: an instance as it
    is, a mapping's known keys over the defaults, and None for anything
    else. Unknown keys and a section that is not a mapping are added to
    ``problems``."""
    if isinstance(value, section_cls):
        return value
    if not isinstance(value, dict):
        problems.append(f"{name} section must be a mapping")
        return None
    known = {f.name for f in fields(section_cls)}
    for key in sorted(set(value) - known):
        problems.append(f"unknown key {name}.{key!r}")
    return section_cls(**{k: v for k, v in value.items() if k in known})


# the types a config value may have, by its field's annotation: an int
# stands for a float, but a bool for no number
_FIELD_TYPES = {
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "Optional[str]": (str, type(None)),
    "list": (list,),
}

_POSITIVE = (lambda v: v > 0, "{name} must be positive, got {value}")
_NON_NEGATIVE = (lambda v: v >= 0, "{name} must be non-negative")


def _one_of(*allowed):
    allowed = [getattr(v, "value", v) for v in allowed]
    return (lambda v: v in allowed, f"{{name}} must be one of {allowed}, got {{value!r}}")


# each field's rules beyond its type, by dotted name: a (test, message)
# pair per rule, the message formatted with the name and the value
_BOUNDS = {
    **dict.fromkeys((
        "time_run_minutes", "runtime_error_time", "validator_size_threshold",
        "number_of_ideas_eda", "number_of_ideas_data", "number_of_ideas_modelling",
        "max_add_idea", "number_of_selected_node", "number_of_iterations_parents",
        "number_of_selected_node_merging", "number_of_iterations_children",
        "number_of_ideas_min", "number_of_ideas_max", "retrieve_n_papers",
        "number_rag_ideas", "theta_fail", "softmax_temperature", "worker_count",
        "memory_size", "synthetic.full_cost", "synthetic.debug_cost",
        "endpoint.timeout_s", "endpoint.max_tokens",
    ), (_POSITIVE,)),
    **dict.fromkeys((
        "validation_attempts", "synthetic.mt_jitter",
        "synthetic.merge_jitter", "synthetic.noise_sigma", "endpoint.max_retries",
    ), (_NON_NEGATIVE,)),
    "subset_size_in_percent": (_POSITIVE, (lambda v: v <= 100, "{name} cannot exceed 100")),
    # every coordinate costs about 20 bytes of idea text in each node of
    # the log and the snapshot
    "synthetic.dimension": (_POSITIVE, (lambda v: v <= 1000, "{name} cannot exceed 1000")),
    "predict_fraction": ((lambda v: 0 < v <= 1, "{name} must be in (0, 1], got {value}"),),
    "clock_mode": (_one_of("wall", "simulated"),),
    "memory_strategy": (_one_of(*MemoryStrategy),),
    "rag_policy": (_one_of(*ExternalQueryPolicy),),
    "selection_mode": (_one_of(*SelectionMode),),
}


def _field_problems(section, prefix: str = "") -> list[str]:
    """A problem for each value of the config dataclass ``section``, and
    of its sections, that breaks a rule of its own field."""
    out: list[str] = []
    for f in fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            out += _field_problems(value, f"{prefix}{f.name}.")
        else:
            out += _value_problems(prefix + f.name, f.type, value)
    return out


def _value_problems(name: str, kind: str, value) -> list[str]:
    """The problems of ``value``, of field ``name`` annotated ``kind``,
    checked in this order up to the first that fails: its type, that a
    float is finite, that an int fits the log, and then every rule of
    the field's ``_BOUNDS``. A list's elements are each checked as a
    float.

    A run logs some of these (``seed``, the budget), and the log's
    reader decodes an integer outside [-2**63, 2**64) as a float, so
    the config must hold none; the seed, which seeds numpy's generators,
    must also not be negative. An infinite budget never ends a simulated
    run, and NaN or infinity is not JSON where the run logs it."""
    types = _FIELD_TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        return [f"{name} must be {kind}, got {value!r}"]
    if isinstance(value, list):
        return [p for v in value for p in _value_problems(name, "float", v)]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{name} must be finite, got {value}"]
    if isinstance(value, int) and not isinstance(value, bool):
        low, high, span = ((0, 2**64, "[0, 2**64)") if name == "seed"
                           else (-2**63, 2**63, "[-2**63, 2**63)"))
        if not low <= value < high:
            return [f"{name} must be in {span}, got {value}"]
    return [message.format(name=name, value=value)
            for test, message in _BOUNDS.get(name, ()) if not test(value)]


def load_config(path: str | Path) -> RunConfig:
    """Read a config from a YAML or JSON file and validate it."""
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid([f"config file not found: {path}"])
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid([f"config file cannot be read: {path}: {exc}"])
    try:
        if path.suffix.lower() == ".json":
            doc = json.loads(text)
        else:
            doc = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigInvalid([f"config file does not parse: {exc}"])
    if doc is None:
        doc = {}
    return RunConfig.from_dict(doc)


def dump_config(config: RunConfig, path: str | Path) -> None:
    """Write the config back out as YAML (the run-directory copy)."""
    Path(path).write_text(
        yaml.safe_dump(config.to_dict(), sort_keys=True), encoding="utf-8"
    )
