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
    """Knobs for the simulated idea space and landscape used by the
    synthetic port set (tests, drills, budget arithmetic)."""

    dimension: int = 2
    low: float = -1.0
    high: float = 1.0
    mt_jitter: float = 0.1
    merge_jitter: float = 0.0
    noise_sigma: float = 0.0
    full_cost: float = 10.0
    debug_cost: float = 1.0
    merge_bonus: float = 0.1
    optimum: tuple = ()

    def __post_init__(self):
        # any other type is left for ``RunConfig.problems`` to name
        if isinstance(self.optimum, list):
            self.optimum = tuple(self.optimum)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["optimum"] = list(self.optimum)
        return doc


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
    max_resplits: int = 2
    rag_policy: str = ExternalQueryPolicy.ADAPTIVE.value
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
    endpoint: EndpointConfig = field(
        default_factory=lambda: EndpointConfig(base_url="", model="")
    )

    # ---- validation ----

    def problems(self) -> list[str]:
        out = _type_problems(self)
        if out:
            # the bounds below compare values of the declared types only
            return out

        def positive(name: str):
            if getattr(self, name) <= 0:
                out.append(f"{name} must be positive, got {getattr(self, name)}")

        for name in (
            "time_run_minutes", "runtime_error_time", "subset_size_in_percent",
            "validator_size_threshold", "number_of_ideas_eda", "number_of_ideas_data",
            "number_of_ideas_modelling", "max_add_idea", "number_of_selected_node",
            "number_of_iterations_parents", "number_of_selected_node_merging",
            "number_of_iterations_children", "number_of_ideas_min", "number_of_ideas_max",
            "retrieve_n_papers", "number_rag_ideas",
            "theta_fail", "softmax_temperature", "worker_count", "memory_size",
        ):
            positive(name)
        if self.subset_size_in_percent > 100:
            out.append("subset_size_in_percent cannot exceed 100")
        if self.number_of_ideas_min > self.number_of_ideas_max:
            out.append("number_of_ideas_min cannot exceed number_of_ideas_max")
        if not 0 < self.predict_fraction <= 1:
            out.append(f"predict_fraction must be in (0, 1], got {self.predict_fraction}")
        if self.max_resplits < 0:
            out.append("max_resplits must be non-negative")
        if self.validation_attempts < 0:
            out.append("validation_attempts must be non-negative")
        if self.clock_mode not in ("wall", "simulated"):
            out.append(f"clock_mode must be wall or simulated, got {self.clock_mode!r}")
        for name, enum in (
            ("memory_strategy", MemoryStrategy),
            ("rag_policy", ExternalQueryPolicy),
            ("selection_mode", SelectionMode),
        ):
            value = getattr(self, name)
            allowed = [m.value for m in enum]
            if value not in allowed:
                out.append(f"{name} must be one of {allowed}, got {value!r}")
        syn = self.synthetic
        if syn.dimension < 1:
            out.append("synthetic.dimension must be >= 1")
        if syn.low >= syn.high:
            out.append("synthetic.low must be below synthetic.high")
        if syn.mt_jitter < 0 or syn.merge_jitter < 0 or syn.noise_sigma < 0:
            out.append("synthetic jitters and noise must be non-negative")
        if syn.full_cost <= 0 or syn.debug_cost <= 0:
            out.append("synthetic costs must be positive")
        if syn.debug_cost > syn.full_cost:
            out.append("synthetic.debug_cost cannot exceed synthetic.full_cost")
        if syn.optimum and len(syn.optimum) != syn.dimension:
            out.append("synthetic.optimum length must match synthetic.dimension")
        for name, value in _number_values(self.to_dict()):
            if isinstance(value, float):
                if not math.isfinite(value):
                    out.append(f"{name} must be finite, got {value}")
            elif name == "seed":
                if not 0 <= value < 2**64:
                    out.append(f"seed must be in [0, 2**64), got {value}")
            elif not -2**63 <= value < 2**63:
                out.append(f"{name} must be in [-2**63, 2**63), got {value}")
        ep = self.endpoint
        if ep.base_url and not ep.model:
            out.append("endpoint.model is required when endpoint.base_url is set")
        if ep.max_retries < 0:
            out.append("endpoint.max_retries must be non-negative")
        if ep.timeout_s <= 0 or ep.max_tokens <= 0:
            out.append("endpoint.timeout_s and endpoint.max_tokens must be positive")
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
        doc = dict(doc)
        problems: list[str] = []
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(doc) - known)
        for key in unknown:
            problems.append(f"unknown key {key!r}")
        kwargs: dict[str, Any] = {}
        for key in set(doc) & known:
            kwargs[key] = doc[key]

        # memory_size accepts the string alias "nearest_nodes", meaning:
        # similarity-based recall with the default size
        if kwargs.get("memory_size") == "nearest_nodes":
            kwargs["memory_size"] = cls.memory_size
            kwargs.setdefault("memory_strategy", MemoryStrategy.NEAREST.value)
        for name, section_cls, defaults in (
            ("synthetic", SyntheticConfig, {}),
            ("endpoint", EndpointConfig, {"base_url": "", "model": ""}),
        ):
            if name in kwargs:
                section = _section(name, kwargs.pop(name), section_cls, defaults, problems)
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
        doc = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("synthetic", "endpoint")
        }
        doc["synthetic"] = self.synthetic.to_dict()
        doc["endpoint"] = dataclasses.asdict(self.endpoint)
        return doc


def _section(name: str, value, section_cls, defaults: dict, problems: list[str]):
    """The ``section_cls`` a config section reads as: an instance as it
    is, a mapping's known keys over ``defaults``, and None for anything
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
    return section_cls(**{**defaults, **{k: v for k, v in value.items() if k in known}})


# the types a config value may have, by its field's annotation: an int
# stands for a float, but a bool for no number
_FIELD_TYPES = {
    "bool": (bool,),
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "Optional[str]": (str, type(None)),
    "tuple": (tuple,),
}


def _type_problems(section, prefix: str = "") -> list[str]:
    """A problem for each field of the config dataclass ``section``, and
    of its sections, whose value does not have the type its annotation
    names."""
    out: list[str] = []
    for f in fields(section):
        value = getattr(section, f.name)
        if dataclasses.is_dataclass(value):
            out += _type_problems(value, f"{prefix}{f.name}.")
        elif not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"):
            out.append(f"{prefix}{f.name} must be {f.type}, got {value!r}")
    return out


def _number_values(doc: dict, prefix: str = ""):
    """(dotted name, value) of every int and float in a ``to_dict``
    document, bools aside, in its sections and sequences too.

    A run logs some of these (``seed``, the budget), and the log's
    reader decodes an integer outside [-2**63, 2**64) as a float, so
    the config must hold none; the seed, which seeds numpy's generators,
    must also not be negative. A float must be finite: an infinite
    budget never ends a simulated run, and NaN or infinity is not JSON
    where the run logs it."""
    for key, value in doc.items():
        name = prefix + key
        if isinstance(value, dict):
            yield from _number_values(value, name + ".")
        elif isinstance(value, (list, tuple)):
            yield from ((name, v) for v in value if _is_number(v))
        elif _is_number(value):
            yield name, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_config(path: str | Path) -> RunConfig:
    """Read a config from a YAML or JSON file and validate it."""
    path = Path(path)
    if not path.exists():
        raise ConfigInvalid([f"config file not found: {path}"])
    text = path.read_text(encoding="utf-8")
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
