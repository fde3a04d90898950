"""Idea generation: context assembly, tree-memory selection, and the
generator port with synthetic and HTTP chat-completion backends.

The context is an append-only sequence of tagged segments (analysis
insights, task reading, external references). Generators consume it and
propose idea texts; they never touch the tree except through the
read-only views they are handed.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import TYPE_CHECKING, Callable, Optional, Protocol, TypeVar

import numpy as np

from .embedding import (
    HashedEmbedding,
    cosine_distance,
    parse_idea_vector,
    render_idea_vector,
)
from .errors import (
    EmptyInput,
    GeneratorFailure,
    InvalidSpaceConfig,
    MalformedResponse,
    RetriesExhausted,
    RetrievalFailure,
    TransportFailure,
    UnparseableIdea,
)
from .retrieval import FileCorpusRetriever
from .tree import IdeationTree, Node, NodeLevel

if TYPE_CHECKING:
    # imported where an endpoint is called, so that runs without one,
    # reports and replays never load it
    import requests

logger = logging.getLogger(__name__)

T = TypeVar("T")


# =====================================================================
# Context state
# =====================================================================

class SegmentTag(str, Enum):
    EDA = "eda"
    READER = "reader"
    EXTERNAL = "external"


@dataclass(frozen=True)
class Segment:
    tag: SegmentTag
    text: str


class ContextState:
    """Ordered, append-only tagged segments with a revision counter."""

    def __init__(self) -> None:
        self._segments: list[Segment] = []
        self.revision = 0

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(self._segments)

    def append(self, tag: SegmentTag, text: str) -> Segment:
        if not text or not text.strip():
            raise EmptyInput("context segments must be non-empty")
        segment = Segment(tag=SegmentTag(tag), text=text)
        self._segments.append(segment)
        self.revision += 1
        return segment

    def by_tag(self, tag: SegmentTag) -> list[Segment]:
        return [s for s in self._segments if s.tag is tag]

    def render(self) -> str:
        """Flatten for prompt assembly, one block per segment in order."""
        return "\n\n".join(f"[{s.tag.value}] {s.text}" for s in self._segments)


# =====================================================================
# Tree-memory selection
# =====================================================================

class MemoryStrategy(str, Enum):
    NEAREST = "nearest"
    FARTHEST = "farthest"
    RANDOM = "random"


def select_context_nodes(
    tree: IdeationTree,
    anchor_node: Node,
    strategy: MemoryStrategy,
    n: int,
    embedder,
    rng: np.random.Generator,
) -> list[Node]:
    """Pick up to n same-level nodes (anchor excluded) as memory for the
    next generation call: closest / farthest by cosine distance of idea
    embeddings, or uniformly at random. Distance ties break on node id."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    eligible = sorted(
        (node for node in tree.nodes_at_level(anchor_node.level) if node.id != anchor_node.id),
        key=lambda node: node.id,
    )
    if not eligible or n == 0:
        return []
    if strategy is MemoryStrategy.RANDOM:
        idx = rng.choice(len(eligible), size=min(n, len(eligible)), replace=False)
        return [eligible[int(i)] for i in idx]
    anchor_vec = embedder.embed(anchor_node.idea_text)
    sign = -1.0 if strategy is MemoryStrategy.FARTHEST else 1.0
    ranked = sorted(
        eligible,
        key=lambda node: (sign * cosine_distance(anchor_vec, embedder.embed(node.idea_text)), node.id),
    )
    return ranked[:n]


# =====================================================================
# External query gating
# =====================================================================

class ExternalQueryPolicy(str, Enum):
    ALWAYS = "always"
    NEVER = "never"
    ADAPTIVE = "adaptive"


def gate_external_query(
    ctx: ContextState,
    policy: ExternalQueryPolicy,
    gen: "IdeaGenerator",
    *,
    cap: Optional[int] = None,
) -> list[Segment]:
    """Maybe ask the generator for external references and append them
    as external segments, at most ``cap`` per call. NEVER short-circuits
    without consulting the generator; ADAPTIVE lets the generator decide
    (returning nothing is a valid decision). Retrieval failures are
    logged and treated as an empty result."""
    if policy is ExternalQueryPolicy.NEVER:
        return []
    try:
        texts = gen.query_external(ctx)
    except RetrievalFailure as exc:
        logger.warning("external query failed, continuing without: %s", exc)
        return []
    if cap is not None:
        texts = texts[:cap]
    return [ctx.append(SegmentTag.EXTERNAL, text) for text in texts if text and text.strip()]


# =====================================================================
# Generator port
# =====================================================================

class IdeaGenerator(Protocol):
    """Everything a stage needs from an idea source."""

    def propose_fe(self, ctx: ContextState, n: int) -> list[str]: ...

    def propose_mt(self, fe_node: Node, ctx: Optional[ContextState], m: int) -> list[str]: ...

    def merge_fe(self, a: Node, b: Node, ctx: Optional[ContextState]) -> str: ...

    def merge_mt(self, a: Node, b: Node, ctx: Optional[ContextState]) -> str: ...

    def enrich_eda(self, tree: IdeationTree, ctx: ContextState) -> Optional[str]: ...

    def query_external(self, ctx: ContextState) -> list[str]: ...


# =====================================================================
# Synthetic generator
# =====================================================================

@dataclass(frozen=True)
class SpaceConfig:
    """Geometry of the synthetic idea space.

    Ideas are points in ``[low, high]^dimension`` rendered as text. MT
    proposals jitter around their FE parent; merges take the elementwise
    midpoint plus an optional perturbation.
    """

    dimension: int
    low: float = -1.0
    high: float = 1.0
    mt_jitter: float = 0.1
    merge_jitter: float = 0.0

    def __post_init__(self):
        problems = []
        if self.dimension < 1:
            problems.append(f"dimension must be >= 1, got {self.dimension}")
        if not self.low < self.high:
            problems.append(f"low must be < high, got [{self.low}, {self.high}]")
        if self.mt_jitter < 0 or self.merge_jitter < 0:
            problems.append("jitter magnitudes must be non-negative")
        if problems:
            raise InvalidSpaceConfig("; ".join(problems))


class SyntheticGenerator:
    """Deterministic generator over a numeric idea space.

    All randomness flows through one internal stream seeded at
    construction and serialized behind a lock, so outputs are a pure
    function of (seed, space, call sequence). Each draw is one
    Generator call of ``dimension`` values, turned into Python floats;
    the arithmetic on them is done on Python floats, which round as
    numpy's float64 does.
    """

    def __init__(self, space: SpaceConfig, seed: int, retriever: Optional[FileCorpusRetriever] = None,
                 retrieve_k: int = 3):
        self.space = space
        self.seed = int(seed)
        self.retriever = retriever
        self.retrieve_k = retrieve_k
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()

    def _point(self, node: Node) -> list[float]:
        values = parse_idea_vector(node.idea_text)
        if len(values) != self.space.dimension:
            raise UnparseableIdea(
                f"idea has {len(values)} coordinates, the space has {self.space.dimension}"
            )
        return values

    def propose_fe(self, ctx: ContextState, n: int) -> list[str]:
        low, high, d = self.space.low, self.space.high, self.space.dimension
        with self._lock:
            draws = [self._rng.uniform(low, high, d).tolist() for _ in range(n)]
        return [render_idea_vector(draw) for draw in draws]

    def propose_mt(self, fe_node: Node, ctx: Optional[ContextState], m: int) -> list[str]:
        base = self._point(fe_node)
        with self._lock:
            draws = [self._rng.normal(0.0, self.space.mt_jitter, self.space.dimension).tolist()
                     for _ in range(m)]
        return [render_idea_vector([b + e for b, e in zip(base, draw)]) for draw in draws]

    def _merge(self, a: Node, b: Node) -> str:
        mid = [(x + y) / 2.0 for x, y in zip(self._point(a), self._point(b))]
        if self.space.merge_jitter > 0:
            with self._lock:
                draw = self._rng.normal(0.0, self.space.merge_jitter, self.space.dimension).tolist()
            mid = [x + e for x, e in zip(mid, draw)]
        return render_idea_vector(mid)

    def merge_fe(self, a: Node, b: Node, ctx: Optional[ContextState]) -> str:
        return self._merge(a, b)

    def merge_mt(self, a: Node, b: Node, ctx: Optional[ContextState]) -> str:
        return self._merge(a, b)

    def enrich_eda(self, tree: IdeationTree, ctx: ContextState) -> Optional[str]:
        fe_count = tree.level_size(NodeLevel.FE)
        mt_count = tree.level_size(NodeLevel.MT)
        return f"tree survey: {len(tree.nodes)} nodes, {fe_count} feature ideas, {mt_count} model ideas"

    def query_external(self, ctx: ContextState) -> list[str]:
        if self.retriever is None:
            return []
        query = ctx.segments[-1].text if ctx.segments else "general modelling advice"
        docs = self.retriever.retrieve(query, self.retrieve_k)
        return [f"{d.title}: {d.body}" for d in docs]


# =====================================================================
# HTTP chat-completion generator
# =====================================================================

@dataclass(frozen=True)
class EndpointConfig:
    """Where and how to call a chat-completion service. The API key is
    read from the environment variable named here, never stored."""

    base_url: str
    model: str
    temperature: float = 0.2
    timeout_s: float = 60.0
    max_retries: int = 2
    api_key_env: Optional[str] = None
    max_tokens: int = 1024


IDEA_SEPARATOR = "---"

# seconds between failed completion attempts: the first wait, doubled
# after each further failure up to the cap
RETRY_BACKOFF_BASE_S = 0.5
RETRY_BACKOFF_CAP_S = 8.0


def _load_template(name: str) -> str:
    """Read a prompt template, dropping the leading # comment header so
    documentation lines never reach the endpoint or the formatter."""
    raw = resources.files("ideatree.templates").joinpath(name).read_text(encoding="utf-8")
    lines = [line for line in raw.splitlines() if not line.startswith("#")]
    return "\n".join(lines).strip() + "\n"


def request_completion(
    session: requests.Session, endpoint: EndpointConfig, system: str, user: str
) -> str:
    """One chat-completion round trip. Shared by the generator and the
    score predictor so transport semantics cannot drift apart."""
    import requests

    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key_env:
        key = os.environ.get(endpoint.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
    payload = {
        "model": endpoint.model,
        "temperature": endpoint.temperature,
        "max_tokens": endpoint.max_tokens,
        "messages": [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ],
    }
    try:
        response = session.post(url, json=payload, headers=headers, timeout=endpoint.timeout_s)
    except requests.RequestException as exc:
        raise TransportFailure(f"endpoint unreachable: {exc}") from exc
    if response.status_code != 200:
        raise TransportFailure(f"endpoint returned HTTP {response.status_code}")
    try:
        return response.json()["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse(f"unexpected response shape: {exc}") from exc


def complete_with_retries(
    session: requests.Session,
    endpoint: EndpointConfig,
    system: str,
    user: str,
    parse: Callable[[str], T],
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """One chat completion read through ``parse``: the retry loop that
    every endpoint caller shares. A TransportFailure, or a
    MalformedResponse from ``parse``, fails an attempt; after
    ``endpoint.max_retries + 1`` failed attempts RetriesExhausted
    carries the last error. Between attempts it calls ``sleep`` with
    ``RETRY_BACKOFF_BASE_S``, doubled after each further failure up to
    ``RETRY_BACKOFF_CAP_S``; it does not sleep after the last one."""
    attempts = endpoint.max_retries + 1
    last: Optional[GeneratorFailure] = None
    delay = RETRY_BACKOFF_BASE_S
    for attempt in range(attempts):
        if attempt:
            sleep(delay)
            delay = min(2 * delay, RETRY_BACKOFF_CAP_S)
        try:
            return parse(request_completion(session, endpoint, system, user))
        except (TransportFailure, MalformedResponse) as exc:
            last = exc
            logger.warning("completion attempt %d/%d failed: %s", attempt + 1, attempts, exc)
    raise RetriesExhausted(f"gave up after {attempts} attempts: {last}")


def split_ideas(content: str, expected: int) -> list[str]:
    """Split a completion into ideas on separator lines; exact count or
    MalformedResponse."""
    blocks, current = [], []
    for line in content.splitlines():
        if line.strip() == IDEA_SEPARATOR:
            if current:
                blocks.append("\n".join(current).strip())
                current = []
        else:
            current.append(line)
    if current:
        block = "\n".join(current).strip()
        if block:
            blocks.append(block)
    blocks = [b for b in blocks if b]
    if len(blocks) != expected:
        raise MalformedResponse(f"expected {expected} ideas, parsed {len(blocks)}")
    return blocks


class LlmGenerator:
    """Idea generation through an HTTP chat-completion endpoint.

    Prompts come from plain text templates; transport and parse errors
    are retried and surface as GeneratorFailure subclasses once retries
    are exhausted.
    """

    def __init__(
        self,
        endpoint: EndpointConfig,
        retriever: Optional[FileCorpusRetriever] = None,
        retrieve_k: int = 3,
        memory_embedder=None,
        memory_n: int = 5,
        memory_strategy: MemoryStrategy = MemoryStrategy.RANDOM,
        memory_seed: int = 0,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint
        self.retriever = retriever
        self.retrieve_k = retrieve_k
        self.memory_embedder = memory_embedder or HashedEmbedding()
        self.memory_n = memory_n
        self.memory_strategy = memory_strategy
        self._memory_rng = np.random.default_rng(memory_seed)
        self._memory_notes: list[str] = []
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
        self._templates = {
            name: _load_template(f"{name}.txt")
            for name in ("fe_proposals", "mt_proposals", "merge_ideas", "eda_enrichment")
        }

    # ---- transport ----

    def _complete_ideas(self, system: str, user: str, expected: int) -> list[str]:
        return complete_with_retries(
            self._session, self.endpoint, system, user,
            lambda content: split_ideas(content, expected),
        )

    # ---- port implementation ----

    def _memory_block(self) -> str:
        if not self._memory_notes:
            return "none yet"
        return "\n".join(f"- {note}" for note in self._memory_notes)

    def propose_fe(self, ctx: ContextState, n: int) -> list[str]:
        user = self._templates["fe_proposals"].format(
            count=n, context=ctx.render() or "none", memory=self._memory_block(),
            separator=IDEA_SEPARATOR,
        )
        return self._complete_ideas("You design feature engineering strategies.", user, n)

    def propose_mt(self, fe_node: Node, ctx: Optional[ContextState], m: int) -> list[str]:
        user = self._templates["mt_proposals"].format(
            count=m, parent=fe_node.idea_text,
            context=ctx.render() if ctx is not None else "none",
            memory=self._memory_block(), separator=IDEA_SEPARATOR,
        )
        return self._complete_ideas("You design model training plans.", user, m)

    def _merge(self, a: Node, b: Node, ctx: Optional[ContextState], kind: str) -> str:
        user = self._templates["merge_ideas"].format(
            kind=kind, first=a.idea_text, second=b.idea_text,
            context=ctx.render() if ctx is not None else "none",
        )
        ideas = self._complete_ideas("You combine two approaches into one stronger one.", user, 1)
        return ideas[0]

    def merge_fe(self, a: Node, b: Node, ctx: Optional[ContextState]) -> str:
        return self._merge(a, b, ctx, "feature engineering")

    def merge_mt(self, a: Node, b: Node, ctx: Optional[ContextState]) -> str:
        return self._merge(a, b, ctx, "model training")

    def enrich_eda(self, tree: IdeationTree, ctx: ContextState) -> Optional[str]:
        # refresh the memory notes from the current tree before asking
        fe_nodes = tree.fe_nodes()
        if fe_nodes:
            anchor = fe_nodes[-1]
            picks = select_context_nodes(
                tree, anchor, self.memory_strategy, self.memory_n,
                self.memory_embedder, self._memory_rng,
            )
            self._memory_notes = [p.idea_text for p in picks]
        user = self._templates["eda_enrichment"].format(
            context=ctx.render() or "none", nodes=len(tree.nodes),
        )
        ideas = self._complete_ideas("You analyze datasets and summarize actionable insights.", user, 1)
        return ideas[0]

    def query_external(self, ctx: ContextState) -> list[str]:
        if self.retriever is None:
            return []
        query = ctx.segments[-1].text if ctx.segments else "machine learning competition advice"
        docs = self.retriever.retrieve(query, self.retrieve_k)
        return [f"{d.title}: {d.body}" for d in docs]
