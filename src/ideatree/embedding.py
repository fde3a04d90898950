"""Deterministic text embeddings for context selection and retrieval.

Nothing here learns anything: both providers are pure functions of their
input text, so selection behaviour is reproducible across runs and
platforms.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

from .errors import UnparseableIdea

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    return cosine_from_norms(a, float(np.linalg.norm(a)), b, float(np.linalg.norm(b)))


def cosine_from_norms(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """``cosine_similarity`` of ``a`` and ``b`` given their norms, each
    ``float(np.linalg.norm(...))``, so that a vector compared many times
    takes its norm once; the same float either way."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - cosine_similarity(a, b)


class HashedEmbedding:
    """Feature hashing of the lowercased token multiset.

    Each token lands in one of ``dimension`` buckets with a sign, both
    taken from a stable digest of the token, and the result is
    L2-normalized. Identical texts embed identically. An instance keeps
    the bucket and sign of every token it has hashed, so the digest of
    a token is taken once and the map grows only with the vocabulary;
    the counts are summed in Python floats, exact for these integer
    counts, so the vector is the one a fresh instance gives. Threads
    that race to hash one token store the same slot.
    """

    def __init__(self, dimension: int = 64):
        self.dimension = dimension
        self._slots: dict[str, tuple[int, float]] = {}

    def _slot(self, token: str) -> tuple[int, float]:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        slot = (int.from_bytes(digest[:4], "big") % self.dimension,
                1.0 if digest[4] & 1 else -1.0)
        self._slots[token] = slot
        return slot

    def embed(self, text: str) -> np.ndarray:
        counts = [0.0] * self.dimension
        slots = self._slots
        for token in _TOKEN_RE.findall(text.lower()):
            bucket, sign = slots.get(token) or self._slot(token)
            counts[bucket] += sign
        vec = np.array(counts)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


class VectorIdeaEmbedding:
    """Embedding for idea texts that are comma-separated numeric vectors.

    Points are scaled by ``radius`` and lifted onto the unit sphere with
    one extra coordinate, which makes cosine similarity a near-monotone
    proxy for Euclidean closeness of the underlying vectors (exact on
    the sphere, small distortion inside it). Output dimension is
    ``dimension + 1``.
    """

    def __init__(self, dimension: int, radius: float = 4.0):
        self.dimension = dimension
        self.radius = radius

    def embed(self, text: str) -> np.ndarray:
        values = parse_idea_vector(text)
        if len(values) != self.dimension:
            raise UnparseableIdea(
                f"expected a {self.dimension}-dimensional idea, got {len(values)}"
            )
        x = np.asarray(values, dtype=float) / self.radius
        inside = float(np.dot(x, x))
        lift = math.sqrt(max(0.0, 1.0 - inside))
        out = np.concatenate([x, [lift]])
        norm = float(np.linalg.norm(out))
        return out / norm if norm > 0 else out


def parse_idea_vector(text: str) -> list[float]:
    """Parse the synthetic idea format: comma-separated floats."""
    try:
        # float() strips the same whitespace str.strip() does
        values = [float(p) for p in text.split(",")]
    except ValueError as exc:
        if not text.strip():
            raise UnparseableIdea("empty idea text") from None
        raise UnparseableIdea(f"idea text is not a numeric vector: {text[:80]!r}") from exc
    if not all(map(math.isfinite, values)):
        raise UnparseableIdea("idea vector contains non-finite values")
    return values


def render_idea_vector(values) -> str:
    """Inverse of parse_idea_vector, exact under float round-tripping."""
    return ",".join(map(repr, map(float, values)))
