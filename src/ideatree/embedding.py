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
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - cosine_similarity(a, b)


class HashedEmbedding:
    """Feature hashing of the lowercased token multiset.

    Each token lands in one of ``dimension`` buckets with a sign, both
    taken from a stable digest of the token, and the result is
    L2-normalized. Identical texts embed identically; no vocabulary is
    kept anywhere.
    """

    def __init__(self, dimension: int = 64):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=float)
        for token in _TOKEN_RE.findall(text.lower()):
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            bucket = int.from_bytes(digest[:4], "big") % self.dimension
            sign = 1.0 if digest[4] & 1 else -1.0
            vec[bucket] += sign
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
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
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
