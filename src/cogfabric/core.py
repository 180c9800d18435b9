"""Shared domain types, the deterministic hashing embedder, and vector math.

Every other module builds on the primitives here: a fixed-dimension text
embedding produced by feature hashing, cosine similarity over those vectors,
and the envelope/payload records that flow through a fabric node.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_DIM = 256


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class FabricError(Exception):
    """Base class for every error raised by this package."""


class ZeroVectorError(FabricError):
    """An all-zero vector was passed where a direction is required."""


class DimensionMismatchError(FabricError):
    """Vector length differs from the fabric-wide embedding dimension."""


# ---------------------------------------------------------------------------
# Tokenization and hashing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9_.]+")
_NAME_PART_RE = re.compile(r"[a-z0-9]+")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
# hashes of the most recent distinct tokens: about 1 MB at most, with room for
# the ~2,600 distinct tokens of one 1,000-record large-store bench pass
_TOKEN_HASH_CACHE_SIZE = 1 << 12


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash. Fixed constants, stable across runs and platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=_TOKEN_HASH_CACHE_SIZE)
def _token_hash(token: str) -> int:
    return fnv1a64(token.encode("utf-8"))


def tokenize(text: str) -> list[str]:
    """Lowercase tokens for embedding.

    A token is a maximal run of [a-z0-9_.] after lowercasing, with leading and
    trailing dots/underscores stripped, so sentence punctuation falls away but
    compound identifiers such as "q3_report.csv" survive as single tokens.
    """
    out = []
    for raw in _TOKEN_RE.findall(text.lower()):
        tok = raw.strip("._")
        if tok:
            out.append(tok)
    return out


def name_parts(name: str) -> list[str]:
    """Sub-tokens of an identifier-like name, split on every non-alphanumeric.

    "Q3_Report.csv" -> ["q3", "report", "csv"]. Used for the name view of
    entities, ontology terms, and manifest members, where near-miss names
    must land near each other in embedding space.
    """
    return _NAME_PART_RE.findall(name.lower())


class HashingEmbedder:
    """Deterministic feature-hashing text embedder.

    Tokens are hashed into ``dim`` buckets with FNV-1a 64 (bucket = hash % dim),
    counts are accumulated, and the vector is L2-normalized. Empty text embeds
    to the zero vector; anything else has unit norm. The class is stateless and
    pluggable: any object with ``dim``, ``embed`` and ``embed_name`` can stand
    in for it fabric-wide.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim <= 0:
            raise ValueError("embedding dimension must be positive")
        self.dim = dim

    def _accumulate(self, tokens: list[str]) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        for tok in tokens:
            vec[_token_hash(tok) % self.dim] += 1.0
        # whole counts: the self-dot is exact in any order, so this is the
        # norm np.linalg.norm takes, without its per-call overhead
        norm = math.sqrt(vec.dot(vec))
        if norm > 0.0:
            vec /= norm
        return vec

    def embed(self, text: str) -> np.ndarray:
        """Embed free text using the standard tokenization."""
        return self._accumulate(tokenize(text))

    def embed_name(self, name: str) -> np.ndarray:
        """Embed an identifier-like name using its sub-token decomposition."""
        return self._accumulate(name_parts(name))


class TextAnalysis:
    """What the stages of one message read from one text, each worked out
    at most once and only when first asked for.

    ``vector`` is ``embedder.embed(text)``. ``read(fn)`` is ``fn(text)`` for
    a pure function of the text, such as ``extract_entities`` or
    ``lexicon_matches``, kept after its first call. An analysis lives for one
    message; nothing is shared across messages.
    """

    __slots__ = ("text", "embedder", "_vector", "_reads")

    def __init__(self, text: str, embedder: HashingEmbedder):
        self.text = text
        self.embedder = embedder
        self._vector: np.ndarray | None = None
        self._reads: dict = {}

    @property
    def vector(self) -> np.ndarray:
        if self._vector is None:
            self._vector = self.embedder.embed(self.text)
        return self._vector

    def read(self, fn):
        reads = self._reads
        if fn not in reads:
            reads[fn] = fn(self.text)
        return reads[fn]


def analysis_of(
    text: str, embedder: HashingEmbedder, analysis: TextAnalysis | None = None
) -> TextAnalysis:
    """``analysis`` when it analysed ``text`` with ``embedder``, else a new,
    empty analysis of ``text``. A stage that rewrote its text thus reads the
    new text afresh, and one that did not reuses its caller's reads."""
    if analysis is not None and analysis.embedder is embedder and analysis.text == text:
        return analysis
    return TextAnalysis(text, embedder)


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two vectors.

    Raises ZeroVectorError if either vector is all zeros and
    DimensionMismatchError if lengths differ. Result is clamped to [-1, 1]
    to absorb floating-point drift.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"cosine over mismatched shapes {a.shape} and {b.shape}"
        )
    # each norm exactly as np.linalg.norm takes it: sqrt of the raveled self-dot
    ra, rb = a.ravel(order="K"), b.ravel(order="K")
    na = math.sqrt(ra.dot(ra))
    nb = math.sqrt(rb.dot(rb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine similarity is undefined for a zero vector")
    cos = float(a.dot(b) / (na * nb))
    if cos > 1.0:
        return 1.0
    return -1.0 if cos < -1.0 else cos


# ---------------------------------------------------------------------------
# Matrix scoring: shortlist by one matrix product, rescore exactly
# ---------------------------------------------------------------------------

# How far a cosine taken from a matrix product may lie from
# cosine_similarity of the same pair: a fraction of the cosine when no
# component of either vector is negative, a plain distance otherwise. The
# two differ only in summation order, which moves an n-term dot product by
# at most about n * 1.1e-16 of the sum of its terms' magnitudes.
COSINE_BAND = 1e-9

# A store with no more rows than this (or than the k it is asked for) skips
# the matrix product and rescores every row: the product's fixed cost of
# a few dozen numpy calls exceeds rescoring that many rows.
SCAN_ROWS = 8


def reciprocal_norms(vectors: np.ndarray) -> np.ndarray:
    """1 / the 2-norm of each row, NaN for a zero row."""
    norms = np.sqrt((vectors * vectors).sum(axis=-1))
    return np.divide(1.0, norms, out=np.full_like(norms, np.nan), where=norms > 0.0)


def matrix_cosines(
    dots: np.ndarray, inv_norms: np.ndarray, inv_qnorm: np.ndarray, nonneg: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Cosines from a matrix product's ``dots`` and both sides' reciprocal
    norms, each with the band its ``cosine_similarity`` lies within.

    A zero vector on either side gives NaN, which no shortlist admits.
    ``nonneg`` says no component of either side is negative; then every
    term of each dot is >= 0 and the band is relative.
    """
    cos = dots * inv_norms * inv_qnorm
    band = COSINE_BAND * np.abs(cos) if nonneg else np.full_like(cos, COSINE_BAND)
    return cos, band


def shortlist(
    scores: np.ndarray,
    band: np.ndarray,
    k: int,
    floor: float = float("-inf"),
    strict: bool = False,
) -> np.ndarray:
    """Ascending indices of every row whose exact score may rank in the top k.

    Each row's exact score lies within ``band`` of its approximate
    ``scores`` entry. A row qualifies when its upper bound reaches ``floor``
    (exceeds it when ``strict``) and the k-th largest lower bound among the
    rows that do, so every row tied with the k-th exact score stays in and
    the caller's scalar rescoring decides ties. NaN rows never qualify.
    """
    upper = scores + band
    idx = np.flatnonzero(upper > floor if strict else upper >= floor)
    if len(idx) > k:
        lower = scores[idx] - band[idx]
        kth = lower.max() if k == 1 else np.partition(lower, len(idx) - k)[len(idx) - k]
        idx = idx[upper[idx] >= kth]
    return idx


class VectorTable:
    """Fixed rows of vectors scored against queries by one matrix product.

    Stores keep one table over their rows in a fixed order, rebuild it when
    a row is added or replaced, and may hand out its read-only rows in place
    of their own copies; the rows' other fields stay where the store keeps
    them.
    """

    def __init__(self, vectors: list[np.ndarray], dim: int):
        self.matrix = np.array(vectors, dtype=np.float64).reshape(len(vectors), dim)
        self.matrix.flags.writeable = False
        self._inv_norms = reciprocal_norms(self.matrix)
        self._nonneg = not (self.matrix < 0.0).any()

    def cosines(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``matrix_cosines`` of one nonzero query (1-D) or of each row of a
        query matrix (2-D, one row of cosines per query) against every row."""
        q = np.asarray(queries, dtype=np.float64)
        inv_q = 1.0 / math.sqrt(q @ q) if q.ndim == 1 else reciprocal_norms(q)[:, None]
        return matrix_cosines(
            q @ self.matrix.T,
            self._inv_norms,
            inv_q,
            self._nonneg and not (q < 0.0).any(),
        )


# ---------------------------------------------------------------------------
# Message records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Explicit:
    """Address a message to one named agent."""

    receiver: str


@dataclass(frozen=True)
class Intent:
    """Address a message by capability; the fabric picks the agent."""

    description: str


_envelope_ids = itertools.count(1)


@dataclass(frozen=True)
class Envelope:
    """A message as submitted by a sender; the fabric never changes it."""

    id: str
    sender: str
    addressing: Explicit | Intent
    text: str


def make_envelope(
    sender: str,
    text: str,
    *,
    to: str | None = None,
    intent: str | None = None,
) -> Envelope:
    """Build an envelope with a run-unique id. Exactly one of to/intent."""
    if (to is None) == (intent is None):
        raise ValueError("pass exactly one of to= or intent=")
    addressing: Explicit | Intent = Explicit(to) if to is not None else Intent(intent or "")
    return Envelope(
        id=f"env-{next(_envelope_ids):06d}",
        sender=sender,
        addressing=addressing,
        text=text,
    )


@dataclass
class Payload:
    """What the receiver actually sees after the fabric's rewrite."""

    text: str
    origin: str
    receiver: str
    annotations: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class AgentProfile:
    """Static description of an agent known to the fabric.

    ``skill_embedding`` is always the embedding of ``skill_text``; build
    profiles through ``from_skill`` to keep that invariant. Tags are frozen
    after registration.
    """

    id: str
    skill_text: str
    skill_embedding: np.ndarray
    tags: frozenset[str] = frozenset()

    @classmethod
    def from_skill(
        cls,
        embedder: HashingEmbedder,
        agent_id: str,
        skill_text: str,
        tags: tuple[str, ...] | frozenset[str] = (),
    ) -> "AgentProfile":
        return cls(
            id=agent_id,
            skill_text=skill_text,
            skill_embedding=embedder.embed(skill_text),
            tags=frozenset(tags),
        )
