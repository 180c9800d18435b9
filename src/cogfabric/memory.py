"""Active memory: episodic records, entity state, and the environment manifest.

The store is the fabric's working set for context injection. Retrieval ranks
records by importance-weighted cosine, exactly: one matrix product over the
stored vectors shortlists every record whose score may reach the top k, and
only those are rescored with ``cosine_similarity`` and ordered by the
tie-break rules, so results equal a full scalar scan bit for bit. When no
more than k (or ``SCAN_ROWS``) rows are to be ranked, the product is skipped
and they are all rescored.

An ``HnswIndex`` can be plugged in instead. Each query then over-fetches
``max(4k, 64)`` candidates from it, and one product over just their rows
shortlists them the same way, so a query rescores a few records, not 64. The
index ranks by cosine alone, so a record that reaches the top k only through
its importance can be missed: on the memory-churn benchmark's store of about
500 records, an over-fetch of 32 kept 0.89 of the exact top 5, and 64 keeps
0.98. Below ``ann.GRAPH_ROWS`` live rows the index answers by an exact scan
of its own matrix, and from there on from an HNSW graph (``cogfabric.ann``
says how that crossover was measured).

Vectors live in fixed-size row blocks that are allocated as the store grows
and never move: each record's ``vector`` is a read-only view of its row. A
pruned record's row is tombstoned (its norm dropped, so scans skip it) and
never reused. An index keeps its own copy of each vector it is given, and
``prune`` removes the record's id from it, so the id can be stored again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from cogfabric.ann import HnswIndex
from cogfabric.core import (
    SCAN_ROWS,
    DimensionMismatchError,
    HashingEmbedder,
    VectorTable,
    ZeroVectorError,
    cosine_similarity,
    matrix_cosines,
    reciprocal_norms,
    shortlist,
)

_BLOCK_ROWS = 256


@dataclass
class MemoryRecord:
    """One remembered observation.

    ``vector`` is always the embedding of ``text`` under the store's embedder;
    once stored it is a read-only view of the record's row in the store.
    ``ttl`` of None means the record never expires. ``importance`` >= 0
    scales retrieval scores by (1 + importance).
    """

    id: str
    text: str
    vector: np.ndarray
    created_at: float = 0.0
    ttl: float | None = None
    importance: float = 0.0


class MemoryStore:
    """Episodic record store with scored retrieval and TTL pruning."""

    def __init__(self, embedder: HashingEmbedder, index: HnswIndex | None = None):
        self.embedder = embedder
        self._rows: dict[str, int] = {}  # live record id -> row
        self._slots: list[MemoryRecord | None] = []  # row -> record, None once pruned
        # _BLOCK_ROWS rows each, with the read-only view records get
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        # per row: 1 / norm (NaN for a zero vector or a pruned row) and
        # 1 + importance; the norms and the sign flag cover rows below _folded
        self._inv_norms = np.zeros(0)
        self._weights = np.zeros(0)
        self._nonneg = True  # no folded component is negative
        self._folded = 0
        self._counter = 0
        self._index = index
        if index is not None and index.dim != embedder.dim:
            raise DimensionMismatchError(
                f"index dim {index.dim} != embedder dim {embedder.dim}"
            )

    def __len__(self) -> int:
        return len(self._rows)

    def records(self) -> list[MemoryRecord]:
        return [self._slots[row] for row in self._rows.values()]

    def get(self, record_id: str) -> MemoryRecord | None:
        row = self._rows.get(record_id)
        return None if row is None else self._slots[row]

    def add(
        self,
        text: str,
        *,
        created_at: float = 0.0,
        ttl: float | None = None,
        importance: float = 0.0,
        record_id: str | None = None,
    ) -> MemoryRecord:
        """Embed ``text`` and store it, assigning a fresh id when none given."""
        if record_id is None:
            self._counter += 1
            record_id = f"m{self._counter:06d}"
        rec = MemoryRecord(
            id=record_id,
            text=text,
            vector=self.embedder.embed(text),
            created_at=created_at,
            ttl=ttl,
            importance=importance,
        )
        self.store(rec)
        return rec

    def store(self, record: MemoryRecord) -> str:
        """Store a pre-built record: copy its vector into the next free row,
        which its ``vector`` becomes a read-only view of, and index it. The
        vector must match the store dimension and be finite."""
        if len(record.vector) != self.embedder.dim:
            raise DimensionMismatchError(
                f"record vector has dim {len(record.vector)}, store uses {self.embedder.dim}"
            )
        if record.id in self._rows:
            raise ValueError(f"duplicate record id {record.id!r}")
        ttl = 0.0 if record.ttl is None else record.ttl
        if not all(map(math.isfinite, (record.created_at, ttl, record.importance))):
            raise ValueError("created_at, ttl and importance must be finite")
        # a NaN or infinite component would keep the record out of every
        # retrieve. A finite squared norm rules both out in a third of the
        # time a test of each component takes; only an overflowing norm
        # needs that test.
        squared = np.dot(record.vector, record.vector)
        if not math.isfinite(squared) and not np.isfinite(record.vector).all():
            raise ValueError("every vector component must be finite")
        if record.importance < 0:
            raise ValueError("importance must be >= 0")
        row = len(self._slots)
        block, offset = divmod(row, _BLOCK_ROWS)
        if block == len(self._blocks):
            vecs = np.zeros((_BLOCK_ROWS, self.embedder.dim))
            frozen = vecs.view()
            frozen.flags.writeable = False
            self._blocks.append((vecs, frozen))
            grow = np.zeros(_BLOCK_ROWS)
            self._inv_norms = np.concatenate([self._inv_norms, grow])
            self._weights = np.concatenate([self._weights, grow])
        vecs, frozen = self._blocks[block]
        vecs[offset] = record.vector
        record.vector = vec = frozen[offset]
        self._weights[row] = 1.0 + record.importance
        self._slots.append(record)
        self._rows[record.id] = row
        if self._index is not None and vec.any():
            self._index.add(record.id, vec)
        return record.id

    def retrieve(
        self, query: np.ndarray, k: int, floor: float = float("-inf")
    ) -> list[tuple[MemoryRecord, float]]:
        """Top-k records by cosine(query, vector) * (1 + importance).

        Descending score; ties broken by newer created_at, then lexicographic
        id. Records scoring below ``floor`` are excluded, as are records whose
        text embedded to the zero vector (their similarity is undefined).
        Raises ZeroVectorError for an all-zero query.
        """
        query = np.asarray(query, dtype=np.float64)
        if len(query) != self.embedder.dim:
            raise DimensionMismatchError(
                f"query has dim {len(query)}, store uses {self.embedder.dim}"
            )
        if not query.any():
            raise ZeroVectorError("cannot retrieve with a zero query vector")
        if k <= 0:
            return []
        if self._index is not None:
            # the index ranks by cosine alone, and importance lifts a score
            # up to (1 + importance) times, so fetch well past k
            found = self._index.search(query, max(4 * k, 64))
            rows = np.array([self._rows[i] for i in found if i in self._rows], dtype=np.intp)
            count = len(rows)
        else:
            rows, count = None, len(self._rows)  # every row
        if count > max(k, SCAN_ROWS):
            rows = self._shortlist(query, rows, k, floor)
        elif rows is None:
            rows = self._rows.values()
        scored = []
        for row in rows:
            rec = self._slots[row]
            if not rec.vector.any():
                continue
            s = cosine_similarity(query, rec.vector) * (1.0 + rec.importance)
            if s >= floor:
                scored.append((rec, s))
        scored.sort(key=lambda pair: (-pair[1], -pair[0].created_at, pair[0].id))
        return scored[:k]

    def _fold(self) -> None:
        """Take the norms and signs of rows added since the last fold, one
        block slice at a time."""
        n = len(self._slots)
        while self._folded < n:
            block, offset = divmod(self._folded, _BLOCK_ROWS)
            hi = min(n, (block + 1) * _BLOCK_ROWS)
            vecs = self._blocks[block][0][offset : offset + hi - self._folded]
            self._inv_norms[self._folded : hi] = reciprocal_norms(vecs)
            self._nonneg = self._nonneg and not (vecs < 0.0).any()
            self._folded = hi

    def _shortlist(
        self, query: np.ndarray, rows: np.ndarray | None, k: int, floor: float
    ) -> np.ndarray:
        """Of ``rows`` (every row when None), those whose exact score may
        reach the top k, by one product per row block they touch."""
        self._fold()
        if rows is None:
            n = len(self._slots)
            at: np.ndarray | slice = slice(n)
            dots = np.empty(n)
            for block, (vecs, _) in enumerate(self._blocks):
                lo = block * _BLOCK_ROWS
                np.dot(vecs[: min(_BLOCK_ROWS, n - lo)], query, out=dots[lo : lo + _BLOCK_ROWS])
        else:
            at = rows
            dots = np.empty(len(rows))
            blocks, offsets = np.divmod(rows, _BLOCK_ROWS)
            for block in set(blocks.tolist()):
                take = blocks == block
                dots[take] = self._blocks[block][0][offsets[take]] @ query
        cos, band = matrix_cosines(
            dots,
            self._inv_norms[at],
            1.0 / math.sqrt(query @ query),
            self._nonneg and not (query < 0.0).any(),
        )
        weights = self._weights[at]
        picked = shortlist(cos * weights, band * np.abs(weights), k, floor)
        return picked if rows is None else rows[picked]

    def prune(self, now: float) -> int:
        """Drop every record whose created_at + ttl <= now. Returns the count."""
        doomed = [
            rid
            for rid, rec in zip(self._rows, self.records())
            if rec.ttl is not None and rec.created_at + rec.ttl <= now
        ]
        self._fold()
        for rid in doomed:
            row = self._rows.pop(rid)
            self._slots[row] = None
            self._inv_norms[row] = np.nan
            if self._index is not None:
                self._index.remove(rid)
        return len(doomed)


# ---------------------------------------------------------------------------
# Entity state
# ---------------------------------------------------------------------------

@dataclass
class EntityState:
    """Merged view of one tracked entity."""

    name: str
    attributes: dict[str, str]
    updated_at: float
    updated_by: str


class EntityStore:
    """Per-attribute last-write-wins state for named entities.

    Each attribute keeps the (at, by) stamp of the write it came from; a new
    write lands only if its stamp is >= the stored one, so replaying a log in
    any order that preserves each entity's (at, by) order gives one result.
    """

    def __init__(self) -> None:
        # name -> attr -> (value, at, by)
        self._state: dict[str, dict[str, tuple[str, float, str]]] = {}

    def update(
        self, name: str, attributes: dict[str, str], *, by: str, at: float
    ) -> EntityState:
        slot = self._state.setdefault(name, {})
        for attr, value in attributes.items():
            current = slot.get(attr)
            if current is None or (at, by) >= (current[1], current[2]):
                slot[attr] = (str(value), at, by)
        state = self.lookup(name)
        assert state is not None
        return state

    def lookup(self, name: str) -> EntityState | None:
        slot = self._state.get(name)
        if not slot:
            return None
        newest = max((at, by) for _, at, by in slot.values())
        return EntityState(
            name=name,
            attributes={attr: v for attr, (v, _, _) in sorted(slot.items())},
            updated_at=newest[0],
            updated_by=newest[1],
        )


# ---------------------------------------------------------------------------
# Environment manifest
# ---------------------------------------------------------------------------

class Manifest:
    """Exact-name registry of entities that exist in the environment.

    Membership is literal string equality. ``suggest`` finds the member whose
    name is nearest in the sub-token embedding view, for repairing references
    to things that do not exist.
    """

    def __init__(self, embedder: HashingEmbedder, names: Iterable[str] = ()):
        self.embedder = embedder
        self._names: dict[str, np.ndarray] = {}
        self._table: tuple[list[str], VectorTable] | None = None  # sorted names
        for n in names:
            self.add(n)

    def add(self, name: str) -> None:
        self._names[name] = self.embedder.embed_name(name)
        self._table = None

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> list[str]:
        return sorted(self._names)

    def suggest(self, name: str, floor: float = 0.3) -> str | None:
        """Closest member by name similarity, or None if all fall below floor.
        Of equally close members the first in sorted order wins."""
        probe = self.embedder.embed_name(name)
        if not probe.any():
            return None
        if self._table is None:
            names = self.names
            table = VectorTable([self._names[n] for n in names], self.embedder.dim)
            self._names = dict(zip(names, table.matrix))  # one copy of each vector
            self._table = names, table
        names, table = self._table
        rows: Iterable[int] = range(len(names))
        if len(names) > SCAN_ROWS:
            rows = shortlist(*table.cosines(probe), 1, floor)
        best_name, best_sim = None, floor
        for row in rows:
            vec = self._names[names[row]]
            if not vec.any():
                continue
            sim = cosine_similarity(probe, vec)
            if sim > best_sim or (sim == best_sim and best_name is None):
                best_name, best_sim = names[row], sim
        return best_name
