"""Nearest-neighbour index over unit vectors: an exact scan until an HNSW
graph pays off.

The index keeps its own copy of the vectors in one float64 matrix, one row
per slot, grown ``_BLOCK_ROWS`` rows at a time. Each live id maps to a slot.

- **Flat phase.** While fewer than ``GRAPH_ROWS`` ids are live, ``add`` only
  writes a row, and ``search`` is exact: one product per block of rows, the
  top k live slots by dot product, ties broken by the lower slot.
- **Graph phase.** When the live count first reaches ``GRAPH_ROWS``, a
  hierarchical navigable small-world graph (Malkov & Yashunin, TPAMI 2018)
  is built over the live rows and kept up to date by every later ``add``.
  The build is one insertion per live row, a one-off cost of about two
  minutes at 40,000 rows of dim 256 with the default parameters (CPython
  3.11 on one core of a 2-core x86-64 host), paid inside that one ``add``.
  Each search expansion takes the distances to all of a node's neighbours
  in one product. All randomness (level draws) comes from a seeded
  generator, so the graph is reproducible.

``GRAPH_ROWS`` is the smallest measured size at which the graph won in every
run. At dim 256, asking 32 ids per search (64, the memory store's
over-fetch, costs the same: the graph searches with ``ef_search`` 64 either
way), one search plus one add cost, over three runs of each:

=========  ============  ============
live rows  scan          graph
=========  ============  ============
    1,000  0.13-0.15 ms  3.3-3.8 ms
   16,000  2.1-2.2 ms    4.4-4.7 ms
   24,000  3.1-3.8 ms    4.1-5.5 ms
   32,000  3.9-6.1 ms    4.5-5.5 ms
   40,000  9.3-10.0 ms   4.8-5.9 ms
   64,000  14.6-16.2 ms  4.7-5.8 ms
=========  ============  ============

Rows and queries were hashing-embedded texts. Of the graph's cost, 1.1-2.7 ms
is the search and the rest the insertion.

``remove`` frees the id at once, so the id can be added again. Its slot
stays dead until the next compaction: in the graph phase dead slots still
route searches but are never returned. Once dead slots outnumber live ones,
the live rows move to the front of a matrix sized to them, keeping their
order, and a graph is rebuilt over them. Only when fewer than half of
``GRAPH_ROWS`` are live does a compaction drop the graph for the scan, so
churn around the crossover does not rebuild the graph on every cycle; each
rebuild costs one insertion per live row, again inside one call.

Vectors are assumed L2-normalized, so 1 - dot(a, b) is used as the distance.
"""

from __future__ import annotations

import heapq
import math
import random

import numpy as np

# live rows at which the graph is built; see the module docstring
GRAPH_ROWS = 40000
_BLOCK_ROWS = 256


class HnswIndex:
    """Exact scan, then a hierarchical navigable small-world graph, over
    unit vectors."""

    def __init__(
        self,
        dim: int,
        m: int = 8,
        ef_construction: int = 100,
        ef_search: int = 64,
        seed: int = 0,
    ):
        self.dim = dim
        self._m = m
        self._mmax0 = 2 * m
        self._ml = 1.0 / math.log(m)
        self._ef_construction = ef_construction
        self.ef_search = ef_search
        self._rng = random.Random(seed)
        self._vecs = np.zeros((0, dim))  # slot -> vector
        self._live = np.zeros(0, dtype=bool)  # slot -> holds a live id
        self._ids: list[str | None] = []  # slot -> id, None once removed
        self._slots: dict[str, int] = {}  # live id -> slot
        # None in the flat phase; else _links[layer][slot] -> neighbour slots
        self._links: list[dict[int, list[int]]] | None = None
        self._entry = -1
        self._entry_level = -1

    def __len__(self) -> int:
        return len(self._slots)

    def add(self, item_id: str, vec: np.ndarray) -> None:
        if item_id in self._slots:
            raise ValueError(f"duplicate index id {item_id!r}")
        if np.shape(vec) != (self.dim,):
            raise ValueError(f"vector shape {np.shape(vec)} is not ({self.dim},)")
        slot = len(self._ids)
        if slot == len(self._vecs):
            self._resize(slot + _BLOCK_ROWS, slice(None))
        self._vecs[slot] = vec
        self._live[slot] = True
        self._ids.append(item_id)
        self._slots[item_id] = slot
        if self._links is not None:
            self._insert(slot)
        elif len(self._slots) >= GRAPH_ROWS:
            self._build()

    def remove(self, item_id: str) -> None:
        """Free an id; a graph keeps its slot for routing until compaction."""
        slot = self._slots.pop(item_id, None)
        if slot is None:
            return
        self._ids[slot] = None
        self._live[slot] = False
        if len(self._ids) > 2 * len(self._slots):
            self._compact()

    def search(self, vec: np.ndarray, k: int) -> list[str]:
        """Ids of the k (approximately, in the graph phase) closest live
        items, closest first."""
        k = min(k, len(self._slots))
        if k <= 0:
            return []
        vec = np.asarray(vec, dtype=np.float64)
        if self._links is None:
            found = self._scan(vec, k)
        else:
            cur = self._entry
            for lc in range(self._entry_level, 0, -1):
                cur = self._greedy(vec, cur, lc)
            ef = max(self.ef_search, k)
            found = [s for _, s in self._search_layer(vec, [cur], ef, 0, True)[:k]]
        return [self._ids[s] for s in found]

    # -- storage -----------------------------------------------------------

    def _resize(self, rows: int, keep: np.ndarray | slice) -> None:
        """Move the rows of slots ``keep`` to the front of a ``rows``-row
        matrix, in order."""
        kept = self._vecs[keep]
        vecs = np.zeros((rows, self.dim))
        vecs[: len(kept)] = kept
        live = np.zeros(rows, dtype=bool)
        live[: len(kept)] = self._live[keep]
        self._vecs, self._live = vecs, live

    def _compact(self) -> None:
        """Drop the dead slots; a graph is rebuilt over the live rows unless
        fewer than half of ``GRAPH_ROWS`` are left."""
        keep = np.flatnonzero(self._live)
        self._resize(-(-len(keep) // _BLOCK_ROWS) * _BLOCK_ROWS, keep)
        self._ids = [self._ids[s] for s in keep.tolist()]
        self._slots = {item_id: slot for slot, item_id in enumerate(self._ids)}
        graph = self._links is not None and len(self._slots) >= GRAPH_ROWS // 2
        self._links = None
        if graph:
            self._build()

    def _scan(self, vec: np.ndarray, k: int) -> list[int]:
        """The k live slots of highest dot product, by one product per block
        of rows; of equal scores the lower slot comes first."""
        n = len(self._ids)
        scores = np.empty(n)
        # a product over more rows runs on several BLAS threads, which stall
        # while other processes hold the cores
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n)
            np.dot(self._vecs[lo:hi], vec, out=scores[lo:hi])
        scores[~self._live[:n]] = -np.inf
        top = np.arange(n)
        if k < n:
            top = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
        return top[np.argsort(-scores[top], kind="stable")][:k].tolist()

    # -- graph -------------------------------------------------------------

    def _build(self) -> None:
        """Build the graph over the live rows, in slot order."""
        self._links = []
        self._entry = self._entry_level = -1
        for slot in np.flatnonzero(self._live).tolist():
            self._insert(slot)

    def _max_links(self, layer: int) -> int:
        return self._mmax0 if layer == 0 else self._m

    def _dists(self, vec: np.ndarray, slots: list[int]) -> list[float]:
        return (1.0 - self._vecs[slots] @ vec).tolist()

    def _greedy(self, vec: np.ndarray, start: int, layer: int) -> int:
        cur = start
        cur_d = self._dists(vec, [cur])[0]
        improved = True
        while improved:
            improved = False
            nbs = self._links[layer][cur]
            for d, nb in zip(self._dists(vec, nbs), nbs):
                if d < cur_d or (d == cur_d and nb < cur):
                    cur, cur_d = nb, d
                    improved = True
        return cur

    def _search_layer(
        self, vec: np.ndarray, entries: list[int], ef: int, layer: int, live_only: bool = False
    ) -> list[tuple[float, int]]:
        """The ef closest slots reachable from ``entries``, closest first;
        with ``live_only``, dead slots are walked through but not returned."""
        links = self._links[layer]
        live = self._live
        visited = set(entries)
        candidates = list(zip(self._dists(vec, entries), entries))
        heapq.heapify(candidates)
        best = [(-d, s) for d, s in candidates if live[s] or not live_only]  # max-heap
        heapq.heapify(best)
        while candidates:
            d, node = heapq.heappop(candidates)
            if len(best) >= ef and d > -best[0][0]:
                break
            nbs = [nb for nb in links[node] if nb not in visited]
            if not nbs:
                continue
            visited.update(nbs)
            for dn, nb in zip(self._dists(vec, nbs), nbs):
                if len(best) < ef or dn < -best[0][0]:
                    heapq.heappush(candidates, (dn, nb))
                    if live[nb] or not live_only:
                        heapq.heappush(best, (-dn, nb))
                        if len(best) > ef:
                            heapq.heappop(best)
        return sorted((-nd, s) for nd, s in best)

    def _insert(self, slot: int) -> None:
        vec = self._vecs[slot]
        level = int(-math.log(max(self._rng.random(), 1e-12)) * self._ml)
        while len(self._links) <= level:
            self._links.append({})
        for lc in range(level + 1):
            self._links[lc][slot] = []
        if self._entry < 0:
            self._entry, self._entry_level = slot, level
            return
        cur = self._entry
        for lc in range(self._entry_level, level, -1):
            cur = self._greedy(vec, cur, lc)
        entries = [cur]
        for lc in range(min(level, self._entry_level), -1, -1):
            found = self._search_layer(vec, entries, self._ef_construction, lc)
            cap = self._max_links(lc)
            neighbours = [s for _, s in found[:cap]]
            self._links[lc][slot] = neighbours
            for nb in neighbours:
                nb_links = self._links[lc][nb]
                nb_links.append(slot)
                if len(nb_links) > cap:
                    # keep the closest cap links of the neighbour
                    kept = sorted(zip(self._dists(self._vecs[nb], nb_links), nb_links))
                    nb_links[:] = [s for _, s in kept[:cap]]
            entries = [s for _, s in found]
        if level > self._entry_level:
            self._entry, self._entry_level = slot, level
