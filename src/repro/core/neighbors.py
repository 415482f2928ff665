"""Epsilon-neighborhood search — Algorithm 2 of the paper.

The search is three steps with observable costs:

1. build the query MBB around the point, augmented by ``eps``;
2. search the index for overlapping MBBs and look up their points
   (``index.query_candidates`` — charges ``index_nodes_visited``);
3. filter candidates by exact Euclidean distance (charges
   ``candidates_examined`` / ``distance_computations``).

The trade the paper's Section IV-A studies is entirely between steps 2
and 3: a coarse index (large ``r``) makes step 2 cheap and step 3
expensive, and step 3 vectorizes while step 2 does not.

:class:`NeighborSearcher` binds ``(points, index, eps, counters)`` once
so DBSCAN's inner loop does no repeated attribute lookups.  Two kernels
are exposed:

* :meth:`NeighborSearcher.search` — one point, one query (the original
  scalar path).
* :meth:`NeighborSearcher.search_batch` — a whole block of points in
  one CSR-shaped result, riding the indexes' vectorized
  ``query_candidates_batch`` so per-query Python overhead amortizes
  across the block.  Counter totals are identical to issuing the same
  block through :meth:`search` point by point.

Both kernels consult an optional per-eps
:class:`~repro.core.neighcache.NeighborhoodCache`: a hit returns the
memoized (read-only) neighbor array and charges only the search itself
— no node visits, candidates, or distance computations.

Without a cache, a searcher may instead carry one entry of a run-scoped
:class:`SearchOutcomes` table: every search records ``|N_eps(p)|`` and
its scalar-equivalent charges, and :meth:`NeighborSearcher.settle_noncore`
lets the batched Algorithm 1/4 loops skip a later search whose recorded
count is already below ``minpts`` while charging exactly what it would
have cost.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.neighcache import NeighborhoodCache
from repro.index._ranges import ranges_to_indices
from repro.index.base import SpatialIndex
from repro.index.mbb import XMAX, XMIN, YMAX, YMIN, point_query_mbb
from repro.metrics.counters import WorkCounters

__all__ = [
    "neighbor_search",
    "NeighborSearcher",
    "OuterScanPrefetcher",
    "SearchOutcomes",
]


def neighbor_search(
    index: SpatialIndex,
    point_idx: int,
    eps: float,
    counters: WorkCounters | None = None,
) -> np.ndarray:
    """Return indices of all points within ``eps`` of point ``point_idx``.

    The result always contains ``point_idx`` itself (``dist(p, p) = 0 <=
    eps``), matching the paper's ``N_eps(p)`` definition, so ``minpts``
    thresholds count the point itself.
    """
    searcher = NeighborSearcher(index, eps, counters)
    return searcher.search(point_idx)


class _Outcomes:
    """Recorded search outcomes for one ``(eps, index)`` key.

    ``count[p] >= 0`` marks point ``p`` as searched: ``|N_eps(p)|`` and
    the node visits / candidates a scalar search of ``p`` charges.  All
    three are pure functions of ``(points, index, eps)``, so a record
    never goes stale and concurrent writers of one point agree.  Writes
    and reads hold the table's lock, and ``count`` is written last.
    """

    __slots__ = ("index", "count", "visits", "cands", "settled", "_lock")

    def __init__(self, index: SpatialIndex, lock: threading.Lock) -> None:
        self.index = index  # strong ref pins id(index) for the key's lifetime
        n = int(index.points.shape[0])
        self.count = np.full(n, -1, dtype=np.int32)
        self.visits = np.zeros(n, dtype=np.int32)
        self.cands = np.zeros(n, dtype=np.int32)
        self.settled = 0
        self._lock = lock

    def record(
        self,
        idxs: np.ndarray | int,
        counts: np.ndarray | int,
        visits: np.ndarray | int,
        cands: np.ndarray | int,
    ) -> None:
        """Record searches of ``idxs`` (one point or an array of them)."""
        with self._lock:
            self.visits[idxs] = visits
            self.cands[idxs] = cands
            self.count[idxs] = counts

    def settle(
        self, idxs: np.ndarray, minpts: int
    ) -> tuple[np.ndarray, int, int, int]:
        """Mask of ``idxs`` recorded non-core, with their summed charges.

        Returns ``(mask, neighbors, visits, cands)``: the summed
        ``|N_eps(p)|``, node visits and candidates of the masked points.
        """
        with self._lock:
            count = self.count[idxs]
            mask = (count >= 0) & (count < minpts)
            hit = idxs[mask]
            self.settled += int(hit.size)
            return (
                mask,
                int(count[mask].sum()),
                int(self.visits[hit].sum()),
                int(self.cands[hit].sum()),
            )


class SearchOutcomes:
    """Run-scoped table of epsilon-search outcomes, one entry per ``(eps, index)``.

    ``N_eps(p)`` and the cost of searching for it do not depend on
    minpts, so once any variant at this eps has searched ``p``, every
    later variant knows whether ``p`` is core under its own minpts and
    what the search costs.  The batched kernels use that to settle
    non-core searches without running them (see
    :meth:`NeighborSearcher.settle_noncore`).  Costs 12 bytes per point
    per entry; :class:`~repro.engine.session.Session` creates one per
    run and drops it when the run returns.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[tuple[float, int], _Outcomes] = {}

    def entry(self, eps: float, index: SpatialIndex) -> _Outcomes:
        """The (created-on-demand) entry for ``(eps, index)``."""
        key = (float(eps), id(index))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = _Outcomes(index, self._lock)
            return entry

    def stats(self) -> dict[str, int]:
        """Entries, bytes held, points recorded and searches settled."""
        with self._lock:
            entries = list(self._entries.values())
            return {
                "entries": len(entries),
                "bytes": sum(
                    e.count.nbytes + e.visits.nbytes + e.cands.nbytes
                    for e in entries
                ),
                "recorded": sum(int(np.count_nonzero(e.count >= 0)) for e in entries),
                "settled": sum(e.settled for e in entries),
            }


class NeighborSearcher:
    """Reusable epsilon-search kernel bound to one index and radius.

    Thread-safety: instances hold no mutable state besides the caller's
    counters (the optional cache and outcome table lock internally);
    one searcher per worker thread/process is the intended usage (each
    worker owns its counters).
    """

    __slots__ = (
        "index", "points", "eps", "_eps2", "counters", "cache", "outcomes", "_x", "_y"
    )

    def __init__(
        self,
        index: SpatialIndex,
        eps: float,
        counters: WorkCounters | None = None,
        *,
        cache: NeighborhoodCache | None = None,
        outcomes: SearchOutcomes | None = None,
    ) -> None:
        self.index = index
        self.points = index.points
        self.eps = float(eps)
        self._eps2 = self.eps * self.eps
        self.counters = counters if counters is not None else WorkCounters()
        self.cache = cache
        # A row cache serves instead, so its neigh_cache_* counters keep
        # their meaning.
        self.outcomes = (
            outcomes.entry(self.eps, index)
            if outcomes is not None and cache is None
            else None
        )
        # Column views: contiguous per-axis access beats fancy-indexing
        # rows in the filter kernel.
        self._x = np.ascontiguousarray(self.points[:, 0])
        self._y = np.ascontiguousarray(self.points[:, 1])

    def search(self, point_idx: int) -> np.ndarray:
        """Epsilon-neighborhood of an indexed point (Algorithm 2)."""
        if self.cache is not None:
            c = self.counters
            hit = self.cache.get(self.eps, self.index, point_idx)
            if hit is not None:
                c.neighbor_searches += 1
                c.neighbors_found += int(hit.size)
                c.neigh_cache_hits += 1
                c.neigh_cache_bytes += int(hit.nbytes)
                return hit
            neigh = self.search_xy(
                float(self._x[point_idx]), float(self._y[point_idx])
            )
            c.neigh_cache_misses += 1
            self.cache.put(self.eps, self.index, point_idx, neigh)
            return neigh
        x = float(self._x[point_idx])
        y = float(self._y[point_idx])
        if self.outcomes is None:
            return self.search_xy(x, y)
        c = self.counters
        visits0, cands0 = c.index_nodes_visited, c.candidates_examined
        neigh = self.search_xy(x, y)
        self.outcomes.record(
            point_idx,
            neigh.size,
            c.index_nodes_visited - visits0,
            c.candidates_examined - cands0,
        )
        return neigh

    def settle_noncore(self, idxs: np.ndarray, minpts: int) -> np.ndarray:
        """Settle the searches of ``idxs`` already known to be non-core.

        Returns the mask of points whose recorded ``|N_eps(p)|`` is below
        ``minpts``.  Their searches are charged exactly as a scalar
        :meth:`search` would charge them, and not run: the caller marks
        them visited and treats them as searched non-core points.  All
        ``False`` when no outcome table is attached.
        """
        if self.outcomes is None:
            return np.zeros(idxs.size, dtype=bool)
        mask, found, visits, cands = self.outcomes.settle(idxs, minpts)
        c = self.counters
        c.neighbor_searches += int(np.count_nonzero(mask))
        c.index_nodes_visited += visits
        c.candidates_examined += cands
        c.distance_computations += cands
        c.neighbors_found += found
        return mask

    def search_xy(self, x: float, y: float) -> np.ndarray:
        """Epsilon-neighborhood of an arbitrary location.

        Used by the VariantDBSCAN boundary-discovery phase, where the
        searched location is an *outside* point examined against the
        low-resolution tree.  Never cached: the cache is keyed by point
        index, not by location.
        """
        c = self.counters
        mbb = point_query_mbb(x, y, self.eps)
        cand = self.index.query_candidates(mbb, c)
        c.neighbor_searches += 1
        m = int(cand.size)
        c.candidates_examined += m
        c.distance_computations += m
        if m == 0:
            return cand
        dx = self._x[cand] - x
        dy = self._y[cand] - y
        mask = dx * dx + dy * dy <= self._eps2
        neigh = cand[mask]
        c.neighbors_found += int(neigh.size)
        return neigh

    # ------------------------------------------------------------------
    # batched kernel
    # ------------------------------------------------------------------
    def search_batch(self, point_idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Epsilon-neighborhoods of a block of indexed points, CSR-encoded.

        Parameters
        ----------
        point_idxs:
            int64 array of point indices (need not be unique or sorted).

        Returns
        -------
        (indptr, indices)
            Query ``i``'s neighborhood is
            ``indices[indptr[i]:indptr[i + 1]]``, elementwise equal to
            ``search(point_idxs[i])``.  Counter totals match the scalar
            calls exactly; with a cache attached, hits skip the index
            and filter entirely and charge the cache counters instead.
        """
        idxs = np.asarray(point_idxs, dtype=np.int64).reshape(-1)
        m = idxs.size
        if m == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64)
        c = self.counters
        c.neighbor_searches += m
        if self.cache is None:
            indptr, neigh = self._filter_block(idxs)
            c.neighbors_found += int(neigh.size)
            return indptr, neigh

        hit_mask, hit_ptr, hit_flat = self.cache.get_csr(self.eps, self.index, idxs)
        miss_mask = ~hit_mask
        n_miss = int(miss_mask.sum())
        c.neigh_cache_hits += m - n_miss
        c.neigh_cache_misses += n_miss
        c.neigh_cache_bytes += int(hit_flat.nbytes)
        sizes = np.zeros(m, dtype=np.int64)
        sizes[hit_mask] = np.diff(hit_ptr)
        if n_miss:
            miss_idx = idxs[miss_mask]
            miss_ptr, miss_flat = self._filter_block(miss_idx)
            self.cache.put_csr(self.eps, self.index, miss_idx, miss_ptr, miss_flat)
            sizes[miss_mask] = np.diff(miss_ptr)
        c.neighbors_found += int(sizes.sum())
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        # Interleave hit and miss rows back into query order with two
        # vectorized scatters.
        flat = np.empty(int(indptr[-1]), dtype=np.int64)
        starts = indptr[:-1]
        if m > n_miss:
            flat[ranges_to_indices(starts[hit_mask], sizes[hit_mask])] = hit_flat
        if n_miss:
            flat[ranges_to_indices(starts[miss_mask], sizes[miss_mask])] = miss_flat
        return indptr, flat

    def _query_mbbs(self, idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xs = self._x[idxs]
        ys = self._y[idxs]
        mbbs = np.empty((idxs.size, 4), dtype=np.float64)
        mbbs[:, XMIN] = xs - self.eps
        mbbs[:, YMIN] = ys - self.eps
        mbbs[:, XMAX] = xs + self.eps
        mbbs[:, YMAX] = ys + self.eps
        return mbbs, xs, ys

    def _distance_filter(
        self,
        cptr: np.ndarray,
        cand: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        m: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        qid = np.repeat(np.arange(m, dtype=np.int64), np.diff(cptr))
        dx = self._x[cand] - xs[qid]
        dy = self._y[cand] - ys[qid]
        mask = dx * dx + dy * dy <= self._eps2
        neigh = cand[mask]
        per_query = np.bincount(qid[mask], minlength=m)
        indptr = np.zeros(m + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(per_query)
        return indptr, neigh

    def _filter_block(self, idxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Uncached batch query + vectorized distance filter."""
        if self.outcomes is not None:
            indptr, neigh, visits, cands = self.filter_block_visits(idxs)
            c = self.counters
            c.index_nodes_visited += int(visits.sum())
            c.candidates_examined += int(cands.sum())
            c.distance_computations += int(cands.sum())
            return indptr, neigh
        c = self.counters
        m = idxs.size
        mbbs, xs, ys = self._query_mbbs(idxs)
        cptr, cand = self.index.query_candidates_batch(mbbs, c)
        t = int(cand.size)
        c.candidates_examined += t
        c.distance_computations += t
        if t == 0:
            return cptr, cand
        return self._distance_filter(cptr, cand, xs, ys, m)

    def filter_block_visits(
        self, idxs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batch search that charges NOTHING, with per-query cost attribution.

        Returns ``(indptr, neigh, visits, cands)`` where ``visits[i]`` /
        ``cands[i]`` are exactly what a scalar :meth:`search` of
        ``idxs[i]`` would add to ``index_nodes_visited`` /
        ``candidates_examined`` (and ``distance_computations``).  The
        speculative outer-scan prefetcher charges these per row on
        consumption; rows that are never consumed charge nothing —
        matching the scalar machine, which never searches those points.
        Every row is recorded in the outcome table, when one is attached.
        """
        m = idxs.size
        mbbs, xs, ys = self._query_mbbs(idxs)
        cptr, cand, visits = self.index.query_candidates_batch_visits(mbbs)
        cands = np.diff(cptr)
        if cand.size == 0:
            indptr, neigh = cptr, cand
        else:
            indptr, neigh = self._distance_filter(cptr, cand, xs, ys, m)
        if self.outcomes is not None:
            self.outcomes.record(idxs, np.diff(indptr), visits, cands)
        return indptr, neigh, visits, cands


class OuterScanPrefetcher:
    """Speculative block prefetch for DBSCAN's outer point scan.

    The Algorithm 1 outer loop searches exactly the points that are
    still unvisited when the scan reaches them — a data-dependent set,
    because each founded cluster's expansion visits points ahead of the
    scan.  That dependency forced the outer scan to stay scalar while
    everything else batched; it is also where half the remaining wall
    time lives on the benchmark workloads.

    This prefetcher restores batching *without* changing the abstract
    machine: it speculatively searches the next ``batch_size`` currently
    unvisited points in one uncharged batch
    (:meth:`NeighborSearcher.filter_block_visits`), then, as the scan
    consumes each point, charges that row's exact scalar-equivalent
    cost (per-query node visits, candidates, distances, cache
    hit/miss).  A prefetched row is a pure function of ``(points,
    eps)``, so it never goes stale; rows for points that an expansion
    visits first are simply dropped, uncharged — the scalar machine
    never searched them either.  Labels, core masks, work counters,
    and cache contents are therefore byte-identical to the scalar scan;
    the only side effect of a wasted row is wall-clock time, which the
    block amortization wins back many times over.
    """

    __slots__ = ("searcher", "visited", "batch_size", "_window", "_pending")

    def __init__(
        self, searcher: NeighborSearcher, visited: np.ndarray, batch_size: int
    ) -> None:
        self.searcher = searcher
        self.visited = visited
        self.batch_size = int(batch_size)
        # How far ahead to look for unvisited points when refilling: wide
        # enough to fill a block in sparse regions, narrow enough that the
        # bitmap scan stays cheap.
        self._window = max(1024, 64 * self.batch_size)
        self._pending: dict[int, tuple[np.ndarray, int, int, bool]] = {}

    def take(self, p: int) -> np.ndarray:
        """Neighborhood of scan point ``p``; charges like ``search(p)``.

        ``p`` must be the current outer-scan point (already flagged
        visited by the caller, exactly like the scalar loop).
        """
        entry = self._pending.pop(p, None)
        if entry is None:
            self._refill(p)
            entry = self._pending.pop(p)
        row, visits, cands, from_cache = entry
        s = self.searcher
        c = s.counters
        c.neighbor_searches += 1
        if from_cache:
            c.neighbors_found += int(row.size)
            c.neigh_cache_hits += 1
            c.neigh_cache_bytes += int(row.nbytes)
        else:
            c.index_nodes_visited += visits
            c.candidates_examined += cands
            c.distance_computations += cands
            c.neighbors_found += int(row.size)
            if s.cache is not None:
                c.neigh_cache_misses += 1
                s.cache.put(s.eps, s.index, p, row)
        return row

    def _refill(self, p: int) -> None:
        # Everything still pending is behind the scan point and was
        # claimed by an expansion: wasted speculation, dropped uncharged.
        self._pending.clear()
        ahead = p + 1 + np.flatnonzero(~self.visited[p + 1 : p + 1 + self._window])
        block = np.empty(min(self.batch_size, 1 + ahead.size), dtype=np.int64)
        block[0] = p
        block[1:] = ahead[: block.size - 1]
        s = self.searcher
        pending = self._pending
        if s.cache is not None:
            hit_mask, hit_ptr, hit_flat = s.cache.get_csr(s.eps, s.index, block)
            for k, pos in enumerate(np.flatnonzero(hit_mask)):
                pending[int(block[pos])] = (
                    hit_flat[hit_ptr[k] : hit_ptr[k + 1]],
                    0,
                    0,
                    True,
                )
            miss_idx = block[~hit_mask]
        else:
            miss_idx = block
        if miss_idx.size:
            ptr, flat, visits, cands = s.filter_block_visits(miss_idx)
            for k in range(miss_idx.size):
                pending[int(miss_idx[k])] = (
                    flat[ptr[k] : ptr[k + 1]],
                    int(visits[k]),
                    int(cands[k]),
                    False,
                )
