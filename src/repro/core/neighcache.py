"""Per-epsilon neighborhood cache shared across variants.

Motivation (paper Section IV-D): SCHEDMINPTS deliberately groups the
variant set by distinct eps values — it scratch-clusters one max-minpts
variant per eps so that later variants find an eps-matched reuse
source.  Every variant sharing an eps issues *identical* epsilon
searches against the same index: the neighborhood ``N_eps(p)`` depends
only on the point database and eps, not on minpts.  Recomputing those
searches per variant is pure waste, so this cache memoizes filtered
neighbor lists keyed by ``(eps, index)`` and serves them to any later
variant with the same key.

Safety rules
------------
* A cached entry is only valid for the exact ``(eps, id(index))`` pair
  it was stored under.  The indexes here are immutable after
  construction (see :class:`~repro.index.base.SpatialIndex`), and the
  cache keeps a strong reference to the index so its ``id`` cannot be
  recycled while the entry lives.
* Cached arrays are returned by reference and marked read-only; callers
  must treat them as immutable (the clustering kernels already do).
* ``minpts`` never enters the key: neighborhoods are parameter-free
  beyond eps, which is exactly why sharing across variants is sound.

Concurrency
-----------
All public methods take an internal lock, so one instance may be shared
by every thread of a process.  Process lanes cannot share
Python objects cheaply; each lane worker builds its own cache (see
:mod:`repro.exec.graph`).

Capacity
--------
The cache is bounded by ``capacity_bytes`` of stored neighbor-list
payload (the accounting tracks row payload, not allocator slack or the
per-entry offset tables).  Eviction is LRU at *entry* granularity: the
least recently used ``(eps, index)`` entry is dropped wholesale.  Entry
granularity matches the access pattern — a variant hammers one eps for
its whole run, then the scheduler moves on — and keeps eviction O(1)
decisions instead of per-point bookkeeping.

Storage layout
--------------
Each ``(eps, index)`` entry is structure-of-arrays, not a dict of rows:
dense ``starts``/``lengths`` offset tables over the point ids plus one
append-only int64 payload buffer (grown by doubling).  Block lookups
(:meth:`NeighborhoodCache.get_csr`) and block inserts
(:meth:`NeighborhoodCache.put_csr`) are then pure NumPy gathers and
scatters — no per-row Python — which is what lets the cached
``search_batch`` path actually beat the uncached one instead of
drowning its hits in per-row overhead.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.index._ranges import ranges_to_indices
from repro.util.tracing import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.index.base import SpatialIndex

__all__ = ["NeighborhoodCache", "CacheStats", "DEFAULT_CACHE_BYTES"]

#: Default payload capacity: generous for the benchmark workloads
#: (a 50k-point dataset's full neighborhood table is a few MB per eps)
#: while still bounding pathological eps-rich sweeps.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


@dataclass
class CacheStats:
    """Point-in-time cache statistics (see :meth:`NeighborhoodCache.stats`)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    bytes_stored: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _EpsEntry:
    """Neighbor lists for one ``(eps, index)`` key, structure-of-arrays.

    ``starts[i] >= 0`` marks point ``i`` as cached; its neighbor list is
    ``buf[starts[i] : starts[i] + lengths[i]]``.  ``buf`` is append-only
    and doubles on overflow; ``nbytes`` counts stored row payload (what
    the capacity bound meters), not buffer slack or the offset tables.
    """

    __slots__ = ("index", "starts", "lengths", "buf", "used", "nbytes")

    def __init__(self, index: SpatialIndex) -> None:
        self.index = index  # strong ref pins id(index) for the key's lifetime
        n = int(index.points.shape[0])
        self.starts = np.full(n, -1, dtype=np.int64)
        self.lengths = np.zeros(n, dtype=np.int64)
        self.buf = np.empty(max(256, n), dtype=np.int64)
        self.used = 0
        self.nbytes = 0

    def reserve(self, extra: int) -> None:
        need = self.used + extra
        if need > self.buf.size:
            new_size = self.buf.size
            while new_size < need:
                new_size *= 2
            grown = np.empty(new_size, dtype=np.int64)
            grown[: self.used] = self.buf[: self.used]
            self.buf = grown


class NeighborhoodCache:
    """LRU-bounded store of filtered epsilon-neighborhoods.

    Parameters
    ----------
    capacity_bytes:
        Upper bound on stored neighbor-list payload.  When an insert
        pushes the total above the bound, least-recently-used
        ``(eps, index)`` entries are evicted until it fits.  The entry
        currently being written is never evicted by its own insert.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[float, int], _EpsEntry] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # lookup / store
    # ------------------------------------------------------------------
    def get_csr(
        self, eps: float, index: SpatialIndex, idxs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized block lookup: the hit rows of ``idxs``, CSR-packed.

        Returns ``(hit_mask, indptr, flat)``: ``hit_mask[k]`` says
        whether ``idxs[k]`` was cached, and the ``hit_mask.sum()`` hit
        rows — in ``idxs`` order — are CSR-encoded in ``(indptr,
        flat)``.  ``flat`` is a fresh gather (it shares no storage with
        the cache), so callers may keep it without pinning anything.
        Hit/miss tallies update per point; the entry is refreshed in
        the LRU order whether or not any row hit.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        m = int(idxs.size)
        key = (float(eps), id(index))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += m
                return (
                    np.zeros(m, dtype=bool),
                    np.zeros(1, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
            self._entries.move_to_end(key)
            pos = entry.starts[idxs]
            hit_mask = pos >= 0
            n_hit = int(hit_mask.sum())
            self._hits += n_hit
            self._misses += m - n_hit
            lens = entry.lengths[idxs[hit_mask]]
            indptr = np.zeros(n_hit + 1, dtype=np.int64)
            np.cumsum(lens, out=indptr[1:])
            flat = entry.buf[ranges_to_indices(pos[hit_mask], lens)]
            return hit_mask, indptr, flat

    def put_csr(
        self,
        eps: float,
        index: SpatialIndex,
        idxs: np.ndarray,
        indptr: np.ndarray,
        flat: np.ndarray,
    ) -> None:
        """Store a whole CSR block of neighbor lists in one scatter.

        Rows already present are skipped (first write wins, matching
        the scalar machine, whose second search of a point is a hit).
        The new rows are appended to the entry's payload buffer and
        registered in its offset tables — no per-row Python.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        key = (float(eps), id(index))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _EpsEntry(index)
                self._entries[key] = entry
            self._entries.move_to_end(key)
            new = entry.starts[idxs] < 0
            if idxs.size > 1:
                # Within-block duplicates all look new; keep only each
                # point's first occurrence.
                first = np.zeros(idxs.size, dtype=bool)
                first[np.unique(idxs, return_index=True)[1]] = True
                new &= first
            lens = np.diff(indptr)
            add = lens[new]
            total = int(add.sum())
            entry.reserve(total)
            src = ranges_to_indices(indptr[:-1][new], add)
            entry.buf[entry.used : entry.used + total] = flat[src]
            starts_new = np.empty(add.size, dtype=np.int64)
            if add.size:
                starts_new[0] = entry.used
                np.cumsum(add[:-1], out=starts_new[1:])
                starts_new[1:] += entry.used
            entry.starts[idxs[new]] = starts_new
            entry.lengths[idxs[new]] = add
            entry.used += total
            added_bytes = total * 8
            entry.nbytes += added_bytes
            self._bytes += added_bytes
            # Evict least-recently-used entries (never the one just
            # touched — it sits at the MRU end) until under capacity.
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                self._evict_lru()

    def _evict_lru(self) -> None:
        """Drop the LRU entry (caller holds the lock); traces the event."""
        victim_key, victim = self._entries.popitem(last=False)
        self._bytes -= victim.nbytes
        self._evictions += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                "cache.evict", eps=victim_key[0], bytes=victim.nbytes
            )

    def get_many(
        self, eps: float, index: SpatialIndex, idxs: np.ndarray
    ) -> list[np.ndarray | None]:
        """Row-list convenience wrapper over :meth:`get_csr`."""
        idxs = np.asarray(idxs, dtype=np.int64)
        hit_mask, indptr, flat = self.get_csr(eps, index, idxs)
        flat.setflags(write=False)
        out: list[np.ndarray | None] = [None] * idxs.size
        for k, p in enumerate(np.flatnonzero(hit_mask)):
            out[int(p)] = flat[indptr[k] : indptr[k + 1]]
        return out

    def put_many(
        self,
        eps: float,
        index: SpatialIndex,
        idxs: np.ndarray,
        neighborhoods: list[np.ndarray],
    ) -> None:
        """Row-list convenience wrapper over :meth:`put_csr`."""
        sizes = np.array([r.size for r in neighborhoods], dtype=np.int64)
        indptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        flat = (
            np.concatenate(neighborhoods)
            if indptr[-1]
            else np.empty(0, dtype=np.int64)
        )
        self.put_csr(eps, index, np.asarray(idxs, dtype=np.int64), indptr, flat)

    def get(self, eps: float, index: SpatialIndex, idx: int) -> np.ndarray | None:
        """Single-point lookup; returns a read-only copy or ``None``."""
        hit_mask, _, flat = self.get_csr(
            eps, index, np.array([idx], dtype=np.int64)
        )
        if not hit_mask[0]:
            return None
        flat.setflags(write=False)
        return flat

    def put(self, eps: float, index: SpatialIndex, idx: int, arr: np.ndarray) -> None:
        """Single-point store (skipped if the row is already cached)."""
        key = (float(eps), id(index))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _EpsEntry(index)
                self._entries[key] = entry
            self._entries.move_to_end(key)
            if entry.starts[idx] >= 0:
                return
            size = int(arr.size)
            entry.reserve(size)
            entry.buf[entry.used : entry.used + size] = arr
            entry.starts[idx] = entry.used
            entry.lengths[idx] = size
            entry.used += size
            entry.nbytes += size * 8
            self._bytes += size * 8
            while self._bytes > self.capacity_bytes and len(self._entries) > 1:
                self._evict_lru()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """Snapshot of hit/miss/eviction/occupancy statistics."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes_stored=self._bytes,
            )

    @property
    def nbytes(self) -> int:
        """Current stored payload size in bytes."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"NeighborhoodCache(entries={s.entries}, bytes={s.bytes_stored}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )
