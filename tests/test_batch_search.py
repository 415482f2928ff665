"""Batched epsilon-search engine: exact parity with the scalar path.

The whole batched stack — ``query_candidates_batch`` on every index,
``NeighborSearcher.search_batch``, the blocked frontier expansion in
DBSCAN/VariantDBSCAN, and the per-eps neighborhood cache — promises
*byte-identical* labels, core masks, and work-counter totals versus the
original one-point-at-a-time code.  These tests pin that promise down
with hypothesis-driven point sets spanning the empty/singleton/small/
clustered regimes, all four index types, and the paper's index
resolutions r in {1, 8, 70}.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dbscan import dbscan
from repro.core.neighbors import NeighborSearcher
from repro.core.neighcache import NeighborhoodCache
from repro.core.scheduling import SchedMinpts
from repro.core.variant_dbscan import variant_dbscan
from repro.core.variants import Variant, VariantSet
from repro.index.brute import BruteForceIndex
from repro.index.grid import UniformGridIndex
from repro.index.kdtree import KDTree
from repro.index.rtree import RTree
from repro.metrics.counters import WorkCounters
from repro.util.rng import resolve_rng
from tests.helpers import run_batch

R_VALUES = [1, 8, 70]

INDEX_BUILDERS = {
    "rtree-r1": lambda pts: RTree(pts, r=1),
    "rtree-r8": lambda pts: RTree(pts, r=8),
    "rtree-r70": lambda pts: RTree(pts, r=70),
    "grid": lambda pts: UniformGridIndex(pts, cell_width=0.9),
    "kdtree": lambda pts: KDTree(pts, leaf_size=8),
    "brute": lambda pts: BruteForceIndex(pts),
}


def _make_points(kind: str, seed: int) -> np.ndarray:
    """Deterministic point sets across the size/shape regimes."""
    g = resolve_rng(seed)
    if kind == "empty":
        return np.empty((0, 2), dtype=np.float64)
    if kind == "single":
        return np.array([[0.3, -1.2]])
    if kind == "small":
        return g.uniform(-2.0, 2.0, (17, 2))
    # clustered: two dense blobs + uniform background
    return np.vstack(
        [
            g.normal(0.0, 0.4, (120, 2)),
            g.normal(5.0, 0.6, (150, 2)),
            g.uniform(-3.0, 8.0, (40, 2)),
        ]
    )


point_kinds = st.sampled_from(["empty", "single", "small", "clustered"])
index_names = st.sampled_from(sorted(INDEX_BUILDERS))
eps_values = st.sampled_from([0.25, 0.6, 1.3])
seeds = st.integers(0, 2**16)


def _scalar_reference(searcher: NeighborSearcher, idxs: np.ndarray):
    """Per-point search results + counter totals, on fresh counters."""
    rows = [searcher.search(int(i)) for i in idxs]
    return rows


class TestSearchBatchParity:
    """search_batch == per-point search, rows and counters both."""

    @settings(max_examples=40, deadline=None)
    @given(point_kinds, index_names, eps_values, seeds)
    def test_rows_and_counters_match(self, kind, index_name, eps, seed):
        points = _make_points(kind, seed)
        index = INDEX_BUILDERS[index_name](points)
        n = points.shape[0]
        g = resolve_rng(seed + 1)
        # include duplicates and unsorted order on purpose
        idxs = g.integers(0, n, size=min(2 * n, 64)) if n else np.empty(0, int)
        idxs = np.asarray(idxs, dtype=np.int64)

        c_scalar = WorkCounters()
        scalar = _scalar_reference(
            NeighborSearcher(index, eps, c_scalar), idxs
        )
        c_batch = WorkCounters()
        indptr, flat = NeighborSearcher(index, eps, c_batch).search_batch(idxs)

        assert indptr.shape == (idxs.size + 1,)
        assert indptr[0] == 0
        for i, ref in enumerate(scalar):
            row = flat[indptr[i] : indptr[i + 1]]
            np.testing.assert_array_equal(row, ref)
        assert c_batch.as_dict() == c_scalar.as_dict()

    @pytest.mark.parametrize("r", R_VALUES)
    def test_rtree_resolutions_clustered(self, r):
        points = _make_points("clustered", 5)
        index = RTree(points, r=r)
        idxs = np.arange(points.shape[0], dtype=np.int64)
        c_scalar, c_batch = WorkCounters(), WorkCounters()
        scalar = _scalar_reference(NeighborSearcher(index, 0.6, c_scalar), idxs)
        indptr, flat = NeighborSearcher(index, 0.6, c_batch).search_batch(idxs)
        for i, ref in enumerate(scalar):
            np.testing.assert_array_equal(flat[indptr[i] : indptr[i + 1]], ref)
        assert c_batch.as_dict() == c_scalar.as_dict()

    def test_empty_block(self):
        points = _make_points("clustered", 1)
        searcher = NeighborSearcher(RTree(points, r=8), 0.5, WorkCounters())
        indptr, flat = searcher.search_batch(np.empty(0, dtype=np.int64))
        assert indptr.tolist() == [0]
        assert flat.size == 0

    @settings(max_examples=15, deadline=None)
    @given(index_names, eps_values, seeds)
    def test_cached_batch_matches_uncached(self, index_name, eps, seed):
        """Cache hits return the same rows; cache counters balance."""
        points = _make_points("clustered", seed)
        index = INDEX_BUILDERS[index_name](points)
        idxs = np.arange(0, points.shape[0], 3, dtype=np.int64)
        plain = NeighborSearcher(index, eps, WorkCounters())
        cache = NeighborhoodCache(capacity_bytes=32 << 20)
        c = WorkCounters()
        cached = NeighborSearcher(index, eps, c, cache=cache)
        for _ in range(2):  # second pass is all hits
            indptr, flat = cached.search_batch(idxs)
            for i, p in enumerate(idxs):
                np.testing.assert_array_equal(
                    flat[indptr[i] : indptr[i + 1]], plain.search(int(p))
                )
        assert c.neigh_cache_misses == idxs.size
        assert c.neigh_cache_hits == idxs.size
        assert c.neighbor_searches == 2 * idxs.size


class TestBatchedClusteringParity:
    """Whole-pipeline parity: batched/cached DBSCAN == scalar DBSCAN."""

    @settings(max_examples=20, deadline=None)
    @given(
        point_kinds,
        eps_values,
        st.sampled_from([2, 4, 8]),
        st.sampled_from([2, 7, 256]),
        seeds,
    )
    def test_dbscan_batched_equals_scalar(self, kind, eps, minpts, bs, seed):
        points = _make_points(kind, seed)
        index = RTree(points, r=8)
        c_s, c_b = WorkCounters(), WorkCounters()
        ref = dbscan(points, eps, minpts, index=index, counters=c_s, batch_size=1)
        got = dbscan(points, eps, minpts, index=index, counters=c_b, batch_size=bs)
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)
        assert c_b.as_dict() == c_s.as_dict()

    @settings(max_examples=10, deadline=None)
    @given(seeds, st.sampled_from([4, 64]))
    def test_variant_dbscan_reuse_path_parity(self, seed, bs):
        points = _make_points("clustered", seed)
        t_high = RTree(points, r=1)
        t_low = RTree(points, r=70)
        prev = variant_dbscan(points, Variant(0.4, 8), None, t_low=t_low, batch_size=1)
        c_s, c_b = WorkCounters(), WorkCounters()
        ref = variant_dbscan(
            points, Variant(0.7, 4), prev, t_high=t_high, t_low=t_low,
            counters=c_s, batch_size=1,
        )
        got = variant_dbscan(
            points, Variant(0.7, 4), prev, t_high=t_high, t_low=t_low,
            counters=c_b, batch_size=bs,
        )
        np.testing.assert_array_equal(got.labels, ref.labels)
        np.testing.assert_array_equal(got.core_mask, ref.core_mask)
        assert c_b.as_dict() == c_s.as_dict()

    def test_cached_executor_identical_labels(self, two_blobs):
        """Cached vs uncached VariantDBSCAN batches agree label-for-label."""
        vset = VariantSet.from_product([0.5, 0.6, 0.8], [4, 6])
        plain = run_batch("serial", two_blobs, vset, scheduler=SchedMinpts())
        cached = run_batch(
            "serial", two_blobs, vset, scheduler=SchedMinpts(), cache_bytes=64 << 20
        )
        for v in vset:
            np.testing.assert_array_equal(cached[v].labels, plain[v].labels)
            np.testing.assert_array_equal(cached[v].core_mask, plain[v].core_mask)
        hits = sum(r.counters.neigh_cache_hits for r in cached.record.records)
        assert hits > 0  # SCHEDMINPTS groups eps values, so sharing must occur


class TestNeighborhoodCache:
    def test_lru_eviction_respects_capacity(self):
        points = _make_points("clustered", 3)
        index = RTree(points, r=8)
        row = np.arange(64, dtype=np.int64)
        cap = 3 * row.nbytes
        cache = NeighborhoodCache(capacity_bytes=cap)
        for k, eps in enumerate([0.1, 0.2, 0.3, 0.4, 0.5]):
            cache.put(eps, index, k, row.copy())
            assert cache.nbytes <= cap
        stats = cache.stats()
        assert stats.evictions >= 2
        # oldest eps entries evicted, newest retained
        assert cache.get(0.5, index, 4) is not None
        assert cache.get(0.1, index, 0) is None

    def test_rows_are_readonly_and_copied(self):
        points = _make_points("small", 9)
        index = RTree(points, r=1)
        cache = NeighborhoodCache(capacity_bytes=1 << 20)
        big = np.arange(100, dtype=np.int64)
        cache.put(0.5, index, 0, big[:10])  # a view — must be copied
        got = cache.get(0.5, index, 0)
        assert got.base is None or got.base is not big
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = -1

    def test_distinct_eps_and_index_are_distinct_keys(self):
        points = _make_points("small", 4)
        a, b = RTree(points, r=1), RTree(points, r=8)
        cache = NeighborhoodCache(capacity_bytes=1 << 20)
        cache.put(0.5, a, 0, np.array([1, 2], dtype=np.int64))
        assert cache.get(0.5, b, 0) is None
        assert cache.get(0.6, a, 0) is None
        assert cache.get(0.5, a, 0) is not None
