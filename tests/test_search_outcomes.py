"""The run-scoped search-outcome table settles searches exactly.

A batched run that settles known non-core searches from the table must
be indistinguishable from the unmemoized scalar machine: equal labels,
core masks and every work counter, on every substrate that shares or
rebuilds the table.  The table lives for one ``Session.run`` only.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.engine.session as session_mod
from repro import Session, VariantSet
from repro.core.neighbors import NeighborSearcher, SearchOutcomes
from repro.core.neighcache import NeighborhoodCache
from repro.core.variant_dbscan import variant_dbscan
from repro.data.registry import load_dataset
from repro.index.rtree import RTree
from repro.metrics.counters import WorkCounters
from repro.obs import MetricsRegistry, Tracer, use_tracer

#: Two same-eps minpts chains: SCHEDGREEDY reuses down each chain.
VARIANTS = VariantSet.from_product([0.5, 0.6], [4, 8, 16, 32])


@pytest.fixture(scope="module")
def points():
    return load_dataset("SW1", 0.005).points


def _traced_run(points, **knobs):
    tracer = Tracer()
    with use_tracer(tracer), Session(points) as session:
        batch = session.run(VARIANTS, **knobs)
    return batch, MetricsRegistry.from_batch(batch, tracer)


def _assert_same(a, b):
    """Equal labels, core masks and counters, variant by variant."""
    counters_a = {r.variant: r.counters.as_dict() for r in a.record.records}
    counters_b = {r.variant: r.counters.as_dict() for r in b.record.records}
    assert counters_a == counters_b
    for v in VARIANTS:
        assert np.array_equal(a[v].labels, b[v].labels), v
        assert np.array_equal(a[v].core_mask, b[v].core_mask), v


class TestTableUnit:
    def test_settle_charges_exactly_the_skipped_searches(self, points):
        index = RTree(points, r=70)
        table = SearchOutcomes()
        first = NeighborSearcher(index, 0.5, WorkCounters(), outcomes=table)
        idxs = np.arange(0, points.shape[0], 7, dtype=np.int64)
        first.search_batch(idxs)
        later = NeighborSearcher(index, 0.5, WorkCounters(), outcomes=table)
        mask = later.settle_noncore(idxs, minpts=10**6)
        assert mask.all()
        assert later.counters.as_dict() == first.counters.as_dict()
        stats = table.stats()
        assert stats["recorded"] == idxs.size
        assert stats["settled"] == idxs.size
        assert stats["bytes"] == 12 * points.shape[0]

    def test_scalar_and_batch_searches_record_the_same(self, points):
        index = RTree(points, r=70)
        idxs = np.arange(50, dtype=np.int64)
        scalar, batch = SearchOutcomes(), SearchOutcomes()
        s = NeighborSearcher(index, 0.5, outcomes=scalar)
        for p in idxs:
            s.search(int(p))
        NeighborSearcher(index, 0.5, outcomes=batch).search_batch(idxs)
        a, b = scalar.entry(0.5, index), batch.entry(0.5, index)
        for name in ("count", "visits", "cands"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_unknown_and_core_points_are_not_settled(self, points):
        index = RTree(points, r=70)
        table = SearchOutcomes()
        searcher = NeighborSearcher(index, 0.5, outcomes=table)
        ptr, _ = searcher.search_batch(np.arange(10, dtype=np.int64))
        counts = np.diff(ptr)
        minpts = int(np.median(counts)) + 1
        mask = searcher.settle_noncore(np.arange(20, dtype=np.int64), minpts)
        assert np.array_equal(mask[:10], counts < minpts)
        assert not mask[10:].any()

    def test_cache_switches_the_table_off(self, points):
        index = RTree(points, r=70)
        searcher = NeighborSearcher(
            index, 0.5, cache=NeighborhoodCache(1 << 20), outcomes=SearchOutcomes()
        )
        assert searcher.outcomes is None


@pytest.mark.parametrize("kernel", ["bfs", "cellgraph"])
class TestExactness:
    @pytest.mark.parametrize("executor", ["serial", "processes"])
    def test_batched_equals_scalar(self, points, kernel, executor):
        knobs = dict(executor=executor, n_threads=2, kernel=kernel)
        batched, registry = _traced_run(points, batch_size=256, **knobs)
        scalar, scalar_registry = _traced_run(points, batch_size=1, **knobs)
        _assert_same(batched, scalar)
        assert registry.search_outcomes is not None
        assert registry.search_outcomes["settled"] > 0
        # The scalar machine runs unmemoized.
        assert scalar_registry.search_outcomes is None


def test_row_cache_counters_unchanged(points):
    """With a row cache the table stays off and the cache serves as before."""
    cached, registry = _traced_run(points, cache_bytes=64 << 20)
    scalar, _ = _traced_run(points, cache_bytes=64 << 20, batch_size=1)
    _assert_same(cached, scalar)
    assert registry.search_outcomes is None
    assert registry.cache["hits"] > 0
    totals = registry.totals
    assert totals.neigh_cache_hits + totals.neigh_cache_misses > 0


@pytest.mark.parametrize("executor", ["serial", "processes"])
def test_table_is_freed_when_the_run_returns(points, monkeypatch, executor):
    refs: list[weakref.ref] = []

    class Spy(SearchOutcomes):
        def __init__(self) -> None:
            super().__init__()
            refs.append(weakref.ref(self))

    monkeypatch.setattr(session_mod, "SearchOutcomes", Spy)
    gc.disable()
    try:
        with Session(points) as session:
            session.run(VARIANTS, executor=executor, n_threads=2)
            assert len(refs) == 1
            # No GC pass: the table must die by reference counting alone.
            assert refs[0]() is None
    finally:
        gc.enable()
