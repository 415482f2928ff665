"""Property-based invariants of the executor layer.

These pin down the simulated executor's accounting (the foundation the
figure reproductions rest on): work conservation, timeline sanity,
schedule legality, and determinism under arbitrary variant grids.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduling import SchedGreedy, SchedMinpts
from repro.core.variants import Variant, VariantSet
from repro.engine import IndexPair
from repro.exec import Executor
from repro.exec.graph import partition_reuse_chains
from repro.util.rng import resolve_rng
from tests.helpers import run_batch

eps_vals = st.sampled_from([0.4, 0.6, 0.8, 1.1])
minpts_vals = st.sampled_from([3, 4, 6, 9])
grids = st.builds(
    VariantSet,
    st.lists(
        st.builds(Variant, eps=eps_vals, minpts=minpts_vals),
        min_size=1,
        max_size=8,
    ),
)


@pytest.fixture(scope="module")
def cloud():
    g = resolve_rng(17)
    return np.vstack([g.normal(0, 0.5, (80, 2)), g.uniform(-2, 2, (40, 2))])


@pytest.fixture(scope="module")
def indexes(cloud):
    return IndexPair.build(cloud, 16)


class TestSimulatedInvariants:
    @settings(max_examples=20, deadline=None)
    @given(grids, st.integers(1, 6), st.booleans())
    def test_accounting_invariants(self, vset, n_threads, use_minpts_sched):
        g = resolve_rng(17)
        cloud = np.vstack([g.normal(0, 0.5, (80, 2)), g.uniform(-2, 2, (40, 2))])
        sched = SchedMinpts() if use_minpts_sched else SchedGreedy()
        executor = Executor("simulated", n_threads=n_threads, scheduler=sched)
        batch = run_batch(executor, cloud, vset)
        rec = batch.record

        # every variant ran exactly once
        ran = sorted(r.variant.as_tuple() for r in rec.records)
        assert ran == sorted(v.as_tuple() for v in vset)

        # per-record time accounting
        for r in rec.records:
            assert r.finish == pytest.approx(r.start + r.response_time)
            assert r.response_time > 0

        # makespan = latest finish >= lower bound; work conserved
        assert rec.makespan == pytest.approx(max(r.finish for r in rec.records))
        assert rec.makespan >= rec.lower_bound_makespan - 1e-9
        busy = sum(r.response_time for r in rec.records)
        assert busy == pytest.approx(rec.total_response_time)

        # no overlap within a worker lane
        for lane in rec.thread_timelines().values():
            for a, b in zip(lane, lane[1:]):
                assert b.start >= a.finish - 1e-9

        # reuse legality: every reused-from satisfies the inclusion
        # criteria and finished before the consumer started
        finish_of = {r.variant: r.finish for r in rec.records}
        for r in rec.records:
            if r.reused_from is not None:
                assert r.variant.can_reuse(r.reused_from)
                assert finish_of[r.reused_from] <= r.start + 1e-9

        # the IV-D scratch bound
        assert rec.n_from_scratch >= min(n_threads, len(vset))

    @settings(max_examples=10, deadline=None)
    @given(grids, st.integers(1, 5))
    def test_determinism(self, vset, n_threads):
        g = resolve_rng(17)
        cloud = np.vstack([g.normal(0, 0.5, (80, 2)), g.uniform(-2, 2, (40, 2))])
        a = run_batch(Executor("simulated", n_threads=n_threads), cloud, vset).record
        b = run_batch(Executor("simulated", n_threads=n_threads), cloud, vset).record
        assert [(r.variant.as_tuple(), r.start, r.finish, r.thread_id) for r in a.records] == [
            (r.variant.as_tuple(), r.start, r.finish, r.thread_id) for r in b.records
        ]


class TestChainPartitionProperties:
    @settings(max_examples=30, deadline=None)
    @given(grids, st.integers(1, 6))
    def test_partition_is_exact_cover(self, vset, n_workers):
        groups = partition_reuse_chains(vset, n_workers)
        flat = [v for g in groups for v in g]
        assert sorted(v.as_tuple() for v in flat) == sorted(
            v.as_tuple() for v in vset
        )
        assert 1 <= len(groups) <= n_workers

    @settings(max_examples=30, deadline=None)
    @given(grids, st.integers(1, 6))
    def test_groups_are_reasonably_balanced(self, vset, n_workers):
        groups = partition_reuse_chains(vset, n_workers)
        target = -(-len(vset) // n_workers)  # ceil
        assert max(len(g) for g in groups) <= 2 * target
