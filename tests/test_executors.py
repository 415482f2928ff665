"""Tests for the executor rows.

Every row must produce the same *clusterings* (up to the documented
near-equivalence of reuse) for the same variant set; rows differ only
in timing model and parallel substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Session
from repro.core.dbscan import dbscan
from repro.core.reuse import CLUS_DENSITY
from repro.core.scheduling import SchedGreedy, SchedMinpts
from repro.core.variants import Variant, VariantSet
from repro.exec import EXECUTORS, Executor
from repro.exec.graph import partition_reuse_chains
from repro.metrics.quality import quality_score
from repro.util.rng import resolve_rng
from tests.helpers import run_batch

VSET = VariantSet.from_product([0.5, 0.7], [4, 8, 12])


@pytest.fixture(scope="module")
def blobs():
    g = resolve_rng(3)
    a = g.normal(0.0, 0.4, (120, 2))
    b = g.normal(0.0, 0.4, (120, 2)) + [7.0, 7.0]
    c = g.uniform(-3, 10, (30, 2))
    return np.vstack([a, b, c])


@pytest.fixture(scope="module")
def reference_results(blobs):
    return {v: dbscan(blobs, v.eps, v.minpts) for v in VSET}


class TestSerialExecutor:
    def test_all_variants_completed(self, blobs):
        batch = run_batch(Executor("serial"), blobs, VSET)
        assert set(batch.results) == set(VSET)
        assert batch.record.n_variants == len(VSET)

    def test_results_match_scratch(self, blobs, reference_results):
        batch = run_batch(Executor("serial"), blobs, VSET)
        for v in VSET:
            assert quality_score(reference_results[v], batch.results[v]) >= 0.99

    def test_only_first_variant_from_scratch(self, blobs):
        batch = run_batch(Executor("serial"), blobs, VSET)
        # Figure 3-style chain: everything after the root can reuse.
        assert batch.record.n_from_scratch == 1

    def test_makespan_is_sum_of_durations(self, blobs):
        batch = run_batch(Executor("serial"), blobs, VSET)
        assert batch.record.makespan == pytest.approx(
            batch.record.total_response_time
        )

    def test_forces_single_thread(self):
        assert Executor("serial", n_threads=8).n_threads == 1

    def test_deterministic(self, blobs):
        a = run_batch(Executor("serial"), blobs, VSET)
        b = run_batch(Executor("serial"), blobs, VSET)
        assert a.record.makespan == b.record.makespan
        for v in VSET:
            assert np.array_equal(a.results[v].labels, b.results[v].labels)

    def test_session_convenience(self, blobs):
        with Session(blobs) as session:
            batch = session.run(VSET)
        assert len(batch) == len(VSET)
        assert batch[VSET[0]].n_points == len(blobs)


class TestSimulatedExecutor:
    def test_scratch_count_equals_threads(self, blobs):
        batch = run_batch(Executor("simulated", n_threads=3), blobs, VSET)
        assert batch.record.n_from_scratch == 3

    def test_scratch_bounded_by_reuse_cap(self, blobs):
        """At most (|V| - T)/|V| variants reuse (Section IV-D)."""
        for t in (1, 2, 4):
            batch = run_batch(Executor("simulated", n_threads=t), blobs, VSET)
            reused = sum(1 for r in batch.record.records if not r.from_scratch)
            assert reused / len(VSET) <= VSET.max_reuse_fraction(t) + 1e-9

    def test_makespan_bounds(self, blobs):
        batch = run_batch(Executor("simulated", n_threads=2), blobs, VSET)
        rec = batch.record
        assert rec.makespan >= max(r.response_time for r in rec.records)
        assert rec.makespan <= rec.total_response_time

    def test_makespan_at_least_lower_bound(self, blobs):
        rec = run_batch(Executor("simulated", n_threads=4), blobs, VSET).record
        assert rec.makespan >= rec.lower_bound_makespan - 1e-9

    def test_timeline_no_overlap_within_thread(self, blobs):
        rec = run_batch(Executor("simulated", n_threads=2), blobs, VSET).record
        for lane in rec.thread_timelines().values():
            for prev, cur in zip(lane, lane[1:]):
                assert cur.start >= prev.finish - 1e-9

    def test_deterministic_bit_for_bit(self, blobs):
        a = run_batch(Executor("simulated", n_threads=4), blobs, VSET).record
        b = run_batch(Executor("simulated", n_threads=4), blobs, VSET).record
        assert [r.finish for r in a.records] == [r.finish for r in b.records]

    def test_results_match_scratch(self, blobs, reference_results):
        batch = run_batch(Executor("simulated", n_threads=4), blobs, VSET)
        for v in VSET:
            assert quality_score(reference_results[v], batch.results[v]) >= 0.99

    def test_more_threads_never_worse_makespan(self, blobs):
        m1 = run_batch("simulated", blobs, VSET, n_threads=1).record.makespan
        m2 = run_batch("simulated", blobs, VSET, n_threads=6).record.makespan
        # contention can eat gains but idle threads can't hurt more
        # than the full serial schedule
        assert m2 <= m1 * 1.01

    def test_schedminpts_head_runs_scratch(self, blobs):
        executor = Executor("simulated", n_threads=1, scheduler=SchedMinpts())
        batch = run_batch(executor, blobs, VSET)
        heads = {(0.5, 12), (0.7, 12)}
        for r in batch.record.records:
            if r.variant.as_tuple() in heads:
                assert r.from_scratch


class TestThreadPool:
    def test_completes_and_matches(self, blobs, reference_results):
        batch = run_batch(Executor("threads", n_threads=4), blobs, VSET)
        assert set(batch.results) == set(VSET)
        for v in VSET:
            assert quality_score(reference_results[v], batch.results[v]) >= 0.99

    def test_records_have_thread_ids(self, blobs):
        batch = run_batch(Executor("threads", n_threads=2), blobs, VSET)
        assert {r.thread_id for r in batch.record.records} <= {0, 1}

    def test_makespan_positive(self, blobs):
        batch = run_batch(Executor("threads", n_threads=2), blobs, VSET)
        assert batch.record.makespan > 0


class TestProcessPool:
    def test_partition_covers_all_variants(self):
        groups = partition_reuse_chains(VSET, 3)
        flat = [v for g in groups for v in g]
        assert sorted(v.as_tuple() for v in flat) == sorted(v.as_tuple() for v in VSET)
        assert len(groups) <= 3

    def test_partition_prefix_closed_under_parents(self):
        """Within a group, each variant's best source (if in the group)
        appears before it."""
        groups = partition_reuse_chains(VSET, 2)
        for g in groups:
            seen = set()
            for v in g:
                sources = [u for u in g if v.can_reuse(u)]
                if sources:
                    assert any(u in seen for u in sources) or v == g[0] or not (
                        set(sources) & seen == set()
                    )
                seen.add(v)

    def test_single_worker_is_one_group(self):
        assert len(partition_reuse_chains(VSET, 1)) == 1

    def test_completes_and_matches(self, blobs, reference_results):
        batch = run_batch(Executor("processes", n_threads=2), blobs, VSET)
        assert set(batch.results) == set(VSET)
        for v in VSET:
            assert quality_score(reference_results[v], batch.results[v]) >= 0.99


class TestRegistry:
    def test_executor_registry(self):
        assert set(EXECUTORS) == {
            "serial", "simulated", "threads", "processes", "sharded", "hybrid"
        }

    def test_record_carries_config(self, blobs):
        executor = Executor(
            "simulated", n_threads=2, scheduler=SchedGreedy(),
            reuse_policy=CLUS_DENSITY,
        )
        batch = run_batch(executor, blobs, VSET, dataset="blobs")
        rec = batch.record
        assert rec.scheduler == "SCHEDGREEDY"
        assert rec.reuse_policy == "CLUSDENSITY"
        assert rec.dataset == "blobs"
        assert rec.executor == "simulated"
        assert rec.n_threads == 2

    def test_shared_indexes_accepted(self, blobs):
        with Session(blobs, low_res_r=16) as session:
            a = session.run(VSET)
            b = session.run(VSET)
        assert a.record.makespan == b.record.makespan
