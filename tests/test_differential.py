"""Differential oracle tests: VariantDBSCAN vs. plain DBSCAN vs. sklearn.

The paper reports per-point quality >= 0.998 (Section V-D, DBDC
metric) between VariantDBSCAN's reused results and from-scratch
DBSCAN.  These tests assert the same bar for **every scheduler x
reuse-policy combination**, with plain single-variant DBSCAN as the
oracle — and, when scikit-learn happens to be installed, against its
DBSCAN as an independent second oracle (skipped otherwise; the
container does not ship sklearn).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dbscan import dbscan
from repro.core.result import ClusteringResult
from repro.core.reuse import POLICIES
from repro.core.scheduling import SCHEDULERS
from repro.core.variants import VariantSet
from repro.exec import Executor
from repro.index.rtree import RTree
from repro.metrics.quality import quality_score
from tests.helpers import run_batch

QUALITY_BAR = 0.998

VARIANTS = VariantSet.from_product([0.45, 0.6, 0.75], [4, 8])


@pytest.fixture(scope="module")
def cloud(two_blobs):
    return two_blobs


@pytest.fixture(scope="module")
def oracle(cloud):
    """Plain DBSCAN per variant — computed once, shared by every combo."""
    index = RTree(cloud, r=1)
    return {
        v: dbscan(cloud, v.eps, v.minpts, index=index) for v in VARIANTS
    }


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
def test_quality_vs_plain_dbscan(cloud, oracle, scheduler_name, policy_name):
    executor = Executor(
        "serial",
        scheduler=SCHEDULERS[scheduler_name],
        reuse_policy=POLICIES[policy_name],
    )
    batch = run_batch(executor, cloud, VARIANTS)
    reused = [r for r in batch.record.records if r.reused_from is not None]
    assert reused, "expected at least one variant to reuse results"
    for v in VARIANTS:
        q = quality_score(oracle[v], batch.results[v])
        assert q >= QUALITY_BAR, (
            f"{scheduler_name}/{policy_name}: variant {v} quality {q:.5f} "
            f"below {QUALITY_BAR} vs plain DBSCAN"
        )


def test_quality_vs_sklearn(cloud, oracle):
    """Independent oracle: scikit-learn's DBSCAN (skipped when absent)."""
    cluster_mod = pytest.importorskip(
        "sklearn.cluster", reason="scikit-learn not installed in this environment"
    )
    for v in VARIANTS:
        sk = cluster_mod.DBSCAN(eps=v.eps, min_samples=v.minpts).fit(cloud)
        labels = np.asarray(sk.labels_, dtype=np.int64)
        core = np.zeros(labels.shape[0], dtype=bool)
        core[sk.core_sample_indices_] = True
        sk_result = ClusteringResult(labels, core, variant=v)
        q = quality_score(sk_result, oracle[v])
        assert q >= QUALITY_BAR, (
            f"variant {v}: our DBSCAN vs sklearn quality {q:.5f}"
        )
        # Core points are order-independent: both implementations must
        # agree on them exactly.
        assert np.array_equal(core, oracle[v].core_mask)
