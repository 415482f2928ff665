"""Baseline — OPTICS vs VariantDBSCAN for variant families.

The paper's Related Work (Section III) argues OPTICS handles families
of eps values at a fixed minpts but is "unsuitable if a range of
minpts values are required".  This bench makes both halves concrete:

* **eps-only family** (one minpts): one OPTICS pass at ``delta =
  max(eps)`` plus O(n) extractions, vs a VariantDBSCAN batch — the
  regime where OPTICS is designed to shine.
* **eps x minpts grid**: OPTICS needs one full pass per distinct
  minpts, while VariantDBSCAN's reuse spans the whole grid.

Both comparisons are reported in work units (neighborhood searches are
the dominant term for both algorithms) and wall seconds, with quality
vs plain DBSCAN checked for every extracted/reused clustering.
"""

from __future__ import annotations

import time

from repro.baselines import extract_dbscan, optics
from repro.bench.reporting import format_table
from repro.core.dbscan import dbscan
from repro.core.variants import VariantSet
from repro.data.registry import load_dataset
from repro.engine import Session
from repro.exec.cost import DEFAULT_COST_MODEL
from repro.metrics.counters import WorkCounters
from repro.metrics.quality import quality_score

from conftest import bench_scale

EPS_FAMILY = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
MINPTS_GRID = (4, 8, 16)


def _variant_batch(session, vset):
    t0 = time.perf_counter()
    batch = session.run(vset)
    return batch, batch.record.makespan, time.perf_counter() - t0


def _optics_family(points, eps_values, minpts, indexes):
    t0 = time.perf_counter()
    counters = WorkCounters()
    ordering = optics(
        points, max(eps_values), minpts, index=indexes.t_low, counters=counters
    )
    results = {e: extract_dbscan(ordering, e) for e in eps_values}
    units = DEFAULT_COST_MODEL.duration(counters, 1)
    return results, units, time.perf_counter() - t0


def test_baseline_optics_report(benchmark, report):
    ds = load_dataset("SW1", bench_scale())
    session = Session(ds.points, low_res_r=70)
    indexes = session.indexes()

    def run():
        rows = []
        # --- regime 1: eps-only family -------------------------------
        vset1 = VariantSet.from_product(EPS_FAMILY, [8])
        batch, v_units, v_wall = _variant_batch(session, vset1)
        o_results, o_units, o_wall = _optics_family(ds.points, EPS_FAMILY, 8, indexes)
        q = min(
            quality_score(dbscan(ds.points, e, 8, index=indexes.t_low), o_results[e])
            for e in EPS_FAMILY
        )
        rows.append(["eps-only (|V|=6)", "OPTICS+extract", o_units, o_wall, q])
        rows.append(
            ["eps-only (|V|=6)", "VariantDBSCAN", v_units, v_wall, 1.0]
        )
        # --- regime 2: eps x minpts grid ------------------------------
        vset2 = VariantSet.from_product(EPS_FAMILY, MINPTS_GRID)
        batch2, v2_units, v2_wall = _variant_batch(session, vset2)
        o2_units = o2_wall = 0.0
        for m in MINPTS_GRID:
            _, u, w = _optics_family(ds.points, EPS_FAMILY, m, indexes)
            o2_units += u
            o2_wall += w
        rows.append(["eps x minpts (|V|=18)", "OPTICS x3 passes", o2_units, o2_wall, None])
        rows.append(["eps x minpts (|V|=18)", "VariantDBSCAN", v2_units, v2_wall, None])
        return rows

    with session:
        rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "baseline_optics",
        format_table(
            ["workload", "method", "work units", "wall (s)", "min quality"],
            [[r[0], r[1], r[2], r[3], r[4] if r[4] is not None else "-"] for r in rows],
            title=(
                "Baseline: OPTICS vs VariantDBSCAN on SW1 "
                f"(scale {bench_scale():g}).  Paper Section III: OPTICS "
                "amortizes eps families but needs one pass per minpts."
            ),
        ),
    )
    by = {(r[0], r[1]): r for r in rows}
    # OPTICS quality is DBSCAN-equivalent in the eps-only regime
    assert by[("eps-only (|V|=6)", "OPTICS+extract")][4] >= 0.95
    # the minpts grid costs OPTICS a multiple of its single pass
    single = by[("eps-only (|V|=6)", "OPTICS+extract")][2]
    grid = by[("eps x minpts (|V|=18)", "OPTICS x3 passes")][2]
    assert grid > 2.5 * single
