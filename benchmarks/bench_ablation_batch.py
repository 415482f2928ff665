"""Ablation — the batched epsilon-search engine and the per-eps cache.

Runs the Figure 9 workload (SW1, the |V| = 57 V3 grid, SCHEDMINPTS,
CLUSDENSITY) on a single real worker three ways:

* ``scalar``        — ``batch_size=1``: the original one-point-at-a-time
  reference loops;
* ``batched``       — the blocked frontier/boundary engine;
* ``batched+cache`` — blocked engine plus the per-eps neighborhood
  cache shared across the batch's variants.

All three produce byte-identical labels (asserted); the comparison is
pure wall clock.  Work-unit makespans are identical by construction for
scalar vs batched — the engine changes *how* searches are issued, not
how many — which is exactly why this ablation is measured on the
wall-clock serial executor rather than the simulated one.

The dataset scale floors at 0.03 (SW1 ~ 55.9k points) so the measured
speedup reflects a clustering-dominated workload, not fixture overhead.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.bench.reporting import format_table
from repro.bench.scenarios import s3_variant_set
from repro.bench.snapshot import make_snapshot, write_snapshot
from repro.core.scheduling import SchedMinpts
from repro.data.registry import load_dataset
from repro.engine import Session
from repro.metrics.counters import WorkCounters

from conftest import bench_scale

MIN_SCALE = 0.03  # >= 50k SW1 points: clustering dominates, setup does not
# Large enough to hold every (eps, row) pair of the workload's 19 eps
# levels over ~56k points without evictions; at 256 MiB the cache
# thrashes (1.3M misses vs the ~1.06M unique rows) and loses its win.
CACHE_BYTES = 1 << 30
SNAPSHOT_PATH = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


def _run(points, vset, **kwargs):
    with Session(points, dataset="SW1") as session:
        return session.run(vset, executor="serial", scheduler=SchedMinpts(), **kwargs)


def test_ablation_batch_report(benchmark, report):
    ds = load_dataset("SW1", max(bench_scale(), MIN_SCALE))
    vset = s3_variant_set(ds, "V3")

    def run():
        configs = [
            ("scalar", dict(batch_size=1)),
            ("batched", dict()),
            ("batched+cache", dict(cache_bytes=CACHE_BYTES)),
        ]
        out = {}
        for name, kwargs in configs:
            batch = _run(ds.points, vset, **kwargs)
            wall = sum(r.wall_time for r in batch.record.records)
            hits = sum(r.counters.neigh_cache_hits for r in batch.record.records)
            misses = sum(
                r.counters.neigh_cache_misses for r in batch.record.records
            )
            out[name] = (batch, wall, hits, misses)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    scalar_wall = out["scalar"][1]
    rows = []
    for name, (batch, wall, hits, misses) in out.items():
        rows.append(
            [
                name,
                wall,
                scalar_wall / wall,
                hits,
                misses,
                hits / max(1, hits + misses),
            ]
        )
    text = format_table(
        ["engine", "makespan (s)", "speedup", "cache hits", "misses", "hit rate"],
        rows,
        title=(
            "Ablation: batched epsilon-search engine on the Fig. 9 workload "
            f"(SW1 n={ds.points.shape[0]}, |V|={len(vset)}, SCHEDMINPTS, "
            "serial wall clock)"
        ),
    )
    report("ablation_batch", text)

    snap_rows = []
    for name, (batch, wall, _hits, _misses) in out.items():
        agg = WorkCounters()
        for r in batch.record.records:
            agg.merge(r.counters)
        snap_rows.append(
            {"kind": name, "wall_s": float(wall), "counters": agg.as_dict()}
        )
    snap = make_snapshot(
        "batch",
        workload={
            "dataset": "SW1",
            "scenario": "V3",
            "n_variants": len(vset),
            "scheduler": "SCHEDMINPTS",
            "scale": max(bench_scale(), MIN_SCALE),
        },
        n=ds.points.shape[0],
        rows=snap_rows,
    )
    write_snapshot(SNAPSHOT_PATH, snap)
    print(f"[snapshot saved to {SNAPSHOT_PATH}]")

    # The three engines are exact substitutes: identical labels everywhere.
    ref = out["scalar"][0]
    for name in ("batched", "batched+cache"):
        got = out[name][0]
        for v in vset:
            np.testing.assert_array_equal(got[v].labels, ref[v].labels)
            np.testing.assert_array_equal(got[v].core_mask, ref[v].core_mask)

    # Acceptance: batching alone gives >= 2x on the serial executor, and
    # SCHEDMINPTS's eps-grouping makes the cache actually hit.
    assert scalar_wall / out["batched"][1] >= 2.0
    assert scalar_wall / out["batched+cache"][1] >= 2.0
    assert out["batched+cache"][2] > 0


def test_bench_batched_wall(benchmark):
    ds = load_dataset("SW1", max(bench_scale(), MIN_SCALE))
    vset = s3_variant_set(ds, "V3")
    benchmark.pedantic(
        lambda: _run(ds.points, vset, cache_bytes=CACHE_BYTES),
        rounds=1,
        iterations=1,
    )
