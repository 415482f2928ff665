#!/usr/bin/env python3
"""Space-weather pipeline: detect ionospheric features in a TEC map.

Mirrors the paper's motivating application (Section I): build a Total
Electron Content map, threshold it into a 2-D point database, then run
a grid of DBSCAN variants to find the parameterisation that best
isolates Traveling-Ionospheric-Disturbance-like features, using
VariantDBSCAN so the whole sweep costs far less than independent runs.

Run:  python examples/space_weather_tid.py
"""

from __future__ import annotations

import numpy as np

from repro import Session, VariantSet
from repro.data.tec import TECMapModel, generate_tec_points

# ------------------------------------------------------------------
# 1. Simulated GPS-derived TEC measurements (a dense regional network).
model = TECMapModel(band_level=0.4)  # include TID wavefront bands
points = generate_tec_points(15_000, model, seed=7, area_fraction=0.02)
lon0, lon1 = points[:, 0].min(), points[:, 0].max()
lat0, lat1 = points[:, 1].min(), points[:, 1].max()
print(
    f"TEC point database: {len(points)} measurements over "
    f"[{lon0:.0f}, {lon1:.0f}] x [{lat0:.0f}, {lat1:.0f}] degrees"
)

# ------------------------------------------------------------------
# 2. Sweep parameters: it is unknown a priori which (eps, minpts)
#    separates TID bands from the background, so run a whole grid.
variants = VariantSet.from_product([0.2, 0.3, 0.4, 0.6], [4, 8, 16, 32])
with Session(points, dataset="tec-demo") as session:
    batch = session.run(variants)
print(
    f"swept |V| = {len(variants)} variants with "
    f"{batch.record.n_from_scratch} scratch run(s); "
    f"average reuse {batch.record.average_reuse_fraction:.1%}"
)

# ------------------------------------------------------------------
# 3. Model selection: prefer parameterisations yielding several
#    elongated (band-like) clusters of meaningful size.
def elongation(pts: np.ndarray) -> float:
    """Aspect ratio of a cluster's principal axes (1 = round)."""
    if len(pts) < 3:
        return 1.0
    cov = np.cov((pts - pts.mean(axis=0)).T)
    ev = np.sort(np.linalg.eigvalsh(cov))
    return float(np.sqrt(ev[1] / max(ev[0], 1e-12)))


print("\nvariant        clusters  noise%  big  elongated  score")
best, best_score = None, -1.0
for v in variants:
    res = batch[v]
    sizes = res.cluster_sizes()
    big = [c for c in range(res.n_clusters) if sizes[c] >= 50]
    members = res.cluster_members()
    elong = sum(1 for c in big if elongation(points[members[c]]) >= 2.5)
    noise_pct = res.n_noise / res.n_points
    # crude utility: several substantial clusters, some band-like,
    # moderate noise (neither everything-noise nor one giant blob)
    score = elong * 2 + min(len(big), 8) - 6 * abs(noise_pct - 0.15)
    marker = ""
    if score > best_score:
        best, best_score, marker = v, score, "  <- best so far"
    print(
        f"{str(v):>12}  {res.n_clusters:8d}  {noise_pct:5.1%}  {len(big):3d}  "
        f"{elong:9d}  {score:5.2f}{marker}"
    )

res = batch[best]
print(f"\nselected variant {best}: {res.n_clusters} clusters")

# ------------------------------------------------------------------
# 4. ASCII rendering of the selected clustering (top clusters lettered).
W, H = 78, 24
grid = [[" "] * W for _ in range(H)]
order = np.argsort(-res.cluster_sizes())[:20]
symbol = {int(c): chr(ord("A") + i) for i, c in enumerate(order[:26])}
for (x, y), lbl in zip(points, res.labels):
    i = int((y - lat0) / max(lat1 - lat0, 1e-9) * (H - 1))
    j = int((x - lon0) / max(lon1 - lon0, 1e-9) * (W - 1))
    ch = symbol.get(int(lbl), "." if lbl >= 0 else " ")
    grid[H - 1 - i][j] = ch
print("\nmap (letters = largest clusters, '.' = other clusters):")
print("\n".join("".join(row) for row in grid))
