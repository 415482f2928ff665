"""Multi-variant streaming monitor.

One :class:`VariantMonitor` holds a whole variant grid over a growing
point stream.  Each :meth:`observe` call inserts the epoch's
measurements into every variant's incremental clustering and returns an
:class:`EpochSummary` with per-variant structure statistics — the
inputs an early-warning rule consumes.

Why incremental instead of re-running VariantDBSCAN per epoch: the
inclusion criteria let VariantDBSCAN reuse across *parameters* within
one snapshot, while insertion monotonicity lets IncrementalDBSCAN
reuse across *time* at fixed parameters.  For a monitoring loop, time
reuse wins once epochs are small relative to the accumulated database
(measured in ``benchmarks/bench_extension_incremental.py``); for the
initial baseline over a large backlog, a VariantDBSCAN batch wins —
:meth:`VariantMonitor.baseline` does exactly that and then seeds the
incremental states from the accumulated points.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.incremental import IncrementalDBSCAN
from repro.core.result import ClusteringResult
from repro.core.variants import Variant, VariantSet
from repro.util.errors import ValidationError
from repro.util.validation import as_points_array

__all__ = ["VariantMonitor", "EpochSummary"]


@dataclass
class EpochSummary:
    """Per-epoch snapshot statistics across the variant grid.

    Attributes
    ----------
    epoch:
        0-based epoch counter.
    n_points:
        Accumulated database size after the epoch.
    per_variant:
        ``{variant: ClusteringResult}`` snapshots.
    dominant_share:
        Median (across variants) of the largest cluster's share of the
        database — a robust "coherent disturbance" statistic.
    median_clusters:
        Median cluster count across variants.
    """

    epoch: int
    n_points: int
    per_variant: dict[Variant, ClusteringResult]
    dominant_share: float
    median_clusters: float

    def result(self, variant: Variant) -> ClusteringResult:
        return self.per_variant[variant]


class VariantMonitor:
    """Maintain incremental clusterings for every variant of a grid.

    Parameters
    ----------
    variants:
        The parameter grid to monitor.
    low_res_r:
        Leaf capacity for each incremental state's index rebuilds.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.variants import VariantSet
    >>> mon = VariantMonitor(VariantSet.from_product([1.0], [3]))
    >>> s = mon.observe(np.random.default_rng(0).normal(0, 0.3, (40, 2)))
    >>> s.epoch, s.n_points
    (0, 40)
    """

    def __init__(self, variants: VariantSet, *, low_res_r: int = 32) -> None:
        if len(variants) == 0:
            raise ValidationError("VariantMonitor needs at least one variant")
        self.variants = variants
        self._states: dict[Variant, IncrementalDBSCAN] = {
            v: IncrementalDBSCAN(v.eps, v.minpts, low_res_r=low_res_r)
            for v in variants
        }
        self._epoch = -1

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Index of the last observed epoch (-1 before any data)."""
        return self._epoch

    @property
    def n_points(self) -> int:
        first = next(iter(self._states.values()))
        return first.n_points

    def observe(self, batch: np.ndarray) -> EpochSummary:
        """Insert an epoch of measurements into every variant's state."""
        batch = as_points_array(batch)
        self._epoch += 1
        per_variant: dict[Variant, ClusteringResult] = {}
        for v, state in self._states.items():
            per_variant[v] = state.insert(batch)
        return self._summarize(per_variant)

    def baseline(self, backlog: np.ndarray) -> EpochSummary:
        """Initialize from a large backlog using one VariantDBSCAN batch.

        Only valid before any epoch was observed.  The batch run
        provides the per-variant snapshots cheaply (reuse across
        parameters); the incremental states are then bootstrapped from
        the backlog so subsequent :meth:`observe` calls work on top.
        """
        if self._epoch >= 0:
            raise ValidationError("baseline() must precede the first observe()")
        backlog = as_points_array(backlog)
        from repro.engine.session import Session

        with Session(backlog) as session:
            batch = session.run(self.variants)
        for state in self._states.values():
            state.insert(backlog)
        self._epoch += 1
        return self._summarize(dict(batch.results))

    def snapshot(self, variant: Variant) -> ClusteringResult:
        """Current clustering for one variant."""
        try:
            return self._states[variant].snapshot()
        except KeyError:
            raise ValidationError(f"variant {variant} is not monitored") from None

    def points(self) -> np.ndarray:
        """The accumulated point database (shared across variants)."""
        return next(iter(self._states.values())).points

    # ------------------------------------------------------------------
    def _summarize(self, per_variant: dict[Variant, ClusteringResult]) -> EpochSummary:
        shares = []
        counts = []
        for res in per_variant.values():
            sizes = res.cluster_sizes()
            shares.append(sizes.max() / res.n_points if sizes.size else 0.0)
            counts.append(res.n_clusters)
        return EpochSummary(
            epoch=self._epoch,
            n_points=self.n_points,
            per_variant=per_variant,
            dominant_share=float(np.median(shares)),
            median_clusters=float(np.median(counts)),
        )

    def __repr__(self) -> str:
        return (
            f"VariantMonitor(|V|={len(self.variants)}, epoch={self._epoch}, "
            f"n={self.n_points})"
        )
