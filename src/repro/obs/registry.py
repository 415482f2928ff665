"""MetricsRegistry — one place for every number a run produced.

A clustering batch already yields three disjoint kinds of telemetry:

* **work counters** (:class:`~repro.metrics.counters.WorkCounters`) —
  deterministic operation tallies per variant;
* **span / phase records** (:mod:`repro.util.tracing`) — wall-clock
  attribution of where the time went;
* **cache statistics** (:class:`~repro.core.neighcache.CacheStats`) —
  hit/miss/eviction rates of the per-eps neighborhood cache.

:class:`MetricsRegistry` unifies them into one queryable object that
round-trips through JSONL (:mod:`repro.obs.export`), renders Chrome
traces, and backs the ``repro trace`` CLI and the benchmark harness'
per-phase breakdowns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.counters import WorkCounters
from repro.util.tracing import PHASE_PREFIX, SpanRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids exec import cycle
    from repro.exec.base import BatchResult

__all__ = ["MetricsRegistry"]


class MetricsRegistry:
    """Aggregated spans, counters, and cache stats for one run.

    Attributes
    ----------
    spans:
        Every :class:`SpanRecord` collected (wall spans, ``phase:*``
        totals, instant events).
    variant_rows:
        One plain dict per executed variant: label, reuse source,
        response/wall times, schedule timestamps, output summary, and
        the variant's counter tallies.
    totals:
        Work counters merged across all variants.
    cache:
        Cache statistics dict (``hits``/``misses``/``evictions``/
        ``entries``/``bytes_stored``) or ``None`` when no cache ran.
    meta:
        Batch configuration labels (executor, scheduler, policy,
        dataset, ``n_threads``, makespan).
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.variant_rows: list[dict] = []
        self.totals = WorkCounters()
        self.cache: dict | None = None
        self.meta: dict = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_batch(
        cls,
        batch: BatchResult,
        tracer: Tracer | None = None,
    ) -> MetricsRegistry:
        """Build a registry from a finished batch and its tracer.

        ``tracer`` contributes the span records (pass the tracer the
        executor ran under); the batch contributes per-variant rows,
        merged counters, and configuration metadata.  Cache statistics
        arrive as ``cache.stats`` instant events emitted by the
        executors and are folded into :attr:`cache`.
        """
        reg = cls()
        rec = batch.record
        reg.meta = {
            "executor": rec.executor,
            "scheduler": rec.scheduler,
            "reuse_policy": rec.reuse_policy,
            "dataset": rec.dataset,
            "n_threads": rec.n_threads,
            "makespan": rec.makespan,
        }
        for r in rec.records:
            reg.variant_rows.append(
                {
                    "variant": str(r.variant),
                    "reused_from": str(r.reused_from) if r.reused_from else None,
                    "points_reused": r.points_reused,
                    "reuse_fraction": r.reuse_fraction,
                    "response_time": r.response_time,
                    "wall_time": r.wall_time,
                    "start": r.start,
                    "finish": r.finish,
                    "thread_id": r.thread_id,
                    "n_clusters": r.n_clusters,
                    "n_noise": r.n_noise,
                    "counters": r.counters.as_dict(),
                }
            )
            reg.totals.merge(r.counters)
        if batch.report is not None:
            reg.meta["outcomes"] = batch.report.counts()
            if batch.report.remediations:
                decisions: dict[str, int] = {}
                for r in batch.report.remediations:
                    decisions[r.decision] = decisions.get(r.decision, 0) + 1
                reg.meta["remediations"] = decisions
        if tracer is not None:
            reg.add_spans(tracer.records())
        return reg

    def add_spans(self, records: list[SpanRecord]) -> None:
        """Fold span records in, absorbing ``cache.stats`` instants."""
        for r in records:
            if r.name == "cache.stats":
                self._merge_cache_stats(r.args)
            else:
                self.spans.append(r)

    def _merge_cache_stats(self, stats: dict) -> None:
        # Several caches can report (one per process-pool worker);
        # tallies add, occupancy gauges add too (disjoint caches).
        if self.cache is None:
            self.cache = {k: 0 for k in
                          ("hits", "misses", "evictions", "entries", "bytes_stored")}
        for k in self.cache:
            self.cache[k] += int(stats.get(k, 0))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Cache hit fraction across the whole run (0.0 with no cache)."""
        if not self.cache:
            return 0.0
        total = self.cache["hits"] + self.cache["misses"]
        return self.cache["hits"] / total if total else 0.0

    def phase_names(self) -> list[str]:
        """Distinct phase names, in first-seen order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            if s.name.startswith(PHASE_PREFIX):
                seen.setdefault(s.name[len(PHASE_PREFIX):], None)
        return list(seen)

    def phase_totals(self, variant: str | None = None) -> dict[str, float]:
        """Total seconds per phase, optionally for one variant label."""
        out: dict[str, float] = {}
        for s in self.spans:
            if not s.name.startswith(PHASE_PREFIX):
                continue
            if variant is not None and s.args.get("variant") != variant:
                continue
            name = s.name[len(PHASE_PREFIX):]
            out[name] = out.get(name, 0.0) + s.dur
        return out

    def per_variant_phases(self) -> dict[str, dict[str, float]]:
        """``{variant label: {phase: seconds}}`` for every traced variant."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if not s.name.startswith(PHASE_PREFIX):
                continue
            v = s.args.get("variant")
            if v is None:
                continue
            phases = out.setdefault(v, {})
            name = s.name[len(PHASE_PREFIX):]
            phases[name] = phases.get(name, 0.0) + s.dur
        return out

    def resilience_events(self) -> dict[str, int]:
        """Counts of the recovery loop's instant events, when any fired.

        Keys are the event names emitted by
        :class:`~repro.resilience.runner.ResilientRunner`
        (``variant_retry`` / ``variant_timeout`` / ``variant_failed`` /
        ``variant_resumed``); events that never fired are omitted.
        """
        names = (
            "variant_retry",
            "variant_timeout",
            "variant_failed",
            "variant_resumed",
        )
        out: dict[str, int] = {}
        for s in self.spans:
            if s.name in names:
                out[s.name] = out.get(s.name, 0) + 1
        return out

    def supervise_events(self) -> dict[str, int]:
        """Counts of supervisor decision/verify instants, when any fired.

        Keys are the ``supervise.*`` event names emitted by
        :class:`~repro.supervise.supervisor.Supervisor` (``anomaly`` /
        ``apply`` / ``recommend`` / ``suppress`` / ``verify``), with the
        prefix stripped; events that never fired are omitted.
        """
        out: dict[str, int] = {}
        for s in self.spans:
            if s.name.startswith("supervise."):
                name = s.name[len("supervise."):]
                out[name] = out.get(name, 0) + 1
        return out

    def variant_walls(self) -> dict[str, float]:
        """``{variant label: wall seconds}`` from the per-variant rows."""
        return {row["variant"]: row["wall_time"] for row in self.variant_rows}

    def phase_coverage(self) -> dict[str, float]:
        """Per-variant ratio of summed phase time to measured wall time.

        The phase clocks partition each variant's stopwatch window, so
        a healthy trace has every ratio within a few percent of 1.0 —
        the consistency check the test layer asserts.  Variants with no
        phase records (tracing off mid-run) are omitted.
        """
        walls = self.variant_walls()
        out: dict[str, float] = {}
        for v, phases in self.per_variant_phases().items():
            wall = walls.get(v, 0.0)
            if wall > 0.0:
                out[v] = sum(phases.values()) / wall
        return out

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable per-phase breakdown (plain text)."""
        lines: list[str] = []
        meta = self.meta
        if meta:
            lines.append(
                "run: executor={executor} scheduler={scheduler} "
                "policy={reuse_policy} T={n_threads} dataset={dataset}".format(
                    **{k: meta.get(k, "?") for k in
                       ("executor", "scheduler", "reuse_policy", "n_threads",
                        "dataset")}
                )
            )
        totals = self.phase_totals()
        grand = sum(totals.values())
        if totals:
            lines.append("per-phase breakdown (all variants):")
            width = max(len(n) for n in totals)
            for name, dur in sorted(totals.items(), key=lambda kv: -kv[1]):
                share = dur / grand if grand else 0.0
                lines.append(f"  {name:<{width}}  {dur * 1e3:10.2f} ms  {share:6.1%}")
            lines.append(f"  {'total':<{width}}  {grand * 1e3:10.2f} ms")
        if self.cache is not None:
            lines.append(
                "cache: {hits} hits / {misses} misses "
                "({rate:.1%}), {evictions} evictions, {bytes_stored} bytes".format(
                    rate=self.cache_hit_rate, **self.cache
                )
            )
        events = self.resilience_events()
        if events:
            lines.append(
                "resilience: "
                + ", ".join(f"{n} x{c}" for n, c in sorted(events.items()))
            )
        supervise = self.supervise_events()
        if supervise:
            lines.append(
                "supervision: "
                + ", ".join(f"{n} x{c}" for n, c in sorted(supervise.items()))
            )
        outcomes = self.meta.get("outcomes")
        if outcomes:
            lines.append(
                "outcomes: "
                + ", ".join(f"{k}={v}" for k, v in outcomes.items() if v)
            )
        if self.variant_rows:
            lines.append(f"variants: {len(self.variant_rows)}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # export (delegates; see repro.obs.export)
    # ------------------------------------------------------------------
    def to_jsonl(self, path) -> None:
        """Write the registry as one JSON object per line."""
        from repro.obs.export import write_jsonl

        write_jsonl(path, self)

    def to_chrome_trace(self, path) -> None:
        """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(path, self)

    @classmethod
    def load_jsonl(cls, path) -> MetricsRegistry:
        """Round-trip loader for :meth:`to_jsonl` output."""
        from repro.obs.export import read_jsonl

        return read_jsonl(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(spans={len(self.spans)}, "
            f"variants={len(self.variant_rows)}, cache={self.cache is not None})"
        )
