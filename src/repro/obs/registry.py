"""MetricsRegistry — one place for every number a run produced.

A clustering batch already yields three disjoint kinds of telemetry:

* **work counters** (:class:`~repro.metrics.counters.WorkCounters`) —
  deterministic operation tallies per variant;
* **span / phase records** (:mod:`repro.util.tracing`) — wall-clock
  attribution of where the time went;
* **cache statistics** (:class:`~repro.core.neighcache.CacheStats`) —
  hit/miss/eviction rates of the per-eps neighborhood cache, and the
  occupancy and settled searches of the run's search-outcome table
  (:class:`~repro.core.neighbors.SearchOutcomes`).

:class:`MetricsRegistry` unifies them into one queryable object that
round-trips through JSONL (:mod:`repro.obs.export`), renders Chrome
traces, and backs the ``repro trace`` CLI and the benchmark harness'
per-phase breakdowns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.counters import WorkCounters
from repro.util.tracing import PHASE_PREFIX, SPAN_SHARD, SpanRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids exec import cycle
    from repro.exec.base import BatchResult

__all__ = ["MetricsRegistry"]

_CACHE_KEYS = ("hits", "misses", "evictions", "entries", "bytes_stored")
_OUTCOME_KEYS = ("entries", "bytes", "recorded", "settled")


def _add_stats(into: dict | None, stats: dict, keys: tuple[str, ...]) -> dict:
    """Sum one ``*.stats`` instant into ``into``.

    Several caches or tables can report (one per process-lane worker);
    tallies add, and occupancy gauges add too (the stores are disjoint).
    """
    out = into if into is not None else dict.fromkeys(keys, 0)
    for k in keys:
        out[k] += int(stats.get(k, 0))
    return out


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
    search_outcomes:
        Search-outcome table statistics (``entries``/``bytes``/
        ``recorded``/``settled``) or ``None`` when no table ran.
    meta:
        Batch configuration labels (executor, scheduler, policy,
        dataset, ``n_threads``, makespan).
    """

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.variant_rows: list[dict] = []
        self.totals = WorkCounters()
        self.cache: dict | None = None
        self.search_outcomes: dict | None = None
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
        merged counters, and configuration metadata.  Cache and
        outcome-table statistics arrive as ``cache.stats`` /
        ``search_outcomes.stats`` instant events emitted by the
        executors and are folded into :attr:`cache` /
        :attr:`search_outcomes`.
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
        """Fold span records in, absorbing the ``*.stats`` instants."""
        for r in records:
            if r.name == "cache.stats":
                self.cache = _add_stats(self.cache, r.args, _CACHE_KEYS)
            elif r.name == "search_outcomes.stats":
                self.search_outcomes = _add_stats(
                    self.search_outcomes, r.args, _OUTCOME_KEYS
                )
            else:
                self.spans.append(r)

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

        Keys are the event names emitted by the attempt loop of
        :class:`~repro.resilience.recovery.Recovery`
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
        """Counts of remediation decision/verify instants, when any fired.

        Keys are the ``supervise.*`` event names emitted by
        :class:`~repro.resilience.recovery.Recovery` (``anomaly`` /
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

    def _phase_tracks(self) -> dict[str, dict[str, tuple[float, float]]]:
        """``{variant: {thread: (phase seconds, window seconds)}}``.

        A variant's phases land on one track per thread that ran part
        of it.  A plain variant has one track, windowed by its measured
        wall.  A sharded variant has a track per concurrent region
        worker, each windowed by its ``shard`` spans: the variant's
        wall runs from dispatch to the merge, so concurrent phases
        must not be summed against it.
        """
        walls = self.variant_walls()
        windows: dict[str, dict[str, float]] = {}
        for s in self.spans:
            if s.name == SPAN_SHARD and "variant" in s.args:
                w = windows.setdefault(s.args["variant"], {})
                w[s.thread] = w.get(s.thread, 0.0) + s.dur
        out: dict[str, dict[str, tuple[float, float]]] = {}
        for s in self.spans:
            v = s.args.get("variant")
            if v is None or not s.name.startswith(PHASE_PREFIX):
                continue
            tracks = out.setdefault(v, {})
            track = s.thread if v in windows else ""
            dur, _ = tracks.get(track, (0.0, 0.0))
            window = windows.get(v, {}).get(track, walls.get(v, 0.0))
            tracks[track] = (dur + s.dur, window)
        return out

    def phase_coverage(self) -> dict[str, float]:
        """Per-variant ratio of phase time to wall time on the critical path.

        The phase clocks partition each variant's stopwatch window, so
        a healthy trace has every ratio within a few percent of 1.0 —
        the consistency check the test layer asserts.  For a sharded
        variant the critical path is its longest region track, and the
        ratio is that track's phase time over its window.  Variants
        with no phase records (tracing off mid-run) are omitted.
        """
        out: dict[str, float] = {}
        for v, tracks in self._phase_tracks().items():
            dur, window = max(tracks.values(), key=lambda t: t[1])
            if window > 0.0:
                out[v] = dur / window
        return out

    def phase_cpu_coverage(self) -> dict[str, float]:
        """Per-variant ratio of summed phase time to summed track windows.

        The CPU-seconds view of :meth:`phase_coverage`: concurrent
        region tracks add on both sides.  Equal to it for variants
        with one track.
        """
        out: dict[str, float] = {}
        for v, tracks in self._phase_tracks().items():
            window = sum(w for _, w in tracks.values())
            if window > 0.0:
                out[v] = sum(d for d, _ in tracks.values()) / window
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
        if self.search_outcomes is not None:
            lines.append(
                "search outcomes: {settled} searches settled from {recorded} "
                "recorded points ({entries} eps entries, {bytes} bytes)".format(
                    **self.search_outcomes
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
