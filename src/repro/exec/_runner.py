"""Single-variant execution step shared by the executor backends.

Each backend differs only in *when* variants run and what clock stamps
them; the per-variant work — pick a reuse source from the completed
registry, run VariantDBSCAN (or DBSCAN from scratch), build the run
record — is identical and lives here, driven entirely by the run's
:class:`~repro.engine.context.RunContext`.
"""

from __future__ import annotations


from repro.core.cellgraph import cellgraph_dbscan
from repro.core.result import ClusteringResult
from repro.core.scheduling import CompletedRegistry, PlannedVariant
from repro.core.variant_dbscan import variant_dbscan
from repro.core.variants import VariantSet
from repro.engine.context import RunContext
from repro.index.cellgraph import CellGraphIndex
from repro.metrics.counters import WorkCounters
from repro.metrics.records import VariantRunRecord
from repro.util.tracing import resolve_tracer

__all__ = ["execute_variant"]


def execute_variant(
    ctx: RunContext,
    planned: PlannedVariant,
    vset: VariantSet,
    registry: CompletedRegistry,
    *,
    concurrency: int | None = None,
    before: float | None = None,
) -> tuple[ClusteringResult, VariantRunRecord]:
    """Run one planned variant and return its result and run record.

    All configuration (points, indexes, scheduler, reuse policy, cost
    model, batch knobs, tracer) comes from ``ctx``.  ``before``
    restricts which completed variants are eligible as reuse sources
    (simulated time); wall-clock backends pass ``None`` ("use whatever
    has completed by now").  The record's ``response_time`` is priced by
    the context's cost model at ``concurrency`` (default:
    ``ctx.n_threads``); ``start`` / ``finish`` / ``thread_id`` are the
    caller's to fill in.
    """
    if concurrency is None:
        concurrency = ctx.n_threads
    tr = resolve_tracer(ctx.tracer)
    points = ctx.points
    indexes = ctx.indexes
    counters = WorkCounters()
    with tr.span("variant", variant=str(planned.variant)) as span:
        source = ctx.scheduler.select_source(planned, vset, registry, before=before)
        if source is None:
            if ctx.kernel == "cellgraph":
                v = planned.variant
                cg = (
                    ctx.factory.get(ctx.store, "cellgraph", eps=v.eps, tracer=tr)
                    if ctx.factory is not None
                    else CellGraphIndex(points, v.eps)
                )
                assert isinstance(cg, CellGraphIndex)
                result = cellgraph_dbscan(
                    points,
                    v.eps,
                    v.minpts,
                    index=cg,
                    counters=counters,
                    cache=ctx.cache,
                    tracer=tr,
                )
            else:
                result = variant_dbscan(
                    points,
                    planned.variant,
                    None,
                    t_low=indexes.t_low,
                    counters=counters,
                    batch_size=ctx.batch_size,
                    cache=ctx.cache,
                    tracer=tr,
                )
        else:
            _, source_result = source
            result = variant_dbscan(
                points,
                planned.variant,
                source_result,
                t_high=indexes.t_high,
                t_low=indexes.t_low,
                reuse_policy=ctx.reuse_policy,
                counters=counters,
                batch_size=ctx.batch_size,
                cache=ctx.cache,
                tracer=tr,
            )
        span.set(
            reused_from=str(result.reused_from) if result.reused_from else None,
            points_reused=result.points_reused,
        )
    record = VariantRunRecord(
        variant=planned.variant,
        reused_from=result.reused_from,
        points_reused=result.points_reused,
        reuse_fraction=result.reuse_fraction,
        response_time=ctx.cost_model.duration(counters, concurrency),
        wall_time=result.elapsed,
        n_clusters=result.n_clusters,
        n_noise=result.n_noise,
        counters=counters,
    )
    return result, record
