"""The unified executor contract: one object carries a run's state.

Before the engine refactor every executor method threaded seven-plus
positional arguments (``points, variants, indexes, scheduler,
reuse_policy, cost_model, tracer, batch knobs...``) through three
layers; :class:`RunContext` collapses them into a single immutable
carrier that :class:`~repro.engine.session.Session` assembles once per
run and the task-graph runtime consumes uniformly.

The runtime reads **all** configuration from the context — never from
executor instance attributes — so a single executor instance can serve
many sessions/configurations, and the context is the one seam future
sharding/async/service layers need to extend.

Runtime imports here are deliberately minimal (dataclass + typing);
the concrete types live in their own layers and are only imported for
type checking, keeping ``engine.context`` importable from anywhere in
the stack without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.neighbors import SearchOutcomes
    from repro.core.neighcache import NeighborhoodCache
    from repro.core.reuse import ReusePolicy
    from repro.core.scheduling import Scheduler
    from repro.engine.factory import IndexFactory, IndexPair
    from repro.engine.store import PointStore
    from repro.exec.cost import CostModel
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policy import RetryPolicy
    from repro.supervise.supervisor import SupervisePolicy
    from repro.util.tracing import Tracer

__all__ = ["KERNELS", "RunContext", "check_knobs"]


def _null_tracer() -> Tracer:
    """Default tracer factory: the process-wide disabled null tracer.

    Imported lazily so ``engine.context`` keeps its minimal runtime
    import surface (the concrete tracer lives in the util layer).
    """
    from repro.util.tracing import NULL_TRACER

    return NULL_TRACER

#: From-scratch clustering kernels an executor can dispatch to:
#: ``bfs`` is the paper's per-point Algorithm 1 machine, ``cellgraph``
#: the grid-cell kernel of :mod:`repro.core.cellgraph` (byte-identical
#: output, no per-point epsilon searches).  Reuse runs (Algorithms 3/4)
#: are kernel-independent and always take the variant-reuse path.
KERNELS = ("bfs", "cellgraph")


def check_knobs(
    *,
    kernel: str = "bfs",
    regions: int | None = None,
    part_size: int | None = None,
    shard_threshold: int | None = None,
    batch_size: int = 0,
    cache_bytes: int = 0,
) -> None:
    """Validate the run knobs a Session or Executor accepts; raise ValueError."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}; expected one of {list(KERNELS)}")
    if regions is not None and part_size is not None:
        raise ValueError("pass at most one of regions / part_size")
    for name, value in (("regions", regions), ("part_size", part_size)):
        if value is not None:
            check_positive_int(value, name=name)
    for name, value in (
        ("shard_threshold", shard_threshold),
        ("batch_size", batch_size),
        ("cache_bytes", cache_bytes),
    ):
        if value is not None and int(value) < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class RunContext:
    """Everything the runtime needs to execute one variant batch.

    Attributes
    ----------
    store:
        The immutable point database (shared-memory capable).
    indexes:
        The built ``(T_high, T_low)`` pair for Algorithm 3.
    scheduler:
        Variant ordering + reuse-source selection strategy.
    reuse_policy:
        Cluster-seed prioritisation inside VariantDBSCAN.
    cost_model:
        Work-unit pricing for response times / the simulated clock.
    n_threads:
        Worker count ``T`` for this run.
    batch_size:
        Epsilon-search engine block size (``<= 1`` = scalar loops).
    cache:
        Per-run neighborhood cache shared across the batch's variants,
        or ``None`` when caching is disabled.
    outcomes:
        Per-run search-outcome table shared across the batch's variants
        (:class:`~repro.core.neighbors.SearchOutcomes`): lets the
        batched kernels settle searches of points an earlier variant at
        the same eps found non-core.  ``None`` when a ``cache`` serves
        or the loops are scalar.
    tracer:
        Resolved span collector for the run (never ``None``; disabled
        tracing is the null tracer).
    dataset:
        Label stamped onto the batch record for reporting.
    retry_policy:
        Per-variant deadline/retry configuration; ``None`` keeps the
        legacy raise-through failure semantics.
    fault_plan:
        Deterministic fault-injection schedule for this run (a
        :class:`FaultPlan`, or the bound form inside process workers);
        ``None`` injects nothing.
    checkpoint:
        Completed-result spill/resume store; ``None`` disables
        checkpointing.
    kernel:
        From-scratch clustering kernel (one of :data:`KERNELS`):
        ``bfs`` (default) runs per-point Algorithm 1; ``cellgraph``
        runs the grid-cell kernel of :mod:`repro.core.cellgraph` for
        every variant that clusters from scratch.  Reuse runs are
        unaffected.
    factory:
        Index factory used to memoize kernel-specific indexes (the
        cell-graph grid is per-eps) across the run; ``None`` builds
        them transiently.
    regions:
        Spatial region count for shard and hybrid lowering; ``None``
        lets ``part_size`` (or the worker count) decide.  Ignored by
        variant lowering.
    part_size:
        Target points per region for shard and hybrid lowering (region
        count becomes ``ceil(n / part_size)``); ``None`` defers to
        ``regions`` / the worker count.  Ignored by variant lowering.
    shard_threshold:
        Point count at which hybrid lowering fans a *from-scratch*
        variant out into shard/merge tasks (see
        :mod:`repro.core.taskgraph`).  ``None`` leaves the choice to
        the executor row (``hybrid`` applies
        :data:`~repro.core.taskgraph.DEFAULT_SHARD_THRESHOLD`;
        ``simulated`` lowers variant-only); ``0`` shards every scratch
        variant.
    supervisor:
        Self-healing supervision knobs
        (:class:`~repro.supervise.supervisor.SupervisePolicy`):
        heartbeat stall timeout, risk budget for auto-remediation, and
        the graceful-degradation ladder settings.  ``None`` (default)
        disables supervision entirely.
    """

    store: PointStore
    indexes: IndexPair
    scheduler: Scheduler
    reuse_policy: ReusePolicy
    cost_model: CostModel
    n_threads: int = 1
    batch_size: int = 0
    cache: NeighborhoodCache | None = None
    outcomes: SearchOutcomes | None = field(repr=False, default=None)
    tracer: Tracer = field(repr=False, default_factory=_null_tracer)
    dataset: str = ""
    retry_policy: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    checkpoint: CheckpointStore | None = None
    kernel: str = "bfs"
    factory: IndexFactory | None = field(repr=False, default=None)
    regions: int | None = None
    part_size: int | None = None
    shard_threshold: int | None = None
    supervisor: SupervisePolicy | None = None

    @property
    def points(self) -> np.ndarray:
        """The read-only point array (convenience for ``store.points``)."""
        return self.store.points

    def with_(self, **changes) -> RunContext:
        """A copy with the given fields replaced (contexts are frozen)."""
        return replace(self, **changes)
