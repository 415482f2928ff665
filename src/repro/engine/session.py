"""The session engine: one owner for dataset, indexes, caches, tracer.

The paper's premise (Section IV) is that one in-memory database ``D``
and its two R-trees are built **once** and shared by every variant.
:class:`Session` is that premise as an object:

* it owns the immutable :class:`~repro.engine.store.PointStore`
  (shared-memory capable, content-fingerprinted);
* it owns an :class:`~repro.engine.factory.IndexFactory`, so
  ``T_high``/``T_low`` are built once per session and reused across
  every run, benchmark iteration, and figure driver;
* it assembles the :class:`~repro.engine.context.RunContext` each run
  and hands it to an executor backend — the single seam every layer
  (CLI, benchmarks, figure drivers, future service endpoints) routes
  through.

Usage::

    from repro import Session, VariantSet

    with Session(points, dataset="SW1") as session:
        batch = session.run(VariantSet.from_product([0.5, 0.7], [4]))
        again = session.run(variants, executor="processes", n_threads=8)

The context-manager form guarantees that any shared-memory segments
the session materialized (for process-pool runs) are unlinked even when
a worker raises.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.dbscan import DEFAULT_BATCH_SIZE
from repro.core.neighbors import SearchOutcomes
from repro.core.neighcache import NeighborhoodCache
from repro.core.reuse import CLUS_DENSITY, POLICIES, ReusePolicy
from repro.core.scheduling import SCHEDULERS, Scheduler
from repro.core.variant_dbscan import DEFAULT_LOW_RES_R
from repro.core.variants import VariantSet
from repro.engine.context import RunContext, check_knobs
from repro.engine.factory import IndexFactory, IndexPair
from repro.engine.store import PointStore
from repro.util.errors import SessionClosedError
from repro.util.tracing import Tracer, resolve_tracer
from repro.util.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.exec.base import BatchResult
    from repro.exec.cost import CostModel
    from repro.index.base import SpatialIndex
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.faults import FaultPlan
    from repro.resilience.policy import RetryPolicy
    from repro.resilience.policy import SupervisePolicy

__all__ = ["Session"]


def _as_scheduler(value: str | Scheduler | None) -> Scheduler | None:
    if value is None or isinstance(value, Scheduler):
        return value
    try:
        return SCHEDULERS[value]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {value!r}; expected one of {sorted(SCHEDULERS)}"
        ) from None


def _as_policy(value: str | ReusePolicy | None) -> ReusePolicy | None:
    if value is None or isinstance(value, ReusePolicy):
        return value
    try:
        return POLICIES[value]
    except KeyError:
        raise KeyError(
            f"unknown reuse policy {value!r}; expected one of {sorted(POLICIES)}"
        ) from None


class Session:
    """Owns one database plus everything derived from it.

    Parameters
    ----------
    points:
        ``(n, 2)`` array-like, or an existing
        :class:`~repro.engine.store.PointStore` to adopt (the session
        then owns its lifecycle).
    dataset:
        Label stamped onto batch records (overridable per run).
    low_res_r:
        Default points-per-MBB for ``T_low``.
    fanout:
        R-tree fanout for factory-built trees.
    scheduler / reuse_policy:
        Default strategy objects (or registry names) for runs.
    cost_model:
        Work-unit pricing; defaults to the library's calibrated model.
    batch_size / cache_bytes:
        Default epsilon-search engine knobs: the block size of the
        batched searches (``<= 1`` runs the scalar loops) and the
        neighborhood-cache capacity (``0`` disables the cache).
    kernel:
        Default from-scratch clustering kernel, one of
        :data:`~repro.engine.context.KERNELS` (``bfs`` or
        ``cellgraph``); overridable per run.
    regions / part_size:
        Default spatial partitioning for shard and hybrid lowering
        (``regions`` fixes the region count, ``part_size`` derives it
        as ``ceil(n / part_size)``); ignored by variant lowering.  At
        most one may be set.
    shard_threshold:
        Default point count at which hybrid lowering fans a
        from-scratch variant out into shard/merge tasks (``None``
        defers to the executor row; ``0`` shards every scratch
        variant).
    supervise:
        Session-wide default for self-healing supervision
        (:mod:`repro.resilience.recovery`): ``True`` enables the default
        :class:`~repro.resilience.policy.SupervisePolicy`, a policy
        instance tunes it, ``None``/``False`` (default) disables.  Can
        be overridden per run.
    tracer:
        Span collector for everything the session does; ``None``
        resolves to the globally active tracer at each use.
    """

    def __init__(
        self,
        points: np.ndarray | PointStore,
        *,
        dataset: str = "",
        low_res_r: int = DEFAULT_LOW_RES_R,
        fanout: int = 16,
        scheduler: str | Scheduler | None = None,
        reuse_policy: str | ReusePolicy = CLUS_DENSITY,
        cost_model: CostModel | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache_bytes: int = 0,
        kernel: str = "bfs",
        regions: int | None = None,
        part_size: int | None = None,
        shard_threshold: int | None = None,
        supervise: SupervisePolicy | bool | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if cost_model is None:
            from repro.exec.cost import DEFAULT_COST_MODEL

            cost_model = DEFAULT_COST_MODEL
        self.store = PointStore.from_points(points)
        self.factory = IndexFactory()
        self.dataset = dataset
        self.fanout = check_positive_int(fanout, name="fanout")
        self.scheduler = _as_scheduler(scheduler)
        self.reuse_policy = _as_policy(reuse_policy)
        self.cost_model = cost_model
        check_knobs(
            kernel=kernel,
            regions=regions,
            part_size=part_size,
            shard_threshold=shard_threshold,
            batch_size=batch_size,
            cache_bytes=cache_bytes,
            low_res_r=low_res_r,
        )
        self.low_res_r = int(low_res_r)
        self.batch_size = int(batch_size)
        self.cache_bytes = int(cache_bytes)
        self.kernel = kernel
        self.regions = regions
        self.part_size = part_size
        self.shard_threshold = shard_threshold
        from repro.resilience.policy import as_supervise_policy

        self.supervise = as_supervise_policy(supervise)
        self.tracer = tracer
        self._closed = False
        self._active_runs = 0

    # -- derived state --------------------------------------------------
    @property
    def points(self) -> np.ndarray:
        return self.store.points

    @property
    def n_points(self) -> int:
        return self.store.n_points

    @property
    def closed(self) -> bool:
        return self._closed

    def indexes(
        self, low_res_r: int | None = None, *, fanout: int | None = None
    ) -> IndexPair:
        """The memoized ``(T_high, T_low)`` pair at the given resolution."""
        return self.factory.index_pair(
            self.store,
            low_res_r if low_res_r is not None else self.low_res_r,
            fanout=fanout if fanout is not None else self.fanout,
            tracer=resolve_tracer(self.tracer),
        )

    def index(self, kind: str, **params: object) -> SpatialIndex:
        """A memoized single index of ``kind`` (rtree/grid/kdtree/brute)."""
        return self.factory.get(
            self.store, kind, tracer=resolve_tracer(self.tracer), **params
        )

    # -- execution ------------------------------------------------------
    def context(
        self,
        *,
        scheduler: str | Scheduler | None = None,
        reuse_policy: str | ReusePolicy | None = None,
        n_threads: int | None = None,
        low_res_r: int | None = None,
        batch_size: int | None = None,
        cache_bytes: int | None = None,
        cost_model: CostModel | None = None,
        dataset: str | None = None,
        kernel: str | None = None,
        regions: int | None = None,
        part_size: int | None = None,
        shard_threshold: int | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint: CheckpointStore | None = None,
        supervise: SupervisePolicy | bool | None = None,
    ) -> RunContext:
        """Assemble the :class:`RunContext` for one run.

        Each knob is the argument when given, else the session default
        (``n_threads`` defaults to 1).  ``regions`` and ``part_size``
        fall back as a pair, and ``supervise=False`` switches a session
        default off for this run.  The resolved knobs are validated
        like the session defaults.
        """
        if self._closed:
            raise SessionClosedError("Session is closed")
        from repro.core.scheduling import SchedGreedy
        from repro.resilience.policy import as_supervise_policy

        def pick(name: str, value: Any) -> Any:
            return getattr(self, name) if value is None else value

        sched = pick("scheduler", _as_scheduler(scheduler))
        low_res_r = pick("low_res_r", low_res_r)
        batch_size = pick("batch_size", batch_size)
        cache_bytes = pick("cache_bytes", cache_bytes)
        kernel = pick("kernel", kernel)
        shard_threshold = pick("shard_threshold", shard_threshold)
        n_threads = 1 if n_threads is None else n_threads
        if regions is None and part_size is None:
            regions, part_size = self.regions, self.part_size
        check_knobs(
            kernel=kernel,
            regions=regions,
            part_size=part_size,
            shard_threshold=shard_threshold,
            batch_size=batch_size,
            cache_bytes=cache_bytes,
            low_res_r=low_res_r,
            n_threads=n_threads,
        )
        cache = (
            NeighborhoodCache(capacity_bytes=cache_bytes) if cache_bytes > 0 else None
        )
        return RunContext(
            store=self.store,
            indexes=self.indexes(low_res_r),
            scheduler=sched if sched is not None else SchedGreedy(),
            reuse_policy=pick("reuse_policy", _as_policy(reuse_policy)),
            cost_model=pick("cost_model", cost_model),
            n_threads=int(n_threads),
            batch_size=batch_size,
            cache=cache,
            # Run-scoped: dropped with the context when the run returns.
            outcomes=(
                SearchOutcomes() if cache is None and batch_size > 1 else None
            ),
            tracer=resolve_tracer(self.tracer),
            dataset=pick("dataset", dataset),
            retry_policy=retry_policy,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
            kernel=kernel,
            factory=self.factory,
            regions=regions,
            part_size=part_size,
            shard_threshold=shard_threshold,
            supervisor=(
                None if supervise is False
                else pick("supervise", as_supervise_policy(supervise))
            ),
        )

    def run(
        self,
        variants: VariantSet,
        *,
        executor: str = "serial",
        resume: str | Path | CheckpointStore | None = None,
        **knobs: Any,
    ) -> BatchResult:
        """Execute every variant and return the batch result.

        ``executor`` names a row of :data:`~repro.exec.graph.EXECUTORS`
        (``serial`` / ``simulated`` / ``processes`` / ``sharded`` /
        ``hybrid``).  Every other keyword is a :meth:`context` knob
        that overrides the session default for this run only; indexes
        come from the memoized factory, so repeated runs never rebuild
        them.

        Resilience knobs: ``retry_policy`` grants per-variant deadlines
        and retries, ``fault_plan`` injects deterministic failures (a
        plan without a policy implies a zero-retry policy so failures
        are *captured* into ``BatchResult.report`` rather than raised),
        and ``resume`` names a checkpoint directory — finished variants
        spill there as they complete and a rerun over byte-identical
        data skips them.  Any of the three makes the run resilient: a
        permanently failed variant no longer aborts the batch, and
        dependents re-plan onto surviving donors.

        ``supervise`` turns on self-healing supervision (heartbeat
        monitoring, risk-gated remediation, graceful degradation — see
        :mod:`repro.resilience.recovery`): ``True`` for the default policy, a
        :class:`~repro.resilience.policy.SupervisePolicy` to tune
        it, ``False`` to switch off a session default.
        Supervision implies a resilient run.
        """
        if self._closed:
            raise SessionClosedError("Session is closed")
        from repro.exec.graph import run_executor

        if not isinstance(variants, VariantSet):
            variants = VariantSet(variants)
        ctx = self.context(checkpoint=self._resolve_checkpoint(resume), **knobs)
        self._active_runs += 1
        try:
            return run_executor(executor, ctx, variants)
        finally:
            self._active_runs -= 1

    def _resolve_checkpoint(
        self, resume: str | Path | CheckpointStore | None
    ) -> CheckpointStore | None:
        """A :class:`CheckpointStore` for this database, or ``None``."""
        if resume is None:
            return None
        from repro.resilience.checkpoint import CheckpointStore

        if isinstance(resume, CheckpointStore):
            return resume
        return CheckpointStore(resume, self.store.fingerprint, self.n_points)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release everything the session owns.

        Unlinks any shared-memory segment the store materialized,
        drops the index cache, and audits this process's own segment
        registry so nothing survives even if an executor leaked.
        Raises :class:`~repro.util.errors.SessionClosedError` on a
        double close or a close while a run is still executing — both
        are lifecycle bugs that previously surfaced later as opaque
        shared-memory ``FileNotFoundError`` in whoever touched the
        store next.
        """
        if self._closed:
            raise SessionClosedError("Session is already closed")
        if self._active_runs > 0:
            raise SessionClosedError(
                f"cannot close Session while {self._active_runs} run(s) are "
                "still executing"
            )
        self._closed = True
        segment = self.store.segment_name
        self.factory.clear()
        self.store.close()
        if segment is not None:
            # Owner-side audit scoped to *this* session's segment: even
            # if the ordinary unlink above was skipped (a BufferError
            # path, an interrupted close), nothing of ours survives.
            # Never audit process-wide here — other sessions in this
            # process legitimately own their own live segments.
            from repro.engine.shm import reclaim_segments

            reclaim_segments([segment])

    def __enter__(self) -> Session:
        return self

    def __exit__(self, *exc: object) -> None:
        if not self._closed:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Session(n={self.store.n_points}, dataset={self.dataset!r}, "
            f"indexes_cached={len(self.factory)}, {state})"
        )
