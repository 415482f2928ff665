"""The task-graph runtime: one dispatch loop, two substrates, named executors.

A batch runs in three steps.  The scheduler plans the variant queue;
:func:`~repro.core.taskgraph.lower_variants` lowers it into a DAG of
variant, shard and merge tasks; :class:`GraphRuntime` runs the DAG in
one ready-queue loop.  The loop owns everything that happens when a
unit finishes: registry and result bookkeeping, the shard merge, the
``task`` spans, and executing what
:meth:`~repro.resilience.recovery.Recovery.on_failure` decides for a
failed unit (retry, degrade one rung, or fail).  Where and on which
clock a unit runs is the business of a *substrate* (:data:`SUBSTRATES`):

``sim``
    Inline, on ``T`` virtual workers and the modeled work-unit clock.
    A unit starts at ``max(worker available, hard-dep finishes)`` on the
    earliest-available worker (ties break on worker id, so the schedule
    is bit-reproducible) and finishes after its
    :class:`~repro.exec.cost.CostModel` price.  Reuse sources are the
    variants finished by that start time.
``lanes``
    Processes, one single-process pool per lane, so a killed worker
    breaks exactly one lane.  A reuse chain runs whole inside a
    :func:`_chain_worker`; a shard unit runs one region per lane.  The
    parent materializes the point database and the index pack once in
    shared memory; workers attach instead of receiving pickled arrays.

An executor is a name: one row of :data:`EXECUTORS`, a substrate and a
lowering mode, which :func:`run_executor` runs under an assembled
:class:`~repro.engine.context.RunContext`.
"""

from __future__ import annotations

import heapq
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.neighbors import SearchOutcomes
from repro.core.neighcache import NeighborhoodCache
from repro.core.result import ClusteringResult
from repro.core.reuse import POLICIES
from repro.core.scheduling import (
    CompletedRegistry,
    PlannedVariant,
    SchedGreedy,
    dependency_tree,
)
from repro.core.shard import (
    ShardPiece,
    ShardPlan,
    cluster_shard,
    merge_shards,
    plan_shards,
    resolve_n_regions,
)
from repro.core.taskgraph import (
    TaskGraph,
    VariantTask,
    lower_variants,
    shard_task_id,
    variant_task_id,
)
from repro.core.variants import Variant, VariantSet, sort_key
from repro.engine.context import RunContext
from repro.engine.factory import (
    IndexFactory,
    IndexPairHandle,
    attach_index_pair,
    share_index_pair,
)
from repro.engine.shm import destroy_segment, release_segment
from repro.engine.store import PointStore, PointStoreHandle
from repro.exec.base import BatchResult
from repro.exec.cost import CostModel
from repro.metrics.counters import WorkCounters
from repro.metrics.records import BatchRunRecord, VariantRunRecord
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    BoundFaultPlan,
    FaultSpec,
    allow_kill_faults,
    verify_result,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.recovery import EVENT_RETRY, Recovery, Step
from repro.supervise.signals import PulseHandle, WorkerPulse, worker_pulse
from repro.util.tracing import SPAN_TASK, SpanRecord, Tracer, set_tracer

__all__ = [
    "EVENT_SHARD_PLAN",
    "EXECUTORS",
    "Backend",
    "GraphRuntime",
    "SUBSTRATES",
    "partition_reuse_chains",
    "run_executor",
]

#: Instant event emitted once per batch describing the shard partition.
EVENT_SHARD_PLAN = "shard_plan"


class Backend(NamedTuple):
    """One :data:`EXECUTORS` row: where units run and how the DAG looks."""

    substrate: str
    #: A lowering mode, or ``None`` to derive it from the context.
    mode: str | None
    #: Run with one worker whatever thread count is requested.
    single_threaded: bool = False


#: Executor name -> :class:`Backend`.  What each row buys and gives up:
#:
#: ``serial``
#:     The paper's Section V-D reuse study (``T = 1``): every variant
#:     may reuse any variant before it, so the makespan is the plain sum
#:     of the response times.
#: ``simulated``
#:     The paper's thread-scaling figures (4, 8, 9) on the modeled
#:     clock, independent of host hardware.  Variants run for real, so
#:     labels and reuse fractions are genuine.  The mode follows the
#:     context: ``shard_threshold`` set gives hybrid lowering,
#:     ``regions`` / ``part_size`` set gives shard lowering, else
#:     variant lowering.  The memory-contention factor is static in
#:     ``T`` rather than tracking instantaneous overlap (DESIGN.md); the
#:     figures compare configurations under the same factor.
#: ``processes``
#:     GIL-free variant parallelism.  Processes cannot share completed
#:     results mid-flight, so the variant set is split statically into
#:     reuse-closed chains (:func:`partition_reuse_chains`) and
#:     cross-chain reuse is forfeited.  The one exception is a sharded
#:     donor, whose merged result ships to dependent chains.
#: ``sharded``
#:     Parallelism inside each variant: ``regions`` striped slabs with
#:     eps halos (:func:`~repro.core.shard.plan_shards`) cluster in
#:     lane workers, and the parent stitches the pieces with an exact
#:     union-find over the cut bands (:func:`~repro.core.shard.
#:     merge_shards`), byte-identical to the serial kernels.  Variants
#:     run one at a time and from scratch: cross-variant reuse is the
#:     price of the spatial axis.  A dead region resubmits alone; a
#:     corrupt merge retries the whole variant.
#: ``hybrid``
#:     Both axes on one pool.  From-scratch variants of at least
#:     ``shard_threshold`` points shard; every other variant stays whole
#:     in its reuse chain, hard-waiting on a sharded donor's merge.
#:     Nothing sequences unrelated chains, so one big variant's shards
#:     share the lanes with other chains instead of draining the pool.
EXECUTORS: dict[str, Backend] = {
    "serial": Backend("sim", "variant", single_threaded=True),
    "simulated": Backend("sim", None),
    "processes": Backend("lanes", "variant"),
    "sharded": Backend("lanes", "shard"),
    "hybrid": Backend("lanes", "hybrid"),
}


def partition_reuse_chains(
    variants: VariantSet, n_workers: int
) -> list[list[Variant]]:
    """Split a variant set into <= ``n_workers`` reuse-closed groups.

    Each returned group is ordered depth-first along the dependency
    tree, so executing it serially front-to-back always finds each
    variant's reuse source already completed (when the source is in the
    group).  Groups are balanced greedily by variant count.
    """
    tree = dependency_tree(variants)
    subtrees: list[list[Variant]] = []
    roots = sorted(
        (v for v, d in tree.nodes(data=True) if d.get("root")), key=sort_key
    )
    for root in roots:
        order: list[Variant] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(sorted(tree.successors(v), key=sort_key, reverse=True))
        subtrees.append(order)

    # Split any subtree bigger than an even share into contiguous
    # depth-first chunks of near-equal size (a target-size prefix walk
    # would strand a tiny remainder chunk — e.g. a 13-variant chain on
    # 4 workers must become 4+3+3+3, not 4+4+4+1, or one worker idles).
    # A chunk cut leaves the suffix's first variant without its in-group
    # parent, so the suffix simply starts from scratch — correct, just
    # less reuse.
    target = max(1, -(-len(variants) // n_workers))  # ceil division
    pieces: list[list[Variant]] = []
    for st in subtrees:
        if len(st) <= target:
            pieces.append(st)
            continue
        k = -(-len(st) // target)
        base, extra = divmod(len(st), k)
        sizes = [base + 1] * extra + [base] * (k - extra)
        i = 0
        for size in sizes:
            pieces.append(st[i : i + size])
            i += size

    # Greedy largest-first bin packing onto the workers, balanced by
    # total variant count (singleton leftovers included).
    pieces.sort(key=len, reverse=True)
    bins: list[list[Variant]] = [[] for _ in range(min(n_workers, len(pieces)))]
    for piece in pieces:
        smallest = min(bins, key=len)
        smallest.extend(piece)
    return [b for b in bins if b]


def _trace_search_stats(
    tracer: Tracer,
    cache: NeighborhoodCache | None,
    outcomes: SearchOutcomes | None,
) -> None:
    """Emit the batch's final cache and outcome-table statistics as instants."""
    if not tracer.enabled:
        return
    if cache is not None:
        s = cache.stats()
        tracer.instant(
            "cache.stats",
            hits=s.hits,
            misses=s.misses,
            evictions=s.evictions,
            entries=s.entries,
            bytes_stored=s.bytes_stored,
        )
    if outcomes is not None:
        tracer.instant("search_outcomes.stats", **outcomes.stats())


@dataclass(frozen=True)
class _LaneEnv:
    """What every lane worker of one batch receives: handles and knobs."""

    store: PointStoreHandle
    indexes: IndexPairHandle | None
    t0: float  # the batch's perf_counter origin
    trace: bool
    kernel: str
    batch_size: int
    reuse_policy: str
    cost_model: CostModel
    cache_bytes: int
    outcomes: bool  # build a search-outcome table per chain
    retry_policy: RetryPolicy | None
    checkpoint_root: str | None
    deadline_s: float | None


def _run_chain(
    recovery: Recovery,
    order: list[Variant],
    registry: CompletedRegistry,
    *,
    pulse: WorkerPulse | None = None,
    force_scratch: bool = False,
    **execute,
):
    """The one serial chain loop: lane chain workers and degraded rungs.

    Runs ``order`` front to back, each variant through the attempt loop
    (:meth:`Recovery.execute`, which takes the ``execute`` keywords)
    reusing from ``registry``, and yields ``(variant, result, record)``.
    A variant that failed for good yields ``(variant, None, None)``;
    the caller decides whether the chain goes on (its dependents then
    re-plan) or stops.  Records are stamped on the chain's modeled
    clock, and completed variants join ``registry`` at their finish.
    """
    clock = 0.0
    for variant in order:
        if pulse is not None:
            # Beat *before* the attempt: a stall fault freezes the
            # counter mid-task, which is exactly what the parent's
            # HealthMonitor is looking for.
            pulse.beat(f"variant:{variant.eps:g}/{variant.minpts}")
        result, record = recovery.execute(
            PlannedVariant(variant, force_scratch=force_scratch),
            registry,
            concurrency=1,
            **execute,
        )
        if result is not None:
            record.start, record.thread_id = clock, 0
            clock += record.response_time
            record.finish = clock
            registry.add(variant, result, finished_at=clock)
        yield variant, result, record


def _chain_worker(
    env: _LaneEnv,
    variant_tuples: list[tuple[float, int]],
    donors: list[tuple[tuple[float, int], ClusteringResult]],
    fault_plan: BoundFaultPlan | None,
    offset: int,
    pulse: PulseHandle | None,
):
    """Run one reuse chain serially, in its order, inside a lane worker.

    The worker attaches the parent's shared point segment and index
    pack (zero-copy views; spans ``shm_attach``) instead of receiving
    pickled points and rebuilding both trees.  ``donors`` carries the
    completed results of sharded donors this chain hard-depends on;
    they are seeded into the worker's completed registry at t = 0 so
    the chain's head can reuse them (the registry accepts out-of-set
    donors — inclusion checks are pure variant arithmetic).  The
    neighborhood cache, search-outcome table and tracer cannot cross the
    process boundary, so each worker builds its own and ships its spans
    back as plain records (``perf_counter`` is system-wide, so they
    need no rebase).

    The parent ships its retry policy, the bound fault plan, the
    chain's submission count ``offset`` and the checkpoint root; the
    chain runs through :func:`_run_chain` under the worker's own
    :class:`Recovery`, the same loop a degraded rung runs in the parent.
    ``kill`` faults are armed here — and only in workers — so they
    genuinely terminate a worker process without ever taking down an
    in-process caller.  Returns the ``(result, record)`` pairs stamped
    on the batch wall window, the worker's report and its spans.
    """
    allow_kill_faults(True)
    tracer = Tracer() if env.trace else None
    set_tracer(tracer)
    # perf_counter is monotonic *and* system-wide, so the parent's t0
    # is directly comparable here (unlike time.time, which can step
    # under NTP between the parent's stamp and ours).
    start = time.perf_counter() - env.t0
    # The pulse is the last acquisition before the try so no fallible
    # setup sits between it and the finally that closes it.
    hb = worker_pulse(pulse)
    # Every acquisition below happens inside the try: attach or setup
    # failures (a torn-down segment after a parent crash, a bad handle)
    # must still release the pulse slot and any mapping already opened.
    store: PointStore | None = None
    idx_shm = None
    ctx = indexes = None
    results: dict[Variant, ClusteringResult] = {}
    records: list[VariantRunRecord] = []
    try:
        store = PointStore.attach(env.store, tracer=tracer)
        idx_shm, indexes = attach_index_pair(
            env.indexes, store.points, tracer=tracer
        )
        order = [Variant(e, m) for e, m in variant_tuples]
        cache = (
            NeighborhoodCache(capacity_bytes=env.cache_bytes)
            if env.cache_bytes > 0
            else None
        )
        outcomes = SearchOutcomes() if env.outcomes else None
        checkpoint = (
            CheckpointStore(env.checkpoint_root, store.fingerprint, store.n_points)
            if env.checkpoint_root
            else None
        )
        ctx = RunContext(
            store=store,
            indexes=indexes,
            scheduler=SchedGreedy(),
            reuse_policy=POLICIES[env.reuse_policy],
            cost_model=env.cost_model,
            batch_size=env.batch_size,
            cache=cache,
            outcomes=outcomes,
            retry_policy=env.retry_policy,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
            kernel=env.kernel,
            factory=IndexFactory(),
            **({"tracer": tracer} if tracer is not None else {}),
        )
        recovery = Recovery(ctx, VariantSet(order))
        registry = CompletedRegistry()
        done = recovery.resume_into(registry, results, records)
        # Sharded donors completed before this chain was even submitted;
        # t = 0 makes them eligible for the whole chain.  They are *not*
        # part of the worker's variant set (resume/record bookkeeping
        # iterates the set), only reuse sources.
        for (e, m), donor_result in donors:
            registry.add(Variant(e, m), donor_result, finished_at=0.0)
        todo = [v for v in order if v not in done]
        for variant, result, record in _run_chain(
            recovery, todo, registry, pulse=hb, offset=offset
        ):
            if result is not None:  # else: failed for good, chain goes on
                results[variant] = result
                records.append(record)
        if tracer is not None:
            _trace_search_stats(tracer, cache, outcomes)
    finally:
        # Drop every view into the segments before unmapping; both
        # closes tolerate lingering exports (OS reclaims at exit).
        del ctx, indexes
        if idx_shm is not None:
            release_segment(idx_shm)
        if store is not None:
            store.close()
        if hb is not None:
            hb.beat("group:done")
            hb.close()
    finish = time.perf_counter() - env.t0
    # Re-stamp the work-unit timestamps onto the worker's wall window.
    span = finish - start
    total = max((r.finish for r in records), default=0.0) or 1.0
    for rec in records:
        rec.start = start + rec.start / total * span
        rec.finish = start + rec.finish / total * span
        rec.response_time = rec.finish - rec.start
    spans = None
    if tracer is not None:
        spans = tracer.drain()
        set_tracer(None)
    return [(results[r.variant], r) for r in records], recovery.finalize(), spans


def _shard_worker(
    env: _LaneEnv,
    plan: ShardPlan,
    region: int,
    minpts: int,
    fault_spec: FaultSpec | None,
    pulse: PulseHandle | None,
    task_label: str,
) -> tuple[ShardPiece, float, float, list[SpanRecord] | None]:
    """Cluster one region's slab inside a lane worker process.

    The worker attaches the parent's shared point segment (zero-copy)
    and slices it by the region's index sets — no point array crosses
    the process boundary in either direction.  When the parent shipped
    a ``start``-phase fault spec for this region, it fires here:
    ``kill`` faults are armed (and only here), so they genuinely
    terminate the worker process.  Returns the piece, its start and
    finish on the batch window, and the worker's spans.
    """
    allow_kill_faults(True)
    tracer = Tracer() if env.trace else None
    set_tracer(tracer)
    start = time.perf_counter() - env.t0
    perf_start = time.perf_counter()
    # Pulse last, attach inside the try: a failed attach must still
    # close the pulse slot (an unreleased slot reads as a
    # live-but-silent worker to the parent's monitor).
    hb = worker_pulse(pulse)
    store: PointStore | None = None
    try:
        store = PointStore.attach(env.store, tracer=tracer)
        if hb is not None:
            # Before the fault fires: a stall freezes the counter here.
            hb.beat(task_label)
        if fault_spec is not None:
            BoundFaultPlan({}).fire(
                fault_spec, deadline_s=env.deadline_s, started_at=perf_start
            )
        piece = cluster_shard(
            store.points,
            plan,
            region,
            minpts,
            kernel=env.kernel,
            batch_size=env.batch_size,
            tracer=tracer,
        )
        if hb is not None:
            hb.beat(task_label)
    finally:
        if store is not None:
            store.close()
        if hb is not None:
            hb.close()
    finish = time.perf_counter() - env.t0
    spans = None
    if tracer is not None:
        spans = tracer.drain()
        set_tracer(None)
    return piece, start, finish, spans


# --------------------------------------------------------------------------
# dispatch units
# --------------------------------------------------------------------------


@dataclass
class _Chain:
    """Variants that run in order on one slot, reusing along the chain.

    ``sim`` makes every variant task its own chain; lanes group them
    into reuse-closed chains (:func:`partition_reuse_chains`).
    """

    gid: int
    label: str
    planned: list[PlannedVariant]
    deps: set[str]  # merge-task ids of sharded donors
    submissions: int = 0
    running: bool = False
    done: bool = False

    @property
    def variants(self) -> list[Variant]:
        return [p.variant for p in self.planned]


@dataclass
class _Pipe:
    """One sharded variant: its region fan-out and the parent-side merge."""

    variant: Variant
    plan: ShardPlan
    deps: set[str]  # sequencing edges (shard mode); empty in hybrid
    merge_id: str
    shard_ids: tuple[str, ...]
    attempt: int = 0  # advances once per absorbed recovery round
    started_at: float | None = None  # perf_counter at first dispatch
    done: bool = False
    last_error: str | None = None
    pieces: dict[int, tuple[ShardPiece, float]] = field(default_factory=dict)
    inflight: set[int] = field(default_factory=set)

    @property
    def n_regions(self) -> int:
        return self.plan.n_regions

    def pending_regions(self) -> list[int]:
        return [
            r
            for r in range(self.n_regions)
            if r not in self.pieces and r not in self.inflight
        ]


@dataclass
class _Job:
    """One dispatched unit: a whole chain, or one region of a pipe."""

    unit: _Chain | _Pipe
    label: str  # task id
    region: int = -1
    stamp: int = 0  # pipe attempt at dispatch (staleness check)
    slot: int = -1
    deadline: float | None = None  # absolute time.monotonic() watchdog

    @property
    def shard(self) -> bool:
        return self.region >= 0


# --------------------------------------------------------------------------
# substrates: where a job runs and which clock stamps it
# --------------------------------------------------------------------------


class _Substrate:
    """Base of the substrates: a weak link back to the dispatcher.

    Weak, so the dispatcher and its substrate form no reference cycle
    and a batch's results, registry and context are freed when
    :meth:`GraphRuntime.run` returns, not at the next GC pass.
    """

    def __init__(self, d: _Dispatch) -> None:
        self.d = weakref.proxy(d)


class _Sim(_Substrate):
    """Inline execution on ``T`` virtual workers and the modeled clock."""

    clock = "modeled"
    thread = "sim"

    def __init__(self, d: _Dispatch) -> None:
        super().__init__(d)
        self.workers = [(0.0, tid) for tid in range(d.ctx.n_threads)]
        self.finish_at: dict[str, float] = {}
        self.done: list = []

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def free(self) -> bool:
        return not self.done

    def busy(self) -> bool:
        return bool(self.done)

    def wait(self) -> list:
        out, self.done = self.done, []
        return out

    def _worker(self, deps) -> tuple[float, int, float]:
        avail, tid = heapq.heappop(self.workers)
        finishes = [self.finish_at[d] for d in deps if d in self.finish_at]
        return avail, tid, max([avail, *finishes])

    def start(self, job: _Job) -> None:
        d = self.d
        deps = job.unit.deps
        avail, job.slot, start = self._worker(deps)
        try:
            value = d.execute(job, before=start)
        except Exception as exc:
            heapq.heappush(self.workers, (avail, job.slot))
            self.done.append((job, None, exc))
            return
        if job.shard:
            finish = start + d.ctx.cost_model.duration(
                value.counters, d.ctx.n_threads
            )
            out = value, start, finish, None
        elif value[0] is not None:
            result, record = value
            finish = start + record.response_time
            record.start, record.finish, record.thread_id = start, finish, job.slot
            out = [(result, record)], None, None
        else:  # permanent failure: the worker frees at once
            heapq.heappush(self.workers, (avail, job.slot))
            self.done.append((job, None, None))
            return
        heapq.heappush(self.workers, (finish, job.slot))
        self.finish_at[job.label] = finish
        self.done.append((job, out, None))

    def stamp_merge(self, pipe: _Pipe, delta: WorkCounters, wall0: float):
        ctx = self.d.ctx
        avail, tid, start = self._worker(pipe.shard_ids)
        finish = start + ctx.cost_model.duration(delta, ctx.n_threads)
        heapq.heappush(self.workers, (finish, tid))
        self.finish_at[pipe.merge_id] = finish
        return start, finish, tid


class _Lane:
    """One worker slot: a single-process pool a kill breaks in isolation."""

    def __init__(self) -> None:
        self.pool = ProcessPoolExecutor(max_workers=1)

    def respawn(self, *, hung: bool = False) -> None:
        if hung:  # wedged workers never join; kill them first
            for proc in list(getattr(self.pool, "_processes", {}).values()):
                proc.terminate()
        self.pool.shutdown(wait=True, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=1)

    def close(self) -> None:
        self.pool.shutdown(wait=True, cancel_futures=True)


class _Lanes(_Substrate):
    """Process lanes: chain and shard workers over shared memory.

    Chains keep one submission counter each and ship it to the worker,
    so faults planned for earlier submissions stay fired.  Under
    supervision every lane gets one heartbeat-mailbox slot, :meth:`wait`
    polls between futures, and a stale lane the recovery table admits a
    respawn for is killed and its job failed.  A job past its deadline
    budget is killed the same way (a wedged worker never joins).
    """

    clock = "wall"
    thread = "lane"

    def __init__(self, d: _Dispatch) -> None:
        super().__init__(d)
        self.inflight: dict[Future, _Job] = {}
        ctx, graph = d.ctx, d.graph
        if graph.mode == "shard":
            n_lanes = min(ctx.n_threads, graph.merge_tasks()[0].n_regions)
        elif graph.mode == "variant":
            n_lanes = len(d.units)  # one lane per chain
        else:
            n_lanes = ctx.n_threads
        self.n_lanes = max(1, n_lanes)
        self.free_lanes = list(range(self.n_lanes))
        self.lanes: list[_Lane] = []
        self.env: _LaneEnv | None = None
        self.idx_shm = self.mailbox = None
        self.replan_noted: set[tuple[int, str]] = set()

    def open(self) -> None:
        d, ctx = self.d, self.d.ctx
        store_handle = ctx.store.ensure_shared(tracer=d.tracer)
        idx_handle = None
        if any(isinstance(u, _Chain) for u in d.units):
            self.idx_shm, idx_handle = share_index_pair(ctx.indexes, tracer=d.tracer)
        self.env = _LaneEnv(
            store=store_handle,
            indexes=idx_handle,
            t0=d.t0,
            trace=d.tracer.enabled,
            kernel=ctx.kernel,
            batch_size=ctx.batch_size,
            reuse_policy=ctx.reuse_policy.name,
            cost_model=ctx.cost_model,
            cache_bytes=ctx.cache.capacity_bytes if ctx.cache is not None else 0,
            outcomes=ctx.outcomes is not None,
            retry_policy=d.recovery.policy,
            checkpoint_root=(
                str(ctx.checkpoint.root) if ctx.checkpoint is not None else None
            ),
            deadline_s=d.recovery.deadline_s,
        )
        for _ in range(self.n_lanes):
            self.lanes.append(_Lane())
        if d.recovery.monitor is not None:
            self.mailbox = d.recovery.open_mailbox(self.n_lanes)

    def close(self) -> None:
        for lane in self.lanes:
            lane.close()
        if self.mailbox is not None:
            self.d.recovery.close_mailbox()
        if self.idx_shm is not None:
            # The pack exists only for this batch; remove it even when
            # a worker raised.  (The point segment belongs to the
            # store's owner, the session.)  destroy also drops the
            # segment from the owned-set audit, so later leak gates
            # (Session.close, CI doctor) stay clean.
            release_segment(self.idx_shm)
            destroy_segment(self.idx_shm)

    def free(self) -> bool:
        return bool(self.free_lanes)

    def busy(self) -> bool:
        return bool(self.inflight)

    def stamp_merge(self, pipe: _Pipe, delta: WorkCounters, wall0: float):
        return wall0 - self.d.t0, time.perf_counter() - self.d.t0, 0

    def _donors(self, unit: _Chain) -> list:
        """Merged results of the chain's sharded donors, shipped along."""
        d = self.d
        donors = []
        for dep in sorted(unit.deps):
            v = d.merge_variant[dep]
            if v in d.results:
                donors.append((v.as_tuple(), d.results[v]))
            elif (
                d.recovery.supervise is not None
                and dep in d.failed
                and (unit.gid, dep) not in self.replan_noted
            ):
                # The donor died permanently; the worker's registry
                # re-plans the chain onto surviving donors / scratch.
                self.replan_noted.add((unit.gid, dep))
                d.recovery.replanned(
                    unit.label, dep, len(unit.planned) / d.n_tasks
                )
        return donors

    def start(self, job: _Job) -> None:
        d, rec = self.d, self.d.recovery
        lane = job.slot = self.free_lanes.pop()
        pool = self.lanes[lane].pool
        pulse = self.mailbox.handle(lane) if self.mailbox is not None else None
        deadline = rec.deadline_s
        if job.shard:
            pipe = job.unit
            budget = deadline
            fut = pool.submit(
                _shard_worker, self.env, pipe.plan, job.region,
                pipe.variant.minpts, d.shard_fault(job), pulse, job.label,
            )
        else:
            unit = job.unit
            budget = (
                deadline * len(unit.planned) * rec.max_attempts
                if deadline is not None
                else None
            )
            variants = [v.as_tuple() for v in unit.variants]
            fut = pool.submit(
                _chain_worker, self.env, variants, self._donors(unit),
                rec.faults, unit.submissions, pulse,
            )
        if budget is not None:
            job.deadline = time.monotonic() + budget + 30.0
        if rec.monitor is not None:
            rec.monitor.job_started(lane, job.label, deadline_s=deadline)
        self.inflight[fut] = job

    def _release(self, fut: Future, *, respawn: bool = False, hung: bool = False) -> _Job:
        job = self.inflight.pop(fut)
        if respawn:
            self.lanes[job.slot].respawn(hung=hung)
        self.free_lanes.append(job.slot)
        if self.d.recovery.monitor is not None:
            self.d.recovery.monitor.job_finished(job.slot)
        return job

    def wait(self) -> list:
        rec = self.d.recovery
        now = time.monotonic()
        waits = [
            j.deadline - now for j in self.inflight.values() if j.deadline is not None
        ]
        if rec.supervise is not None:
            waits.append(rec.supervise.poll_interval_s)
        timeout = max(0.0, min(waits)) if waits else None
        done, _ = wait(self.inflight, timeout=timeout, return_when=FIRST_COMPLETED)
        out: list = []
        if rec.supervise is not None:
            # Respawns the table admits: kill the stale lane and fail
            # the job (its failure then takes the table's transition).
            for label in rec.poll():
                match = next(
                    (
                        f
                        for f, j in self.inflight.items()
                        if j.label == label and f not in done
                    ),
                    None,
                )
                if match is not None:
                    job = self._release(match, respawn=True, hung=True)
                    what = "stuck shard" if job.shard else "stuck task"
                    out.append((job, None, f"{what}: heartbeat stale"))
        if not done:
            # Watchdog: a truly wedged worker never joins; stop waiting,
            # kill its lane, and account the failure.
            now = time.monotonic()
            for fut, job in list(self.inflight.items()):
                if job.deadline is not None and now >= job.deadline:
                    self._release(fut, respawn=True, hung=True)
                    what = "shard worker" if job.shard else "worker"
                    out.append((job, None, f"{what} exceeded the deadline budget"))
            return out
        for fut in done:
            if fut not in self.inflight:
                continue  # remediated as stuck in this round
            exc = fut.exception()
            job = self._release(fut, respawn=exc is not None)
            if exc is not None:
                out.append((job, None, exc))
            else:
                if not job.shard:
                    for _, record in fut.result()[0]:
                        record.thread_id = job.unit.gid
                out.append((job, fut.result(), None))
        return out


#: Substrate name -> implementation (see the module docstring).
SUBSTRATES: dict[str, type] = {"sim": _Sim, "lanes": _Lanes}


# --------------------------------------------------------------------------
# the dispatch loop
# --------------------------------------------------------------------------


class _Dispatch:
    """One batch's ready-queue loop and its completion handling."""

    def __init__(
        self,
        substrate: str,
        ctx: RunContext,
        recovery: Recovery,
        graph: TaskGraph,
        base_plan: ShardPlan | None,
        registry: CompletedRegistry,
        results: dict,
        records: list,
    ) -> None:
        self.substrate = substrate
        self.ctx = ctx
        self.tracer = ctx.tracer
        self.recovery = recovery
        self.graph = graph
        self.registry = registry
        self.results = results
        self.records = records
        self.n_tasks = recovery.n_tasks
        self.resolved: set[str] = set()
        self.failed: set[str] = set()
        self.spans: list[SpanRecord] = []
        self.units = self._units(base_plan)
        self.merge_variant = {
            u.merge_id: u.variant for u in self.units if isinstance(u, _Pipe)
        }
        self.soft = {t.variant: t.soft_deps for t in graph.variant_tasks()}
        self.t0 = time.perf_counter()
        self.sub = SUBSTRATES[substrate](self)
        self.origin = 0.0 if self.sub.clock == "modeled" else self.t0

    def _units(self, base_plan: ShardPlan | None) -> list:
        """Chains and pipes, in the order their first task appears."""
        graph = self.graph
        pipes: dict[Variant, _Pipe] = {}
        for mt in graph.merge_tasks():
            assert base_plan is not None
            pipes[mt.variant] = _Pipe(
                variant=mt.variant,
                plan=base_plan.with_eps(mt.variant.eps),
                deps=set(),
                merge_id=mt.task_id,
                shard_ids=tuple(mt.deps),
            )
        for st in graph.shard_tasks():
            pipes[st.variant].deps.update(st.deps)
        tasks = graph.variant_tasks()
        chain_of: dict[Variant, _Chain] = {}
        if self.substrate == "lanes" and tasks:
            # Group along the *global* reuse forest (so a sharded root's
            # subtree stays one chain), then drop the sharded variants
            # themselves — their results arrive as donors.
            hard = {t.variant: set(t.deps) for t in tasks}
            everything = [t.variant for t in tasks] + list(pipes)
            raw = partition_reuse_chains(VariantSet(everything), self.ctx.n_threads)
            kept = [[v for v in c if v not in pipes] for c in raw]
            for gid, chain in enumerate(filter(None, kept)):
                unit = _Chain(
                    gid,
                    f"group:{gid}",
                    [PlannedVariant(v) for v in chain],
                    set().union(*(hard[v] for v in chain)),
                )
                chain_of.update((v, unit) for v in chain)
        else:
            for gid, t in enumerate(tasks):
                chain_of[t.variant] = _Chain(gid, t.task_id, [t.planned], set(t.deps))
        units: list = []
        seen: set[int] = set()
        for task in graph.tasks:
            if isinstance(task, VariantTask):
                unit = chain_of.get(task.variant)
            else:
                unit = pipes[task.variant]
            if unit is not None and id(unit) not in seen:
                seen.add(id(unit))
                units.append(unit)
        return units

    # -- the loop ----------------------------------------------------------
    def run(self) -> None:
        sub = self.sub
        try:
            sub.open()
            while True:
                while sub.free():
                    job = self.next_job()
                    if job is None:
                        break
                    sub.start(job)
                if not sub.busy():
                    break
                for job, value, error in sub.wait():
                    if error is not None:
                        self.job_failed(job, error)
                    elif job.shard:
                        self.shard_done(job, *value)
                    else:
                        self.chain_done(job, value)
        finally:
            sub.close()
        if self.tracer.enabled and self.spans:
            self.tracer.add_records(self.spans)
        if self.substrate == "sim":  # lane workers trace their own
            _trace_search_stats(self.tracer, self.ctx.cache, self.ctx.outcomes)

    def next_job(self) -> _Job | None:
        """The first unit in dispatch order whose hard deps are settled."""
        settled = self.resolved | self.failed
        for unit in self.units:
            if unit.done or not unit.deps <= settled:
                continue
            if isinstance(unit, _Chain):
                if not unit.running:
                    unit.running = True
                    return _Job(unit, unit.label)
                continue
            pending = unit.pending_regions()
            if pending:
                region = pending[0]
                if unit.started_at is None:
                    unit.started_at = time.perf_counter()
                unit.inflight.add(region)
                label = shard_task_id(unit.variant, region)
                return _Job(unit, label, region, stamp=unit.attempt)
        return None

    # -- in-process execution (sim) ------------------------------------------
    def shard_fault(self, job: _Job) -> FaultSpec | None:
        """The ``start``-phase fault to fire in this shard job, if any."""
        faults, pipe = self.recovery.faults, job.unit
        if not faults:
            return None
        spec = faults.find(pipe.variant, pipe.attempt, "start")
        if spec is not None and job.region == spec.index % pipe.n_regions:
            return spec
        return faults.find_task(job.label, pipe.attempt, "start")

    def execute(self, job: _Job, *, before: float):
        """Run one job in this process: a whole variant or one region."""
        if not job.shard:
            (planned,) = job.unit.planned
            return self.recovery.execute(planned, self.registry, before=before)
        pipe = job.unit
        self.recovery.fire(self.shard_fault(job), time.perf_counter())
        return cluster_shard(
            self.ctx.points,
            pipe.plan,
            job.region,
            pipe.variant.minpts,
            kernel=self.ctx.kernel,
            batch_size=self.ctx.batch_size,
            tracer=self.tracer,
        )

    # -- completion handling -------------------------------------------------
    def task_span(self, kind, task_id, deps, start, finish, thread, soft=()):
        """The one emitter of ``task`` spans, tagged with their clock."""
        if self.tracer.enabled:
            args = {"kind": kind, "id": task_id, "deps": list(deps),
                    "soft": list(soft), "clock": self.sub.clock}
            self.spans.append(SpanRecord(
                SPAN_TASK, self.origin + start, finish - start, thread, args
            ))

    def chain_done(self, job: _Job, value) -> None:
        unit = job.unit
        unit.running = False
        unit.done = True
        if value is None:  # failed for good, already in the recovery report
            return
        items, report, spans = value
        thread = f"{self.sub.thread}-{job.slot}"
        for result, record in items:
            v = record.variant
            self.registry.add(v, result, finished_at=record.finish)
            self.results[v] = result
            self.records.append(record)
            self.task_span(
                "variant", variant_task_id(v), sorted(unit.deps),
                record.start, record.finish, thread, self.soft.get(v, ()),
            )
        if spans:
            self.tracer.add_records(spans, thread=f"worker-{unit.gid}")
        if report is not None:
            self.recovery.merge_outcomes(report)
        self.recovery.task_done(unit.label, True)

    def shard_done(self, job: _Job, piece, start, finish, spans) -> None:
        pipe = job.unit
        pipe.inflight.discard(job.region)
        self.recovery.task_done(job.label, True)
        if pipe.done:
            return  # stale completion after a permanent failure
        # Shard work is deterministic, so a piece from a superseded
        # round is byte-identical — accept it.
        pipe.pieces[job.region] = (piece, start)
        if spans:
            self.tracer.add_records(spans, thread=f"shard-{job.region}")
        self.task_span(
            "shard", job.label, sorted(pipe.deps), start, finish,
            f"{self.sub.thread}-{job.slot}",
        )
        if len(pipe.pieces) == pipe.n_regions:
            self.merge(pipe)

    def job_failed(self, job: _Job, error: BaseException | str) -> None:
        """Account one failed job and execute the recovery table's verdict.

        The one failure handler: a chain whose worker died or stalled, a
        lost shard region, and a merge that raised or failed the audit
        (``job`` is then the pipe's merge).  :meth:`Recovery.on_failure`
        decides; this runs the transition — resubmit, re-run a rung
        down (stepping further while rungs fail), or fail the unit.
        """
        rec, unit = self.recovery, job.unit
        pipe = isinstance(unit, _Pipe)
        merge = pipe and not job.shard
        if isinstance(error, BaseException):
            if not rec.enabled:
                raise error  # seed semantics: plain runs propagate
            error = f"{type(error).__name__}: {error}"
            if not merge:
                error = f"{'shard worker' if job.shard else 'worker'} died: {error}"
        kind, task = "crash-loop", None
        if pipe:
            unit.inflight.discard(job.region)
            if unit.done or job.stamp != unit.attempt:
                return  # stale round: already accounted
            unit.attempt += 1
            unit.last_error = error
            where = {} if merge else {"regions": [job.region]}
            self.tracer.instant(
                EVENT_RETRY, variant=str(unit.variant), attempt=unit.attempt,
                **where, error=error,
            )
            label, submissions = unit.merge_id, unit.attempt
            radius = (1 + unit.n_regions) / self.n_tasks
            rung = ("lowering", "shard")
            if merge:
                kind = "merge-corruption"
                if self.ctx.kernel == "cellgraph":
                    rung = ("kernel", "cellgraph")
            else:
                task = job.label
        else:
            unit.running = False
            unit.submissions += 1
            label, submissions = unit.label, unit.submissions
            radius = len(unit.planned) / self.n_tasks
            rung = ("substrate", self.substrate)
        while True:
            verdict = rec.on_failure(
                label, kind, submissions, radius, rung=rung, task=task, error=error
            )
            if verdict.kind == "retry":
                if merge:
                    # A finish-phase fault damaged the merged result:
                    # retry the whole variant (serial attempt semantics),
                    # unlike worker deaths, which resubmit their region.
                    unit.pieces = {}
                return
            if verdict.kind == "fail":
                break
            step = verdict.step
            ok = self.run_degraded(unit, step, submissions)
            rec.task_done(label, ok, step.label)
            if pipe:
                # A stuck region that forced the step is settled by the
                # re-run; the shard tasks themselves never complete.
                for r in range(unit.n_regions):
                    rec.task_done(shard_task_id(unit.variant, r), ok, step.label)
            if ok:
                unit.done = True
                if pipe:
                    self.resolved.add(unit.merge_id)
                return
            # The failed rung used up an attempt budget; step further.
            submissions += rec.max_attempts
            kind, task, rung = "crash-loop", None, (step.axis, step.target)
        rec.mark_failed(
            [unit.variant] if pipe else unit.variants, error, attempts=submissions
        )
        unit.done = True
        if pipe:
            self.failed.add(unit.merge_id)
        rec.task_done(label, False, error)

    def merge(self, pipe: _Pipe) -> None:
        """Stitch a pipe's pieces; verify, record and publish the result."""
        ctx, rec, variant = self.ctx, self.recovery, pipe.variant
        wall0 = time.perf_counter()
        delta = WorkCounters()
        labels, core_mask = merge_shards(
            ctx.points,
            pipe.plan,
            [pipe.pieces[r][0] for r in range(pipe.n_regions)],
            counters=delta,
            tracer=self.tracer,
        )
        merged = WorkCounters()
        for piece, _ in pipe.pieces.values():
            merged.merge(piece.counters)
        merged.merge(delta)
        result = ClusteringResult(
            labels,
            core_mask,
            variant=variant,
            counters=merged,
            elapsed=time.perf_counter() - pipe.started_at,
        )
        try:
            if rec.faults:
                rec.fire(
                    rec.faults.find(variant, pipe.attempt, "finish")
                    or rec.faults.find_task(pipe.merge_id, pipe.attempt, "finish"),
                    pipe.started_at,
                    result,
                )
            if rec.enabled:
                verify_result(result, ctx.store.n_points)
        except Exception as exc:
            self.job_failed(_Job(pipe, pipe.merge_id, stamp=pipe.attempt), exc)
            return
        start, finish, tid = self.sub.stamp_merge(pipe, delta, wall0)
        first = min(s for _, s in pipe.pieces.values())
        if self.sub.clock == "modeled":
            response = finish - first
        else:
            # Modeled critical path of the region decomposition: the R
            # active workers each hold ~1/R of the merged ledger and run
            # at concurrency R.  duration() is linear in the counters,
            # so the per-worker share is duration(merged, R) / R.
            active = max(1, min(ctx.n_threads, pipe.n_regions))
            response = ctx.cost_model.duration(merged, active) / active
        record = VariantRunRecord(
            variant=variant,
            response_time=response,
            wall_time=result.elapsed,
            start=first,
            finish=finish,
            thread_id=tid,
            n_clusters=result.n_clusters,
            n_noise=result.n_noise,
            counters=merged,
        )
        self.registry.add(variant, result, finished_at=finish)
        self.results[variant] = result
        self.records.append(record)
        pipe.done = True
        self.resolved.add(pipe.merge_id)
        rec.task_done(pipe.merge_id, True, "merge verified")
        thread = f"sim-{tid}" if self.sub.clock == "modeled" else "parent"
        self.task_span("merge", pipe.merge_id, pipe.shard_ids, start, finish, thread)
        if rec.checkpoint is not None:
            rec.checkpoint.save(result)
        rec.mark_done(variant, attempts=pipe.attempt + 1, error=pipe.last_error)

    def run_degraded(self, unit: _Chain | _Pipe, step: Step, offset: int) -> bool:
        """Execute a degrade transition: re-run ``unit`` one rung down.

        A pipe re-runs its variant from scratch, as its shards did, at
        variant lowering or on the bfs kernel.  A chain re-runs its
        unfinished variants in the parent (the serial rung), seeded with
        exactly the donors a fresh lane submission would see — its
        sharded donors and its own completed prefix — and normalizing
        reuse distances over the chain like its lane worker did; a wider
        pool could pick another reuse source and permute cluster ids.  Faults planned for the
        ``offset`` submissions already used stay fired.  Completed
        variants join the batch marked with the step; returns whether
        all completed.
        """
        pipe = isinstance(unit, _Pipe)
        if pipe:
            chain, donors = [unit.variant], []
        else:
            chain = unit.variants
            donors = [self.merge_variant[dep] for dep in sorted(unit.deps)] + chain
        registry = CompletedRegistry()
        for v in donors:
            if v in self.results:
                registry.add(v, self.results[v], finished_at=0.0)
        ctx = self.ctx.with_(
            scheduler=SchedGreedy(),
            n_threads=1,
            kernel="bfs" if step.axis == "kernel" else self.ctx.kernel,
        )
        todo = [v for v in chain if v not in self.results]
        start = time.perf_counter() - self.t0
        for v, result, record in _run_chain(
            self.recovery, todo, registry, force_scratch=pipe,
            ctx=ctx, vset=VariantSet(chain), offset=offset,
        ):
            if result is None:
                return False
            now = time.perf_counter() - self.t0
            record.start, record.finish, record.thread_id = start, now, -1
            record.response_time = now - start
            self.registry.add(v, result, finished_at=now)
            self.results[v] = result
            self.records.append(record)
            self.recovery.mark_degraded(v, step.label)
            start = now
        return True


class GraphRuntime:
    """Execute a lowered :class:`TaskGraph` on one substrate.

    ``substrate`` picks the execution medium (a key of
    :data:`SUBSTRATES`); the lowering ``mode`` passed to :meth:`run`
    picks the graph shape.
    """

    def __init__(self, substrate: str) -> None:
        if substrate not in SUBSTRATES:
            raise ValueError(
                f"unknown substrate {substrate!r}; "
                f"expected one of {list(SUBSTRATES)}"
            )
        self.substrate = substrate

    def run(
        self, ctx: RunContext, variants: VariantSet, *, mode: str = "variant"
    ) -> BatchResult:
        tracer = ctx.tracer
        recovery = Recovery(ctx, variants)
        registry = CompletedRegistry()
        results: dict[Variant, ClusteringResult] = {}
        records: list[VariantRunRecord] = []
        done = recovery.resume_into(registry, results, records)
        plan = [
            p for p in ctx.scheduler.plan(variants) if p.variant not in done
        ]
        base_plan: ShardPlan | None = None
        n_regions = 1
        if mode in ("shard", "hybrid") and plan:
            n_regions = resolve_n_regions(
                ctx.store.n_points, ctx.regions, ctx.part_size,
                default=ctx.n_threads,
            )
            # Cut geometry is eps-independent; plan once, re-halo per
            # variant with ShardPlan.with_eps.  plan_shards may clamp a
            # degenerate (empty) database to one region — lower with
            # the *planned* count so graph and geometry always agree.
            base_plan = plan_shards(ctx.points, plan[0].variant.eps, n_regions)
            n_regions = base_plan.n_regions
        graph = lower_variants(
            plan,
            variants,
            mode=mode,
            n_regions=n_regions,
            n_points=ctx.store.n_points,
            shard_threshold=ctx.shard_threshold,
        )
        if graph.merge_tasks() and base_plan is not None:
            tracer.instant(
                EVENT_SHARD_PLAN,
                regions=base_plan.n_regions,
                axis=base_plan.axis,
                n=ctx.store.n_points,
            )
        recovery.n_tasks = max(len(graph), 1)
        if len(graph):
            _Dispatch(
                self.substrate, ctx, recovery, graph, base_plan,
                registry, results, records,
            ).run()
        makespan = max((r.finish for r in records), default=0.0)
        batch_record = BatchRunRecord(
            records=records, n_threads=ctx.n_threads, makespan=makespan
        )
        return BatchResult(
            results=results, record=batch_record, report=recovery.finalize()
        )


def run_executor(name: str, ctx: RunContext, variants: VariantSet) -> BatchResult:
    """Run the :data:`EXECUTORS` row ``name`` under an assembled context.

    The one path from an executor name to :class:`GraphRuntime`: it
    looks the row up, runs single-threaded rows with ``n_threads=1``,
    takes the lowering mode from the row (or, for a row without one,
    from the context: ``shard_threshold`` set gives hybrid lowering,
    ``regions`` / ``part_size`` set gives shard lowering, else variant
    lowering) and stamps the batch record with the run's configuration.
    """
    if not isinstance(name, str):
        raise TypeError(f"executor must be an EXECUTORS row name; got {name!r}")
    try:
        row = EXECUTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown executor {name!r}; expected one of {sorted(EXECUTORS)}"
        ) from None
    if row.single_threaded:
        ctx = ctx.with_(n_threads=1)
    mode = row.mode
    if mode is None:
        if ctx.shard_threshold is not None:
            mode = "hybrid"
        elif ctx.regions is not None or ctx.part_size is not None:
            mode = "shard"
        else:
            mode = "variant"
    result = GraphRuntime(row.substrate).run(ctx, variants, mode=mode)
    record = result.record
    record.scheduler = ctx.scheduler.name
    record.reuse_policy = ctx.reuse_policy.name
    record.dataset = ctx.dataset
    record.executor = name
    return result
