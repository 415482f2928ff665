"""The task-graph runtime: one dispatch loop, three substrates, one executor.

A batch runs in three steps.  The scheduler plans the variant queue;
:func:`~repro.core.taskgraph.lower_variants` lowers it into a DAG of
variant, shard and merge tasks; :class:`GraphRuntime` runs the DAG in
one ready-queue loop.  The loop owns everything that happens when a
unit finishes: registry and result bookkeeping, the shard merge,
retries, supervisor decisions, the degradation ladder and the ``task``
spans.  Where and on which clock a unit runs is the business of a
*substrate* (:data:`SUBSTRATES`):

``sim``
    Inline, on ``T`` virtual workers and the modeled work-unit clock.
    A unit starts at ``max(worker available, hard-dep finishes)`` on the
    earliest-available worker (ties break on worker id, so the schedule
    is bit-reproducible) and finishes after its
    :class:`~repro.exec.cost.CostModel` price.  Reuse sources are the
    variants finished by that start time.
``threads``
    In-process futures on the wall clock; the shared online registry
    decides reuse.
``lanes``
    Processes, one single-process pool per lane, so a killed worker
    breaks exactly one lane.  A reuse chain runs whole inside a
    :func:`_chain_worker`; a shard unit runs one region per lane.  The
    parent materializes the point database and the index pack once in
    shared memory; workers attach instead of receiving pickled arrays.

An executor is one row of :data:`EXECUTORS` — a substrate and a
lowering mode — and :class:`Executor` holds one row plus the run knobs.
"""

from __future__ import annotations

import heapq
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.dbscan import DEFAULT_BATCH_SIZE
from repro.core.neighcache import NeighborhoodCache
from repro.core.result import ClusteringResult
from repro.core.reuse import CLUS_DENSITY, POLICIES, ReusePolicy
from repro.core.scheduling import (
    CompletedRegistry,
    PlannedVariant,
    SchedGreedy,
    Scheduler,
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
from repro.core.variant_dbscan import DEFAULT_LOW_RES_R
from repro.core.variants import Variant, VariantSet, sort_key
from repro.engine.context import RunContext, check_knobs
from repro.engine.factory import (
    IndexFactory,
    IndexPairHandle,
    attach_index_pair,
    share_index_pair,
)
from repro.engine.shm import destroy_segment, release_segment
from repro.engine.store import PointStore, PointStoreHandle
from repro.exec.base import BatchResult
from repro.exec.cost import DEFAULT_COST_MODEL, CostModel
from repro.metrics.counters import WorkCounters
from repro.metrics.records import BatchRunRecord, VariantRunRecord
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    BoundFaultPlan,
    FaultSpec,
    allow_kill_faults,
    corrupt_result,
    verify_result,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import VariantStatus
from repro.resilience.runner import EVENT_RETRY, ResilientRunner
from repro.supervise.signals import PulseHandle, worker_pulse
from repro.supervise.supervisor import (
    SupervisePolicy,
    Supervisor,
    as_supervise_policy,
)
from repro.util.tracing import SPAN_TASK, SpanRecord, Tracer, set_tracer
from repro.util.validation import check_positive_int

__all__ = [
    "EVENT_SHARD_PLAN",
    "EXECUTORS",
    "Backend",
    "Executor",
    "GraphRuntime",
    "SUBSTRATES",
    "partition_reuse_chains",
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
#: ``threads``
#:     Real threads sharing indexes and the completed registry, as in
#:     the paper's OpenMP loop; reuse depends on wall-clock completion
#:     order.  CPython's GIL serializes the Python-level clustering
#:     loop, so scaling sits far below the paper's C++ results; the
#:     executor-comparison ablation measures exactly that.
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
    "threads": Backend("threads", "variant"),
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


def _trace_cache_stats(tracer: Tracer, cache: NeighborhoodCache | None) -> None:
    """Emit the batch's final cache statistics as an instant event."""
    if cache is None or not tracer.enabled:
        return
    s = cache.stats()
    tracer.instant(
        "cache.stats",
        hits=s.hits,
        misses=s.misses,
        evictions=s.evictions,
        entries=s.entries,
        bytes_stored=s.bytes_stored,
    )


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
    retry_policy: RetryPolicy | None
    checkpoint_root: str | None
    deadline_s: float | None


def _chain_worker(
    env: _LaneEnv,
    variant_tuples: list[tuple[float, int]],
    donors: list[tuple[tuple[float, int], ClusteringResult]],
    fault_plan: BoundFaultPlan | None,
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
    neighborhood cache and tracer cannot cross the process boundary, so
    each worker builds its own and ships its spans back as plain
    records (``perf_counter`` is system-wide, so they need no rebase).

    The parent ships its retry policy, the already-bound fault plan
    (re-keyed by the chain's submission count, see
    :meth:`BoundFaultPlan.shifted`) and the checkpoint root; the
    in-worker :class:`ResilientRunner` runs the same recovery loop as
    every other substrate.  ``kill`` faults are armed here — and only in
    workers — so they genuinely terminate a worker process without ever
    taking down an in-process caller.  Returns the ``(result, record)``
    pairs stamped on the batch wall window, the worker's report and its
    spans.
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
            retry_policy=env.retry_policy,
            fault_plan=fault_plan,
            checkpoint=checkpoint,
            kernel=env.kernel,
            factory=IndexFactory(),
            **({"tracer": tracer} if tracer is not None else {}),
        )
        runner = ResilientRunner(ctx, VariantSet(order))
        registry = CompletedRegistry()
        done = runner.resume_into(registry, results, records)
        # Sharded donors completed before this chain was even submitted;
        # t = 0 makes them eligible for the whole chain.  They are *not*
        # part of the worker's variant set (resume/record bookkeeping
        # iterates the set), only reuse sources.
        for (e, m), donor_result in donors:
            registry.add(Variant(e, m), donor_result, finished_at=0.0)
        clock = 0.0
        for variant in order:
            if variant in done:
                continue
            if hb is not None:
                # Beat *before* the attempt: a stall fault freezes the
                # counter mid-task, which is exactly what the parent's
                # HealthMonitor is looking for.
                hb.beat(f"variant:{variant.eps:g}/{variant.minpts}")
            result, record = runner.execute(
                PlannedVariant(variant), registry, concurrency=1
            )
            if result is None:  # permanent failure: skip, chain continues
                continue
            record.start = clock
            clock += record.response_time
            record.finish = clock
            record.thread_id = 0
            registry.add(variant, result, finished_at=clock)
            results[variant] = result
            records.append(record)
        if tracer is not None:
            _trace_cache_stats(tracer, cache)
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
    total = clock or 1.0
    for rec in records:
        rec.start = start + rec.start / total * span
        rec.finish = start + rec.finish / total * span
        rec.response_time = rec.finish - rec.start
    spans = None
    if tracer is not None:
        spans = tracer.drain()
        set_tracer(None)
    return [(results[r.variant], r) for r in records], runner.report(), spans


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

    In-process substrates make every variant task its own chain; lanes
    group them into reuse-closed chains (:func:`partition_reuse_chains`).
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
    label: str  # task id / supervisor label
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
    grouped = False
    shares_cache = True

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
        elif value[0] is not None:
            finish = start + value[1].response_time
        else:  # permanent failure: the worker frees at once
            heapq.heappush(self.workers, (avail, job.slot))
            self.done.append((job, None, None))
            return
        heapq.heappush(self.workers, (finish, job.slot))
        self.finish_at[job.label] = finish
        self.done.append((job, d.inline_value(job, value, start, finish), None))

    def stamp_merge(self, pipe: _Pipe, delta: WorkCounters, wall0: float):
        ctx = self.d.ctx
        avail, tid, start = self._worker(pipe.shard_ids)
        finish = start + ctx.cost_model.duration(delta, ctx.n_threads)
        heapq.heappush(self.workers, (finish, tid))
        self.finish_at[pipe.merge_id] = finish
        return start, finish, tid


class _Wall(_Substrate):
    """Shared part of the wall-clock substrates."""

    clock = "wall"

    def __init__(self, d: _Dispatch) -> None:
        super().__init__(d)
        self.inflight: dict[Future, _Job] = {}

    def busy(self) -> bool:
        return bool(self.inflight)

    def stamp_merge(self, pipe: _Pipe, delta: WorkCounters, wall0: float):
        return wall0 - self.d.t0, time.perf_counter() - self.d.t0, 0


def _run_on_thread(d: _Dispatch, job: _Job):
    """Thread-pool body: run ``job`` in-process and stamp its wall window."""
    start = time.perf_counter() - d.t0
    value = d.execute(job, before=None)
    return d.inline_value(job, value, start, time.perf_counter() - d.t0)


class _Threads(_Wall):
    """In-process futures on the wall clock."""

    thread = "thread"
    grouped = False
    shares_cache = True

    def __init__(self, d: _Dispatch) -> None:
        super().__init__(d)
        self.slots = list(range(d.ctx.n_threads))
        self.pool: ThreadPoolExecutor | None = None

    def open(self) -> None:
        self.pool = ThreadPoolExecutor(
            max_workers=len(self.slots), thread_name_prefix="variant-worker"
        )

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True, cancel_futures=True)

    def free(self) -> bool:
        return bool(self.slots)

    def start(self, job: _Job) -> None:
        assert self.pool is not None
        job.slot = self.slots.pop()
        self.inflight[self.pool.submit(_run_on_thread, self.d, job)] = job

    def wait(self) -> list:
        done, _ = wait(self.inflight, return_when=FIRST_COMPLETED)
        out = []
        for fut in done:
            job = self.inflight.pop(fut)
            self.slots.append(job.slot)
            exc = fut.exception()
            out.append((job, None, exc) if exc else (job, fut.result(), None))
        return out


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


class _Lanes(_Wall):
    """Process lanes: chain and shard workers over shared memory.

    Chains keep one submission counter each; a resubmission re-keys the
    fault plan with :meth:`BoundFaultPlan.shifted` so already-fired
    faults stay fired.  With a :class:`Supervisor`, every lane gets one
    heartbeat-mailbox slot, :meth:`wait` polls the monitor between
    futures, and a stale lane is killed and its job failed.  A job past
    its deadline budget is killed the same way (a wedged worker never
    joins).
    """

    thread = "lane"
    grouped = True
    shares_cache = False

    def __init__(self, d: _Dispatch) -> None:
        super().__init__(d)
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
            retry_policy=d.runner.policy,
            checkpoint_root=(
                str(ctx.checkpoint.root) if ctx.checkpoint is not None else None
            ),
            deadline_s=d.deadline,
        )
        for _ in range(self.n_lanes):
            self.lanes.append(_Lane())
        if d.supervisor is not None:
            self.mailbox = d.supervisor.open_mailbox(self.n_lanes)

    def close(self) -> None:
        for lane in self.lanes:
            lane.close()
        if self.mailbox is not None:
            self.d.supervisor.close_mailbox()
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

    def _donors(self, unit: _Chain) -> list:
        """Merged results of the chain's sharded donors, shipped along."""
        d = self.d
        donors = []
        for dep in sorted(unit.deps):
            v = d.merge_variant[dep]
            if v in d.results:
                donors.append((v.as_tuple(), d.results[v]))
            elif (
                d.supervisor is not None
                and dep in d.failed
                and (unit.gid, dep) not in self.replan_noted
            ):
                # The donor died permanently; the worker's registry
                # re-plans the chain onto surviving donors / scratch.
                self.replan_noted.add((unit.gid, dep))
                d.supervisor.on_replanned(
                    unit.label, dep, blast_radius=len(unit.planned) / d.n_tasks
                )
        return donors

    def start(self, job: _Job) -> None:
        d = self.d
        lane = job.slot = self.free_lanes.pop()
        pool = self.lanes[lane].pool
        pulse = self.mailbox.handle(lane) if self.mailbox is not None else None
        deadline = d.deadline
        if job.shard:
            pipe = job.unit
            budget = deadline
            fut = pool.submit(
                _shard_worker, self.env, pipe.plan, job.region,
                pipe.variant.minpts, d.shard_fault(job), pulse, job.label,
            )
        else:
            unit = job.unit
            plan = d.runner.faults
            if plan is not None and unit.submissions > 0:
                plan = plan.shifted(unit.submissions)
            budget = (
                deadline * len(unit.planned) * d.max_attempts
                if deadline is not None
                else None
            )
            variants = [v.as_tuple() for v in unit.variants]
            fut = pool.submit(
                _chain_worker, self.env, variants, self._donors(unit), plan, pulse
            )
        if budget is not None:
            job.deadline = time.monotonic() + budget + 30.0
        if d.supervisor is not None:
            d.supervisor.job_started(lane, job.label, deadline_s=deadline)
        self.inflight[fut] = job

    def _release(self, fut: Future, *, respawn: bool = False, hung: bool = False) -> _Job:
        job = self.inflight.pop(fut)
        if respawn:
            self.lanes[job.slot].respawn(hung=hung)
        self.free_lanes.append(job.slot)
        if self.d.supervisor is not None:
            self.d.supervisor.job_finished(job.slot)
        return job

    def wait(self) -> list:
        sup = self.d.supervisor
        now = time.monotonic()
        waits = [
            j.deadline - now for j in self.inflight.values() if j.deadline is not None
        ]
        if sup is not None:
            waits.append(sup.policy.poll_interval_s)
        timeout = max(0.0, min(waits)) if waits else None
        done, _ = wait(self.inflight, timeout=timeout, return_when=FIRST_COMPLETED)
        out: list = []
        if sup is not None:
            # Applied stuck-task remediations: kill the stale lane and
            # fail the job (the dispatcher resubmits or degrades).
            for rec in sup.poll():
                match = next(
                    (
                        f
                        for f, j in self.inflight.items()
                        if j.label == rec.anomaly.subject and f not in done
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
SUBSTRATES: dict[str, type] = {"sim": _Sim, "threads": _Threads, "lanes": _Lanes}


# --------------------------------------------------------------------------
# the dispatch loop
# --------------------------------------------------------------------------


class _Dispatch:
    """One batch's ready-queue loop and its completion handling."""

    def __init__(
        self,
        substrate: str,
        ctx: RunContext,
        runner: ResilientRunner,
        graph: TaskGraph,
        base_plan: ShardPlan | None,
        registry: CompletedRegistry,
        results: dict,
        records: list,
        supervisor: Supervisor | None,
    ) -> None:
        self.ctx = ctx
        self.tracer = ctx.tracer
        self.runner = runner
        self.graph = graph
        self.registry = registry
        self.results = results
        self.records = records
        self.supervisor = supervisor
        policy = runner.policy
        self.max_attempts = policy.max_attempts if policy is not None else 1
        planned_kills = (
            sum(1 for s in runner.faults.table.values() if s.kind == "kill")
            if runner.faults
            else 0
        )
        # A planned kill costs a submission without being a retry.
        self.max_submissions = self.max_attempts + planned_kills
        self.deadline = policy.deadline_s if policy is not None else None
        self.n_tasks = max(len(graph), 1)
        self.resolved: set[str] = set()
        self.failed: set[str] = set()
        self.spans: list[SpanRecord] = []
        kind = SUBSTRATES[substrate]
        self.units = self._units(kind.grouped, base_plan)
        self.merge_variant = {
            u.merge_id: u.variant for u in self.units if isinstance(u, _Pipe)
        }
        self.soft = {t.variant: t.soft_deps for t in graph.variant_tasks()}
        self.t0 = time.perf_counter()
        self.sub = kind(self)
        self.origin = 0.0 if self.sub.clock == "modeled" else self.t0

    def _units(self, grouped: bool, base_plan: ShardPlan | None) -> list:
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
        if grouped and tasks:
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
        if sub.shares_cache:
            _trace_cache_stats(self.tracer, self.ctx.cache)

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

    # -- in-process execution (sim and threads) ----------------------------
    def shard_fault(self, job: _Job) -> FaultSpec | None:
        """The ``start``-phase fault to fire in this shard job, if any."""
        faults, pipe = self.runner.faults, job.unit
        if not faults:
            return None
        spec = faults.find(pipe.variant, pipe.attempt, "start")
        if spec is not None and job.region == spec.index % pipe.n_regions:
            return spec
        return faults.find_task(job.label, pipe.attempt, "start")

    def execute(self, job: _Job, *, before: float | None):
        """Run one job in this process: a whole variant or one region."""
        if not job.shard:
            (planned,) = job.unit.planned
            return self.runner.execute(planned, self.registry, before=before)
        pipe = job.unit
        spec = self.shard_fault(job)
        if spec is not None:
            self.runner.faults.fire(
                spec, deadline_s=self.deadline, started_at=time.perf_counter()
            )
        return cluster_shard(
            self.ctx.points,
            pipe.plan,
            job.region,
            pipe.variant.minpts,
            kernel=self.ctx.kernel,
            batch_size=self.ctx.batch_size,
            tracer=self.tracer,
        )

    def inline_value(self, job: _Job, value, start: float, finish: float):
        """An in-process job's outcome in the form the lane jobs have."""
        if job.shard:
            return value, start, finish, None
        result, record = value
        if result is None:
            return None
        if self.sub.clock == "wall":
            record.response_time = finish - start
        record.start, record.finish, record.thread_id = start, finish, job.slot
        return [(result, record)], None, None

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
        if value is None:  # permanent failure, already in the runner's report
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
            if unit.submissions > 0:
                # The whole chain re-ran after a worker death; its
                # completions are retries even though the fresh worker
                # saw attempt 0.
                for o in report.outcomes.values():
                    if o.status is VariantStatus.RESUMED:
                        continue
                    o.attempts += unit.submissions
                    if o.status is VariantStatus.OK:
                        o.status = VariantStatus.RETRIED
            self.runner.merge_outcomes(report)
        if self.supervisor is not None:
            self.supervisor.task_done(unit.label, True)

    def shard_done(self, job: _Job, piece, start, finish, spans) -> None:
        pipe = job.unit
        pipe.inflight.discard(job.region)
        if self.supervisor is not None:
            self.supervisor.task_done(job.label, True)
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
        if isinstance(error, BaseException):
            if not self.runner.enabled:
                raise error  # seed semantics: plain runs propagate
            what = "shard worker" if job.shard else "worker"
            error = f"{what} died: {type(error).__name__}: {error}"
        sup = self.supervisor
        if job.shard:
            pipe = job.unit
            pipe.inflight.discard(job.region)
            if pipe.done or job.stamp != pipe.attempt:
                return  # stale round: already accounted
            pipe.attempt += 1
            pipe.last_error = error
            self.tracer.instant(
                EVENT_RETRY,
                variant=str(pipe.variant),
                attempt=pipe.attempt,
                regions=[job.region],
                error=error,
            )
            submissions, radius = pipe.attempt, 1.0 / self.n_tasks
        else:
            unit = job.unit
            unit.running = False
            unit.submissions += 1
            submissions = unit.submissions
            radius = len(unit.planned) / self.n_tasks
        exhausted = submissions >= self.max_submissions
        if sup is not None and not exhausted and submissions >= 2:
            # Second-and-later deaths of one unit are a crash loop: the
            # supervisor gates each further resubmission.
            rec = sup.on_crash(
                job.label,
                submissions=submissions,
                budget=self.max_submissions,
                blast_radius=radius,
            )
            exhausted = rec.decision != "applied"
        if not exhausted:
            return
        if job.shard:
            self.fail_pipe(job.unit, error)
            return
        if sup is not None and self.degrade_chain(job.unit):
            return
        self.runner.mark_failed_group(unit.variants, error, attempts=submissions)
        unit.done = True
        if sup is not None:
            sup.task_done(unit.label, False, error)

    def merge(self, pipe: _Pipe) -> None:
        """Stitch a pipe's pieces; verify, record and publish the result."""
        ctx, runner, variant = self.ctx, self.runner, pipe.variant
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
            if runner.faults:
                spec = runner.faults.find(variant, pipe.attempt, "finish")
                if spec is None:
                    spec = runner.faults.find_task(
                        pipe.merge_id, pipe.attempt, "finish"
                    )
                if spec is not None and spec.kind == "corrupt":
                    corrupt_result(result)
                elif spec is not None:
                    runner.faults.fire(
                        spec, deadline_s=self.deadline, started_at=pipe.started_at
                    )
            if runner.enabled:
                verify_result(result, ctx.store.n_points)
        except Exception as exc:
            if not runner.enabled:
                raise
            pipe.attempt += 1
            pipe.last_error = f"{type(exc).__name__}: {exc}"
            self.tracer.instant(
                EVENT_RETRY,
                variant=str(variant),
                attempt=pipe.attempt,
                error=pipe.last_error,
            )
            retry_ok = pipe.attempt < self.max_submissions
            if self.supervisor is not None and retry_ok:
                # Corruption retries are supervised decisions: the risk
                # gate must admit the resubmission.
                rec = self.supervisor.on_corruption(
                    pipe.merge_id,
                    pipe.last_error,
                    blast_radius=(1 + pipe.n_regions) / self.n_tasks,
                )
                retry_ok = rec.decision == "applied"
            if not retry_ok:
                self.fail_pipe(pipe, pipe.last_error, axis_hint="kernel")
            else:
                # A finish-phase fault damaged the merged result: retry
                # the whole variant (serial attempt semantics), unlike
                # worker deaths, which only resubmit their own region.
                pipe.pieces = {}
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
        if self.supervisor is not None:
            self.supervisor.task_done(pipe.merge_id, True, "merge verified")
        thread = f"sim-{tid}" if self.sub.clock == "modeled" else "parent"
        self.task_span("merge", pipe.merge_id, pipe.shard_ids, start, finish, thread)
        if runner.checkpoint is not None:
            runner.checkpoint.save(result)
        runner.mark_done(variant, attempts=pipe.attempt + 1, error=pipe.last_error)

    # -- permanent failure and the degradation ladder ------------------------
    def fail_pipe(
        self, pipe: _Pipe, error: str, *, axis_hint: str | None = None
    ) -> None:
        if self.supervisor is not None and self.degrade_pipe(pipe, axis_hint):
            return
        self.runner.mark_failed_group([pipe.variant], error, attempts=pipe.attempt)
        pipe.done = True
        self.failed.add(pipe.merge_id)
        if self.supervisor is not None:
            self.supervisor.task_done(pipe.merge_id, False, error)

    def degrade_pipe(self, pipe: _Pipe, axis_hint: str | None) -> bool:
        """Lower an exhausted pipe: shard→variant (or cellgraph→bfs)."""
        sup, ctx = self.supervisor, self.ctx
        assert sup is not None
        if axis_hint == "kernel" and ctx.kernel == "cellgraph":
            axis, rung = "kernel", ctx.kernel
        else:
            axis, rung = "lowering", "shard"
        _, step = sup.on_exhausted(
            pipe.merge_id,
            submissions=pipe.attempt,
            budget=self.max_submissions,
            blast_radius=(1 + pipe.n_regions) / self.n_tasks,
            breaker_key=pipe.merge_id,
            axis=axis,
            rung=rung,
        )
        if step is None:
            return False
        kernel = "bfs" if axis == "kernel" else ctx.kernel
        # Shard pipes compute from scratch; the variant-lowered re-run
        # must too, or cluster ids permute under reuse.
        ok, _used = self.run_inline(
            [pipe.variant], pipe.attempt, kernel, step.label, force_scratch=True
        )
        sup.task_done(pipe.merge_id, ok, step.label)
        for r in range(pipe.n_regions):
            # Pending shard-level remediations (a stuck region that
            # forced this lowering) are settled by the variant-level
            # re-run — the shard tasks themselves never complete.
            sup.task_done(shard_task_id(pipe.variant, r), ok, step.label)
        if ok:
            pipe.done = True
            self.resolved.add(pipe.merge_id)
        return ok

    def degrade_chain(self, unit: _Chain) -> bool:
        """Walk the substrate ladder for a chain out of submissions.

        Only lane chains get here (in-process chains absorb failures in
        the runner).  Each rung re-runs the chain's remaining variants
        inline: the threads rung on a parent thread, the serial rung in
        the parent itself, with no worker boundary left to fail.
        """
        sup = self.supervisor
        assert sup is not None
        rung = "lanes"
        consumed = unit.submissions
        while True:
            _, step = sup.on_exhausted(
                unit.label,
                submissions=consumed,
                budget=self.max_submissions,
                blast_radius=len(unit.planned) / self.n_tasks,
                breaker_key=unit.label,
                axis="substrate",
                rung=rung,
            )
            if step is None:
                return False
            remaining = [v for v in unit.variants if v not in self.results]
            # Exactly what a fresh lane submission would see: the chain's
            # sharded donors plus its own completed prefix — not the
            # whole batch (a wider donor pool could pick a different
            # reuse source and permute cluster ids).
            donors = [
                self.merge_variant[dep]
                for dep in sorted(unit.deps)
                if self.merge_variant[dep] in self.results
            ] + [v for v in unit.variants if v in self.results]
            args = (remaining, consumed, self.ctx.kernel, step.label)
            if step.target == "threads":
                out: list = []
                th = threading.Thread(
                    target=lambda: out.append(self.run_inline(*args, donors=donors)),
                    name="degrade-runner",
                )
                th.start()
                th.join()
                ok, used = out[0] if out else (False, 1)
            else:
                ok, used = self.run_inline(*args, donors=donors)
            sup.task_done(unit.label, ok, step.label)
            if ok:
                unit.done = True
                return True
            consumed += max(used, 1)
            rung = step.target

    def run_inline(
        self,
        order: list[Variant],
        consumed: int,
        kernel: str,
        step_label: str,
        *,
        donors: list[Variant] = (),
        force_scratch: bool = False,
    ) -> tuple[bool, int]:
        """Degraded-rung execution: run ``order`` serially in-parent.

        The fault plan is shifted past the ``consumed`` submissions so
        already-fired faults do not refire; completed variants land in
        the shared results with a ``degraded`` outcome.  ``donors``
        (seeded at t = 0) and ``force_scratch`` mirror the reuse
        provenance the unit had on its original rung, so the degraded
        labels stay byte-identical to a fault-free run.  Returns (all
        completed, attempts used).
        """
        runner = self.runner
        shifted = (
            runner.faults.shifted(consumed)
            if runner.faults and consumed > 0
            else runner.faults
        )
        local_ctx = self.ctx.with_(
            scheduler=SchedGreedy(),
            fault_plan=shifted,
            retry_policy=runner.policy,
            supervisor=None,
            n_threads=1,
            kernel=kernel,
        )
        local_runner = ResilientRunner(local_ctx, VariantSet(order))
        reg = CompletedRegistry()
        for d in donors:
            if d in self.results:
                reg.add(d, self.results[d], finished_at=0.0)
        used = 0
        try:
            for v in order:
                planned = PlannedVariant(v, force_scratch=force_scratch)
                v_start = time.perf_counter() - self.t0
                result, record = local_runner.execute(planned, reg, concurrency=1)
                outcome = local_runner.report().outcomes.get(v)
                attempts = outcome.attempts if outcome is not None else 1
                used += attempts
                if result is None:
                    return False, used
                now = time.perf_counter() - self.t0
                record.start = v_start
                record.finish = now
                record.response_time = now - v_start
                record.thread_id = -1
                reg.add(v, result, finished_at=now)
                self.registry.add(v, result, finished_at=now)
                self.results[v] = result
                self.records.append(record)
                runner.mark_done(
                    v,
                    attempts=consumed + attempts,
                    error=outcome.error if outcome is not None else None,
                    degraded=step_label,
                )
        except Exception:
            return False, used + 1
        return True, used


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
        runner = ResilientRunner(ctx, variants)
        registry = CompletedRegistry()
        results: dict[Variant, ClusteringResult] = {}
        records: list[VariantRunRecord] = []
        done = runner.resume_into(registry, results, records)
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
        supervisor = None
        if ctx.supervisor is not None:
            supervisor = Supervisor(
                ctx.supervisor, tracer=tracer, n_tasks=max(len(graph), 1)
            )
        if len(graph):
            _Dispatch(
                self.substrate, ctx, runner, graph, base_plan,
                registry, results, records, supervisor,
            ).run()
        makespan = max((r.finish for r in records), default=0.0)
        batch_record = BatchRunRecord(
            records=records, n_threads=ctx.n_threads, makespan=makespan
        )
        report = runner.report()
        if supervisor is not None:
            # Dangling verifications fail, orphans are reclaimed.
            supervisor.finalize()
            if report is not None:
                report.remediations.extend(supervisor.records)
        return BatchResult(results=results, record=batch_record, report=report)


# --------------------------------------------------------------------------
# the executor
# --------------------------------------------------------------------------


class Executor:
    """One :data:`EXECUTORS` row plus the knobs of a run.

    ``name`` picks the row.  The knobs mean what the same-named
    :class:`~repro.engine.session.Session` defaults mean (``n_threads``
    is ``T``: modeled threads on ``sim``, the real pool size elsewhere;
    ``single_threaded`` rows force 1).  :meth:`Session.run` with an
    ``Executor`` instance uses its knobs as the fallbacks for knobs the
    run itself does not set.
    """

    def __init__(
        self,
        name: str = "serial",
        n_threads: int = 1,
        *,
        scheduler: Scheduler | None = None,
        reuse_policy: ReusePolicy = CLUS_DENSITY,
        low_res_r: int = DEFAULT_LOW_RES_R,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        batch_size: int = DEFAULT_BATCH_SIZE,
        cache_bytes: int = 0,
        kernel: str = "bfs",
        regions: int | None = None,
        part_size: int | None = None,
        shard_threshold: int | None = None,
        supervise: SupervisePolicy | bool | None = None,
    ) -> None:
        if name not in EXECUTORS:
            raise KeyError(
                f"unknown executor {name!r}; expected one of {sorted(EXECUTORS)}"
            )
        check_knobs(
            kernel=kernel,
            regions=regions,
            part_size=part_size,
            shard_threshold=shard_threshold,
            batch_size=batch_size,
            cache_bytes=cache_bytes,
        )
        self.name = name
        self.backend = EXECUTORS[name]
        self.n_threads = (
            1
            if self.backend.single_threaded
            else check_positive_int(n_threads, name="n_threads")
        )
        self.scheduler = scheduler if scheduler is not None else SchedGreedy()
        self.reuse_policy = reuse_policy
        self.low_res_r = check_positive_int(low_res_r, name="low_res_r")
        self.cost_model = cost_model
        self.batch_size = int(batch_size)
        self.cache_bytes = int(cache_bytes)
        self.kernel = kernel
        self.regions = regions
        self.part_size = part_size
        self.shard_threshold = shard_threshold
        self.supervise = as_supervise_policy(supervise)

    def run_context(self, ctx: RunContext, variants: VariantSet) -> BatchResult:
        """Execute every variant under an assembled context.

        Reads all configuration from ``ctx`` (one instance can serve
        many sessions) and stamps the batch record with it.
        """
        mode = self.backend.mode
        if mode is None:
            if ctx.shard_threshold is not None:
                mode = "hybrid"
            elif ctx.regions is not None or ctx.part_size is not None:
                mode = "shard"
            else:
                mode = "variant"
        result = GraphRuntime(self.backend.substrate).run(ctx, variants, mode=mode)
        result.record.scheduler = ctx.scheduler.name
        result.record.reuse_policy = ctx.reuse_policy.name
        result.record.dataset = ctx.dataset
        result.record.executor = self.name
        result.record.n_threads = ctx.n_threads
        return result

    def __repr__(self) -> str:
        knobs = ", ".join(
            f"{k}={getattr(v, 'name', v)!r}"
            for k, v in vars(self).items()
            if k not in ("name", "backend") and v is not None
        )
        return f"Executor({self.name!r}, {knobs})"
