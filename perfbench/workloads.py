"""Benchmark inputs, the four workloads, and one timed repetition.

Every workload clusters SW1 TEC points with SCHEDGREEDY, CLUSDENSITY and
the cellgraph kernel through the public :class:`repro.Session` API.  A
repetition is what an analyst pays for one TEC map: a fresh session,
its index pair, one ``Session.run`` over the variant set, and ``close``.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import numpy as np

from repro import Session, VariantSet
from repro.bench.scenarios import S3_CONFIGS
from repro.data.registry import DATASETS
from repro.data.tec import TECMapModel, generate_tec_points
from repro.exec.base import BatchResult
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.policy import RetryPolicy

#: SW1's full size in the paper's Table I.
SW1_FULL_SIZE = DATASETS["SW1"].full_size

#: ``DatasetSpec("SW1").seed``: at this seed the inputs equal
#: ``load_dataset("SW1", n / SW1_FULL_SIZE)``.
DEFAULT_SEED = DATASETS["SW1"].seed

#: Seed kept out of tuning; later claims must also hold at it.
HELD_OUT_SEED = 20160523

#: Other seeds draw ``n`` of ``POOL_FACTOR * n`` points sampled from the
#: SW1 map (see :func:`make_points`).
POOL_FACTOR = 4

SCHEDULER = "SCHEDGREEDY"
REUSE_POLICY = "CLUSDENSITY"
KERNEL = "cellgraph"


def _s3_grid(name: str) -> tuple[tuple[float, ...], tuple[int, ...]]:
    cfg = next(
        c for c in S3_CONFIGS if c.dataset == "SW1" and c.variant_set_name == name
    )
    return tuple(float(e) for e in cfg.eps_values), tuple(cfg.minpts_values)


V1_EPS, V1_MINPTS = _s3_grid("V1")
V3_EPS, V3_MINPTS = _s3_grid("V3")


@dataclass(frozen=True)
class Workload:
    """One named workload: input size, variant grid and run settings."""

    name: str
    why: str
    n: int
    eps: tuple[float, ...]
    minpts: tuple[int, ...]
    executor: str
    options: dict = field(default_factory=dict)
    faults: bool = False

    def variants(self) -> VariantSet:
        return VariantSet.from_product(self.eps, self.minpts)

    def run_kwargs(self) -> dict:
        """``Session.run`` keywords; fault objects are fresh per call."""
        kwargs = {"executor": self.executor, **self.options}
        if self.faults:
            kwargs.update(
                fault_plan=FaultPlan(
                    [
                        FaultSpec("kill", 0),
                        FaultSpec("crash", 19),
                        FaultSpec("corrupt", 30, phase="finish"),
                    ]
                ),
                retry_policy=RetryPolicy(max_retries=2),
                supervise=True,
            )
        return kwargs

    @property
    def lanes(self) -> int:
        """Worker lanes the run uses; the serial loop is one lane."""
        return int(self.options.get("n_threads", 1))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "minpts-rich",
            "S3 grid V1 (3 eps x 19 minpts), serial: cross-variant reuse "
            "beats scratch-only runs",
            27_969,
            V1_EPS,
            V1_MINPTS,
            "serial",
        ),
        Workload(
            "eps-rich",
            "S3 grid V3 (19 eps x 3 minpts), serial: the same reuse layer "
            "loses to scratch-only runs",
            27_969,
            V3_EPS,
            V3_MINPTS,
            "serial",
        ),
        Workload(
            "shard-hybrid",
            "few variants on 186k points: shm sharing, process lanes and "
            "shard plan/cluster/merge dominate",
            186_462,
            (0.3, 0.4, 0.5),
            (4, 8),
            "hybrid",
            {"n_threads": 2, "regions": 2, "shard_threshold": 0},
        ),
        Workload(
            "faults-lanes",
            "eps-rich inputs on process lanes with kill/crash/corrupt "
            "faults, retries and the supervisor",
            27_969,
            V3_EPS,
            V3_MINPTS,
            "processes",
            {"n_threads": 2},
            faults=True,
        ),
    )
}


def make_points(n: int, seed: int) -> np.ndarray:
    """``n`` SW1 TEC points drawn from the SW1 map by ``seed``.

    The map (field, receiver coverage, sampled window) always comes from
    the SW1 dataset seed; ``seed`` only picks the sample.  A map seed
    changes the clustering work up to 40x at fixed ``n``, so runs at
    different seeds would not be comparable.  At :data:`DEFAULT_SEED`
    this is exactly ``load_dataset("SW1", n / SW1_FULL_SIZE).points``;
    at any other seed it keeps a seeded ``n``-subset of a
    ``POOL_FACTOR * n`` draw from the same map, itself an i.i.d. sample
    of that map, in the generator's scan order.
    """
    fraction = n / SW1_FULL_SIZE
    if seed == DEFAULT_SEED:
        return generate_tec_points(
            n, TECMapModel(), DEFAULT_SEED, area_fraction=fraction
        )
    pool = generate_tec_points(
        POOL_FACTOR * n, TECMapModel(), DEFAULT_SEED, area_fraction=fraction
    )
    keep = np.sort(
        np.random.default_rng(seed).choice(pool.shape[0], n, replace=False)
    )
    return np.ascontiguousarray(pool[keep])


def _cpu_seconds() -> float:
    """User + system CPU of this process and every reaped child."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any reaped child, in MiB."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


@dataclass
class Rep:
    """Clock stamps (``time.perf_counter``) of one repetition."""

    t_init: float  # before Session(points)
    t_indexes: float  # after Session(points), before indexes()
    t_run: float  # after indexes(), before Session.run
    t_close: float  # after Session.run, before close()
    t_end: float  # after close()
    cpu_s: float  # CPU-seconds of the sweep
    batch: BatchResult

    @property
    def setup_s(self) -> float:
        return self.t_run - self.t_init

    @property
    def sweep_s(self) -> float:
        return self.t_close - self.t_run

    @property
    def snapshot_s(self) -> float:
        return self.t_end - self.t_init


def open_session(points: np.ndarray) -> Session:
    return Session(
        points,
        dataset="SW1",
        scheduler=SCHEDULER,
        reuse_policy=REUSE_POLICY,
        kernel=KERNEL,
    )


def run_rep(workload: Workload, points: np.ndarray, vset: VariantSet) -> Rep:
    """One cold repetition: fresh session, index pair, sweep, close."""
    kwargs = workload.run_kwargs()
    t_init = time.perf_counter()
    session = open_session(points)
    try:
        t_indexes = time.perf_counter()
        session.indexes()
        cpu0 = _cpu_seconds()
        t_run = time.perf_counter()
        batch = session.run(vset, **kwargs)
        t_close = time.perf_counter()
        cpu_s = _cpu_seconds() - cpu0
    finally:
        session.close()
    t_end = time.perf_counter()
    return Rep(t_init, t_indexes, t_run, t_close, t_end, cpu_s, batch)


def time_setup(points: np.ndarray) -> float:
    """Wall time of ``Session(points)`` plus ``Session.indexes()``."""
    t0 = time.perf_counter()
    session = open_session(points)
    try:
        session.indexes()
        return time.perf_counter() - t0
    finally:
        session.close()
