"""Metric tables and the ``BENCHMARK.json`` they define.

``python3 perfbench/run.py --write-spec`` rewrites ``BENCHMARK.json``
from these tables; a test keeps the committed file in sync.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from perfbench.workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

#: Seconds of timed repetitions per run.
RUN_SECONDS = 22

SERIAL = ("minpts-rich", "eps-rich")
NOT_SHARDED = ("minpts-rich", "eps-rich", "faults-lanes")
NO_FAULTS = ("minpts-rich", "eps-rich", "shard-hybrid")
#: Every fault is survived by a plain retry, so nothing fails, replans or
#: needs a remediation.
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float
    better: str = "lower"


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    #: Workloads on which the layer does no work, so the value is 0.
    zero_on: tuple[str, ...] = ()
    better: str = "lower"


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("sweep_s", "s", 0.25),
    EndToEnd("setup_s", "s", 0.25),
    EndToEnd("snapshot_s", "s", 0.25),
    EndToEnd("cpu_s", "s", 0.25),
    EndToEnd("peak_rss_mb", "MiB", 0.25),
)

#: What each metric measures, and which end-to-end metric it should move
#: on which workload, is tabled in ``perfbench/README.md``.
PER_LAYER: tuple[PerLayer, ...] = (
    PerLayer("engine.session_init_s", "s"),
    PerLayer("engine.index_pair_s", "s"),
    PerLayer("engine.shm_share_s", "s", zero_on=SERIAL),
    PerLayer("engine.close_s", "s"),
    PerLayer("index.cellgraph_builds", "count", zero_on=("shard-hybrid",)),
    PerLayer("index.cellgraph_build_s", "s", zero_on=("shard-hybrid",)),
    PerLayer("index.factory_hit_ratio", "ratio", better="higher"),
    PerLayer("scheduling.plan_s", "s"),
    PerLayer("scheduling.reused_frac", "ratio", better="higher"),
    PerLayer("taskgraph.lower_s", "s"),
    PerLayer("taskgraph.variant_tasks", "count"),
    PerLayer("taskgraph.shard_tasks", "count", zero_on=NOT_SHARDED),
    PerLayer("taskgraph.merge_tasks", "count", zero_on=NOT_SHARDED),
    PerLayer("kernel.reuse_s", "s"),
    PerLayer("kernel.reuse_calls", "count"),
    PerLayer("kernel.scratch_s", "s", zero_on=("shard-hybrid",)),
    PerLayer("kernel.scratch_calls", "count", zero_on=("shard-hybrid",)),
    PerLayer("kernel.cp_s", "s"),
    PerLayer("kernel.outside_points_searched", "count"),
    PerLayer("kernel.neighbor_searches", "count"),
    PerLayer("kernel.distance_computations", "count"),
    PerLayer("kernel.points_reused", "count", better="higher"),
    PerLayer("kernel.attempts_per_variant", "ratio"),
    PerLayer("shard.plan_s", "s", zero_on=NOT_SHARDED),
    PerLayer("shard.cluster_cpu_s", "s", zero_on=NOT_SHARDED),
    PerLayer("shard.cluster_cp_s", "s", zero_on=NOT_SHARDED),
    PerLayer("shard.merge_s", "s", zero_on=NOT_SHARDED),
    PerLayer("shard.regions", "count", zero_on=NOT_SHARDED),
    PerLayer("exec.run_s", "s"),
    PerLayer("exec.self_s", "s"),
    PerLayer("exec.lane_busy_frac", "ratio", better="higher"),
    PerLayer("resilience.retried", "count", zero_on=NO_FAULTS),
    PerLayer("resilience.replanned", "count", zero_on=ALL),
    PerLayer("resilience.failed", "count", zero_on=ALL),
    PerLayer("supervise.remediations", "count", zero_on=ALL),
    PerLayer("cost.modeled_makespan", "work_units"),
    PerLayer("cost.modeled_per_wall", "work_units/s"),
    PerLayer("trace.coverage", "ratio", better="higher"),
    PerLayer("trace.overhead_frac", "ratio"),
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these tables define."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
