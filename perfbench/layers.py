"""Per-layer metrics of one traced repetition, from its spans and batch.

Concurrent layers are reported twice: as time summed over lanes
(``*_s``, ``*_cpu_s``) and as the wall an interval union covers
(``*_cp_s``), which is what the sweep's critical path can lose to them.
"""

from __future__ import annotations

import statistics

from repro.exec.cost import DEFAULT_COST_MODEL
from repro.metrics.counters import WorkCounters

from perfbench.spec import PER_LAYER
from perfbench.workloads import Rep, Workload

#: Metrics with no source on a workload map to the reason instead.
Absent = str

COUNTER_METRICS = (
    "outside_points_searched",
    "neighbor_searches",
    "distance_computations",
    "points_reused",
)


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of ``(t0, t1)`` intervals clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for t0, t1 in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if t1 <= t0 or t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def _dur(spans) -> float:
    return sum(s["t1"] - s["t0"] for s in spans)


def layer_metrics(
    workload: Workload, rep: Rep, spans: list[dict], parent: int
) -> dict[str, float | Absent]:
    """Every per-layer metric of one traced repetition.

    ``spans`` are the repetition's spans; names starting with ``bench.``
    are the benchmark's own stamps, the rest are layer spans.  ``parent``
    is the benchmark's pid: spans of any other pid ran in lane workers.
    """
    spans = [s for s in spans if not s["name"].startswith("bench.")]
    by: dict[str, list[dict]] = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def get(name: str) -> list[dict]:
        return by.get(name, [])

    batch = rep.batch
    n_variants = len(workload.variants())
    sweep = (rep.t_run, rep.t_close)
    out: dict[str, float | Absent] = {}

    out["engine.session_init_s"] = rep.t_indexes - rep.t_init
    out["engine.index_pair_s"] = rep.t_run - rep.t_indexes
    out["engine.shm_share_s"] = _dur(get("engine.shm_share"))
    out["engine.close_s"] = rep.t_end - rep.t_close

    lookups = [s for s in get("index.get") if s["t0"] >= sweep[0]]
    builds = [s for s in lookups if s["kind"] == "cellgraph" and not s["hit"]]
    out["index.cellgraph_builds"] = len(builds)
    out["index.cellgraph_build_s"] = _dur(builds)
    out["index.factory_hit_ratio"] = (
        sum(s["hit"] for s in lookups) / len(lookups)
        if lookups
        else "no IndexFactory lookup during the sweep"
    )

    out["scheduling.plan_s"] = _dur(get("scheduling.plan"))
    out["scheduling.reused_frac"] = (
        sum(r.reused_from is not None for r in batch.results.values()) / n_variants
    )

    lower = get("taskgraph.lower")
    out["taskgraph.lower_s"] = _dur(lower)
    for key in ("variant_tasks", "shard_tasks", "merge_tasks"):
        out[f"taskgraph.{key}"] = (
            sum(s[key] for s in lower) if lower else "lower_variants not called"
        )

    reuse, scratch = get("kernel.reuse"), get("kernel.scratch")
    merges = get("shard.merge")
    out["kernel.reuse_s"] = _dur(reuse)
    out["kernel.reuse_calls"] = len(reuse)
    out["kernel.scratch_s"] = _dur(scratch)
    out["kernel.scratch_calls"] = len(scratch)
    out["kernel.cp_s"] = union_length((s["t0"], s["t1"]) for s in reuse + scratch)
    totals = WorkCounters()
    for record in batch.record.records:
        totals.merge(record.counters)
    for key in COUNTER_METRICS:
        out[f"kernel.{key}"] = getattr(totals, key)
    out["kernel.attempts_per_variant"] = (
        len(reuse) + len(scratch) + len(merges)
    ) / n_variants

    clusters = get("shard.cluster")
    plans = get("shard.plan")
    out["shard.plan_s"] = _dur(plans)
    out["shard.cluster_cpu_s"] = sum(s["cpu_s"] for s in clusters)
    out["shard.cluster_cp_s"] = union_length((s["t0"], s["t1"]) for s in clusters)
    out["shard.merge_s"] = _dur(merges)
    out["shard.regions"] = (
        max(s["regions"] for s in plans) if plans else "plan_shards not called"
    )

    runs = get("exec.run")
    if runs:
        run = runs[0]
        window = (run["t0"], run["t1"])
        run_s = window[1] - window[0]
        children = [(s["t0"], s["t1"]) for s in spans if s is not run]
        out["exec.run_s"] = run_s
        out["exec.self_s"] = run_s - union_length(children, *window)
        if run["substrate"] == "lanes":
            workers: dict[int, list] = {}
            for s in spans:
                if s["pid"] != parent:
                    workers.setdefault(s["pid"], []).append((s["t0"], s["t1"]))
            busy = sum(union_length(iv, *window) for iv in workers.values())
        else:
            busy = union_length(children, *window)
        out["exec.lane_busy_frac"] = busy / (workload.lanes * run_s)
    else:
        for key in ("exec.run_s", "exec.self_s", "exec.lane_busy_frac"):
            out[key] = "GraphRuntime.run not called"

    report = batch.report
    if report is None:
        reason = "no BatchReport: run had no retry policy, faults or supervisor"
        for key in ("resilience.retried", "resilience.replanned",
                    "resilience.failed", "supervise.remediations"):
            out[key] = reason
    else:
        out["resilience.retried"] = len(report.retried)
        out["resilience.replanned"] = len(report.replanned)
        out["resilience.failed"] = len(report.failed)
        out["supervise.remediations"] = len(report.remediations)

    lanes = workload.lanes
    out["cost.modeled_makespan"] = (
        sum(DEFAULT_COST_MODEL.duration(r.counters, lanes) for r in batch.record.records)
        / lanes
    )
    out["trace.coverage"] = union_length(
        ((s["t0"], s["t1"]) for s in spans), *sweep
    ) / (sweep[1] - sweep[0])
    return out


def summarize(
    traced: list[tuple[float, dict]], untraced_sweeps: list[float]
) -> tuple[dict[str, dict], dict[str, str]]:
    """Per-layer JSON metrics (medians over traced repetitions) and absences.

    ``traced`` holds ``(sweep_s, layer_metrics(...))`` per traced
    repetition.  An absent metric is reported with value 0 in the JSON
    and its reason in the returned map.
    """
    untraced = statistics.median(untraced_sweeps)
    metrics: dict[str, dict] = {}
    absent: dict[str, str] = {}
    for m in PER_LAYER:
        if m.name == "cost.modeled_per_wall":
            values = [lm["cost.modeled_makespan"] / untraced for _, lm in traced]
        elif m.name == "trace.overhead_frac":
            values = [statistics.median(s for s, _ in traced) / untraced - 1]
        else:
            values = [lm[m.name] for _, lm in traced]
        reasons = [v for v in values if isinstance(v, str)]
        if reasons:
            absent[m.name] = reasons[0]
        value = 0 if reasons else statistics.median(values)
        metrics[m.name] = {"value": value, "unit": m.unit}
    return metrics, absent
