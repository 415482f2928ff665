"""Measure one workload: timed repetitions, the check, and the report."""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import check
from perfbench.layers import layer_metrics, summarize
from perfbench.spec import END_TO_END, PER_LAYER
from perfbench.trace import Recorder, installed
from perfbench.workloads import (
    WORKLOADS,
    Rep,
    make_points,
    peak_rss_mb,
    run_rep,
    time_setup,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: ``Session(points)`` + ``indexes()`` samples per run for setup_s.
SETUP_SAMPLES = 15

#: Input size of the untimed warm-up repetition.
WARMUP_N = 500


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def bench(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    n: int | None = None,
    mutate: bool = False,
) -> dict:
    """Measure one workload; return the full result record.

    ``n`` overrides the workload's input size (tests use a tiny one).
    ``mutate`` scrambles one variant's labels in the first repetition,
    which the check must then count as exactly one failure.
    """
    wl = WORKLOADS[workload_name]
    vset = wl.variants()
    n = wl.n if n is None else n
    points = make_points(n, seed)
    run_rep(wl, make_points(min(WARMUP_N, n), seed), vset)

    reps: list[Rep] = []  # untraced
    traced: list[tuple[float, dict]] = []  # (sweep_s, layer metrics)
    span_log: list[list[dict]] = []
    work: dict[str, float] = {}  # work record of the first repetition
    # One stored copy per distinct result; each repetition keeps keys.
    distinct: dict[tuple, check.Clustering] = {}
    rep_keys: list[dict] = []
    spool = OUT / f"spool-{os.getpid()}"

    def one(traced_rep: bool) -> None:
        if not traced_rep:
            rep = run_rep(wl, points, vset)
            reps.append(rep)
        else:
            spool.mkdir(parents=True, exist_ok=True)
            recorder = Recorder(spool)
            with installed(recorder):
                rep = run_rep(wl, points, vset)
            spans = recorder.gather()
            spool.rmdir()
            for name, t0, t1 in (
                ("bench.session_init", rep.t_init, rep.t_indexes),
                ("bench.index_pair", rep.t_indexes, rep.t_run),
                ("bench.sweep", rep.t_run, rep.t_close),
                ("bench.close", rep.t_close, rep.t_end),
            ):
                recorder.add(name, t0, t1)
            traced.append((rep.sweep_s, layer_metrics(wl, rep, spans, recorder.pid)))
            span_log.append(recorder.spans)
        results = rep.batch.results
        victim = None
        if not rep_keys:
            work["scheduling.reused_frac"] = (
                sum(r.reused_from is not None for r in results.values()) / len(vset)
            )
            work["kernel.outside_points_searched"] = sum(
                r.counters.outside_points_searched for r in rep.batch.record.records
            )
            if mutate:
                victim = check.scramble_victim(
                    {v: (r.labels, r.core_mask) for v, r in results.items()}
                )
        keys = {}
        for v, r in results.items():
            labels = check.scramble(r.labels, seed) if v == victim else r.labels
            key = (v, check.digest(labels, r.core_mask), r.reused_from is not None)
            distinct.setdefault(key, (labels, r.core_mask))
            keys[v] = key
        rep_keys.append(keys)
        rep.batch = None  # results live on only in ``distinct``

    # Start another repetition while at least half a typical one fits
    # in the budget, so the measured time centres on ``seconds``.
    start = time.perf_counter()
    one(False)
    if trace:
        one(True)
    while True:
        measured_s = time.perf_counter() - start
        typical = measured_s / (len(reps) + len(traced))
        if measured_s + typical / 2 > seconds:
            break
        one(trace and len(traced) < len(reps))

    setups = [r.setup_s for r in reps]
    setups += [time_setup(points) for _ in range(max(0, SETUP_SAMPLES - len(setups)))]
    peak_mb = peak_rss_mb()

    ref = check.reference(points, vset)
    verdicts = {
        key: check.verdict(ref[key[0]], got, reused=key[2])
        for key, got in distinct.items()
    }
    fails = [
        (v, "missing" if v not in keys else verdicts[keys[v]])
        for keys in rep_keys
        for v in vset
        if v not in keys or verdicts[keys[v]] is not None
    ]
    self_test = check.mutation_self_test(ref, seed)
    attempted = len(vset) * len(rep_keys)

    samples = {
        "sweep_s": [r.sweep_s for r in reps],
        "setup_s": setups,
        "snapshot_s": [r.snapshot_s for r in reps],
        "cpu_s": [r.cpu_s for r in reps],
        "peak_rss_mb": [peak_mb],
    }
    if trace:
        metrics, absent = summarize(traced, samples["sweep_s"])
    else:
        units = {m.name: m.unit for m in END_TO_END}
        metrics = {
            name: {"value": statistics.median(values), "unit": units[name]}
            for name, values in samples.items()
        }
        absent = {}

    record = {
        "workload": wl.name,
        "inputs": {
            "seed": seed,
            "n": n,
            "variants": len(vset),
            "distinct_eps": len({v.eps for v in vset}),
            "executor": wl.executor,
            "options": wl.options,
            "faults": wl.faults,
            **work,
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "trace": trace,
        "seconds": seconds,
        "measured_s": measured_s,
        "reps": len(reps) + len(traced),
        "samples": samples,
        "traced_sweep_s": [s for s, _ in traced],
        "failures": [[v.eps, v.minpts, why] for v, why in fails],
        "fail_frac": len(fails) / attempted,
        "mutation_self_test_failures": self_test,
        "absent": absent,
        "result": {
            "correct": not fails and self_test == 1,
            "attempted": attempted,
            "failed": len(fails),
            "metrics": metrics,
        },
    }
    if traced:
        record["layers"] = [lm for _, lm in traced]
        record["spans"] = span_log
    return record


def report(record: dict) -> None:
    """Human-readable lines printed before the JSON result."""
    inputs, host = record["inputs"], record["host"]
    print(f"# perfbench {record['workload']}: {WORKLOADS[record['workload']].why}")
    print("# inputs " + " ".join(f"{k}={v}" for k, v in inputs.items()))
    print("# host " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(
        f"# reps={record['reps']} measured_s={record['measured_s']:.2f} "
        f"fail_frac={record['fail_frac']} "
        f"mutation_self_test_failures={record['mutation_self_test_failures']}"
    )
    if not record["trace"]:
        for name, values in record["samples"].items():
            m = record["result"]["metrics"][name]
            print(
                f"{name:14s} median {m['value']:.6g} {m['unit']} "
                f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})"
            )
    else:
        zero_on = {m.name: m.zero_on for m in PER_LAYER}
        for name, m in record["result"]["metrics"].items():
            if name in record["absent"]:
                shown = f"absent: {record['absent'][name]}"
            else:
                shown = f"{m['value']:.6g} {m['unit']}"
                if record["workload"] in zero_on[name]:
                    shown += " (predicted 0 on this workload)"
                elif m["value"] == 0:
                    shown += " (UNEXPECTED 0: is a wrapped call site renamed?)"
            print(f"{name:32s} {shown}")
    for v_eps, v_minpts, why in record["failures"][:10]:
        print(f"# FAILED variant eps={v_eps} minpts={v_minpts}: {why}")
