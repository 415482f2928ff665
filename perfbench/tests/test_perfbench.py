"""The benchmark's own tests: tiny-n smoke of every workload and the check.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The smoke goes through the same code path as a real run, so a renamed
call site in ``repro.exec.graph`` or ``repro.exec._runner`` fails here
loudly instead of reading 0 s for its layer.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.core.scheduling import SchedGreedy  # noqa: E402
from repro.data.registry import load_dataset  # noqa: E402

import repro.exec._runner as runner_module  # noqa: E402
from perfbench import spec  # noqa: E402
from perfbench.bench import bench  # noqa: E402
from perfbench.check import verdict  # noqa: E402
from perfbench.trace import Recorder, installed  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    SW1_FULL_SIZE,
    WORKLOADS,
    make_points,
)

SMOKE_N = 3_000


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_measures_every_layer(workload):
    record = bench(workload, DEFAULT_SEED, 0.0, True, n=SMOKE_N)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert record["mutation_self_test_failures"] == 1
    assert list(result["metrics"]) == [m.name for m in spec.PER_LAYER]
    for m in spec.PER_LAYER:
        value = result["metrics"][m.name]["value"]
        if workload in m.zero_on:
            assert value == 0, f"{m.name} predicted 0 on {workload}, read {value}"
        else:
            assert m.name not in record["absent"], record["absent"].get(m.name)
            assert value != 0, f"{m.name} reads 0 on {workload}"


def test_untraced_run_reports_end_to_end_metrics():
    record = bench("shard-hybrid", DEFAULT_SEED, 0.0, False, n=SMOKE_N)
    metrics = record["result"]["metrics"]
    assert list(metrics) == [m.name for m in spec.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())
    assert record["result"]["correct"]


def test_scrambled_variant_counts_exactly_one_failure():
    record = bench("minpts-rich", DEFAULT_SEED, 0.0, False, n=SMOKE_N, mutate=True)
    result = record["result"]
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == len(WORKLOADS["minpts-rich"].variants())


def test_verdict_rules():
    ref = (np.array([0, 0, 0, 1, 1, -1]), np.array([1, 1, 0, 1, 1, 0], bool))
    core = ref[1]
    permuted = np.array([1, 1, 1, 0, 0, -1])
    border_moved = np.array([0, 0, 1, 1, 1, -1])
    merged = np.array([0, 0, 0, 0, 0, -1])
    noise_moved = np.array([0, 0, -1, 1, 1, -1])
    assert verdict(ref, (permuted, core), reused=False) is None
    assert verdict(ref, (border_moved, core), reused=False) is not None
    assert verdict(ref, (border_moved, core), reused=True) is None
    assert verdict(ref, (ref[0], np.array([1, 0, 0, 1, 1, 0], bool)), reused=True) is None
    assert verdict(ref, (ref[0], np.array([1, 1, 1, 1, 1, 0], bool)), reused=True)
    assert verdict(ref, (merged, core), reused=True) is not None
    assert verdict(ref, (noise_moved, core), reused=True) is not None


def test_inputs_follow_the_seed():
    default = make_points(SMOKE_N, DEFAULT_SEED)
    assert np.array_equal(
        default, load_dataset("SW1", SMOKE_N / SW1_FULL_SIZE, cache=False).points
    )
    other = make_points(SMOKE_N, 7)
    assert other.shape == default.shape and not np.array_equal(other, default)
    assert np.array_equal(other, make_points(SMOKE_N, 7))


def test_installed_restores_every_call_site(tmp_path):
    kernel = runner_module.variant_dbscan
    own_plan = "plan" in vars(SchedGreedy)
    plan = SchedGreedy.plan
    with installed(Recorder(tmp_path)):
        assert runner_module.variant_dbscan is not kernel
        assert SchedGreedy.plan is not plan
    assert runner_module.variant_dbscan is kernel
    assert SchedGreedy.plan is plan and ("plan" in vars(SchedGreedy)) == own_plan


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minpts-rich",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
