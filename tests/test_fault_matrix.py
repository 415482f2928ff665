"""The fault matrix: every fault kind on every task kind, substrate and budget.

Each cell injects one fault — ``crash``, ``hang``, ``corrupt`` or
``kill`` — into one task kind of a three-variant reuse chain:

* ``variant``: variant 1 (a donor with a dependent) under variant
  lowering;
* ``shard``: region 0 of the sharded root (hybrid lowering with
  ``shard_threshold=0``);
* ``merge``: the sharded root's merge.

It runs on each substrate (``sim``, ``lanes``) with a retry
budget of 0 or 2; the ``lanes`` cells also run under the default and a
fully autonomous supervision policy.  Every cell must end in one of two
ways: labels canonically equal to the fault-free run, or a
:class:`~repro.resilience.report.BatchReport` failure naming exactly the
faulted variant (and canonically equal labels for the rest).  Either
way :func:`repro.resilience.audit.scan_segments` reads the same before
and after the run.

Faults that a cell cannot honour as written still run, and the cell
pins the downgraded outcome: an in-process ``kill`` acts as a crash
(only lane workers arm ``kill``); a shard fires only ``start``-phase
faults, so a ``corrupt`` spec (``finish`` only) on a shard is inert; a
merge runs in the parent, so its ``kill`` is a crash too.

:data:`PINNED` holds each cell's outcome — the failed variants, the
report's status counts, and every non-advisory remediation row as
``(anomaly kind, subject, action kind, risk, decision, verdict)``.
Advisory ``deadline-at-risk`` rows depend on wall-clock timing and are
left out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, Session, Variant, VariantSet
from repro.resilience.audit import scan_segments
from repro.supervise import SupervisePolicy
from repro.util.rng import resolve_rng

#: A reuse chain: (0.5, 5) is the scratch root, each later variant
#: reuses the one before it.
VSET = VariantSet([Variant(0.5 + 0.1 * i, 5) for i in range(3)])

FAULTS = ("crash", "hang", "corrupt", "kill")
TASKS = ("variant", "shard", "merge")
BUDGETS = (0, 2)

#: Per-attempt deadline for ``hang`` cells: the injected hang (5 s)
#: turns into a timeout after this long.  Other cells run without one.
HANG_DEADLINE_S = 0.3

#: Supervision modes of the ``lanes`` cells.
SUPERVISION = {
    "": None,
    "-sup": True,
    "-auto": SupervisePolicy(risk_budget=1.0),
}

#: Executor per (substrate, task kind).
_EXECUTOR = {
    ("sim", "variant"): "simulated",
    ("lanes", "variant"): "processes",
    ("sim", "shard"): "simulated",
    ("lanes", "shard"): "hybrid",
}


def _cells() -> list[tuple[str, str, str, int, str]]:
    cells = []
    for substrate in ("sim", "lanes"):
        modes = SUPERVISION if substrate == "lanes" else {"": None}
        for task in TASKS:
            for fault in FAULTS:
                for budget in BUDGETS:
                    for mode in modes:
                        cells.append((substrate, task, fault, budget, mode))
    return cells


def _cell_id(cell) -> str:
    substrate, task, fault, budget, mode = cell
    return f"{substrate}-{task}-{fault}-b{budget}{mode}"


def _faulted(task: str) -> Variant:
    return VSET[1] if task == "variant" else VSET[0]


def _spec(fault: str, task: str) -> FaultSpec:
    v = _faulted(task)
    phase = "finish" if fault == "corrupt" or task == "merge" else "start"
    hang_s = 5.0 if fault == "hang" else 0.0
    if task == "variant":
        return FaultSpec(fault, 1, phase=phase, hang_s=hang_s)
    if task == "shard":
        tid = f"shard:{v.eps:g}/{v.minpts}#0"
    else:
        tid = f"merge:{v.eps:g}/{v.minpts}"
    return FaultSpec(fault, -1, task=tid, phase=phase, hang_s=hang_s)


def _run(session: Session, cell, **kw):
    substrate, task, _, _, _ = cell
    shard = task != "variant"
    if shard:
        kw.update(regions=2, shard_threshold=0)
    return session.run(
        VSET, executor=_EXECUTOR[substrate, "shard" if shard else task],
        n_threads=2, **kw,
    )


def canonical(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered by first appearance (noise stays -1)."""
    out = np.full(labels.shape, -1, dtype=labels.dtype)
    mapping: dict = {}
    for i, lab in enumerate(labels):
        if lab < 0:
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out[i] = mapping[lab]
    return out


@pytest.fixture(scope="module")
def points():
    g = resolve_rng(4242)
    return np.ascontiguousarray(
        np.vstack([g.normal(0, 0.5, (100, 2)), g.normal(6, 0.5, (100, 2))])
    )


@pytest.fixture(scope="module")
def baseline(points):
    with Session(points) as s:
        batch = s.run(VSET)
    return {v: canonical(batch.results[v].labels) for v in VSET}


def _outcome(report) -> tuple:
    rows = tuple(
        (
            row["anomaly"]["kind"],
            row["anomaly"]["subject"],
            row["action"]["kind"] if row["action"] else None,
            row["action"]["risk"] if row["action"] else None,
            row["decision"],
            row["verdict"],
        )
        for row in report.remediation_rows()
        if row["anomaly"]["kind"] != "deadline-at-risk"
    )
    counts = report.counts()
    return (
        tuple(str(v) for v in report.failed),
        tuple(counts[k] for k in ("ok", "retried", "replanned", "resumed", "failed")),
        rows,
    )


def run_cell(points, cell):
    """Run one cell; returns ``(batch, segments before, segments after)``."""
    substrate, task, fault, budget, mode = cell
    policy = RetryPolicy(
        max_retries=budget,
        deadline_s=HANG_DEADLINE_S if fault == "hang" else None,
    )
    before = scan_segments()
    with Session(points) as s:
        batch = _run(
            s, cell,
            fault_plan=FaultPlan([_spec(fault, task)]),
            retry_policy=policy,
            supervise=SUPERVISION[mode],
        )
    return batch, before, scan_segments()


#: cell id -> (failed variants, (ok, retried, replanned, resumed,
#: failed) counts, non-advisory remediation rows).
PINNED: dict[str, tuple] = {
    "sim-variant-crash-b0": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "sim-variant-crash-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-variant-hang-b0": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "sim-variant-hang-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-variant-corrupt-b0": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "sim-variant-corrupt-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-variant-kill-b0": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "sim-variant-kill-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-shard-crash-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "sim-shard-crash-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-shard-hang-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "sim-shard-hang-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-shard-corrupt-b0": ((), (3, 0, 0, 0, 0), ()),
    "sim-shard-corrupt-b2": ((), (3, 0, 0, 0, 0), ()),
    "sim-shard-kill-b0": ((), (2, 1, 0, 0, 0), ()),
    "sim-shard-kill-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-merge-crash-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "sim-merge-crash-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-merge-hang-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "sim-merge-hang-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-merge-corrupt-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "sim-merge-corrupt-b2": ((), (2, 1, 0, 0, 0), ()),
    "sim-merge-kill-b0": ((), (2, 1, 0, 0, 0), ()),
    "sim-merge-kill-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-crash-b0": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-crash-b0-sup": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-crash-b0-auto": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-crash-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-crash-b2-sup": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-crash-b2-auto": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-hang-b0": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-hang-b0-sup": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-hang-b0-auto": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-hang-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-hang-b2-sup": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-hang-b2-auto": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-corrupt-b0": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-corrupt-b0-sup": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-corrupt-b0-auto": (("(0.6,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-variant-corrupt-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-corrupt-b2-sup": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-corrupt-b2-auto": ((), (2, 1, 0, 0, 0), ()),
    "lanes-variant-kill-b0": ((), (1, 2, 0, 0, 0), ()),
    "lanes-variant-kill-b0-sup": ((), (1, 2, 0, 0, 0), ()),
    "lanes-variant-kill-b0-auto": ((), (1, 2, 0, 0, 0), ()),
    "lanes-variant-kill-b2": ((), (1, 2, 0, 0, 0), ()),
    "lanes-variant-kill-b2-sup": ((), (1, 2, 0, 0, 0), ()),
    "lanes-variant-kill-b2-auto": ((), (1, 2, 0, 0, 0), ()),
    "lanes-shard-crash-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-shard-crash-b0-sup": (
        ("(0.5,5)",), (1, 0, 1, 0, 1),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "recommended", None),
            ("crash-loop", "merge:0.5/5", "replan-chain", 0.25, "applied", "verified"),
        ),
    ),
    "lanes-shard-crash-b0-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "applied", "verified"),
        ),
    ),
    "lanes-shard-crash-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-crash-b2-sup": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-crash-b2-auto": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-hang-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-shard-hang-b0-sup": (
        ("(0.5,5)",), (1, 0, 1, 0, 1),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "recommended", None),
            ("crash-loop", "merge:0.5/5", "replan-chain", 0.25, "applied", "verified"),
        ),
    ),
    "lanes-shard-hang-b0-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "applied", "verified"),
        ),
    ),
    "lanes-shard-hang-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-hang-b2-sup": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-hang-b2-auto": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-corrupt-b0": ((), (3, 0, 0, 0, 0), ()),
    "lanes-shard-corrupt-b0-sup": ((), (3, 0, 0, 0, 0), ()),
    "lanes-shard-corrupt-b0-auto": ((), (3, 0, 0, 0, 0), ()),
    "lanes-shard-corrupt-b2": ((), (3, 0, 0, 0, 0), ()),
    "lanes-shard-corrupt-b2-sup": ((), (3, 0, 0, 0, 0), ()),
    "lanes-shard-corrupt-b2-auto": ((), (3, 0, 0, 0, 0), ()),
    "lanes-shard-kill-b0": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-kill-b0-sup": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-kill-b0-auto": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-kill-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-kill-b2-sup": ((), (2, 1, 0, 0, 0), ()),
    "lanes-shard-kill-b2-auto": ((), (2, 1, 0, 0, 0), ()),
    "lanes-merge-crash-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-merge-crash-b0-sup": (
        ("(0.5,5)",), (1, 0, 1, 0, 1),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "recommended", None),
            ("crash-loop", "merge:0.5/5", "replan-chain", 0.25, "applied", "verified"),
        ),
    ),
    "lanes-merge-crash-b0-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "applied", "verified"),
        ),
    ),
    "lanes-merge-crash-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-merge-crash-b2-sup": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-crash-b2-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-hang-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-merge-hang-b0-sup": (
        ("(0.5,5)",), (1, 0, 1, 0, 1),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "recommended", None),
            ("crash-loop", "merge:0.5/5", "replan-chain", 0.25, "applied", "verified"),
        ),
    ),
    "lanes-merge-hang-b0-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "applied", "verified"),
        ),
    ),
    "lanes-merge-hang-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-merge-hang-b2-sup": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-hang-b2-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-corrupt-b0": (("(0.5,5)",), (1, 0, 1, 0, 1), ()),
    "lanes-merge-corrupt-b0-sup": (
        ("(0.5,5)",), (1, 0, 1, 0, 1),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "recommended", None),
            ("crash-loop", "merge:0.5/5", "replan-chain", 0.25, "applied", "verified"),
        ),
    ),
    "lanes-merge-corrupt-b0-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("crash-loop", "merge:0.5/5", "degrade", 0.9, "applied", "verified"),
        ),
    ),
    "lanes-merge-corrupt-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-merge-corrupt-b2-sup": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-corrupt-b2-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-kill-b0": ((), (2, 1, 0, 0, 0), ()),
    "lanes-merge-kill-b0-sup": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-kill-b0-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-kill-b2": ((), (2, 1, 0, 0, 0), ()),
    "lanes-merge-kill-b2-sup": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
    "lanes-merge-kill-b2-auto": (
        (), (2, 1, 0, 0, 0),
        (
            ("merge-corruption", "merge:0.5/5", "resubmit-task", 0.5, "applied", "verified"),
        ),
    ),
}


@pytest.mark.parametrize("cell", _cells(), ids=_cell_id)
def test_fault_matrix_cell(points, baseline, cell):
    batch, before, after = run_cell(points, cell)
    report = batch.report
    assert report is not None
    faulted = _faulted(cell[1])
    assert report.failed in ([], [faulted])
    survivors = set(VSET) - set(report.failed)
    assert set(batch.results) == survivors
    for v in survivors:
        assert np.array_equal(canonical(batch.results[v].labels), baseline[v]), (
            f"labels diverged for {v}"
        )
    assert after == before, "shared-memory segments changed across the run"
    assert _outcome(report) == PINNED[_cell_id(cell)]
