"""Variant-batch execution (the ``parallel for`` of Algorithm 3).

One class, one table: :class:`Executor` runs a named row of
:data:`EXECUTORS`, a ``(substrate, mode)`` pair that
:class:`GraphRuntime` executes in its one dispatch loop (the rows and
what each buys are documented on :data:`EXECUTORS`).  Run batches
through :class:`repro.Session`, which keeps the point store and built
indexes alive across runs (see ``docs/ARCHITECTURE.md``).
"""

from repro.exec.base import BatchResult
from repro.exec.calibration import CalibrationSample, collect_samples, fit_cost_model
from repro.exec.cost import DEFAULT_COST_MODEL, CostModel
from repro.exec.graph import EXECUTORS, SUBSTRATES, Backend, Executor, GraphRuntime

__all__ = [
    "Backend",
    "BatchResult",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "CalibrationSample",
    "collect_samples",
    "fit_cost_model",
    "EXECUTORS",
    "Executor",
    "GraphRuntime",
    "SUBSTRATES",
]
