"""Fault tolerance for variant batches: inject, retry, re-plan, resume.

The paper's throughput win (reuse chains + greedy scheduling) makes a
batch fragile — one crashed or hung variant strands every dependent in
its chain.  This package makes worker failure a first-class event:

* :mod:`~repro.resilience.faults` — deterministic fault injection
  (:class:`FaultPlan`) honored by every executor backend;
* :mod:`~repro.resilience.policy` — per-variant deadlines and capped
  exponential-backoff retries (:class:`RetryPolicy`), and the
  supervision knobs (:class:`SupervisePolicy`);
* :mod:`~repro.resilience.recovery` — the one recovery table
  (:class:`Recovery`): the attempt loop, and the single decision of
  what every failure leads to — retry, degrade down the ladder, or
  fail (dependents re-plan onto surviving donors) — with outcome and
  remediation accounting;
* :mod:`~repro.resilience.report` — the partial-failure result
  contract (:class:`BatchReport` with per-variant
  :class:`VariantStatus`);
* :mod:`~repro.resilience.checkpoint` — crash-safe spill/resume of
  completed results keyed on the database fingerprint
  (:class:`CheckpointStore`);
* :mod:`~repro.resilience.audit` — shared-memory leak audit behind
  ``repro doctor``.

See ``docs/ARCHITECTURE.md`` ("Failure model & recovery") for the
transition table and why every path keeps labels canonically equal.
"""

from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_PHASES,
    FaultPlan,
    FaultSpec,
    verify_result,
)
from repro.resilience.policy import RetryPolicy, SupervisePolicy
from repro.resilience.recovery import Recovery, classify_replans
from repro.resilience.report import BatchReport, VariantOutcome, VariantStatus

__all__ = [
    "BatchReport",
    "CheckpointStore",
    "FAULT_KINDS",
    "FAULT_PHASES",
    "FaultPlan",
    "FaultSpec",
    "Recovery",
    "RetryPolicy",
    "SupervisePolicy",
    "VariantOutcome",
    "VariantStatus",
    "classify_replans",
    "verify_result",
]
