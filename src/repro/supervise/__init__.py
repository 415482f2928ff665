"""Heartbeat signals for the task-graph runtime's recovery.

The supervisor is a source of signals only.  Lane workers beat a
shared-memory mailbox; the parent-side :class:`HealthMonitor` turns
stale heartbeats and deadline pressure into typed :class:`Anomaly`
events; :class:`repro.resilience.recovery.Recovery` decides what each
leads to.  :class:`SupervisePolicy` (defined in
:mod:`repro.resilience.policy`) is the ``supervise=`` knob.

Layering: ``supervise`` sits beside ``resilience`` and below
``exec.graph``; this package never imports ``repro.exec``.
"""

from repro.resilience.policy import SupervisePolicy, as_supervise_policy
from repro.supervise.signals import (
    ANOMALY_KINDS,
    Anomaly,
    HealthMonitor,
    HeartbeatMailbox,
    PulseHandle,
    WorkerPulse,
    worker_pulse,
)

__all__ = [
    "ANOMALY_KINDS",
    "Anomaly",
    "HealthMonitor",
    "HeartbeatMailbox",
    "PulseHandle",
    "SupervisePolicy",
    "WorkerPulse",
    "as_supervise_policy",
    "worker_pulse",
]
