"""Task-level health signals: heartbeat mailbox + parent-side monitor.

The supervisor cannot see *inside* a lane worker — a wedged kernel, an
uncooperative sleep, and a dead process all look like "no result yet"
to the future the parent is waiting on.  Heartbeats close that gap:
each lane worker owns one fixed slot of a small shared-memory mailbox
(created through :mod:`repro.engine.shm` so the doctor's audit covers
it) and bumps a sequence counter at every task and phase boundary.

The parent never compares worker clocks against its own — cross-process
``perf_counter`` origins are not comparable.  Staleness is defined
purely parent-side: :class:`HealthMonitor` records *its own* clock
whenever a slot's sequence number changes; a slot whose sequence has
not moved for ``stall_timeout_s`` while a task is in flight is stale.

The monitor is a source of signals only: it turns heartbeat staleness
and deadline pressure into typed :class:`Anomaly` events, and
:class:`repro.resilience.recovery.Recovery` decides what they lead to.

Heartbeat *emission* is deliberately restricted: the only sanctioned
way to obtain an emitter is :func:`worker_pulse`, and the executor
contract rule (``repro check``) pins its call sites to
``repro.exec.graph`` — heartbeats from anywhere else would make
staleness meaningless.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.engine.shm import attach_shm, create_shm, destroy_segment

__all__ = [
    "ANOMALY_KINDS",
    "DEADLINE_RISK_FRACTION",
    "Anomaly",
    "HealthMonitor",
    "HeartbeatMailbox",
    "PulseHandle",
    "WorkerPulse",
    "worker_pulse",
]

#: One mailbox slot: a monotonically increasing beat counter, the
#: worker's own perf_counter stamp (debug only — never compared against
#: the parent clock), and a 63-bit token of the task id being worked.
_SLOT_DTYPE = np.dtype(
    [("seq", np.int64), ("stamp", np.float64), ("task", np.int64)]
)

#: Anomaly kinds: the rows of :data:`repro.resilience.recovery.TABLE`.
ANOMALY_KINDS = (
    "stuck-task",
    "crash-loop",
    "shm-leak",
    "merge-corruption",
    "deadline-at-risk",
)

#: Fraction of the per-attempt deadline after which the variant in
#: flight is flagged ``deadline-at-risk`` (advisory).
DEADLINE_RISK_FRACTION = 0.8


def task_token(task_id: str) -> int:
    """Stable 63-bit token for a task id (slot debug field)."""
    digest = hashlib.blake2b(task_id.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class Anomaly:
    """A typed health event.

    ``kind`` is one of :data:`ANOMALY_KINDS`; ``subject`` is the task /
    lane / segment concerned.
    """

    kind: str
    subject: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(f"unclassifiable anomaly kind {self.kind!r}")

    def as_dict(self) -> dict:
        return {"kind": self.kind, "subject": self.subject, "detail": self.detail}


@dataclass(frozen=True)
class PulseHandle:
    """Picklable pointer to one mailbox slot (ships to a lane worker)."""

    segment: str
    slot: int
    n_slots: int


class WorkerPulse:
    """Worker-side beat emitter over one mailbox slot.

    Construct only through :func:`worker_pulse` — the executor
    contract rule pins emission sites to ``repro.exec.graph``.
    """

    def __init__(self, handle: PulseHandle) -> None:
        self._shm = attach_shm(handle.segment)
        self._view = np.frombuffer(
            self._shm.buf, dtype=_SLOT_DTYPE, count=handle.n_slots
        )
        self._slot = handle.slot

    def beat(self, task_id: str) -> None:
        """Record liveness: bump the slot's sequence counter.

        Field writes are single 8-byte stores; the parent only looks
        for *changes* in ``seq``, so torn multi-field reads are benign.
        """
        row = self._view[self._slot]
        row["task"] = task_token(task_id)
        row["stamp"] = time.perf_counter()
        row["seq"] = int(row["seq"]) + 1

    def close(self) -> None:
        self._view = None
        self._shm.close()


def worker_pulse(handle: PulseHandle | None) -> WorkerPulse | None:
    """The one sanctioned constructor of a heartbeat emitter.

    Returns ``None`` for a ``None`` handle so unsupervised runs cost
    nothing in the workers.
    """
    if handle is None:
        return None
    return WorkerPulse(handle)


class HeartbeatMailbox:
    """Parent-owned shared-memory mailbox, one slot per lane.

    Created through :func:`repro.engine.shm.create_shm` so the segment
    appears in the owned set and the ``repro doctor`` audit; the parent
    must :meth:`close` it (unlink) when the run ends.
    """

    def __init__(self, shm, n_slots: int) -> None:
        self._shm = shm
        self.n_slots = n_slots
        self._view = np.frombuffer(shm.buf, dtype=_SLOT_DTYPE, count=n_slots)

    @classmethod
    def create(cls, n_slots: int) -> HeartbeatMailbox:
        shm = create_shm(_SLOT_DTYPE.itemsize * max(n_slots, 1), tag="hb")
        try:
            box = cls(shm, n_slots)
            box._view[:] = 0
        except Exception:
            # The parent owns this fresh segment; a failed view setup
            # must not orphan it past the doctor audit.
            destroy_segment(shm)
            raise
        return box

    @property
    def name(self) -> str:
        return self._shm.name

    def handle(self, slot: int) -> PulseHandle:
        return PulseHandle(self._shm.name, slot, self.n_slots)

    def seq(self, slot: int) -> int:
        """The slot's current beat counter (parent-side read)."""
        return int(self._view[slot]["seq"])

    def close(self) -> None:
        """Unlink the segment (the parent owns the mailbox)."""
        self._view = None
        destroy_segment(self._shm)


@dataclass
class _SlotState:
    """Parent-side per-slot staleness bookkeeping."""

    task_id: str = ""
    deadline_s: float | None = None
    last_seq: int = -1
    changed_at: float = 0.0
    started_at: float = 0.0
    running: bool = False
    stale_reported: bool = False
    at_risk_reported: bool = False


class HealthMonitor:
    """Turns heartbeats and deadlines into :class:`Anomaly` events.

    All timing uses the *parent's* ``perf_counter`` (injectable as
    ``clock`` for deterministic tests); worker stamps are never read
    for staleness decisions.
    """

    def __init__(
        self,
        mailbox: HeartbeatMailbox | None = None,
        *,
        stall_timeout_s: float = 5.0,
        clock=time.perf_counter,
    ) -> None:
        self.mailbox = mailbox
        self.stall_timeout_s = stall_timeout_s
        self._clock = clock
        self._slots: dict[int, _SlotState] = {}

    # -- runtime bookkeeping --------------------------------------------
    def job_started(
        self, slot: int, task_id: str, *, deadline_s: float | None = None
    ) -> None:
        """A task was submitted to ``slot``'s lane: reset its staleness."""
        now = self._clock()
        seq = self.mailbox.seq(slot) if self.mailbox is not None else -1
        self._slots[slot] = _SlotState(
            task_id=task_id,
            deadline_s=deadline_s,
            last_seq=seq,
            changed_at=now,
            started_at=now,
            running=True,
        )

    def job_finished(self, slot: int) -> None:
        state = self._slots.get(slot)
        if state is not None:
            state.running = False

    # -- polling ---------------------------------------------------------
    def poll(self) -> list[Anomaly]:
        """``stuck-task`` and ``deadline-at-risk`` anomalies, deduplicated.

        A stale slot is reported once per sequence value: a fresh beat
        (or a job restart) re-arms the report.  A beat also restarts the
        deadline clock: a lane job may be a whole reuse chain, and the
        per-attempt deadline is judged against the variant in flight
        (workers beat as each variant starts), not the chain.
        """
        anomalies: list[Anomaly] = []
        now = self._clock()
        for slot, state in self._slots.items():
            if not state.running:
                continue
            if self.mailbox is not None:
                seq = self.mailbox.seq(slot)
                if seq != state.last_seq:
                    state.last_seq = seq
                    state.changed_at = state.started_at = now
                    state.stale_reported = state.at_risk_reported = False
                elif (
                    not state.stale_reported
                    and now - state.changed_at > self.stall_timeout_s
                ):
                    state.stale_reported = True
                    anomalies.append(
                        Anomaly(
                            "stuck-task",
                            state.task_id,
                            detail=(
                                f"lane {slot} heartbeat stale for "
                                f"{now - state.changed_at:.2f}s "
                                f"(timeout {self.stall_timeout_s:g}s)"
                            ),
                        )
                    )
            if (
                state.deadline_s is not None
                and not state.at_risk_reported
                and now - state.started_at
                > DEADLINE_RISK_FRACTION * state.deadline_s
            ):
                state.at_risk_reported = True
                anomalies.append(
                    Anomaly(
                        "deadline-at-risk",
                        state.task_id,
                        detail=(
                            f"elapsed {now - state.started_at:.2f}s exceeds "
                            f"{DEADLINE_RISK_FRACTION:.0%} of the "
                            f"{state.deadline_s:g}s deadline"
                        ),
                    )
                )
        return anomalies
