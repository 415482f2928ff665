"""The recovery knobs: retry budgets and deadlines, and supervision.

A :class:`RetryPolicy` says how many times a failed variant may be
re-attempted, how long each attempt may run, and how long to back off
between attempts; a :class:`SupervisePolicy` turns on self-healing
supervision and sets its risk budget and heartbeat timing.  Both are
immutable and picklable, and both are read only by
:class:`repro.resilience.recovery.Recovery`.

Deadline semantics are **cooperative best-effort** for in-process
backends: an attempt's wall time is measured around the variant kernel
(and injected hangs poll the deadline while sleeping), so a deadline
violation is detected at the next check point rather than preempting
arbitrary Python code.  Genuine runaway hangs are the CI watchdog's job
(``pytest-timeout``) and, on the process lanes, the parent-side job
budget that terminates and respawns a wedged worker (see
:mod:`repro.exec.graph`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ValidationError

__all__ = ["RetryPolicy", "SupervisePolicy", "as_supervise_policy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/deadline configuration for one batch run.

    Attributes
    ----------
    max_retries:
        Re-attempts allowed after the first failure (0 = capture the
        failure in the :class:`~repro.resilience.report.BatchReport`
        but never retry).
    deadline_s:
        Per-attempt wall-clock budget; ``None`` disables deadlines.
        An attempt that exceeds it counts as a timeout failure and is
        retried like a crash.
    backoff_base_s / backoff_factor / backoff_max_s:
        Capped exponential backoff between attempts:
        ``min(base * factor**attempt, max)`` seconds.  The default base
        of 0 disables sleeping, which is what deterministic test runs
        want; production sweeps over flaky storage set a real base.
        Only the attempt loop sleeps (in process, or inside a lane
        chain worker); shard, merge and lane resubmissions go back on
        the ready queue at once.
    """

    max_retries: int = 2
    deadline_s: float | None = None
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValidationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValidationError(
                f"deadline_s must be positive (or None), got {self.deadline_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValidationError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    @property
    def max_attempts(self) -> int:
        """Total executions allowed per variant (first try + retries)."""
        return self.max_retries + 1

    def backoff_s(self, attempt: int) -> float:
        """Seconds to wait before re-running after failed ``attempt``."""
        if self.backoff_base_s <= 0.0:
            return 0.0
        return min(
            self.backoff_base_s * self.backoff_factor ** attempt,
            self.backoff_max_s,
        )


@dataclass(frozen=True)
class SupervisePolicy:
    """Self-healing supervision knobs for one run.

    Attributes
    ----------
    risk_budget:
        Risk-gate ceiling in ``[0, 1]``: actions scoring at or below it
        are auto-applied, the rest are recorded as recommendations.
        The default admits respawn/resubmit/reclaim but leaves
        ``degrade`` (0.6+) to the operator; pass 1.0 for fully
        autonomous degradation.
    stall_timeout_s:
        Parent-side heartbeat staleness threshold: a lane whose slot
        sequence has not moved for this long while a task is in flight
        is declared stuck.
    poll_interval_s:
        Upper bound on how long the runtime's dispatch loop waits
        between heartbeat polls.
    """

    risk_budget: float = 0.5
    stall_timeout_s: float = 5.0
    poll_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.risk_budget <= 1.0:
            raise ValidationError(
                f"risk_budget must be in [0, 1], got {self.risk_budget}"
            )
        if self.stall_timeout_s <= 0:
            raise ValidationError(
                f"stall_timeout_s must be positive, got {self.stall_timeout_s}"
            )
        if self.poll_interval_s <= 0:
            raise ValidationError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )


def as_supervise_policy(value) -> SupervisePolicy | None:
    """Normalize the user-facing ``supervise`` knob.

    ``None`` / ``False`` → off, ``True`` → defaults, a
    :class:`SupervisePolicy` passes through.
    """
    if value is None or value is False:
        return None
    if value is True:
        return SupervisePolicy()
    if isinstance(value, SupervisePolicy):
        return value
    raise TypeError(
        f"supervise must be a bool or SupervisePolicy, got {value!r}"
    )
