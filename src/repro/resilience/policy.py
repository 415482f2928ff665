"""Per-variant deadlines and capped exponential-backoff retries.

A :class:`RetryPolicy` is the single knob object the resilience layer
reads: how many times a failed variant may be re-attempted, how long
each attempt may run, and how long to back off between attempts.  It is
immutable and picklable so process-pool workers enforce the same policy
the parent configured.

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
from repro.util.rng import derive_rng, resolve_rng

__all__ = ["RetryPolicy"]


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
    backoff_jitter:
        Fraction in ``[0, 1]`` by which each sleep is randomly
        *shortened* (full-jitter downward), decorrelating shard-retry
        stampedes against a freshly respawned pool.  0 (the default)
        keeps backoff purely deterministic.
    backoff_seed:
        Seed for the jitter stream.  With a seed set, the draw for a
        given ``(key, attempt)`` is bit-reproducible (tests); ``None``
        draws fresh OS entropy per sleep (production decorrelation).
        Jitter never touches the wallclock for randomness — every draw
        goes through :func:`repro.util.rng.resolve_rng`.
    """

    max_retries: int = 2
    deadline_s: float | None = None
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    backoff_jitter: float = 0.0
    backoff_seed: int | None = None

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
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValidationError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.backoff_seed is not None and self.backoff_seed < 0:
            raise ValidationError(
                f"backoff_seed must be >= 0 (SeedSequence entropy), "
                f"got {self.backoff_seed}"
            )

    @property
    def max_attempts(self) -> int:
        """Total executions allowed per variant (first try + retries)."""
        return self.max_retries + 1

    def backoff_s(self, attempt: int, *, key: int = 0) -> float:
        """Seconds to wait before re-running after failed ``attempt``.

        ``key`` identifies the retrying task (canonical variant index,
        or region index for shard retries) so concurrent retries of the
        same attempt draw *different* jitter from the same seed.
        """
        if self.backoff_base_s <= 0.0:
            return 0.0
        base = min(
            self.backoff_base_s * self.backoff_factor ** attempt,
            self.backoff_max_s,
        )
        if self.backoff_jitter <= 0.0:
            return base
        if self.backoff_seed is None:
            rng = resolve_rng(None)
        else:
            rng = derive_rng(self.backoff_seed, key, max(attempt, 0))
        return base * (1.0 - self.backoff_jitter * float(rng.random()))
