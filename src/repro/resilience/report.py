"""Partial-failure result contract: per-variant outcomes for one batch.

A fault-free batch answers "here are your clusterings"; a resilient
batch must additionally answer "what happened to each variant".  The
:class:`BatchReport` carries one :class:`VariantOutcome` per variant
with a :class:`VariantStatus`:

``ok``
    Completed on the first attempt with its planned reuse behavior.
``retried``
    Completed after one or more failed attempts (crash, timeout, or
    corrupted result).
``replanned``
    Completed, but its static reuse donor (the Figure 3(a) dependency
    parent) failed permanently, so the variant was re-planned onto the
    best surviving completed donor under the inclusion criteria — or
    clustered from scratch.
``resumed``
    Skipped: its result was loaded from a checkpoint written by an
    earlier (possibly killed) run over the same database fingerprint.
``failed``
    Exhausted every retry; no result.  The batch still completes and
    reports the failure here instead of aborting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from repro.core.variants import Variant

if TYPE_CHECKING:  # upper layer; imported for annotations only (no cycle)
    from repro.resilience.recovery import RemediationRecord

__all__ = ["BatchReport", "VariantOutcome", "VariantStatus"]


class VariantStatus(str, Enum):
    """Terminal state of one variant within a resilient batch."""

    OK = "ok"
    RETRIED = "retried"
    REPLANNED = "replanned"
    RESUMED = "resumed"
    FAILED = "failed"


@dataclass
class VariantOutcome:
    """What happened to one variant.

    Attributes
    ----------
    variant:
        The parameters concerned.
    status:
        Terminal :class:`VariantStatus`.
    attempts:
        Executions performed (0 for ``resumed`` variants).
    error:
        Stringified last error for ``failed`` variants (and the last
        absorbed error for ``retried`` ones).
    replanned_from:
        For ``replanned`` variants, the failed static donor the
        variant was originally planned to reuse.
    degraded:
        Ladder step label (e.g. ``"substrate:lanes→serial"``) when a
        supervised run completed this variant by stepping it down the
        degradation ladder instead of failing it;
        ``None`` for variants that ran at the planned lowering.
    """

    variant: Variant
    status: VariantStatus
    attempts: int = 1
    error: str | None = None
    replanned_from: Variant | None = None
    degraded: str | None = None


@dataclass
class BatchReport:
    """Per-variant statuses plus batch-level failure accounting.

    ``outcomes`` has one entry per variant of the batch's variant set
    — including permanently failed variants, which are absent from
    :attr:`~repro.exec.base.BatchResult.results`.  When a run was
    supervised, ``remediations`` additionally lists every anomaly the
    recovery table met with its action, the action's risk score, the
    risk-gate decision, and the verification outcome (see
    :class:`repro.resilience.recovery.RemediationRecord`).
    """

    outcomes: dict[Variant, VariantOutcome] = field(default_factory=dict)
    remediations: list[RemediationRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, variant: Variant) -> VariantOutcome:
        return self.outcomes[variant]

    def __contains__(self, variant: Variant) -> bool:
        return variant in self.outcomes

    def _with_status(self, status: VariantStatus) -> list[Variant]:
        return [v for v, o in self.outcomes.items() if o.status is status]

    @property
    def ok(self) -> list[Variant]:
        return self._with_status(VariantStatus.OK)

    @property
    def retried(self) -> list[Variant]:
        return self._with_status(VariantStatus.RETRIED)

    @property
    def replanned(self) -> list[Variant]:
        return self._with_status(VariantStatus.REPLANNED)

    @property
    def resumed(self) -> list[Variant]:
        return self._with_status(VariantStatus.RESUMED)

    @property
    def failed(self) -> list[Variant]:
        return self._with_status(VariantStatus.FAILED)

    @property
    def total_attempts(self) -> int:
        return sum(o.attempts for o in self.outcomes.values())

    @property
    def complete(self) -> bool:
        """True when every variant produced a result (none failed)."""
        return not self.failed

    def merge(self, other: BatchReport) -> None:
        """Fold in another report (process-pool workers report per group)."""
        self.outcomes.update(other.outcomes)
        self.remediations.extend(other.remediations)

    def counts(self) -> dict[str, int]:
        """``{status value: variant count}`` over every status."""
        out = {s.value: 0 for s in VariantStatus}
        for o in self.outcomes.values():
            out[o.status.value] += 1
        return out

    def summary(self) -> str:
        """One line of human-readable failure accounting."""
        c = self.counts()
        parts = [f"{c['ok']} ok"]
        for key in ("retried", "replanned", "resumed", "failed"):
            if c[key]:
                parts.append(f"{c[key]} {key}")
        line = f"{len(self.outcomes)} variants: " + ", ".join(parts)
        if self.remediations:
            applied = sum(1 for r in self.remediations if r.decision == "applied")
            line += (
                f"; {len(self.remediations)} remediations ({applied} applied)"
            )
        return line

    def as_rows(self) -> list[dict]:
        """JSON-friendly per-variant rows (CLI / reporting)."""
        return [
            {
                "variant": o.variant.as_tuple(),
                "status": o.status.value,
                "attempts": o.attempts,
                "error": o.error,
                "replanned_from": (
                    o.replanned_from.as_tuple() if o.replanned_from else None
                ),
                "degraded": o.degraded,
            }
            for o in self.outcomes.values()
        ]

    def remediation_rows(self) -> list[dict]:
        """JSON-friendly remediation records (CLI / CI consumers)."""
        return [r.as_dict() for r in self.remediations]
