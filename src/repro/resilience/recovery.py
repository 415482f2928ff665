"""One recovery table: what every failure in a batch leads to.

The paper's throughput devices are what make a batch fragile: reuse
chains (§IV-B) make variants depend on donors, and greedy scheduling
(§IV-D) strands every dependent when a donor dies.  Every failure the
runtime sees — an in-process attempt that raised, timed out or produced
a corrupt result, a lane worker that died or went silent, a lost shard
region, a merge whose stitched result failed the integrity audit —
reaches :meth:`Recovery.on_failure`, the one place that decides what it
leads to::

    attempt ─► retry ─► (replan) ─► degrade ─► fail

retry
    Resubmit while the unit's budget lasts: ``max_attempts`` for an
    in-process attempt, plus one submission per planned ``kill`` for a
    dispatched unit (a planned kill costs a submission without being a
    retry).
replan
    A variant that fails for good never enters the completed registry,
    so each dependent's ``select_source`` picks the best *surviving*
    inclusion-legal donor, or clusters from scratch.  Nothing has to
    decide it; :func:`classify_replans` marks the dependents in the
    report, and a lane chain whose sharded donor died records a
    ``replan-chain`` row.
degrade
    Under supervision, a dispatched unit out of budget steps one rung
    down :data:`LADDER` and re-runs in the parent.  Every rung produces
    byte-identical labels, so degradation trades throughput for
    survivability without touching correctness; the serial rung has no
    worker boundary left to fail, which makes the walk terminate.
fail
    The unit's variants are reported ``failed`` and the batch goes on.

Under supervision every decision is also a :class:`RemediationRecord`:
:data:`TABLE` names the action that answers each anomaly kind and
:data:`BASE_RISK` how invasive it is.  An action's risk is its base plus
half its blast radius (the share of the batch it touches); the action
is applied when the risk fits the policy's budget and recommended to the
operator otherwise.  A subject struck :data:`BREAKER_STRIKES` times
(respawns and ladder steps) is quarantined.  An applied action is
verified when its task completes; :meth:`Recovery.finalize` fails
whatever never did and reclaims orphaned shared-memory segments through
:func:`orphan_anomalies`, the same path ``repro doctor`` reports from.

The :class:`~repro.supervise.signals.HealthMonitor` only supplies
signals: stale heartbeats (a lane to respawn) and deadline-at-risk
advisories, which :meth:`Recovery.poll` turns into records.

Results stay canonically equal on every path (docs/ARCHITECTURE.md,
"Failure model & recovery", gives the argument): a retry re-runs a
deterministic computation, a replan picks an inclusion-legal donor, and
a degraded rung re-runs with the donors its original rung would have
seen.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.core.scheduling import CompletedRegistry, PlannedVariant, dependency_tree
from repro.core.variants import VariantSet
from repro.exec._runner import execute_variant
from repro.metrics.records import VariantRunRecord
from repro.resilience.audit import SegmentInfo, scan_segments, unlink_segment
from repro.resilience.faults import FaultSpec, corrupt_result, verify_result
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import BatchReport, VariantOutcome, VariantStatus
from repro.supervise.signals import Anomaly, HealthMonitor, HeartbeatMailbox
from repro.util.errors import VariantTimeoutError
from repro.util.tracing import resolve_tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.result import ClusteringResult
    from repro.engine.context import RunContext

__all__ = [
    "ACTION_KINDS",
    "Action",
    "BASE_RISK",
    "BREAKER_STRIKES",
    "LADDER",
    "Recovery",
    "RemediationRecord",
    "Step",
    "TABLE",
    "Transition",
    "classify_replans",
    "orphan_anomalies",
]

#: Obs instant-event names of the attempt loop.
EVENT_RETRY = "variant_retry"
EVENT_TIMEOUT = "variant_timeout"
EVENT_FAILED = "variant_failed"
EVENT_RESUMED = "variant_resumed"
#: Obs instant-event names of the remediation records.
EVENT_ANOMALY = "supervise.anomaly"
EVENT_VERIFY = "supervise.verify"
_DECISION_EVENTS = {
    "applied": "supervise.apply",
    "recommended": "supervise.recommend",
    "suppressed": "supervise.suppress",
}

#: Action kind -> static base risk: how invasive the mechanism is.
BASE_RISK = {
    "reclaim-segment": 0.05,
    "replan-chain": 0.15,
    "resubmit-task": 0.2,
    "respawn-lane": 0.35,
    "degrade": 0.6,
    "quarantine": 0.9,
}

#: Remediation mechanisms the runtime knows how to execute.
ACTION_KINDS = tuple(BASE_RISK)

#: The recovery table: anomaly kind -> (the action that answers it
#: while budget remains, what the action does).
TABLE = {
    "stuck-task": ("respawn-lane", "kill the wedged lane pool and resubmit the task"),
    "crash-loop": ("resubmit-task", "resubmit after repeated worker death"),
    "merge-corruption": (
        "resubmit-task",
        "re-run the task; the corrupt result was discarded",
    ),
    "shm-leak": ("reclaim-segment", "unlink the orphaned shared-memory segment"),
    "deadline-at-risk": ("degrade", "pre-emptively lower the task before the deadline"),
}

#: The degradation ladder: ``(axis, rung) -> next rung down``.
LADDER = {
    ("lowering", "hybrid"): "shard",
    ("lowering", "shard"): "variant",
    ("kernel", "cellgraph"): "bfs",
    ("substrate", "lanes"): "serial",
}

#: Respawns and ladder steps one subject may take before quarantine.
BREAKER_STRIKES = 3


@dataclass(frozen=True)
class Action:
    """One remediation (see :data:`ACTION_KINDS`).

    ``blast_radius`` is the fraction of the batch the action touches
    (one task out of N → 1/N; a reuse-chain group of k → k/N).
    """

    kind: str
    target: str
    detail: str = ""
    blast_radius: float = 0.0

    @property
    def risk(self) -> float:
        """Blast-radius-weighted risk score in ``[0, 1]``."""
        return min(1.0, BASE_RISK[self.kind] + 0.5 * self.blast_radius)


@dataclass
class RemediationRecord:
    """One anomaly with its action, risk-gate decision and verification.

    Surfaced in :attr:`repro.resilience.report.BatchReport.remediations`:
    every anomaly of a supervised run appears, whether its action was
    applied, recommended, or suppressed by the breaker.
    """

    rid: str
    anomaly: Anomaly
    action: Action | None
    decision: str  # "applied" | "recommended" | "suppressed"
    verdict: str | None = None  # "verified" | "failed" | None (no check due)
    detail: str = field(default="")

    def as_dict(self) -> dict:
        return {
            "rid": self.rid,
            "anomaly": self.anomaly.as_dict(),
            "action": (
                {
                    "kind": self.action.kind,
                    "target": self.action.target,
                    "detail": self.action.detail,
                    "risk": round(self.action.risk, 4),
                }
                if self.action is not None
                else None
            ),
            "decision": self.decision,
            "verdict": self.verdict,
            "detail": self.detail,
        }


class Step(NamedTuple):
    """One rung-to-rung step down :data:`LADDER`."""

    axis: str
    source: str
    target: str

    @property
    def label(self) -> str:
        return f"{self.axis}:{self.source}→{self.target}"


class Transition(NamedTuple):
    """What :meth:`Recovery.on_failure` decided: retry, degrade or fail."""

    kind: str
    step: Step | None = None


RETRY = Transition("retry")
FAIL = Transition("fail")


def orphan_anomalies(segments: list[SegmentInfo]) -> list[Anomaly]:
    """One ``shm-leak`` anomaly per orphaned segment.

    The one classification of the audit: :meth:`Recovery.finalize`
    reclaims these, ``repro doctor`` reports (and unlinks) them.
    """
    return [
        Anomaly("shm-leak", s.name, f"creator pid {s.pid} is dead ({s.size} bytes)")
        for s in segments
        if s.orphaned
    ]


def classify_replans(report: BatchReport, vset: VariantSet) -> None:
    """Mark completed variants whose static donor failed as ``replanned``.

    The static dependency forest (Figure 3a) names each variant's
    planned donor; a variant that completed while that donor is in the
    failed set took the replan transition: the registry only offers
    inclusion-legal completed results, so it reused another surviving
    donor or ran from scratch.

    Idempotent: earlier ``replanned`` marks are first reset to their
    base status, so the marks always reflect the current failed set.
    """
    for outcome in report.outcomes.values():
        if outcome.status is VariantStatus.REPLANNED:
            outcome.status = (
                VariantStatus.RETRIED if outcome.attempts > 1 else VariantStatus.OK
            )
            outcome.replanned_from = None
    failed = set(report.failed)
    if not failed:
        return
    tree = dependency_tree(vset)
    for variant, outcome in report.outcomes.items():
        if outcome.status not in (VariantStatus.OK, VariantStatus.RETRIED):
            continue
        if variant not in tree:
            continue
        parent = next(iter(tree.predecessors(variant)), None)
        if parent is not None and parent in failed:
            outcome.status = VariantStatus.REPLANNED
            outcome.replanned_from = parent


class Recovery:
    """One batch's recovery: the attempt loop, the decisions, the report.

    Built per batch by the runtime (and per chain inside each lane
    worker).  With no retry policy, fault plan, checkpoint or
    supervision it is disabled: :meth:`execute` is a plain
    :func:`~repro.exec._runner.execute_variant` call, exceptions
    propagate, and :meth:`finalize` returns no report.

    Outcomes are accounted under a lock, so the report stays whole if
    attempts ever run concurrently; decisions and records are made on
    the dispatch thread.
    """

    def __init__(self, ctx: RunContext, vset: VariantSet) -> None:
        self.ctx = ctx
        self.vset = vset
        plan = ctx.fault_plan
        # A FaultPlan binds against the batch's canonical order; a
        # BoundFaultPlan (shipped to lane workers) is used as-is.
        self.faults = (
            plan.bind(vset) if plan is not None and hasattr(plan, "bind") else plan
        )
        self.supervise = ctx.supervisor
        if ctx.retry_policy is not None:
            self.policy: RetryPolicy | None = ctx.retry_policy
        elif self.supervise is not None:
            # Self-healing needs a retry budget to resubmit with.
            self.policy = RetryPolicy()
        elif self.faults:
            # Capture failures into the report instead of aborting.
            self.policy = RetryPolicy(max_retries=0)
        else:
            self.policy = None
        self.checkpoint = ctx.checkpoint
        self.enabled = (
            self.policy is not None or bool(self.faults) or self.checkpoint is not None
        )
        self.max_attempts = self.policy.max_attempts if self.policy is not None else 1
        kills = (
            sum(1 for s in self.faults.table.values() if s.kind == "kill")
            if self.faults
            else 0
        )
        self.max_submissions = self.max_attempts + kills
        self.deadline_s = self.policy.deadline_s if self.policy is not None else None
        self.monitor = (
            HealthMonitor(stall_timeout_s=self.supervise.stall_timeout_s)
            if self.supervise is not None
            else None
        )
        #: Tasks in the batch's graph (the blast-radius denominator).
        self.n_tasks = 1
        self.records: list[RemediationRecord] = []
        self._pending: dict[str, list[RemediationRecord]] = {}
        self._strikes: Counter = Counter()
        self._mailbox: HeartbeatMailbox | None = None
        self._tracer = resolve_tracer(ctx.tracer)
        self._lock = threading.Lock()
        self._outcomes: dict = {}

    # -- the decision ----------------------------------------------------
    def on_failure(
        self,
        unit: str,
        kind: str,
        submissions: int,
        blast_radius: float,
        *,
        rung: tuple[str, str] | None = None,
        task: str | None = None,
        error: str = "",
    ) -> Transition:
        """Decide what the ``submissions``-th failure of ``unit`` leads to.

        ``kind`` is the anomaly the failure is: ``crash-loop`` (a crash,
        timeout, corrupt variant, or dead or stuck worker) or
        ``merge-corruption`` (a merge that raised or failed the audit).
        ``rung`` is the unit's ``(axis, rung)`` on :data:`LADDER`;
        ``None`` marks an in-process attempt, retried within
        ``max_attempts`` and never supervised.  A dispatched unit gets
        ``max_submissions``, and under supervision:

        * a crash loop's second and later resubmissions, and every merge
          resubmission, must pass the risk gate (a crash loop also the
          breaker); ``task`` names the failed task when only it is
          resubmitted (one region of a pipe);
        * a unit out of budget takes one step down the ladder per call,
          until the breaker quarantines it, the floor is reached, or the
          risk gate refuses the step.

        ``blast_radius`` is the unit's share of the batch.
        """
        if rung is None:
            return RETRY if submissions < self.max_attempts else FAIL
        budget = self.max_submissions
        if submissions < budget:
            if self.supervise is None or (kind == "crash-loop" and submissions < 2):
                return RETRY
            subject = task or unit
            radius = 1.0 / self.n_tasks if task else blast_radius
            if kind == "crash-loop":
                error = f"{submissions} consecutive worker deaths (budget {budget})"
            anomaly = Anomaly(kind, subject, error)
            if not (kind == "crash-loop" and self._tripped(anomaly, radius)) and (
                self._remedy(anomaly, radius, verify_on=subject) is not None
            ):
                return RETRY
        if self.supervise is None:
            return FAIL
        anomaly = Anomaly(
            "crash-loop", unit, f"{submissions} submissions exhausted budget {budget}"
        )
        if self._tripped(anomaly, blast_radius):
            return FAIL
        self._strikes[unit] += 1
        axis, current = rung
        target = LADDER.get(rung)
        if target is None:
            self._record(
                anomaly, None, "recommended",
                detail=f"already at the {axis} ladder floor ({current})",
            )
            return FAIL
        step = Step(axis, current, target)
        action = Action("degrade", unit, f"degrade {step.label}", blast_radius)
        if action.risk > self.supervise.risk_budget:
            self._record(
                anomaly, action, "recommended",
                detail=f"risk budget {self.supervise.risk_budget:g} too low",
            )
            return FAIL
        self._record(anomaly, action, "applied", verify_on=unit)
        return Transition("degrade", step)

    def poll(self) -> list[str]:
        """Subjects whose lanes to kill: stale heartbeats the gate admits.

        Every respawn is a strike against the subject, so a task that
        keeps stalling gets quarantined; the killed job's failure then
        goes through :meth:`on_failure`.  Deadline-at-risk is advisory
        and always recorded as a recommendation.
        """
        stuck = []
        radius = 1.0 / self.n_tasks
        for anomaly in self.monitor.poll():
            if anomaly.kind == "deadline-at-risk":
                kind, detail = TABLE[anomaly.kind]
                self._record(
                    anomaly, Action(kind, anomaly.subject, detail, radius),
                    "recommended", detail="advisory: pre-emptive degrade available",
                )
            elif not self._tripped(anomaly, radius) and self._remedy(
                anomaly, radius, verify_on=anomaly.subject
            ):
                self._strikes[anomaly.subject] += 1
                stuck.append(anomaly.subject)
        return stuck

    def replanned(self, group: str, donor: str, blast_radius: float) -> None:
        """Record a lane chain re-planned past a donor that failed for good.

        Re-planning is the scheduler's own fallback, so it is always
        applied; it verifies when the chain completes.
        """
        self._record(
            Anomaly("crash-loop", donor, f"donor {donor} failed for good"),
            Action(
                "replan-chain", group,
                f"failed donor {donor}; re-plan onto surviving donors", blast_radius,
            ),
            "applied",
            detail="scheduler fallback: surviving-donor re-plan",
            verify_on=group,
        )

    def _tripped(self, anomaly: Anomaly, radius: float) -> bool:
        """Quarantine (and record) a subject out of breaker strikes."""
        strikes = self._strikes[anomaly.subject]
        if strikes < BREAKER_STRIKES:
            return False
        self._record(
            anomaly,
            Action(
                "quarantine", anomaly.subject,
                "circuit breaker tripped; no further remediation", radius,
            ),
            "suppressed",
            detail=f"breaker tripped after {strikes} strikes",
        )
        return True

    def _remedy(
        self, anomaly: Anomaly, radius: float, *, verify_on: str | None = None
    ) -> RemediationRecord | None:
        """Gate the table's action for ``anomaly``; the record if applied."""
        kind, detail = TABLE[anomaly.kind]
        action = Action(kind, anomaly.subject, detail, radius)
        if action.risk > self.supervise.risk_budget:
            self._record(anomaly, action, "recommended")
            return None
        return self._record(anomaly, action, "applied", verify_on=verify_on)

    def _record(
        self, anomaly, action, decision: str, *, detail: str = "", verify_on=None
    ) -> RemediationRecord:
        rid = f"r{len(self.records)}"
        rec = RemediationRecord(rid, anomaly, action, decision, detail=detail)
        self.records.append(rec)
        self._tracer.instant(
            EVENT_ANOMALY,
            rid=rid,
            kind=anomaly.kind,
            subject=anomaly.subject,
            detail=anomaly.detail,
        )
        self._tracer.instant(
            _DECISION_EVENTS[decision],
            rid=rid,
            action=action.kind if action is not None else None,
            risk=round(action.risk, 4) if action is not None else None,
            target=anomaly.subject,
        )
        if decision == "applied" and verify_on is not None:
            self._pending.setdefault(verify_on, []).append(rec)
        return rec

    def _resolve(self, rec: RemediationRecord, ok: bool, detail: str = "") -> None:
        rec.verdict = "verified" if ok else "failed"
        if detail:
            rec.detail = detail
        self._tracer.instant(
            EVENT_VERIFY,
            rid=rec.rid,
            action=rec.action.kind if rec.action else None,
            target=rec.anomaly.subject,
            outcome=rec.verdict,
        )

    def task_done(self, target: str, ok: bool, detail: str = "") -> None:
        """Verify every applied action waiting on ``target``."""
        for rec in self._pending.pop(target, []):
            self._resolve(rec, ok, detail)

    # -- heartbeat mailbox -----------------------------------------------
    def open_mailbox(self, n_slots: int) -> HeartbeatMailbox:
        """Create the heartbeat mailbox and wire it into the monitor."""
        self._mailbox = HeartbeatMailbox.create(n_slots)
        self.monitor.mailbox = self._mailbox
        return self._mailbox

    def close_mailbox(self) -> None:
        if self._mailbox is not None:
            self.monitor.mailbox = None
            self._mailbox.close()
            self._mailbox = None

    # -- the attempt loop ------------------------------------------------
    def resume_into(
        self, registry: CompletedRegistry, results: dict, records: list
    ) -> set:
        """Load finished variants from the checkpoint before executing.

        Every loaded result is registered as completed at t = 0 — it is
        a genuine result for this exact database fingerprint, so the
        remaining variants may legally reuse it as a donor.  Returns the
        set of variants the caller must skip.
        """
        done: set = set()
        if self.checkpoint is None:
            return done
        for variant in self.vset:
            result = self.checkpoint.load(variant)
            if result is None:
                continue
            registry.add(variant, result, finished_at=0.0)
            results[variant] = result
            records.append(
                VariantRunRecord(
                    variant=variant,
                    reused_from=result.reused_from,
                    points_reused=result.points_reused,
                    reuse_fraction=result.reuse_fraction,
                    response_time=0.0,
                    wall_time=0.0,
                    n_clusters=result.n_clusters,
                    n_noise=result.n_noise,
                )
            )
            with self._lock:
                self._outcomes[variant] = VariantOutcome(
                    variant, VariantStatus.RESUMED, attempts=0
                )
            self._tracer.instant(EVENT_RESUMED, variant=str(variant))
            done.add(variant)
        return done

    def fire(
        self, spec: FaultSpec | None, started_at: float, result=None
    ) -> None:
        """Fire one planned fault: ``corrupt`` damages ``result``."""
        if spec is None:
            return
        if spec.kind == "corrupt":
            corrupt_result(result)
        else:
            self.faults.fire(spec, deadline_s=self.deadline_s, started_at=started_at)

    def execute(
        self,
        planned: PlannedVariant,
        registry: CompletedRegistry,
        *,
        ctx: RunContext | None = None,
        vset: VariantSet | None = None,
        offset: int = 0,
        concurrency: int | None = None,
        before: float | None = None,
    ) -> tuple[ClusteringResult | None, VariantRunRecord | None]:
        """Run one variant through the attempt loop.

        Returns ``(result, record)``, or ``(None, None)`` when the
        variant failed for good — the caller skips the registry add,
        which is what lets the rest of the batch re-plan and proceed.
        A degraded rung passes its own ``ctx`` (kernel, scheduler) and
        ``vset`` (the set whose spans normalize reuse distances, as on
        the original rung).  ``offset`` counts the submissions the
        variant's unit already used: faults planned for them stay fired,
        and the outcome counts them as attempts.
        """
        ctx = ctx if ctx is not None else self.ctx
        vset = vset if vset is not None else self.vset
        if not self.enabled:
            return execute_variant(
                ctx, planned, vset, registry,
                concurrency=concurrency, before=before,
            )
        faults = self.faults.shifted(offset) if self.faults else self.faults
        variant = planned.variant
        error: BaseException | None = None
        attempt = 0
        while True:
            if attempt > 0 and self.policy is not None:
                pause = self.policy.backoff_s(attempt - 1)
                if pause > 0.0:
                    time.sleep(pause)
            t0 = time.perf_counter()
            try:
                if faults:
                    self.fire(faults.find(variant, attempt, "start"), t0)
                result, record = execute_variant(
                    ctx, planned, vset, registry,
                    concurrency=concurrency, before=before,
                )
                if faults:
                    self.fire(faults.find(variant, attempt, "finish"), t0, result)
                verify_result(result, ctx.store.n_points)
                elapsed = time.perf_counter() - t0
                if self.deadline_s is not None and elapsed > self.deadline_s:
                    raise VariantTimeoutError(
                        f"variant {variant} attempt {attempt} took {elapsed:.3f}s "
                        f"(deadline {self.deadline_s:g}s)"
                    )
            except VariantTimeoutError as exc:
                error = exc
                self._tracer.instant(
                    EVENT_TIMEOUT, variant=str(variant), attempt=attempt,
                    error=str(exc),
                )
            except Exception as exc:
                error = exc
                self._tracer.instant(
                    EVENT_RETRY, variant=str(variant), attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                if self.checkpoint is not None:
                    self.checkpoint.save(result)
                self.mark_done(
                    variant,
                    attempts=offset + attempt + 1,
                    error=None if error is None else f"{type(error).__name__}: {error}",
                )
                return result, record
            attempt += 1
            if self.on_failure(str(variant), "crash-loop", attempt, 0.0).kind == "fail":
                break
        message = f"{type(error).__name__}: {error}"
        self._tracer.instant(
            EVENT_FAILED, variant=str(variant), attempts=attempt, error=message
        )
        with self._lock:
            self._outcomes[variant] = VariantOutcome(
                variant, VariantStatus.FAILED, attempts=offset + attempt, error=message
            )
        return None, None

    # -- outcome accounting ----------------------------------------------
    def mark_done(self, variant, *, attempts: int, error: str | None = None) -> None:
        """Record a completed variant (``retried`` after more than one attempt)."""
        with self._lock:
            self._outcomes[variant] = VariantOutcome(
                variant,
                VariantStatus.RETRIED if attempts > 1 else VariantStatus.OK,
                attempts=attempts,
                error=error,
            )

    def mark_degraded(self, variant, label: str) -> None:
        """Tag a completed variant with the ladder step that finished it."""
        with self._lock:
            self._outcomes[variant].degraded = label

    def mark_failed(self, variants, error: str, attempts: int) -> None:
        """Record variants of a unit that failed for good."""
        with self._lock:
            for v in variants:
                if v in self._outcomes:
                    continue
                self._outcomes[v] = VariantOutcome(
                    v, VariantStatus.FAILED, attempts=attempts, error=error
                )
                self._tracer.instant(EVENT_FAILED, variant=str(v), error=error)

    def merge_outcomes(self, report: BatchReport) -> None:
        """Fold a lane worker's report into this batch's accounting."""
        with self._lock:
            self._outcomes.update(report.outcomes)

    def finalize(self) -> BatchReport | None:
        """Close the batch: the report, or None when disabled.

        Under supervision, applied actions whose task never completed
        fail verification, orphaned segments are reclaimed (when the
        gate admits it), and the records join the report.
        """
        if not self.enabled:
            return None
        with self._lock:
            report = BatchReport(outcomes=dict(self._outcomes))
        classify_replans(report, self.vset)
        if self.supervise is None:
            return report
        for target in list(self._pending):
            self.task_done(target, False, "task never completed")
        for anomaly in orphan_anomalies(scan_segments()):
            rec = self._remedy(anomaly, 0.0)
            if rec is not None:
                removed = unlink_segment(anomaly.subject)
                self._resolve(
                    rec, removed, "segment unlinked" if removed else "unlink failed"
                )
        report.remediations.extend(self.records)
        return report
