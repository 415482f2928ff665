"""Self-healing supervisor: heartbeats, remediation loop, chaos soak.

Covers the supervision subsystem end to end:

* heartbeat plumbing — mailbox slots, worker pulses, and the
  parent-clock-only staleness rules of :class:`HealthMonitor`
  (deterministic via an injected clock);
* the remediation loop units — :class:`Detector` classification,
  :class:`Proposer` candidates, :class:`RiskGate` thresholds,
  :class:`Verifier` span pairing;
* the graceful-degradation ladder — rung ordering per axis, floor
  detection, and the :class:`CircuitBreaker`;
* knob threading — ``supervise=`` on :class:`Session`, executor
  instances, and per-run overrides, normalized by
  :func:`as_supervise_policy`;
* seeded retry-backoff jitter (never wallclock-derived);
* the **chaos soak grid** — injected stalls, crash loops, merge
  corruption, and forced ladder descents across the lanes-substrate
  executors, asserting byte-identical labels against fault-free runs,
  zero leaked shared-memory segments, and an applied-action ↔
  verifier-span pairing for every auto-remediation;
* the acceptance scenario from the issue — 12 variants, a stuck shard
  worker, a crash-looping variant worker, an injected orphan segment,
  and one merge corruption, healed without manual intervention;
* ``repro doctor --watch`` / ``--json`` reusing the supervisor's
  detector.
"""

from __future__ import annotations

import contextlib
import glob
import json
import multiprocessing
from multiprocessing import shared_memory  # repro: allow[shm-lifecycle] (forges leaked segments)

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy, Session, Variant, VariantSet
from repro.obs.registry import MetricsRegistry
from repro.resilience.report import BatchReport
from repro.supervise import (
    ACTION_KINDS,
    ANOMALY_KINDS,
    Action,
    Anomaly,
    CircuitBreaker,
    DEFAULT_LADDER,
    DegradationLadder,
    Detector,
    HealthMonitor,
    HeartbeatMailbox,
    Proposer,
    RiskGate,
    Signal,
    SupervisePolicy,
    Supervisor,
    Verifier,
    as_supervise_policy,
    worker_pulse,
)
from repro.supervise.remedy import BASE_RISK
from repro.supervise.signals import task_token
from repro.util.errors import ValidationError
from repro.util.rng import derive_rng, resolve_rng
from repro.util.tracing import Tracer


def _repro_segments() -> set[str]:
    return {p.rsplit("/", 1)[-1] for p in glob.glob("/dev/shm/repro_*")}


@pytest.fixture(scope="module")
def points():
    g = resolve_rng(777)
    return np.ascontiguousarray(g.random((500, 2)) * 10)


#: Small chain for the per-fault soak cases.
VSET4 = VariantSet([Variant(0.5 + 0.1 * i, 5) for i in range(4)])

#: The acceptance scenario's 12 variants: two reuse-incomparable
#: families (neither root satisfies the inclusion criteria for the
#: other family), so the hybrid plan deterministically contains two
#: sharded scratch roots *and* reuse chains hanging off each.
VSET12 = VariantSet(
    [Variant(e, m) for e in (0.3, 0.35, 0.4) for m in (4, 5)]
    + [Variant(e, m) for e in (0.5, 0.55, 0.6) for m in (8, 9)]
)

#: Fully autonomous supervision with a tight stall detector — the soak
#: grid wants remediation, not operator recommendations.
AUTONOMOUS = SupervisePolicy(
    risk_budget=1.0, stall_timeout_s=1.0, poll_interval_s=0.1
)


def assert_byte_equal(batch, base, variants):
    for v in variants:
        assert np.array_equal(batch[v].labels, base[v].labels), (
            f"labels diverged for {v}"
        )


def remediation_kinds(report: BatchReport) -> set[str]:
    return {r.anomaly.kind for r in report.remediations}


def applied_records(report: BatchReport):
    return [r for r in report.remediations if r.decision == "applied"]


# ----------------------------------------------------------------------
# heartbeat signals
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestHeartbeats:
    def test_pulse_bumps_slot_sequence(self):
        box = HeartbeatMailbox.create(3)
        try:
            pulse = worker_pulse(box.handle(1))
            assert box.seq(1) == 0
            pulse.beat("shard:0.5/4#1")
            pulse.beat("shard:0.5/4#1")
            assert box.seq(1) == 2
            assert box.seq(0) == 0  # slots are independent
            pulse.close()
        finally:
            box.close()

    def test_none_handle_means_no_emitter(self):
        assert worker_pulse(None) is None

    def test_task_token_is_stable_and_63bit(self):
        t = task_token("merge:0.5/4")
        assert t == task_token("merge:0.5/4")
        assert 0 <= t < 2**63
        assert t != task_token("merge:0.5/8")

    def test_stale_slot_reported_once_per_seq(self):
        clock = FakeClock()
        box = HeartbeatMailbox.create(1)
        try:
            mon = HealthMonitor(box, stall_timeout_s=5.0, clock=clock)
            mon.job_started(0, "group:g0")
            clock.advance(4.0)
            assert mon.poll() == []  # within the timeout
            clock.advance(2.0)
            sigs = mon.poll()
            assert [s.source for s in sigs] == ["heartbeat"]
            assert sigs[0].subject == "group:g0"
            assert mon.poll() == []  # deduplicated until the seq moves
        finally:
            box.close()

    def test_beat_rearms_staleness(self):
        clock = FakeClock()
        box = HeartbeatMailbox.create(1)
        try:
            mon = HealthMonitor(box, stall_timeout_s=5.0, clock=clock)
            mon.job_started(0, "group:g0")
            pulse = worker_pulse(box.handle(0))
            clock.advance(6.0)
            pulse.beat("group:g0")  # fresh beat before the poll
            assert mon.poll() == []
            clock.advance(6.0)  # now genuinely stale again
            assert len(mon.poll()) == 1
            pulse.close()
        finally:
            box.close()

    def test_finished_job_is_never_stale(self):
        clock = FakeClock()
        box = HeartbeatMailbox.create(1)
        try:
            mon = HealthMonitor(box, stall_timeout_s=1.0, clock=clock)
            mon.job_started(0, "group:g0")
            mon.job_finished(0)
            clock.advance(60.0)
            assert mon.poll() == []
        finally:
            box.close()

    def test_deadline_at_risk_is_advisory_and_once(self):
        clock = FakeClock()
        mon = HealthMonitor(None, deadline_risk_fraction=0.8, clock=clock)
        mon.job_started(0, "shard:0.5/4#0", deadline_s=10.0)
        clock.advance(7.0)
        assert mon.poll() == []
        clock.advance(2.0)  # 9s elapsed > 80% of 10s
        sigs = mon.poll()
        assert [s.source for s in sigs] == ["deadline"]
        assert mon.poll() == []

    def test_static_folds_have_declared_sources(self):
        assert HealthMonitor.exhausted("t", 3, 3).source == "counters"
        assert HealthMonitor.crash_looping("t", 2, 5).source == "counters"
        assert HealthMonitor.corruption("t", "bad").source == "integrity"


# ----------------------------------------------------------------------
# detector / proposer / risk gate / verifier
# ----------------------------------------------------------------------
class TestRemediationLoop:
    def test_classification_table(self):
        det = Detector()
        cases = {
            "heartbeat": "stuck-task",
            "counters": "crash-loop",
            "integrity": "merge-corruption",
            "audit": "shm-leak",
            "deadline": "deadline-at-risk",
        }
        for source, kind in cases.items():
            anomaly = det.classify(Signal(source, "subject"))
            assert anomaly.kind == kind
            assert anomaly.kind in ANOMALY_KINDS

    def test_unknown_source_raises(self):
        with pytest.raises(ValueError, match="unclassifiable"):
            Detector().classify(Signal("vibes", "x"))

    def test_risk_is_base_plus_blast_radius_capped(self):
        proposer = Proposer()
        for kind, base in BASE_RISK.items():
            assert kind in ACTION_KINDS
        quarantine = proposer.quarantine("t", blast_radius=0.5)
        assert quarantine.risk == 1.0  # 0.9 + 0.25 capped
        reclaim = Proposer().propose(
            Anomaly("shm-leak", "repro_x"), blast_radius=0.1
        )[0]
        assert reclaim.risk == pytest.approx(BASE_RISK["reclaim-segment"] + 0.05)

    def test_gate_boundary_is_inclusive(self):
        action = Proposer().propose(Anomaly("stuck-task", "t"))[0]
        assert RiskGate(action.risk).decide(action) == "apply"
        assert RiskGate(action.risk - 0.01).decide(action) == "recommend"

    def test_gate_validation(self):
        with pytest.raises(ValueError, match="risk_budget"):
            RiskGate(1.5)

    def test_first_applicable_respects_order(self):
        proposer = Proposer()
        cheap = proposer.propose(Anomaly("shm-leak", "s"))[0]
        pricey = proposer.quarantine("s")
        gate = RiskGate(0.5)
        assert gate.first_applicable([pricey, cheap]) is cheap
        assert RiskGate(0.0).first_applicable([pricey, cheap]) is None

    def test_crash_loop_proposal_depends_on_ladder_hint(self):
        proposer = Proposer()
        anomaly = Anomaly("crash-loop", "group:g0")
        mid_budget = proposer.propose(anomaly)
        assert [a.kind for a in mid_budget] == ["resubmit-task"]
        exhausted = proposer.propose(
            anomaly, ladder_hint="substrate:lanes→threads"
        )
        assert [a.kind for a in exhausted] == ["degrade"]
        assert "substrate:lanes→threads" in exhausted[0].detail

    def test_register_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown anomaly kind"):
            Proposer().register("gremlins", lambda a, b, h: [])

    def test_verifier_emits_paired_span(self):
        tracer = Tracer()
        verifier = Verifier(tracer)
        sup = Supervisor(SupervisePolicy(risk_budget=1.0), tracer=tracer)
        rec = sup.on_corruption("merge:0.5/4", "bad labels", blast_radius=0.1)
        assert rec.decision == "applied"
        verifier.resolve(rec, True, "re-ran clean")
        assert rec.verdict == "verified"
        verify = [r for r in tracer.records() if r.name == "supervise.verify"]
        assert verify and verify[-1].args["rid"] == rec.rid
        assert verify[-1].args["outcome"] == "verified"


# ----------------------------------------------------------------------
# ladder + circuit breaker
# ----------------------------------------------------------------------
class TestLadder:
    def test_declared_rung_order(self):
        ladder = DegradationLadder()
        assert ladder.rungs("lowering") == ("hybrid", "shard", "variant")
        assert ladder.rungs("kernel") == ("cellgraph", "bfs")
        assert ladder.rungs("substrate") == ("lanes", "threads", "serial")
        assert ladder.axes == ("kernel", "lowering", "substrate")

    def test_next_step_and_floor(self):
        ladder = DegradationLadder()
        step = ladder.next_step("substrate", "lanes")
        assert (step.source, step.target) == ("lanes", "threads")
        assert step.label == "substrate:lanes→threads"
        assert ladder.next_step("substrate", "serial") is None
        assert ladder.floor("substrate") == "serial"
        assert ladder.floor("lowering") == "variant"

    def test_every_default_step_descends_its_axis(self):
        ladder = DegradationLadder()
        for step in DEFAULT_LADDER:
            rungs = ladder.rungs(step.axis)
            assert rungs.index(step.target) == rungs.index(step.source) + 1

    def test_forked_ladder_rejected(self):
        from repro.supervise.ladder import LadderStep

        with pytest.raises(ValueError, match="chain"):
            DegradationLadder(
                (
                    LadderStep("substrate", "lanes", "threads"),
                    LadderStep("substrate", "lanes", "serial"),
                )
            )

    def test_breaker_trips_at_threshold(self):
        breaker = CircuitBreaker(threshold=2)
        assert not breaker.tripped("t")
        assert breaker.record_failure("t") is False
        assert breaker.record_failure("t") is True
        assert breaker.tripped("t")
        assert breaker.failures("t") == 2
        assert not breaker.tripped("other")

    def test_tripped_breaker_suppresses_and_quarantines(self):
        pol = SupervisePolicy(risk_budget=1.0, breaker_threshold=1)
        sup = Supervisor(pol)
        sup.breaker.record_failure("group:g0")
        rec, step = sup.on_exhausted(
            "group:g0", submissions=3, budget=3, blast_radius=0.1
        )
        assert step is None
        assert rec.decision == "suppressed"
        assert rec.action.kind == "quarantine"

    def test_exhaustion_walks_the_ladder(self):
        sup = Supervisor(SupervisePolicy(risk_budget=1.0))
        rec, step = sup.on_exhausted(
            "group:g0", submissions=3, budget=3, blast_radius=0.1,
            axis="substrate", rung="lanes",
        )
        assert rec.decision == "applied" and rec.action.kind == "degrade"
        assert (step.source, step.target) == ("lanes", "threads")
        rec2, step2 = sup.on_exhausted(
            "group:g0", submissions=4, budget=3, blast_radius=0.1,
            axis="substrate", rung="threads",
        )
        assert (step2.source, step2.target) == ("threads", "serial")
        rec3, step3 = sup.on_exhausted(
            "group:g0", submissions=5, budget=3, blast_radius=0.1,
            axis="substrate", rung="serial",
        )
        # Third strike trips the default breaker *and* serial is the
        # floor; either way no step comes back.
        assert step3 is None


# ----------------------------------------------------------------------
# knob threading
# ----------------------------------------------------------------------
class TestSuperviseKnob:
    def test_normalizer(self):
        assert as_supervise_policy(None) is None
        assert as_supervise_policy(False) is None
        assert as_supervise_policy(True) == SupervisePolicy()
        pol = SupervisePolicy(risk_budget=0.9)
        assert as_supervise_policy(pol) is pol
        with pytest.raises(TypeError, match="supervise"):
            as_supervise_policy(0.9)

    def test_policy_validation(self):
        with pytest.raises(ValidationError):
            SupervisePolicy(risk_budget=1.5)
        with pytest.raises(ValidationError):
            SupervisePolicy(stall_timeout_s=0.0)
        with pytest.raises(ValidationError):
            SupervisePolicy(poll_interval_s=-1.0)
        with pytest.raises(ValidationError):
            SupervisePolicy(deadline_risk_fraction=0.0)
        with pytest.raises(ValidationError):
            SupervisePolicy(breaker_threshold=0)

    def test_session_default_threads_to_context(self, points):
        with Session(points, supervise=True) as s:
            assert s.context().supervisor == SupervisePolicy()
            # Per-run False overrides the session default.
            assert s.context(supervise=False).supervisor is None

    def test_run_override_beats_session_default(self, points):
        pol = SupervisePolicy(risk_budget=0.9)
        with Session(points) as s:
            assert s.context().supervisor is None
            assert s.context(supervise=pol).supervisor is pol

    def test_executor_level_knob(self, points):
        from repro.exec import Executor

        ex = Executor("processes", supervise=True)
        assert ex.supervise == SupervisePolicy()
        assert "supervise" in repr(ex)
        with Session(points) as s:
            assert s.context(executor=ex).supervisor == SupervisePolicy()


# ----------------------------------------------------------------------
# seeded backoff jitter
# ----------------------------------------------------------------------
class TestBackoffJitter:
    POLICY = RetryPolicy(backoff_base_s=0.2, backoff_jitter=0.5, backoff_seed=7)

    def test_seeded_jitter_is_reproducible(self):
        a = [self.POLICY.backoff_s(i, key=3) for i in range(3)]
        b = [self.POLICY.backoff_s(i, key=3) for i in range(3)]
        assert a == b

    def test_distinct_keys_decorrelate(self):
        assert self.POLICY.backoff_s(1, key=3) != self.POLICY.backoff_s(1, key=4)

    def test_jitter_only_shortens(self):
        plain = RetryPolicy(backoff_base_s=0.2)
        for attempt in range(4):
            base = plain.backoff_s(attempt)
            jittered = self.POLICY.backoff_s(attempt, key=1)
            assert base * (1 - 0.5) <= jittered <= base

    def test_derive_rng_is_deterministic_per_path(self):
        a = derive_rng(7, 3, 1).random(4)
        b = derive_rng(7, 3, 1).random(4)
        c = derive_rng(7, 4, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


# ----------------------------------------------------------------------
# report + registry surfacing
# ----------------------------------------------------------------------
class TestSurfacing:
    def test_report_summary_counts_remediations(self):
        sup = Supervisor(SupervisePolicy(risk_budget=1.0))
        sup.on_corruption("merge:0.5/4", "bad", blast_radius=0.1)
        report = BatchReport()
        report.remediations.extend(sup.records)
        assert "1 remediations (1 applied)" in report.summary()
        rows = report.remediation_rows()
        assert rows[0]["anomaly"]["kind"] == "merge-corruption"
        assert rows[0]["action"]["kind"] == "resubmit-task"

    def test_registry_counts_supervise_events(self):
        tracer = Tracer()
        sup = Supervisor(SupervisePolicy(risk_budget=1.0), tracer=tracer)
        rec = sup.on_corruption("merge:0.5/4", "bad", blast_radius=0.1)
        sup.task_done("merge:0.5/4", True, "re-ran clean")
        sup.on_exhausted(
            "group:g0", submissions=3, budget=3, blast_radius=0.9,
        )
        reg = MetricsRegistry()
        reg.add_spans(tracer.records())
        events = reg.supervise_events()
        assert events["anomaly"] == 2
        assert events["apply"] >= 1
        assert events["verify"] == 1
        assert rec.verdict == "verified"


# ----------------------------------------------------------------------
# chaos soak grid (real process pools)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def proc_base(points):
    with Session(points) as s:
        return s.run(VSET4, executor="processes", n_threads=2)


@pytest.fixture(scope="module")
def shard_base(points):
    with Session(points) as s:
        return s.run(VSET4, executor="sharded", n_threads=2, regions=2)


class TestChaosSoak:
    def test_stuck_group_worker_is_respawned(self, points, proc_base):
        before = _repro_segments()
        plan = FaultPlan(
            [FaultSpec("stall", 1, attempt=0, phase="start", hang_s=30.0)]
        )
        with Session(points) as s:
            batch = s.run(
                VSET4, executor="processes", n_threads=2,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=2, deadline_s=60.0),
                supervise=AUTONOMOUS,
            )
        assert_byte_equal(batch, proc_base, VSET4)
        assert "stuck-task" in remediation_kinds(batch.report)
        applied = applied_records(batch.report)
        assert applied and all(r.verdict == "verified" for r in applied)
        assert any(r.action.kind == "respawn-lane" for r in applied)
        assert _repro_segments() <= before

    def test_group_exhaustion_degrades_down_the_ladder(self, points, proc_base):
        plan = FaultPlan(
            [FaultSpec("stall", 1, attempt=0, phase="start", hang_s=30.0)]
        )
        with Session(points) as s:
            batch = s.run(
                VSET4, executor="processes", n_threads=2,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=0, deadline_s=60.0),
                supervise=AUTONOMOUS,
            )
        # No submission budget left: the supervisor lowers the group off
        # the lanes substrate instead of failing the chain.
        assert_byte_equal(batch, proc_base, VSET4)
        degrades = [
            r for r in applied_records(batch.report)
            if r.action.kind == "degrade"
        ]
        assert degrades and all(r.verdict == "verified" for r in degrades)
        assert any(
            o.degraded for o in batch.report.outcomes.values() if o.degraded
        )

    def test_stuck_shard_worker_task_targeted(self, points, shard_base):
        v = VSET4[1]
        plan = FaultPlan(
            [
                FaultSpec(
                    "stall", -1, task=f"shard:{v.eps:g}/{v.minpts}#0",
                    attempt=0, phase="start", hang_s=30.0,
                )
            ]
        )
        with Session(points) as s:
            batch = s.run(
                VSET4, executor="sharded", n_threads=2, regions=2,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=2, deadline_s=60.0),
                supervise=AUTONOMOUS,
            )
        assert_byte_equal(batch, shard_base, VSET4)
        assert "stuck-task" in remediation_kinds(batch.report)
        applied = applied_records(batch.report)
        assert applied and all(r.verdict == "verified" for r in applied)

    def test_pipeline_lowers_shard_to_variant(self, points, shard_base):
        v = VSET4[1]
        plan = FaultPlan(
            [
                FaultSpec(
                    "stall", -1, task=f"shard:{v.eps:g}/{v.minpts}#0",
                    attempt=0, phase="start", hang_s=30.0,
                )
            ]
        )
        with Session(points) as s:
            batch = s.run(
                VSET4, executor="sharded", n_threads=2, regions=2,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=0, deadline_s=60.0),
                supervise=AUTONOMOUS,
            )
        # The degraded variant re-runs from scratch at the variant
        # lowering — byte-identical because sharded results are scratch
        # computations too.
        assert_byte_equal(batch, shard_base, VSET4)
        degrades = [
            r for r in applied_records(batch.report)
            if r.action.kind == "degrade"
        ]
        assert degrades and all(r.verdict == "verified" for r in degrades)
        degraded = {
            str(o.variant): o.degraded
            for o in batch.report.outcomes.values()
            if o.degraded
        }
        assert any("lowering" in d for d in degraded.values())

    def test_merge_corruption_gated_resubmit(self, points, shard_base):
        plan = FaultPlan([FaultSpec("corrupt", 1, attempt=0, phase="finish")])
        with Session(points) as s:
            batch = s.run(
                VSET4, executor="sharded", n_threads=2, regions=2,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=2, deadline_s=60.0),
                supervise=AUTONOMOUS,
            )
        assert_byte_equal(batch, shard_base, VSET4)
        assert "merge-corruption" in remediation_kinds(batch.report)
        applied = applied_records(batch.report)
        assert any(r.action.kind == "resubmit-task" for r in applied)
        assert all(r.verdict == "verified" for r in applied)

    def test_zero_budget_recommends_instead_of_healing(self, points):
        plan = FaultPlan([FaultSpec("corrupt", 1, attempt=0, phase="finish")])
        with Session(points) as s:
            batch = s.run(
                VSET4, executor="sharded", n_threads=2, regions=2,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=2, deadline_s=60.0),
                supervise=SupervisePolicy(
                    risk_budget=0.0, stall_timeout_s=1.0, poll_interval_s=0.1
                ),
            )
        # Nothing fits a zero budget: every decision is a recommendation
        # (operator visibility) and the corrupted variant stays failed.
        assert batch.report.remediations
        assert not applied_records(batch.report)
        assert batch.report.failed


# ----------------------------------------------------------------------
# the acceptance scenario
# ----------------------------------------------------------------------
def _dead_pid() -> int:
    proc = multiprocessing.Process(target=lambda: None)
    proc.start()
    proc.join()
    return proc.pid


@pytest.fixture
def orphan_segment():
    """A repro_* segment whose 'creator' pid is dead (a fake leak)."""
    name = f"repro_{_dead_pid()}_acc001"
    seg = shared_memory.SharedMemory(create=True, size=64, name=name)  # repro: allow[shm-lifecycle]
    seg.close()
    with contextlib.suppress(Exception):
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")
    yield name
    with contextlib.suppress(FileNotFoundError):
        stale = shared_memory.SharedMemory(name=name)  # repro: allow[shm-lifecycle]
        stale.close()
        stale.unlink()


class TestAcceptanceScenario:
    def test_chaos_batch_heals_without_intervention(
        self, points, orphan_segment, capsys
    ):
        tracer = Tracer()
        with Session(points, tracer=tracer) as s:
            base = s.run(
                VSET12, executor="hybrid", n_threads=2, shard_threshold=0
            )
            scratch = [
                r.variant for r in base.record.records if r.reused_from is None
            ]
            reused = [
                r.variant
                for r in base.record.records
                if r.reused_from is not None
            ]
            assert len(scratch) >= 2 and reused, (
                "scenario needs sharded scratch roots and a reuse chain"
            )
            stall_v, corrupt_v = scratch[0], scratch[1]
            crash_v = reused[0]
            crash_idx = list(VSET12).index(crash_v)
            corrupt_idx = list(VSET12).index(corrupt_v)
            plan = FaultPlan(
                [
                    # A shard worker wedges mid-task (heartbeat freezes).
                    FaultSpec(
                        "stall", -1,
                        task=f"shard:{stall_v.eps:g}/{stall_v.minpts}#0",
                        attempt=0, phase="start", hang_s=30.0,
                    ),
                    # A variant worker crash-loops (two worker deaths).
                    FaultSpec("kill", crash_idx, attempt=0, phase="start"),
                    FaultSpec("kill", crash_idx, attempt=1, phase="start"),
                    # One merge produces a corrupt stitched result.
                    FaultSpec(
                        "corrupt", corrupt_idx, attempt=0, phase="finish"
                    ),
                ]
            )
            batch = s.run(
                VSET12, executor="hybrid", n_threads=2, shard_threshold=0,
                fault_plan=plan,
                retry_policy=RetryPolicy(max_retries=2, deadline_s=120.0),
                supervise=AUTONOMOUS,
            )
        # Healed without intervention: every variant present, labels
        # identical to the fault-free run.
        assert set(batch.results) == set(base.results)
        assert_byte_equal(batch, base, VSET12)
        report = batch.report

        # Every injected calamity shows up as a typed anomaly with an
        # action, a risk score, and (when applied) a verifier outcome.
        kinds = remediation_kinds(report)
        assert {"stuck-task", "merge-corruption", "shm-leak"} <= kinds
        assert "crash-loop" in kinds or any(
            r.action is not None and r.action.kind == "replan-chain"
            for r in report.remediations
        )
        for rec in report.remediations:
            row = rec.as_dict()
            assert row["anomaly"]["kind"] in ANOMALY_KINDS
            if row["action"] is not None:
                assert 0.0 <= row["action"]["risk"] <= 1.0
        applied = applied_records(report)
        assert applied and all(r.verdict == "verified" for r in applied)

        # Every applied action is paired with a supervise.verify span
        # carrying its record id.
        spans = tracer.records()
        verified_rids = {
            r.args["rid"] for r in spans if r.name == "supervise.verify"
        }
        assert {r.rid for r in applied} <= verified_rids

        # The forged orphan was reclaimed during finalize...
        reclaims = [
            r
            for r in applied
            if r.action.kind == "reclaim-segment"
            and r.anomaly.subject == orphan_segment
        ]
        assert reclaims and reclaims[0].verdict == "verified"

        # ...so the doctor reports a clean machine.
        from repro.cli import main as cli_main

        assert cli_main(["doctor", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["orphaned"] == 0 and doc["anomalies"] == []

        # And the registry folds the supervise events in.
        reg = MetricsRegistry.from_batch(batch, tracer)
        events = reg.supervise_events()
        assert events.get("apply", 0) >= len(applied)
        assert events.get("verify", 0) >= len(applied)
        assert reg.meta["remediations"]["applied"] == len(applied)


# ----------------------------------------------------------------------
# doctor --watch / --json
# ----------------------------------------------------------------------
class TestDoctorWatch:
    def test_watch_clean_exits_zero(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["doctor", "--watch", "--interval", "0.01",
                       "--max-polls", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 2

    def test_watch_reports_orphan_and_exits_nonzero(
        self, orphan_segment, capsys
    ):
        from repro.cli import main as cli_main

        rc = cli_main(["doctor", "--watch", "--interval", "0.01",
                       "--max-polls", "1"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "shm-leak" in out and orphan_segment in out

    def test_watch_unlink_reclaims(self, orphan_segment, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["doctor", "--watch", "--unlink", "--interval", "0.01",
                       "--max-polls", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"reclaimed {orphan_segment}" in out
        assert orphan_segment not in _repro_segments()

    def test_json_schema_is_additive(self, orphan_segment, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["doctor", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        # Original keys stay (schema-stable for existing consumers)...
        assert {"segments", "orphaned", "removed"} <= set(doc)
        # ...new keys ride along.
        assert doc["schema"] == 2
        leaks = [a for a in doc["anomalies"] if a["subject"] == orphan_segment]
        assert leaks and leaks[0]["kind"] == "shm-leak"
