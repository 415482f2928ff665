"""Low-overhead phase-level tracing primitives.

The paper's throughput story (Sections IV-V) is a story about *where*
time goes — index descent vs. epsilon filter vs. reuse boundary sweep
vs. outer-point scan — so the observability layer times the clustering
kernels at **phase** granularity: one timed region per algorithmic
phase per cluster/variant, never per point.  Two primitives cover
every instrumentation site:

:class:`Span`
    A ``with``-style timed region on the monotonic clock
    (:func:`time.perf_counter`).  Spans nest; each records its wall
    interval, the worker thread that ran it, and free-form ``args``
    (``variant=...`` etc.).  Used for coarse regions: one per variant
    execution, one per batch.
:class:`PhaseClock`
    An accumulating *partition* timer: exactly one phase is active at
    a time, and ``switch(name)`` moves the clock between phases.  The
    clustering kernels switch phases at cluster granularity (founder
    found -> ``expand``, expansion done -> back to ``outer_scan``), so
    the emitted per-phase totals partition the variant's wall time
    exactly — which is what lets the JSONL consistency check assert
    "phases sum to wall-clock".

Both are **null objects when tracing is disabled**: the module-level
active tracer defaults to a :class:`NullTracer` whose ``span()`` /
``phase_clock()`` return shared do-nothing singletons, so an
uninstrumented run pays one no-op method call per *phase boundary*
(thousands per run, not millions) and allocates nothing.

Thread-safety: record emission appends under a lock, so a single
:class:`Tracer` may be shared by every thread of a process.
Process workers build their own tracer and ship their records back for
merging (see :mod:`repro.exec.graph`).

Layering: this module lives in :mod:`repro.util` (stdlib-only, the
bottom layer) so the clustering kernels in :mod:`repro.core` can emit
phases without importing the observability subsystem; the public
surface is re-exported by :mod:`repro.obs`, where the registry/export
machinery builds on it.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "SpanRecord",
    "Span",
    "PhaseClock",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "resolve_tracer",
    "PHASE_PREFIX",
    "SPAN_SHARD",
    "SPAN_TASK",
]

#: Records whose name starts with this prefix are per-phase time
#: totals emitted by a :class:`PhaseClock`; everything else is a wall
#: span or an instant event.
PHASE_PREFIX = "phase:"

#: Span name carrying task identity in the task-graph runtime: every
#: record has ``args = {"kind", "id", "deps", "soft", "clock"}`` naming
#: the :mod:`repro.core.taskgraph` node it executed (``kind`` one of
#: ``variant`` / ``shard`` / ``merge``) and the clock of ``t0``/``dur``:
#: ``"modeled"`` work units on the ``sim`` substrate, ``"wall"``
#: seconds everywhere else.
SPAN_TASK = "task"

#: Span emitted around one region's clustering by
#: :func:`repro.core.shard.cluster_shard`; ``args`` carry the
#: ``variant`` label and the region/owned/slab sizes.
SPAN_SHARD = "shard"


@dataclass
class SpanRecord:
    """One completed timed region (or instant event, ``dur == 0``).

    Plain data and picklable, so process-pool workers can ship their
    records back to the parent for merging.  ``t0`` is seconds on the
    emitting tracer's monotonic clock; merged records are rebased onto
    the parent's timeline by :meth:`Tracer.add_records`.
    """

    name: str
    t0: float
    dur: float
    thread: str = ""
    args: dict = field(default_factory=dict)


class Span:
    """A single in-flight timed region; use as a context manager."""

    __slots__ = ("_tracer", "name", "args", "_t0")

    def __init__(self, tracer: Tracer, name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._t0 = 0.0

    def set(self, **args) -> Span:
        """Attach (or overwrite) args after the span has started."""
        self.args.update(args)
        return self

    def __enter__(self) -> Span:
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        self._tracer._emit(SpanRecord(self.name, self._t0, t1 - self._t0,
                                      threading.current_thread().name, self.args))


class _NullSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    def set(self, **args) -> _NullSpan:
        return self

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc) -> None:
        pass


class PhaseClock:
    """Accumulating partition timer over named phases.

    Exactly one phase is active at a time; :meth:`switch` closes the
    current phase and opens the next (opening when none is active, so
    callers need not distinguish the first switch).  :meth:`finish`
    closes the active phase and emits one ``phase:<name>`` record per
    phase with its *total* accumulated duration and the time the phase
    was first entered — the per-phase totals partition the interval
    from the first :meth:`switch` to :meth:`finish` exactly.
    """

    __slots__ = ("_tracer", "_args", "_acc", "_first", "_cur", "_cur_t0")

    def __init__(self, tracer: Tracer, args: dict) -> None:
        self._tracer = tracer
        self._args = args
        self._acc: dict[str, float] = {}
        self._first: dict[str, float] = {}
        self._cur: str | None = None
        self._cur_t0 = 0.0

    def switch(self, name: str) -> None:
        """Close the active phase (if any) and start ``name``."""
        t = time.perf_counter()
        cur = self._cur
        if cur is not None:
            self._acc[cur] = self._acc.get(cur, 0.0) + (t - self._cur_t0)
        if name not in self._first:
            self._first[name] = t
        self._cur = name
        self._cur_t0 = t

    def finish(self) -> None:
        """Close the active phase and emit the per-phase total records."""
        t = time.perf_counter()
        cur = self._cur
        if cur is not None:
            self._acc[cur] = self._acc.get(cur, 0.0) + (t - self._cur_t0)
            self._cur = None
        thread = threading.current_thread().name
        for name, dur in self._acc.items():
            self._tracer._emit(
                SpanRecord(PHASE_PREFIX + name, self._first[name], dur,
                           thread, dict(self._args))
            )
        self._acc.clear()
        self._first.clear()


class _NullPhaseClock:
    """Shared do-nothing phase clock returned by a disabled tracer."""

    __slots__ = ()

    def switch(self, name: str) -> None:
        pass

    def finish(self) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_PHASE_CLOCK = _NullPhaseClock()


class Tracer:
    """Thread-safe collector of span / phase / instant records."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []

    # -- emission -----------------------------------------------------------
    def _emit(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def span(self, name: str, **args) -> Span:
        """Open a wall span; use as ``with tracer.span("variant", ...):``."""
        return Span(self, name, args)

    def phase_clock(self, **args) -> PhaseClock:
        """New partition timer; ``args`` (e.g. ``variant=``) tag every phase."""
        return PhaseClock(self, args)

    def instant(self, name: str, **args) -> None:
        """Record a zero-duration event (evictions, one-off stats)."""
        self._emit(SpanRecord(name, time.perf_counter(), 0.0,
                              threading.current_thread().name, args))

    # -- collection ---------------------------------------------------------
    def records(self) -> list[SpanRecord]:
        """Copy of everything recorded so far."""
        with self._lock:
            return list(self._records)

    def drain(self) -> list[SpanRecord]:
        """Remove and return everything recorded so far."""
        with self._lock:
            out = self._records
            self._records = []
        return out

    def add_records(
        self,
        records: list[SpanRecord],
        *,
        thread: str | None = None,
        offset: float = 0.0,
    ) -> None:
        """Merge records from another tracer (e.g. a process worker).

        ``offset`` rebases the foreign monotonic timestamps onto this
        tracer's timeline; ``thread`` relabels the originating worker.
        """
        rebased = [
            SpanRecord(r.name, r.t0 + offset, r.dur,
                       thread if thread is not None else r.thread, r.args)
            for r in records
        ]
        with self._lock:
            self._records.extend(rebased)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class NullTracer(Tracer):
    """Disabled tracer: every primitive is a shared no-op singleton."""

    enabled = False

    def span(self, name: str, **args) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def phase_clock(self, **args) -> _NullPhaseClock:  # type: ignore[override]
        return _NULL_PHASE_CLOCK

    def instant(self, name: str, **args) -> None:
        pass

    def _emit(self, record: SpanRecord) -> None:
        pass


#: The process-wide default tracer (disabled).
NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The active tracer (a disabled :class:`NullTracer` by default)."""
    return _active


def set_tracer(tracer: Tracer | None) -> None:
    """Install ``tracer`` as the active tracer (``None`` disables)."""
    global _active
    _active = tracer if tracer is not None else NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[Tracer]:
    """Temporarily install ``tracer`` as the active tracer."""
    previous = _active
    set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(previous)


def resolve_tracer(tracer: Tracer | None) -> Tracer:
    """``tracer`` itself, or the active tracer when ``None``.

    The instrumented kernels and executors all accept ``tracer=None``
    and resolve through here, so installing a tracer with
    :func:`set_tracer` / :func:`use_tracer` enables tracing everywhere
    without threading a handle through every call site.
    """
    return tracer if tracer is not None else _active
