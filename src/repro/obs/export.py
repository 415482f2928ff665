"""Trace export formats: JSONL (lossless round-trip) and Chrome trace.

JSONL is the machine-readable interchange format: one JSON object per
line, typed by a ``type`` field, loss-free — :func:`read_jsonl`
reconstructs a :class:`~repro.obs.registry.MetricsRegistry` whose
spans, variant rows, totals, cache and outcome-table stats, and
metadata compare equal to the original.  Line types:

``meta``
    Batch configuration labels (exactly one line, first).
``span``
    One :class:`~repro.util.tracing.SpanRecord` (wall span, ``phase:*``
    total, or instant event): ``name``, ``t0``, ``dur``, ``thread``,
    ``args``.
``variant``
    One per-variant row (reuse bookkeeping, times, counters).
``cache``
    Aggregated neighborhood-cache statistics (at most one line).
``search_outcomes``
    Aggregated search-outcome table statistics (at most one line).

The Chrome trace export targets ``chrome://tracing`` / Perfetto:
complete (``"ph": "X"``) events in microseconds, one track per worker
thread, instant (``"ph": "i"``) events for evictions and one-off
stats, and a separate process track for spans on the modeled clock.  It is a *view*, not an interchange format — phase totals from
an accumulating clock are rendered as one block at the phase's first
entry, so overlapping blocks on a track mean interleaved phases, not
double-counted time.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.metrics.counters import WorkCounters
from repro.obs.registry import MetricsRegistry
from repro.util.tracing import SpanRecord

__all__ = ["CHROME_PIDS", "write_jsonl", "read_jsonl", "write_chrome_trace"]

PathLike = str | Path


def write_jsonl(path: PathLike, registry: MetricsRegistry) -> None:
    """Serialize ``registry`` to one JSON object per line."""
    lines: list[str] = [json.dumps({"type": "meta", **registry.meta})]
    for s in registry.spans:
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "name": s.name,
                    "t0": s.t0,
                    "dur": s.dur,
                    "thread": s.thread,
                    "args": s.args,
                }
            )
        )
    for row in registry.variant_rows:
        lines.append(json.dumps({"type": "variant", **row}))
    if registry.cache is not None:
        lines.append(json.dumps({"type": "cache", **registry.cache}))
    if registry.search_outcomes is not None:
        lines.append(
            json.dumps({"type": "search_outcomes", **registry.search_outcomes})
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_jsonl(path: PathLike) -> MetricsRegistry:
    """Load a :func:`write_jsonl` file back into a registry."""
    reg = MetricsRegistry()
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        kind = obj.pop("type")
        if kind == "meta":
            reg.meta = obj
        elif kind == "span":
            reg.spans.append(
                SpanRecord(obj["name"], obj["t0"], obj["dur"],
                           obj.get("thread", ""), obj.get("args", {}))
            )
        elif kind == "variant":
            reg.variant_rows.append(obj)
            reg.totals.merge(WorkCounters(**obj["counters"]))
        elif kind == "cache":
            reg.cache = obj
        elif kind == "search_outcomes":
            reg.search_outcomes = obj
        else:
            raise ValueError(f"unknown trace line type {kind!r} in {path}")
    return reg


#: Chrome-trace process tracks: spans on the modeled work-unit clock
#: (``args["clock"] == "modeled"``) never share a track with seconds.
CHROME_PIDS = {"wall": 0, "modeled": 1}


def write_chrome_trace(path: PathLike, registry: MetricsRegistry) -> None:
    """Render ``registry`` as a Chrome trace-event JSON file.

    Wall spans go to process 0; spans on the modeled clock (the ``sim``
    substrate's ``task`` spans, whose ``dur`` is in work units) go to
    process 1, rebased separately, so neither timeline distorts the
    other.
    """
    events: list[dict] = []
    threads: dict[tuple[int, str], int] = {}

    def pid_of(s: SpanRecord) -> int:
        return CHROME_PIDS["modeled" if s.args.get("clock") == "modeled" else "wall"]

    # Rebase each clock onto its earliest timestamp so the viewer opens
    # at t = 0.
    t_base: dict[int, float] = {}
    for s in registry.spans:
        pid = pid_of(s)
        t_base[pid] = min(t_base.get(pid, s.t0), s.t0)
    for s in registry.spans:
        pid = pid_of(s)
        tid = threads.setdefault((pid, s.thread), len(threads))
        event = {
            "name": s.name,
            "pid": pid,
            "tid": tid,
            "ts": (s.t0 - t_base[pid]) * 1e6,
            "args": s.args,
        }
        if s.dur > 0.0:
            event["ph"] = "X"
            event["dur"] = s.dur * 1e6
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    for (pid, thread), t in threads.items():
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": t,
             "args": {"name": thread}}
        )
    for clock, pid in CHROME_PIDS.items():
        if pid in t_base:
            events.append(
                {"name": "process_name", "ph": "M", "pid": pid,
                 "args": {"name": f"{clock} clock"}}
            )
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": registry.meta,
    }
    Path(path).write_text(json.dumps(doc))
