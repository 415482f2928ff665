"""trace-race: replay tracer output against the DAG's happens-before.

The static rules prove the *code* orders donor reads behind hard deps;
this module checks that a *run* actually honored that order.  Input is
the JSONL trace written by ``repro trace --jsonl`` /
:meth:`MetricsRegistry.to_jsonl`: every ``task`` span carries
``args = {"kind": ..., "id": ..., "deps": [...], "clock": ...}`` naming
the :mod:`repro.core.taskgraph` node it executed, that node's **hard**
dependencies (soft deps ride in a separate ``soft`` key and impose no
order), and the clock of its interval: ``wall`` (``perf_counter``
seconds, shared by the parent and its workers) or ``modeled`` (the
``sim`` substrate's work units; spans without the tag count as wall).
Happens-before is checked within one clock, where it reduces to
interval arithmetic:

    for every span S and every hard dep ``d`` of S that produced at
    least one span on S's clock, some span of ``d`` must FINISH before
    S STARTS (within ``tolerance``).

A dep with *no* spans is skipped, deliberately: a donor that died
permanently never emits a span, and the supervised runtime re-plans
the dependent onto survivors — that is recovery, not a race.  A dep
with spans, none of which finish in time, means the runtime dispatched
a consumer while its producer was still running: exactly the overlap
the ``dag-soundness`` rule exists to prevent.

Violations are ordinary :class:`Finding` objects (rule ``trace-race``)
anchored to the offending span's line in the JSONL file, so the CLI,
``--json`` and SARIF plumbing all apply unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding, snippet_hash

__all__ = [
    "TRACE_RULE_ID",
    "TaskSpan",
    "check_trace",
    "check_traces",
    "read_task_spans",
]

TRACE_RULE_ID = "trace-race"

#: Same-clock slack: two stamps closer than this are simultaneous.
DEFAULT_TOLERANCE_S = 1e-6


@dataclass(frozen=True)
class TaskSpan:
    """One replayed ``task`` span: a DAG node's execution interval."""

    task_id: str
    kind: str
    deps: tuple[str, ...]
    t0: float
    dur: float
    thread: str
    line: int  # 1-based line in the JSONL file
    clock: str = "wall"

    @property
    def end(self) -> float:
        return self.t0 + self.dur


def read_task_spans(path: str | Path) -> list[TaskSpan]:
    """Parse the ``task`` spans out of a JSONL trace file.

    Non-span lines (meta, variant rows, cache stats) and spans of other
    names are ignored; a line that is not JSON raises ``ValueError``
    with the offending line number.
    """
    spans: list[TaskSpan] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from exc
        if obj.get("type") != "span" or obj.get("name") != "task":
            continue
        args = obj.get("args") or {}
        task_id = str(args.get("id", ""))
        if not task_id:
            continue
        spans.append(
            TaskSpan(
                task_id=task_id,
                kind=str(args.get("kind", "")),
                deps=tuple(str(d) for d in args.get("deps") or ()),
                t0=float(obj.get("t0", 0.0)),
                dur=float(obj.get("dur", 0.0)),
                thread=str(obj.get("thread", "")),
                line=lineno,
                clock=str(args.get("clock", "wall")),
            )
        )
    return spans


def check_trace(
    path: str | Path,
    *,
    tolerance: float = DEFAULT_TOLERANCE_S,
) -> list[Finding]:
    """Happens-before violations in one trace file, as findings."""
    spans = read_task_spans(path)
    by_id: dict[tuple[str, str], list[TaskSpan]] = {}
    for span in spans:
        by_id.setdefault((span.clock, span.task_id), []).append(span)
    source = Path(path).read_text()
    findings: list[Finding] = []
    for span in spans:
        for dep in span.deps:
            producers = by_id.get((span.clock, dep))
            if not producers:
                # Never traced: the producer died and the dependent was
                # re-planned — recovery, not a race.
                continue
            if any(p.end <= span.t0 + tolerance for p in producers):
                continue
            earliest = min(p.end for p in producers)
            findings.append(
                Finding(
                    path=str(path),
                    line=span.line,
                    rule=TRACE_RULE_ID,
                    message=(
                        f"{span.kind} task {span.task_id} started at "
                        f"t={span.t0:.6f} but its hard dep {dep} has "
                        f"{len(producers)} span(s), none finished by then "
                        f"(earliest finish t={earliest:.6f}): the runtime "
                        "dispatched a consumer before its producer "
                        "completed"
                    ),
                    qualname=span.task_id,
                    snippet_hash=snippet_hash(source, span.line),
                )
            )
    return findings


def check_traces(
    paths: list[str | Path],
    *,
    tolerance: float = DEFAULT_TOLERANCE_S,
) -> tuple[list[Finding], dict[str, int]]:
    """Check many trace files; ``(findings, spans-checked per file)``."""
    findings: list[Finding] = []
    checked: dict[str, int] = {}
    for path in paths:
        checked[str(path)] = len(read_task_spans(path))
        findings.extend(check_trace(path, tolerance=tolerance))
    findings.sort(key=lambda f: f.sort_key())
    return findings, checked
