"""Outside-in layer spans for the traced run.

:func:`installed` wraps, for the duration of one traced repetition, the
public function each layer exposes at the module or class attribute
where the runtime looks it up.  Nothing in ``src/`` is changed.  Lane
workers are forked while the wrappers are installed, so they inherit
them; a worker appends its spans to ``<spool>/<pid>.jsonl`` when its
outermost wrapped call returns, and :meth:`Recorder.gather` reads them
back.  Every span is stamped with ``time.perf_counter``, which on Linux
is the system-wide monotonic clock, so parent and worker spans share
one time axis.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections.abc import Callable, Iterator
from pathlib import Path

#: ``(module, attribute path, span name)`` of every wrapped call site.
WRAPPED: tuple[tuple[str, str, str], ...] = (
    ("repro.exec._runner", "cellgraph_dbscan", "kernel.scratch"),
    ("repro.exec._runner", "variant_dbscan", "kernel.variant"),
    ("repro.exec.graph", "lower_variants", "taskgraph.lower"),
    ("repro.exec.graph", "plan_shards", "shard.plan"),
    ("repro.exec.graph", "cluster_shard", "shard.cluster"),
    ("repro.exec.graph", "merge_shards", "shard.merge"),
    ("repro.exec.graph", "share_index_pair", "engine.shm_share"),
    ("repro.exec.graph", "GraphRuntime.run", "exec.run"),
    ("repro.engine.factory", "IndexFactory.get", "index.get"),
    ("repro.core.scheduling", "SchedGreedy.plan", "scheduling.plan"),
)


class Recorder:
    """In-memory span log of one traced repetition and its lane workers."""

    def __init__(self, spool: Path) -> None:
        self.pid = os.getpid()
        self.spool = spool
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, t0: float, t1: float) -> None:
        """Record a span timed by the caller (benchmark-side stamps)."""
        self.spans.append(
            {"name": name, "id": f"{self.pid}:{next(self._ids)}", "parent": None,
             "pid": self.pid, "t0": t0, "t1": t1, "cpu_s": None}
        )

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Time the body; the yielded dict takes extra attributes."""
        pid = os.getpid()
        stack = self._stack()
        span = {"name": name, "id": f"{pid}:{next(self._ids)}",
                "parent": stack[-1]["id"] if stack else None, "pid": pid}
        stack.append(span)
        cpu0 = time.process_time()
        span["t0"] = time.perf_counter()
        try:
            yield span
        finally:
            span["t1"] = time.perf_counter()
            span["cpu_s"] = time.process_time() - cpu0
            stack.pop()
            self.spans.append(span)
            if pid != self.pid and not any(s["pid"] == pid for s in stack):
                self._flush(pid)

    def _flush(self, pid: int) -> None:
        """Append this worker's finished spans to its spool file."""
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        with open(self.spool / f"{pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in mine)

    def gather(self) -> list[dict]:
        """Every span, the workers' included, ordered by start time."""
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()
        self.spans.sort(key=lambda s: s["t0"])
        return self.spans


def _annotate(name: str, span: dict, args: tuple, kwargs: dict, out, before) -> None:
    """Layer-specific attributes read from a wrapped call."""
    if name == "kernel.variant":
        previous = args[2] if len(args) > 2 else kwargs.get("previous")
        span["name"] = "kernel.reuse" if previous is not None else "kernel.scratch"
    elif name == "taskgraph.lower":
        span["variant_tasks"] = len(out.variant_tasks())
        span["shard_tasks"] = len(out.shard_tasks())
        span["merge_tasks"] = len(out.merge_tasks())
    elif name == "shard.plan":
        span["regions"] = int(out.n_regions)
    elif name == "exec.run":
        span["substrate"] = args[0].substrate
    elif name == "index.get":
        span["kind"] = args[2] if len(args) > 2 else kwargs.get("kind")
        span["hit"] = len(args[0]) == before


def _wrap(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = len(args[0]) if name == "index.get" else None
        with recorder.span(name) as span:
            out = fn(*args, **kwargs)
            _annotate(name, span, args, kwargs, out, before)
            return out

    return wrapper


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[None]:
    """Wrap every :data:`WRAPPED` call site; restore them on exit.

    A missing module or attribute raises here, so a renamed call site
    fails the traced run instead of reporting 0 s for its layer.
    """
    restore: list[Callable[[], None]] = []
    try:
        for module, path, name in WRAPPED:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            own = attr in vars(owner)
            setattr(owner, attr, _wrap(recorder, name, original))
            restore.append(
                functools.partial(setattr, owner, attr, original)
                if own
                else functools.partial(delattr, owner, attr)
            )
        yield
    finally:
        for undo in reversed(restore):
            undo()
