"""Executor contract: backends are table rows, dispatched by one runtime.

The recovery-transparency grid (tests/test_resilience.py) and the
canonical-label equivalence suite hold *because* every backend is a row
of the ``EXECUTORS`` table in ``repro.exec.graph`` — a ``(substrate,
mode)`` pair — run by one :class:`~repro.exec.graph.Executor` class
through the one dispatch loop of
:class:`~repro.exec.graph.GraphRuntime`, which owns every worker pool
and routes fault handling through
:class:`repro.resilience.runner.ResilientRunner` (the consumer of the
:class:`FaultPlan`).  dislib's history shows what happens when
distributed backends drift: one backend grows a keyword the others
lack, and every cross-backend equivalence claim silently narrows.
This rule pins the contract:

* every ``EXECUTORS`` row is keyed by a string name and built as
  ``Backend(substrate, mode, ...)`` with a substrate that is a key of
  ``SUBSTRATES`` and a mode in ``repro.core.taskgraph.LOWERING_MODES``
  (or ``None``: derived from the context);
* ``repro.exec`` holds exactly one executor class (a class defining
  ``run_context``, or deriving from one); its ``run_context`` takes
  exactly ``(self, ctx, variants)`` and references ``GraphRuntime`` —
  an executor that bypasses the runtime silently ignores the FaultPlan
  and retry budgets the runtime's ResilientRunner consumes;
* no module under ``repro.exec`` other than ``repro.exec.graph``
  spawns workers (``ProcessPoolExecutor`` / ``ThreadPoolExecutor`` /
  ``threading.Thread`` / ``multiprocessing.Process``);
* supervision discipline: heartbeat emitters (``worker_pulse``) are
  constructed only inside ``repro.exec.graph`` workers (and the
  defining module ``repro.supervise.signals``) — a pulse beating
  outside the runtime would fake liveness for work the supervisor
  cannot see — and remediation :class:`Action` objects are built only
  through the :class:`~repro.supervise.remedy.Proposer` registry in
  ``repro.supervise.remedy``, so every action the runtime executes is
  one the registry proposed and the risk gate scored.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.visitor import ModuleFile, Project, ProjectRule, finding_at

__all__ = ["ExecutorContractRule"]

_EXEC_PACKAGE = "repro.exec"
#: The one module allowed to spawn workers; it also holds the table.
_RUNTIME_MODULE = f"{_EXEC_PACKAGE}.graph"
_LOWERING_MODULE = "repro.core.taskgraph"
_TABLE_NAME = "EXECUTORS"
_SUBSTRATES_NAME = "SUBSTRATES"
_MODES_NAME = "LOWERING_MODES"
_ROW_CLASS = "Backend"
_RUNTIME_NAME = "GraphRuntime"
#: The executor hook the session calls, and its pinned parameters.
_HOOK = "run_context"
_HOOK_PARAMS = ["self", "ctx", "variants"]
#: Worker-spawning names banned everywhere else under repro.exec.
_POOL_NAMES = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})
#: module name -> attribute that spawns a worker.
_POOL_ATTRS = {"threading": "Thread", "multiprocessing": "Process"}

#: Supervision call discipline: callable name -> modules allowed to
#: call it.  ``worker_pulse`` builds the heartbeat emitter (defined in
#: signals, beaten only by the runtime's workers); ``Action`` is the
#: remediation dataclass (constructed only by the Proposer registry).
_SUPERVISE_SITES = {
    "worker_pulse": frozenset({"repro.supervise.signals", _RUNTIME_MODULE}),
    "Action": frozenset({"repro.supervise.remedy"}),
}


def _param_names(fn: ast.FunctionDef) -> list[str]:
    return [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]


def _base_names(cls: ast.ClassDef) -> list[str]:
    return [
        b.id if isinstance(b, ast.Name) else b.attr
        for b in cls.bases
        if isinstance(b, (ast.Name, ast.Attribute))
    ]


def _assigned(mf: ModuleFile | None, name: str) -> ast.expr | None:
    """The value of the module-level assignment to ``name``, if any."""
    if mf is None:
        return None
    for node in mf.tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return value
    return None


def _strings(node: ast.expr | None) -> set[str] | None:
    """String constants of a tuple/list/set literal or a dict's keys."""
    if isinstance(node, ast.Dict):
        elts = [k for k in node.keys if k is not None]
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        elts = node.elts
    else:
        return None
    return {
        e.value
        for e in elts
        if isinstance(e, ast.Constant) and isinstance(e.value, str)
    }


def _row_field(row: ast.Call, index: int, name: str) -> ast.expr | None:
    if len(row.args) > index:
        return row.args[index]
    return next((k.value for k in row.keywords if k.arg == name), None)


def _pool_spawn_sites(tree: ast.AST) -> list[tuple[ast.AST, str]]:
    """Every ``(node, spawned_name)`` that creates a worker pool/thread."""
    sites: list[tuple[ast.AST, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in _POOL_NAMES:
                    sites.append((node, alias.name))
        elif isinstance(node, ast.Name) and node.id in _POOL_NAMES:
            sites.append((node, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in _POOL_NAMES:
            sites.append((node, node.attr))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and _POOL_ATTRS.get(node.value.id) == node.attr
        ):
            sites.append((node, f"{node.value.id}.{node.attr}"))
    return sites


class ExecutorContractRule(ProjectRule):
    rule_id = "executor-contract"
    description = (
        "EXECUTORS rows name a known substrate and lowering mode, one "
        "Executor class dispatches through GraphRuntime (the FaultPlan "
        "consumer), and only repro.exec.graph spawns workers"
    )

    def _finding(self, mf: ModuleFile, node: ast.AST, message: str) -> Finding:
        return finding_at(mf, node, self.rule_id, message)

    def _table(self, project: Project) -> list[Finding]:
        """Every EXECUTORS row names a known substrate and mode."""
        runtime = project.get(_RUNTIME_MODULE)
        table = _assigned(runtime, _TABLE_NAME)
        if runtime is None or table is None:
            return []
        if not isinstance(table, ast.Dict):
            return [self._finding(
                runtime, table,
                f"{_TABLE_NAME} must be a dict literal of "
                f"name -> {_ROW_CLASS}(substrate, mode) rows",
            )]
        substrates = _strings(_assigned(runtime, _SUBSTRATES_NAME))
        modes = _strings(_assigned(project.get(_LOWERING_MODULE), _MODES_NAME))
        findings: list[Finding] = []
        for key, row in zip(table.keys, table.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                findings.append(self._finding(
                    runtime, key or row,
                    f"{_TABLE_NAME} rows must be keyed by a string name",
                ))
                continue
            if not (
                isinstance(row, ast.Call)
                and isinstance(row.func, ast.Name)
                and row.func.id == _ROW_CLASS
            ):
                findings.append(self._finding(
                    runtime, row,
                    f"{_TABLE_NAME}[{key.value!r}] must be a "
                    f"{_ROW_CLASS}(substrate, mode) row",
                ))
                continue
            substrate = _row_field(row, 0, "substrate")
            if substrates is not None and not (
                isinstance(substrate, ast.Constant)
                and substrate.value in substrates
            ):
                findings.append(self._finding(
                    runtime, row,
                    f"{_TABLE_NAME}[{key.value!r}] names substrate "
                    f"{ast.unparse(substrate) if substrate else None}; "
                    f"expected one of {sorted(substrates)}",
                ))
            mode = _row_field(row, 1, "mode")
            if modes is not None and not (
                isinstance(mode, ast.Constant)
                and (mode.value is None or mode.value in modes)
            ):
                findings.append(self._finding(
                    runtime, row,
                    f"{_TABLE_NAME}[{key.value!r}] names lowering mode "
                    f"{ast.unparse(mode) if mode else None}; expected None "
                    f"or one of {sorted(modes)}",
                ))
        return findings

    def _executor_classes(self, project: Project) -> list[Finding]:
        """Exactly one executor class, and it lowers through the runtime."""
        classes: list[tuple[ModuleFile, ast.ClassDef]] = []
        for mf in project.in_package(_EXEC_PACKAGE):
            for node in mf.tree.body:
                if isinstance(node, ast.ClassDef) and any(
                    isinstance(s, ast.FunctionDef) and s.name == _HOOK
                    for s in node.body
                ):
                    classes.append((mf, node))
        names = {cls.name for _, cls in classes}
        for mf in project.in_package(_EXEC_PACKAGE):
            for node in mf.tree.body:
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name not in names
                    and set(_base_names(node)) & names
                ):
                    classes.append((mf, node))
        findings: list[Finding] = []
        for mf, cls in classes[1:]:
            first = classes[0][1].name
            findings.append(self._finding(
                mf, cls,
                f"second executor class {cls.name} (besides {first}); "
                f"backends are {_TABLE_NAME} rows, not classes",
            ))
        for mf, cls in classes[:1]:
            hook = next(
                (s for s in cls.body
                 if isinstance(s, ast.FunctionDef) and s.name == _HOOK),
                None,
            )
            if hook is None:
                continue
            got = _param_names(hook)
            if got != _HOOK_PARAMS or hook.args.vararg or hook.args.kwonlyargs:
                findings.append(self._finding(
                    mf, hook,
                    f"{cls.name}.{_HOOK} signature is ({', '.join(got)}); "
                    f"the contract is ({', '.join(_HOOK_PARAMS)})",
                ))
            if not any(
                isinstance(n, ast.Name) and n.id == _RUNTIME_NAME
                for n in ast.walk(hook)
            ):
                findings.append(self._finding(
                    mf, hook,
                    f"{cls.name}.{_HOOK} never references {_RUNTIME_NAME}; "
                    "the executor would bypass the task-graph runtime and "
                    "ignore FaultPlan / retry budgets",
                ))
        if not classes and project.get(_RUNTIME_MODULE) is not None:
            runtime = project.get(_RUNTIME_MODULE)
            findings.append(self._finding(
                runtime, runtime.tree,
                f"no executor class defines {_HOOK}(self, ctx, variants)",
            ))
        return findings

    def _pool_spawns(self, project: Project) -> list[Finding]:
        """One finding per worker kind a non-runtime exec module spawns."""
        findings: list[Finding] = []
        for mf in project.in_package(_EXEC_PACKAGE):
            if mf.module == _RUNTIME_MODULE:
                continue
            seen: set[str] = set()
            for node, spawned in _pool_spawn_sites(mf.tree):
                if spawned in seen:
                    continue
                seen.add(spawned)
                findings.append(self._finding(
                    mf, node,
                    f"{mf.module} spawns workers ({spawned}); only "
                    f"{_RUNTIME_MODULE} may own pools",
                ))
        return findings

    def _supervision_sites(self, project: Project) -> list[Finding]:
        """Flag worker_pulse / Action construction outside sanctioned modules."""
        findings: list[Finding] = []
        for module, mf in sorted(project.modules.items()):
            for node in ast.walk(mf.tree):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                if isinstance(fn, ast.Name):
                    called = fn.id
                elif isinstance(fn, ast.Attribute):
                    called = fn.attr
                else:
                    continue
                allowed = _SUPERVISE_SITES.get(called)
                if allowed is None or module in allowed:
                    continue
                where = " / ".join(sorted(allowed))
                what = (
                    "heartbeat emitters are constructed"
                    if called == "worker_pulse"
                    else "remediation actions are proposed"
                )
                findings.append(self._finding(
                    mf, node,
                    f"{module} calls {called}(); {what} only in {where}",
                ))
        return findings

    def check(self, project: Project) -> list[Finding]:
        return [
            *self._supervision_sites(project),
            *self._table(project),
            *self._executor_classes(project),
            *self._pool_spawns(project),
        ]
