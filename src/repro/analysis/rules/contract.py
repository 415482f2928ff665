"""Executor contract: executors are table rows, run by one runtime.

The recovery-transparency grid (tests/test_resilience.py), the fault
matrix (tests/test_fault_matrix.py) and the canonical-label equivalence
suite hold *because* an executor is only a name: a row of the
``EXECUTORS`` table in ``repro.exec.graph`` — a ``(substrate, mode)``
pair — that the one row-running function ``run_executor`` hands to
:class:`~repro.exec.graph.GraphRuntime`, whose dispatch loop owns every
worker pool and routes every failure through
:class:`repro.resilience.recovery.Recovery` (the consumer of the
:class:`FaultPlan` and the one place that decides retry, degrade or
fail).  dislib's history shows what happens when
distributed backends drift: one backend grows a keyword the others
lack, and every cross-backend equivalence claim silently narrows.
This rule pins the contract:

* every ``EXECUTORS`` row is keyed by a string name and built as
  ``Backend(substrate, mode, ...)`` with a substrate that is a key of
  ``SUBSTRATES`` and a mode in ``repro.core.taskgraph.LOWERING_MODES``
  (or ``None``: derived from the context);
* no class under ``repro.exec`` defines ``run_context``: an executor
  class would carry its own copies of the run knobs;
* ``repro.exec.graph`` defines ``run_executor(name, ctx, variants)``,
  it references ``GraphRuntime``, and it is the only function that
  looks a row up (``EXECUTORS[...]`` / ``EXECUTORS.get``) — a path
  that bypasses the runtime silently ignores the FaultPlan and retry
  budgets the runtime's Recovery consumes;
* no module other than ``repro.exec.graph`` spawns workers
  (``ProcessPoolExecutor`` / ``ThreadPoolExecutor`` /
  ``threading.Thread`` / ``multiprocessing.Process``);
* supervision discipline: heartbeat emitters (``worker_pulse``) are
  constructed only inside ``repro.exec.graph`` workers (and the
  defining module ``repro.supervise.signals``) — a pulse beating
  outside the runtime would fake liveness for work the supervisor
  cannot see — and remediation :class:`Action` and
  :class:`RemediationRecord` objects are built only in
  ``repro.resilience.recovery``, so every action the runtime executes
  and every record a report carries came from the recovery table and
  its risk gate.
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
#: The one row-running function, and its pinned parameters.
_RUNNER = "run_executor"
_RUNNER_PARAMS = ["name", "ctx", "variants"]
#: The method an executor class would carry; no class may define it.
_HOOK = "run_context"
#: Worker-spawning names banned outside the runtime module.
_POOL_NAMES = frozenset({"ProcessPoolExecutor", "ThreadPoolExecutor"})
#: module name -> attribute that spawns a worker.
_POOL_ATTRS = {"threading": "Thread", "multiprocessing": "Process"}

#: The module that holds the recovery table.
_RECOVERY_MODULE = "repro.resilience.recovery"

#: Supervision call discipline: callable name -> modules allowed to
#: call it.  ``worker_pulse`` builds the heartbeat emitter (defined in
#: signals, beaten only by the runtime's workers); ``Action`` and
#: ``RemediationRecord`` are built only by the recovery table.
_SUPERVISE_SITES = {
    "worker_pulse": frozenset({"repro.supervise.signals", _RUNTIME_MODULE}),
    "Action": frozenset({_RECOVERY_MODULE}),
    "RemediationRecord": frozenset({_RECOVERY_MODULE}),
}


def _param_names(fn: ast.FunctionDef) -> list[str]:
    return [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]


def _row_lookups(fn: ast.FunctionDef) -> list[ast.AST]:
    """``EXECUTORS[...]`` subscripts and ``EXECUTORS.get`` reads in ``fn``."""
    return [
        node
        for node in ast.walk(fn)
        if (isinstance(node, ast.Subscript) or (
            isinstance(node, ast.Attribute) and node.attr == "get"
        ))
        and isinstance(node.value, ast.Name)
        and node.value.id == _TABLE_NAME
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
        "EXECUTORS rows name a known substrate and lowering mode, no "
        "executor class exists, run_executor is the one row-running path "
        "and goes through GraphRuntime (the FaultPlan consumer), and only "
        "repro.exec.graph spawns workers"
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
        """No class under repro.exec defines the executor hook."""
        return [
            self._finding(
                mf, node,
                f"class {node.name} defines {_HOOK}; executors are "
                f"{_TABLE_NAME} rows, not classes",
            )
            for mf in project.in_package(_EXEC_PACKAGE)
            for node in ast.walk(mf.tree)
            if isinstance(node, ast.ClassDef)
            and any(
                isinstance(s, ast.FunctionDef) and s.name == _HOOK
                for s in node.body
            )
        ]

    def _row_runner(self, project: Project) -> list[Finding]:
        """One row-running function, and it goes through the runtime."""
        runtime = project.get(_RUNTIME_MODULE)
        if runtime is None or _assigned(runtime, _TABLE_NAME) is None:
            return []
        findings: list[Finding] = []
        runner = None
        for _, mf in sorted(project.modules.items()):
            for fn in ast.walk(mf.tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                if mf is runtime and fn.name == _RUNNER and fn in runtime.tree.body:
                    runner = fn
                    continue
                for node in _row_lookups(fn)[:1]:
                    findings.append(self._finding(
                        mf, node,
                        f"{mf.module}.{fn.name} looks up an {_TABLE_NAME} "
                        f"row; rows run only through {_RUNTIME_MODULE}."
                        f"{_RUNNER}",
                    ))
        if runner is None:
            return [self._finding(
                runtime, runtime.tree,
                f"no {_RUNNER}({', '.join(_RUNNER_PARAMS)}) in "
                f"{_RUNTIME_MODULE}; nothing runs the {_TABLE_NAME} rows",
            )]
        got = _param_names(runner)
        if got != _RUNNER_PARAMS or runner.args.vararg or runner.args.kwonlyargs:
            findings.append(self._finding(
                runtime, runner,
                f"{_RUNNER} signature is ({', '.join(got)}); "
                f"the contract is ({', '.join(_RUNNER_PARAMS)})",
            ))
        if not any(
            isinstance(n, ast.Name) and n.id == _RUNTIME_NAME
            for n in ast.walk(runner)
        ):
            findings.append(self._finding(
                runtime, runner,
                f"{_RUNNER} never references {_RUNTIME_NAME}; the rows "
                "would bypass the task-graph runtime and ignore FaultPlan "
                "/ retry budgets",
            ))
        return findings

    def _pool_spawns(self, project: Project) -> list[Finding]:
        """One finding per worker kind a non-runtime module spawns."""
        findings: list[Finding] = []
        for _, mf in sorted(project.modules.items()):
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
        """Flag pulse, action and record construction outside their modules."""
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
                    else "remediation actions and records are built"
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
            *self._row_runner(project),
            *self._pool_spawns(project),
        ]
