"""Resource-state lattice over the CFG: acquired → released/escaped.

One :class:`ResourceSite` per acquisition statement (``shm =
attach_shm(...)``, ``hb = worker_pulse(pulse)``, ...).  Each site is
solved independently with a tiny forward worklist pass whose abstract
values are *sets of states* per CFG node:

``NONE``      not (yet) acquired on this path
``ACQUIRED``  held and unreleased
``RELEASED``  released/destroyed (or credited to a releasing helper)
``ESCAPED``   ownership left the function (returned, stored on an
              object, passed to an escaping callee) — the caller or
              the object owns teardown now

A **leak** is ``ACQUIRED`` reaching the normal exit or the raise exit.
Exceptional edges propagate the *pre-effect* state of the raising
statement (a failed ``x = attach()`` never bound ``x``; a release call
that could raise would un-release — which is why rules pass a
``can_raise`` that trusts the repo's teardown helpers).

Branch edges carry ``(name, is_none)`` assume facts; an ``is_none``
edge on a name bound by the site drops ``ACQUIRED`` from the state set
— post-acquisition the binding cannot be ``None``, so that path is
infeasible while the resource is held.  This checks the standard
``if shm is not None: release_segment(shm)`` guard exactly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.dataflow.cfg import ControlFlowGraph, stmt_calls
from repro.analysis.dataflow.summaries import ProjectSummaries
from repro.analysis.visitor import dotted_source

__all__ = [
    "LeakReport",
    "ResourceSite",
    "ResourceSpec",
    "analyze_sites",
    "find_sites",
]

NONE = "none"
ACQUIRED = "acquired"
RELEASED = "released"
ESCAPED = "escaped"


@dataclass(frozen=True)
class ResourceSpec:
    """What acquires, releases, and pairs with a resource family."""

    #: bare callable names whose result is a tracked resource
    acquirers: frozenset[str]
    #: dotted suffixes that acquire (``PointStore.attach``-style)
    acquire_suffixes: tuple[str, ...] = ()
    #: functions that release their argument (``release_segment(x)``)
    releasers: frozenset[str] = frozenset()
    #: methods on the binding that release it (``x.close()``)
    release_methods: frozenset[str] = frozenset()
    #: acquirer method -> paired release method *on the same receiver*
    #: (``recovery.open_mailbox`` / ``recovery.close_mailbox``)
    paired: dict[str, str] = field(default_factory=dict)


@dataclass
class ResourceSite:
    """One acquisition: the statement, the call, and its bindings."""

    node_index: int
    stmt: ast.stmt
    call: ast.Call
    acquire_name: str  # bare callable name
    receiver: str  # dotted receiver ("recovery" for recovery.open_mailbox)
    bindings: set[str]
    managed: bool = False  # bound by ``with`` — the manager releases
    discarded: bool = False  # bare-expression acquisition, result dropped


@dataclass(frozen=True)
class LeakReport:
    site: ResourceSite
    exceptional: bool

    def describe(self) -> str:
        how = (
            "when a later statement raises"
            if self.exceptional
            else "on a normal-return path"
        )
        return (
            f"{self.site.acquire_name}(...) result can leak {how}; every "
            "path must release/close it or transfer ownership"
        )


def _call_names(call: ast.Call) -> tuple[str, str, str]:
    """``(bare, dotted, receiver)`` of a call's function expression."""
    dotted = dotted_source(call.func)
    bare = dotted.rsplit(".", 1)[-1]
    receiver = dotted[: -len(bare) - 1] if "." in dotted else ""
    return bare, dotted, receiver


def _is_acquirer(call: ast.Call, spec: ResourceSpec) -> bool:
    bare, dotted, _ = _call_names(call)
    if bare in spec.acquirers:
        return True
    return any(dotted.endswith(suffix) for suffix in spec.acquire_suffixes)


def _binding_names(target: ast.expr) -> set[str] | None:
    """Simple-name bindings of an assignment target; None = escapes."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: set[str] = set()
        for elt in target.elts:
            if isinstance(elt, ast.Starred):
                elt = elt.value
            if isinstance(elt, ast.Name):
                names.add(elt.id)
            else:
                return None  # an element lands on an attribute/subscript
        return names
    return None  # attribute/subscript target: ownership moved to object


def find_sites(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    cfg: ControlFlowGraph,
    spec: ResourceSpec,
) -> list[ResourceSite]:
    """Locate every acquisition statement in the CFG."""
    sites: list[ResourceSite] = []
    for node in cfg.stmt_nodes():
        stmt = node.stmt
        assert stmt is not None
        # with-items manage their own teardown
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.context_expr, ast.Call) and _is_acquirer(
                    item.context_expr, spec
                ):
                    bare, _, receiver = _call_names(item.context_expr)
                    sites.append(
                        ResourceSite(
                            node_index=node.index,
                            stmt=stmt,
                            call=item.context_expr,
                            acquire_name=bare,
                            receiver=receiver,
                            bindings=set(),
                            managed=True,
                        )
                    )
            continue
        value: ast.expr | None = None
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            value, targets = stmt.value, stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value, targets = stmt.value, [stmt.target]
        elif isinstance(stmt, ast.Expr):
            value, targets = stmt.value, []
        if isinstance(value, ast.IfExp):
            # ``x = acquire(...) if cond else None`` — treat as an
            # acquisition; the None arm is covered by the is_none
            # assume-edges on the eventual guard.
            for arm in (value.body, value.orelse):
                if isinstance(arm, ast.Call) and _is_acquirer(arm, spec):
                    value = arm
                    break
        if isinstance(value, ast.Call) and _is_acquirer(value, spec):
            bare, _, receiver = _call_names(value)
            bindings: set[str] = set()
            escaped = False
            for target in targets:
                names = _binding_names(target)
                if names is None:
                    escaped = True
                else:
                    bindings |= names
            if escaped and not bindings:
                continue  # stored straight onto an object: transferred
            sites.append(
                ResourceSite(
                    node_index=node.index,
                    stmt=stmt,
                    call=value,
                    acquire_name=bare,
                    receiver=receiver,
                    bindings=bindings,
                    discarded=not targets and not bindings,
                )
            )
            continue
        # walrus acquisitions anywhere in the statement
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.NamedExpr)
                and isinstance(sub.value, ast.Call)
                and _is_acquirer(sub.value, spec)
                and isinstance(sub.target, ast.Name)
            ):
                bare, _, receiver = _call_names(sub.value)
                sites.append(
                    ResourceSite(
                        node_index=node.index,
                        stmt=stmt,
                        call=sub.value,
                        acquire_name=bare,
                        receiver=receiver,
                        bindings={sub.target.id},
                    )
                )
    return sites


def _aliases(fn: ast.AST, bindings: set[str]) -> set[str]:
    """Flow-insensitive transitive ``alias = binding`` closure."""
    names = set(bindings)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in names:
                        names.add(target.id)
                        changed = True
    return names


def _contains_name(expr: ast.expr | None, names: set[str]) -> bool:
    if expr is None:
        return False
    return any(
        isinstance(sub, ast.Name) and sub.id in names for sub in ast.walk(expr)
    )


class _SiteAnalysis:
    """Transfer function + worklist for one site."""

    def __init__(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        cfg: ControlFlowGraph,
        site: ResourceSite,
        spec: ResourceSpec,
        summaries: ProjectSummaries,
    ) -> None:
        self.cfg = cfg
        self.site = site
        self.spec = spec
        self.summaries = summaries
        self.names = _aliases(fn, site.bindings)

    # -- statement effect on the site's state -------------------------
    def _call_releases(self, call: ast.Call) -> bool:
        bare, _, receiver = _call_names(call)
        if bare in self.spec.releasers and any(
            _contains_name(arg, self.names) for arg in call.args
        ):
            return True
        if (
            bare in self.spec.release_methods
            and receiver
            and receiver in self.names
        ):
            return True
        paired = self.spec.paired.get(self.site.acquire_name)
        if paired is not None and bare == paired and receiver == self.site.receiver:
            return True
        summary = self.summaries.functions.get(bare)
        if summary is not None and summary.releases:
            for idx, arg in enumerate(call.args):
                if not (isinstance(arg, ast.Name) and arg.id in self.names):
                    continue
                param = idx + (1 if summary.is_method and receiver else 0)
                if param in summary.releases:
                    return True
        return False

    def _mention_kind(self, expr: ast.expr) -> str | None:
        """How an argument mentions the binding.

        ``"bare"`` — the binding itself; ``"view"`` — an attribute or
        subscript *read* of it (``store.points``: the value crosses,
        not the owning object); ``"nested"`` — buried inside a
        container or expression; ``None`` — no mention.
        """
        if isinstance(expr, ast.Name):
            return "bare" if expr.id in self.names else None
        root = expr
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if (
            isinstance(expr, (ast.Attribute, ast.Subscript))
            and isinstance(root, ast.Name)
            and root.id in self.names
        ):
            return "view"
        return "nested" if _contains_name(expr, self.names) else None

    def _call_escapes(self, call: ast.Call) -> bool:
        bare, _, receiver = _call_names(call)
        if bare in self.spec.releasers or bare in self.spec.release_methods:
            return False
        summary = self.summaries.functions.get(bare)
        offset = 1 if (summary is not None and summary.is_method and receiver) else 0
        for idx, arg in enumerate(call.args):
            kind = self._mention_kind(arg)
            if kind is None or kind == "view":
                continue
            if kind == "nested" or summary is None:
                return True  # wrapped up, or an unknown callee takes it
            if (idx + offset) in summary.escapes:
                return True
            # param in releases is handled as a release; otherwise the
            # summarized callee only borrows it — no effect.
        for kw in call.keywords:
            kind = self._mention_kind(kw.value)
            if kind is None or kind == "view":
                continue
            if kind == "nested" or summary is None or kw.arg is None:
                return True
            if kw.arg not in summary.params:
                return True
            if summary.params.index(kw.arg) in summary.escapes:
                return True
        return False

    def _effect(self, stmt: ast.stmt) -> str:
        """One of NONE/RELEASED/ESCAPED — what this stmt does to ACQUIRED."""
        for call in stmt_calls(stmt):
            if self._call_releases(call):
                return RELEASED
        if isinstance(stmt, (ast.Return,)) and _contains_name(stmt.value, self.names):
            return ESCAPED
        if isinstance(stmt, ast.Expr) and isinstance(
            stmt.value, (ast.Yield, ast.YieldFrom)
        ):
            if _contains_name(stmt.value.value, self.names):  # type: ignore[arg-type]
                return ESCAPED
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if _contains_name(value, self.names) and any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
            ):
                return ESCAPED
        for call in stmt_calls(stmt):
            if self._call_escapes(call):
                return ESCAPED
        return NONE

    def _transfer(self, node_index: int, state: frozenset[str]) -> frozenset[str]:
        node = self.cfg.nodes[node_index]
        if node.kind != "stmt" or node.stmt is None:
            return state
        if node_index == self.site.node_index:
            return frozenset({ACQUIRED})
        effect = self._effect(node.stmt)
        if effect == NONE:
            return state
        mapped = {effect if s == ACQUIRED else s for s in state}
        return frozenset(mapped)

    # -- worklist ------------------------------------------------------
    def solve(self) -> LeakReport | None:
        n = len(self.cfg.nodes)
        in_states: list[frozenset[str]] = [frozenset() for _ in range(n)]
        in_states[self.cfg.entry] = frozenset({NONE})
        work = [self.cfg.entry]
        while work:
            idx = work.pop()
            pre = in_states[idx]
            post = self._transfer(idx, pre)
            for edge in self.cfg.nodes[idx].succ:
                flowing = pre if edge.exceptional else post
                if edge.assume is not None:
                    name, is_none = edge.assume
                    if is_none and name in self.names:
                        flowing = flowing - {ACQUIRED}
                if not flowing <= in_states[edge.dst]:
                    in_states[edge.dst] = in_states[edge.dst] | flowing
                    work.append(edge.dst)
        if ACQUIRED in in_states[self.cfg.raise_exit]:
            return LeakReport(site=self.site, exceptional=True)
        if ACQUIRED in in_states[self.cfg.exit]:
            return LeakReport(site=self.site, exceptional=False)
        return None


def analyze_sites(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    cfg: ControlFlowGraph,
    sites: list[ResourceSite],
    spec: ResourceSpec,
    summaries: ProjectSummaries,
) -> list[LeakReport]:
    """Solve every unmanaged site; return the leaks."""
    reports: list[LeakReport] = []
    for site in sites:
        if site.managed:
            continue
        if site.discarded and self_pairs_elsewhere(fn, site, spec):
            continue
        report = _SiteAnalysis(fn, cfg, site, spec, summaries).solve()
        if report is not None:
            reports.append(report)
    return reports


def self_pairs_elsewhere(
    fn: ast.AST, site: ResourceSite, spec: ResourceSpec
) -> bool:
    """A discarded acquisition is fine if a paired release exists.

    ``recovery.open_mailbox(...)`` with the result dropped is still
    released by ``recovery.close_mailbox()`` — the receiver owns it.
    (Path-sensitivity is lost for discarded results; the paired call
    anywhere in the function is accepted.)
    """
    paired = spec.paired.get(site.acquire_name)
    if paired is None:
        return False
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            bare, _, receiver = _call_names(node)
            if bare == paired and receiver == site.receiver:
                return True
    return False
