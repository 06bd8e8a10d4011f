"""Reclamation-safety pass (static).

``TaskGraph(retain_tasks=False)`` — the PR-5 streaming mode — *retires* every
task the moment it completes: ``Executor._finish`` calls ``graph.complete``,
which clears ``task.successors``, empties ``task.accesses``/``access_keys``
and drops ``task.output_tile`` so million-task runs hold only the in-flight
window.  The graph-level API shrinks the same way: ``graph.tasks`` and
``critical_path_priorities()`` raise :class:`~repro.errors.TaskGraphError` on
a reclaiming graph.

Both of these are temporal contracts no test exercises by accident — a
scheduler that peeks at ``task.successors`` inside ``on_complete`` works
perfectly in every retained-mode test and silently reads cleared state in
streaming runs.  Two rules make the contracts static:

* **M101 — use of a retired task's cleared fields.**  ``graph.complete(task)``
  runs *before* ``scheduler.on_complete(task, ctx)`` (see
  ``Executor._finish``), so inside the completion path the task's
  ``accesses``/``access_keys``/``successors``/``output_tile`` are already
  cleared in reclaiming mode.  Flagged: reads of those fields on (a) a
  variable after a ``<graph>.complete(var)`` call in the same function, and
  (b) the completed-task parameter inside any ``on_complete``
  implementation — followed one call hop, so delegating the task to a helper
  does not hide the read.
* **M102 — retained-only graph API without a mode guard.**  Reads of
  ``<graph>.tasks`` or calls to the retained-only methods on a graph-named
  receiver, unless dominated by a ``retain_tasks`` conditional or a
  ``try/except TaskGraphError``.  :mod:`repro.runtime.dataflow` itself is
  exempt (it *implements* the contract).

Waivers use the determinism linter's ``# det: <reason>`` comment (e.g.
``# det: retained`` on a line that only ever sees retained graphs); it is
the only way to suppress a finding.  The pass walks the trees
:func:`~repro.verify.base.load_package` parsed and needs no call graph: the
one M101 hop is resolved by function name.
"""

from __future__ import annotations

import ast

from repro.verify.base import Finding, Module, _dotted, _FunctionDef, _in_scope
from repro.verify.determinism import SCOPES

_PASS = "reclaim"

#: Task fields cleared by ``TaskGraph._retire``.
CLEARED_FIELDS = ("accesses", "access_keys", "successors", "output_tile")

#: graph attributes/methods that raise on a reclaiming graph.
RETAINED_ONLY_ATTRS = ("tasks",)
RETAINED_ONLY_METHODS = ("critical_path_priorities",)

#: modules that implement (rather than consume) the reclamation contract.
_EXEMPT = ("runtime/dataflow.py",)


def _graphish(node: ast.expr) -> bool:
    """Does the receiver expression name a task graph?"""
    dotted = _dotted(node)
    return dotted is not None and "graph" in dotted.rsplit(".", 1)[-1].lower()


def _mentions_retain(node: ast.expr) -> bool:
    return any(
        (isinstance(s, ast.Attribute) and s.attr == "retain_tasks")
        or (isinstance(s, ast.Name) and s.id == "retain_tasks")
        for s in ast.walk(node)
    )


def _catches_graph_error(stmt: ast.Try) -> bool:
    for handler in stmt.handlers:
        if handler.type is None:
            return True  # bare except also swallows TaskGraphError
        if any(
            (isinstance(s, ast.Name) and s.id == "TaskGraphError")
            or (isinstance(s, ast.Attribute) and s.attr == "TaskGraphError")
            for s in ast.walk(handler.type)
        ):
            return True
    return False


def _terminates(stmts: list[ast.stmt]) -> bool:
    """Does the statement list end by leaving the function (raise/return)?"""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Raise, ast.Return, ast.Continue, ast.Break)
    )


def _params(fn: _FunctionDef) -> list[str]:
    """Positional parameter names after ``self``/``cls``."""
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return names[1:] if names and names[0] in ("self", "cls") else names


def _cleared_reads(fn: _FunctionDef, alias: str) -> list[tuple[int, str]]:
    """(lineno, field) for each cleared-field read on ``alias`` in ``fn``."""
    reads: list[tuple[int, str]] = []
    for sub in ast.walk(fn):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)
            and sub.attr in CLEARED_FIELDS
            and isinstance(sub.value, ast.Name)
            and sub.value.id == alias
        ):
            reads.append((sub.lineno, sub.attr))
    return reads


def _forwarded_calls(fn: _FunctionDef, alias: str) -> list[tuple[str, int]]:
    """(callee name, argument position) of calls forwarding ``alias``."""
    out: list[tuple[str, int]] = []
    for sub in ast.walk(fn):
        if not isinstance(sub, ast.Call):
            continue
        callee = _dotted(sub.func)
        if callee is None:
            continue
        for pos, arg in enumerate(sub.args):
            if isinstance(arg, ast.Name) and arg.id == alias:
                out.append((callee.rsplit(".", 1)[-1], pos))
    return out


def lint_reclamation(modules: list[Module]) -> list[Finding]:
    """Run both reclamation rules over the loaded package's scoped modules."""
    findings: list[Finding] = []
    scoped = [
        m for m in modules if m.tree is not None and _in_scope(m.rel, SCOPES)
    ]

    #: every function by bare name, for the one-hop M101 follow.
    by_name: dict[str, list[tuple[Module, str, _FunctionDef]]] = {}
    for module in scoped:
        for qual, fn in module.functions:
            by_name.setdefault(fn.name, []).append((module, qual, fn))

    def emit(code: str, module: Module, lineno: int, qual: str, message: str) -> None:
        if not module.waived(lineno):
            findings.append(
                Finding(_PASS, code, f"{module.name}:{lineno}", f"{qual}: {message}")
            )

    for module in scoped:
        exempt = module.name in _EXEMPT
        for qual, fn in module.functions:

            # ---- M101a: reads after <graph>.complete(var) ------------------
            # ast.walk is breadth-first; statement order matters here, so
            # recurse through body/orelse/finalbody lists in source order,
            # carrying the set of names the graph has retired so far.
            def own_exprs(stmt: ast.stmt):
                """The statement's expression subtrees, nested bodies excluded."""
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        yield from ast.walk(child)
                    elif isinstance(child, (ast.withitem, ast.keyword)):
                        for sub in ast.iter_child_nodes(child):
                            if isinstance(sub, ast.expr):
                                yield from ast.walk(sub)

            def scan(stmts: list[ast.stmt], retired: set[str]) -> None:
                for stmt in stmts:
                    if isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        continue  # nested defs are scanned on their own
                    if retired:
                        for sub in own_exprs(stmt):
                            if (
                                isinstance(sub, ast.Attribute)
                                and isinstance(sub.ctx, ast.Load)
                                and sub.attr in CLEARED_FIELDS
                                and isinstance(sub.value, ast.Name)
                                and sub.value.id in retired
                            ):
                                emit(
                                    "M101", module, sub.lineno, qual,
                                    f"reads '{sub.value.id}.{sub.attr}' after "
                                    f"graph.complete({sub.value.id}) — cleared "
                                    "by the reclaiming graph (retain_tasks="
                                    "False) before this line runs",
                                )
                    for sub in own_exprs(stmt):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "complete"
                            and _graphish(sub.func.value)
                            and sub.args
                            and isinstance(sub.args[0], ast.Name)
                        ):
                            retired.add(sub.args[0].id)
                    for field in ("body", "orelse", "finalbody"):
                        nested = getattr(stmt, field, None)
                        if nested:
                            scan(nested, retired)
                    for handler in getattr(stmt, "handlers", ()):
                        scan(handler.body, retired)

            scan(list(fn.body), set())

            # ---- M101b: retired-task fields inside on_complete -------------
            if fn.name == "on_complete" and not exempt and (params := _params(fn)):
                param = params[0]  # the completed task
                for lineno, field in _cleared_reads(fn, param):
                    emit(
                        "M101", module, lineno, qual,
                        f"'{param}.{field}' inside on_complete: the graph "
                        "retires the task *before* the scheduler callback "
                        "(Executor._finish), so this field is cleared in "
                        "streaming mode",
                    )
                # one hop: helpers the completed task is forwarded to.
                for callee, pos in _forwarded_calls(fn, param):
                    for cmodule, cqual, cfn in by_name.get(callee, ()):
                        cnames = _params(cfn)
                        if pos >= len(cnames):
                            continue
                        for lineno, field in _cleared_reads(cfn, cnames[pos]):
                            emit(
                                "M101", cmodule, lineno, cqual,
                                f"'{cnames[pos]}.{field}' reached from "
                                f"on_complete via {callee}(): the task is "
                                "already retired in streaming mode",
                            )

            # ---- M102: retained-only API without a mode guard --------------
            if exempt:
                continue

            def check_expr(expr: ast.expr) -> None:
                """Flag retained-only uses in one expression tree.

                Branches of an ``IfExp`` conditioned on ``retain_tasks`` are
                guarded and skipped.
                """
                if isinstance(expr, ast.IfExp) and _mentions_retain(expr.test):
                    check_expr(expr.test)
                    return
                flagged: str | None = None
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.ctx, ast.Load)
                    and expr.attr in RETAINED_ONLY_ATTRS
                    and _graphish(expr.value)
                ):
                    # `graph.tasks` as a call receiver (graph.tasks.append)
                    # still reads the property; flag it the same way.
                    flagged = expr.attr
                elif (
                    isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr in RETAINED_ONLY_METHODS
                    and _graphish(expr.func.value)
                ):
                    flagged = expr.func.attr
                if flagged is not None:
                    emit(
                        "M102", module, expr.lineno, qual,
                        f"retained-only graph API '.{flagged}' without a "
                        "retain_tasks guard — raises TaskGraphError on a "
                        "reclaiming (streaming) graph",
                    )
                for child in ast.iter_child_nodes(expr):
                    if isinstance(child, ast.expr):
                        check_expr(child)

            def check_stmt_exprs(stmt: ast.stmt) -> None:
                """Check the statement's own expressions, not nested bodies."""
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        check_expr(child)
                    elif isinstance(child, (ast.arguments, ast.withitem,
                                            ast.keyword)):
                        for sub in ast.iter_child_nodes(child):
                            if isinstance(sub, ast.expr):
                                check_expr(sub)

            def scan_m102(stmts: list[ast.stmt], dominated: bool) -> None:
                """Source-order scan tracking mode-guard dominance.

                Dominated means a preceding ``retain_tasks`` conditional
                that leaves the function (early raise/return) already proved
                the mode, or an enclosing branch/handler is conditioned on
                it.
                """
                for stmt in stmts:
                    if isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        continue  # scanned as its own function/scope
                    if isinstance(stmt, ast.If) and _mentions_retain(stmt.test):
                        scan_m102(stmt.body, True)
                        scan_m102(stmt.orelse, True)
                        if _terminates(stmt.body) or _terminates(stmt.orelse):
                            dominated = True
                        continue
                    if isinstance(stmt, ast.Try) and _catches_graph_error(stmt):
                        scan_m102(stmt.body, True)
                        for handler in stmt.handlers:
                            scan_m102(handler.body, dominated)
                        scan_m102(stmt.orelse, dominated)
                        scan_m102(stmt.finalbody, dominated)
                        continue
                    if not dominated:
                        check_stmt_exprs(stmt)
                    for field in ("body", "orelse", "finalbody"):
                        nested = getattr(stmt, field, None)
                        if nested:
                            scan_m102(nested, dominated)
                    for handler in getattr(stmt, "handlers", ()):
                        scan_m102(handler.body, dominated)

            scan_m102(list(fn.body), False)
    return findings
