"""Reclamation-safety pass (static).

``TaskGraph(retain_tasks=False)`` — the PR-5 streaming mode — *retires* every
task the moment it completes: ``Executor._finish`` calls ``graph.complete``,
which clears ``task.successors``, empties ``task.accesses``/``access_keys``
and drops ``task.output_tile`` so million-task runs hold only the in-flight
window.  The graph-level API shrinks the same way: ``graph.tasks``,
``ready_tasks()``, ``critical_path_priorities()`` and ``validate_acyclic()``
raise :class:`~repro.errors.TaskGraphError` on a reclaiming graph.

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

Waivers use the shared ``# det: <reason>`` syntax (e.g. ``# det: retained``
on a line that only ever sees retained graphs), and findings carry the same
line-free fingerprints as the determinism lint so intentional cases can live
in the committed baseline instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.verify.base import Finding
from repro.verify.determinism import DetFinding, _in_scope, _waived

_PASS = "reclaim"

#: Task fields cleared by ``TaskGraph._retire``.
CLEARED_FIELDS = ("accesses", "access_keys", "successors", "output_tile")

#: graph attributes/methods that raise on a reclaiming graph.
RETAINED_ONLY_ATTRS = ("tasks",)
RETAINED_ONLY_METHODS = (
    "ready_tasks",
    "critical_path_priorities",
    "validate_acyclic",
)

#: modules that implement (rather than consume) the reclamation contract.
_EXEMPT = ("runtime/dataflow.py",)


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


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


def _functions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    out: list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]] = []
    stack: list[str] = []

    class _V(ast.NodeVisitor):
        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            stack.append(node.name)
            self.generic_visit(node)
            stack.pop()

        def _fn(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
            prefix = ".".join(stack)
            out.append((f"{prefix}.{node.name}" if prefix else node.name, node))
            stack.append(node.name)
            self.generic_visit(node)
            stack.pop()

        visit_FunctionDef = _fn
        visit_AsyncFunctionDef = _fn

    _V().visit(tree)
    return out


def _task_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """Name of the completed-task parameter (first after self/cls)."""
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names[0] if names else None


def _cleared_reads(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, alias: str
) -> list[tuple[int, str]]:
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


def _forwarded_calls(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, alias: str
) -> list[tuple[str, int]]:
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


def lint_reclamation(root: Path) -> list[DetFinding]:
    """Run both reclamation rules over the package tree at ``root``."""
    findings: list[DetFinding] = []
    modules: list[tuple[Path, ast.Module, list[str]]] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if not _in_scope(rel):
            continue
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=rel.as_posix())
        except SyntaxError:
            continue  # L000's job
        modules.append((rel, tree, source.splitlines()))

    #: every function by bare name, for the one-hop M101 follow.
    _Fn = ast.FunctionDef | ast.AsyncFunctionDef
    by_name: dict[str, list[tuple[Path, str, _Fn, list[str]]]] = {}
    for rel, tree, lines in modules:
        for qual, fn in _functions(tree):
            by_name.setdefault(fn.name, []).append((rel, qual, fn, lines))

    def emit(
        code: str, rel: Path, lines: list[str], lineno: int, qual: str,
        symbol: str, message: str,
    ) -> None:
        if _waived(lines, lineno):
            return
        module = rel.as_posix()
        findings.append(
            DetFinding(
                Finding(_PASS, code, f"{module}:{lineno}", f"{qual}: {message}"),
                f"{code}|{module}|{qual}|{symbol}",
            )
        )

    for rel, tree, lines in modules:
        exempt = rel.as_posix() in _EXEMPT
        for qual, fn in _functions(tree):

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
                                    "M101", rel, lines, sub.lineno, qual,
                                    f"{sub.value.id}.{sub.attr}",
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
            if fn.name == "on_complete" and not exempt:
                param = _task_param(fn)
                if param is not None:
                    for lineno, field in _cleared_reads(fn, param):
                        emit(
                            "M101", rel, lines, lineno, qual,
                            f"{param}.{field}",
                            f"'{param}.{field}' inside on_complete: the graph "
                            "retires the task *before* the scheduler callback "
                            "(Executor._finish), so this field is cleared in "
                            "streaming mode",
                        )
                    # one hop: helpers the completed task is forwarded to.
                    for callee, pos in _forwarded_calls(fn, param):
                        for crel, cqual, cfn, clines in by_name.get(callee, ()):
                            cnames = [
                                a.arg
                                for a in cfn.args.posonlyargs + cfn.args.args
                            ]
                            if cnames and cnames[0] in ("self", "cls"):
                                cnames = cnames[1:]
                            if pos >= len(cnames):
                                continue
                            for lineno, field in _cleared_reads(cfn, cnames[pos]):
                                emit(
                                    "M101", crel, clines, lineno, cqual,
                                    f"{cnames[pos]}.{field}",
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
                        "M102", rel, lines, expr.lineno, qual, flagged,
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
