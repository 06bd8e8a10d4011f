"""Shared types of the verification subsystem.

Every analysis pass (task-graph detector, coherence checker, trace linter,
AST lint) reports :class:`Finding` records: a machine-readable code, the
subject it applies to and a human-readable message.  Passes never raise on a
violation themselves — callers decide whether findings are fatal
(:func:`raise_on_findings`, used by the sanitizer and the CLI) or merely
collected (tests asserting that a seeded violation *is* caught).

The static passes (AST lint, call graph, determinism linter, reclamation
pass) share one loader: :func:`load_package` reads and parses every source
file once into a :class:`Module`, and each pass walks those trees.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro.errors import VerificationError

#: marker of an inline waiver: ``# det: <reason>`` on the flagged line or the
#: line above it suppresses a determinism or reclamation finding there.
_WAIVER = "# det:"

_FunctionDef = ast.FunctionDef | ast.AsyncFunctionDef


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """One verification finding.

    Attributes
    ----------
    pass_name:
        Which analysis produced it ("graph", "coherence", "trace", "lint").
    code:
        Stable machine-readable identifier, e.g. ``G001`` (unordered conflict)
        or ``C001`` (double-MODIFIED replica).
    subject:
        What the finding is about: a task pair, a tile key, a file:line.
    message:
        Human-readable explanation.
    """

    pass_name: str
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.pass_name}:{self.code}] {self.subject}: {self.message}"


@dataclasses.dataclass(frozen=True, slots=True)
class Module:
    """One source file of the analysed package, read and parsed once."""

    #: path relative to the package root (``runtime/transfer.py``); rules
    #: are scoped by its first component.
    rel: Path
    lines: list[str]
    #: ``None`` when the file does not parse (the lint reports L000).
    tree: ast.Module | None
    error: SyntaxError | None
    #: every ``def`` with its qualname (``Class.method``, nested defs under
    #: their enclosing function: ``outer.inner``), in source order.
    functions: list[tuple[str, _FunctionDef]]

    @property
    def name(self) -> str:
        return self.rel.as_posix()

    def waived(self, lineno: int) -> bool:
        """True when the line (or the one above) carries a ``# det:`` waiver."""
        return any(
            1 <= ln <= len(self.lines) and _WAIVER in self.lines[ln - 1]
            for ln in (lineno, lineno - 1)
        )


def _functions(tree: ast.Module) -> list[tuple[str, _FunctionDef]]:
    out: list[tuple[str, _FunctionDef]] = []
    stack: list[str] = []

    class _Visitor(ast.NodeVisitor):
        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            stack.append(node.name)
            self.generic_visit(node)
            stack.pop()

        def _fn(self, node: _FunctionDef) -> None:
            out.append((".".join([*stack, node.name]), node))
            stack.append(node.name)
            self.generic_visit(node)
            stack.pop()

        visit_FunctionDef = _fn
        visit_AsyncFunctionDef = _fn

    _Visitor().visit(tree)
    return out


def parse_module(source: str, rel: Path) -> Module:
    """Parse one source file; a syntax error is kept, not raised."""
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=rel.as_posix())
    except SyntaxError as exc:
        return Module(rel, lines, None, exc, [])
    return Module(rel, lines, tree, None, _functions(tree))


def load_package(root: Path) -> list[Module]:
    """Every ``*.py`` under ``root``, read and parsed once, in path order."""
    return [
        parse_module(path.read_text(encoding="utf-8"), path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
    ]


def _dotted(node: ast.expr) -> str | None:
    """Render an attribute chain (``a.b.c``) as a dotted string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _in_scope(rel: Path, scopes: tuple[str, ...]) -> bool:
    """Does the package-relative path lie in one of the scoped subtrees?"""
    return bool(rel.parts) and rel.parts[0] in scopes


def raise_on_findings(findings: list[Finding], context: str = "") -> None:
    """Raise :class:`~repro.errors.VerificationError` if ``findings`` is non-empty."""
    if not findings:
        return
    head = f"{context}: " if context else ""
    lines = "\n".join(f"  {f}" for f in findings)
    raise VerificationError(
        f"{head}{len(findings)} verification finding(s):\n{lines}", findings
    )


def render_report(findings: list[Finding]) -> str:
    """Plain-text report of findings grouped by pass (CLI output)."""
    if not findings:
        return "no findings"
    by_pass: dict[str, list[Finding]] = {}
    for f in findings:
        by_pass.setdefault(f.pass_name, []).append(f)
    out = []
    for name in sorted(by_pass):
        out.append(f"{name}: {len(by_pass[name])} finding(s)")
        out.extend(f"  {f}" for f in by_pass[name])
    return "\n".join(out)
