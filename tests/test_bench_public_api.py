"""Guard against dead code anywhere in the package.

Every definition under ``src/repro`` — function, method, class, property,
nested helper — must be called from outside the test suite: its name must
occur in ``src/`` outside its own ``def``, or anywhere in ``examples/``,
``benchmarks/`` or ``e2ebench/``, as a name, an attribute, an import or an
identifier string (the layer hook tables name methods by string).  A name
listed in ``__all__`` is exported, not called, so ``__all__`` entries do not
count, and neither does any use under ``tests/``: a helper only tests call is
untested dead weight in the package (this is how ``workloads.round_up``, the
named BLAS wrappers and the whole-matrix NumPy oracles were caught and moved
out or deleted).

Two kinds of definition are called by name from outside the scan: dunder
methods (the interpreter's protocols) and ``visit_<Node>`` methods, which
``ast.NodeVisitor.visit`` dispatches by the node's class name.  A name shared
by two definitions counts for both, so the guard can miss a dead one whose
name something else uses; it never flags a live one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC_DIR = Path(repro.__file__).parent
REPO = SRC_DIR.parent.parent
OUTSIDE = ("examples", "benchmarks", "e2ebench")

#: Definitions kept although only tests call them, each with its reason.
ALLOWED: dict[str, str] = {}


class _Uses(ast.NodeVisitor):
    """Every name one module uses, with the definitions enclosing the use."""

    def __init__(self) -> None:
        self.defs: list[tuple[ast.AST, str]] = []
        self.uses: list[tuple[str, frozenset[int]]] = []
        self._enclosing: list[int] = []
        self._scope: list[str] = []

    def _use(self, name: str) -> None:
        self.uses.append((name, frozenset(self._enclosing)))

    def _define(self, node) -> None:
        self.defs.append((node, ".".join([*self._scope, node.name])))
        for decorator in node.decorator_list:
            self.visit(decorator)
        if isinstance(node, ast.ClassDef):
            for base in (*node.bases, *node.keywords):
                self.visit(base)
        else:
            self.visit(node.args)
            if node.returns is not None:
                self.visit(node.returns)
        self._enclosing.append(id(node))
        self._scope.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self._scope.pop()
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _define

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        self._use(node.name.rpartition(".")[2])
        if node.asname:
            self._use(node.asname)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self._use(node.value)


def _scan(path: Path) -> _Uses:
    uses = _Uses()
    uses.visit(ast.parse(path.read_text(encoding="utf-8")))
    return uses


def _called_by_name(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return True
    prefix, _, node = name.partition("_")
    return prefix == "visit" and isinstance(getattr(ast, node, None), type)


def uncalled_definitions() -> list[str]:
    """``module:line:qualified.name`` of every definition no non-test code
    calls."""
    defs = []
    src_uses: dict[str, list[frozenset[int]]] = {}
    for path in sorted(SRC_DIR.rglob("*.py")):
        uses = _scan(path)
        defs += [(path, node, qualname) for node, qualname in uses.defs]
        for name, enclosing in uses.uses:
            src_uses.setdefault(name, []).append(enclosing)
    outside = {
        name
        for folder in OUTSIDE
        for path in sorted((REPO / folder).rglob("*.py"))
        for name, _ in _scan(path).uses
    }
    uncalled = []
    for path, node, qualname in defs:
        name = node.name
        if _called_by_name(name) or name in outside:
            continue
        if any(id(node) not in enclosing for enclosing in src_uses.get(name, ())):
            continue
        uncalled.append(f"{path.relative_to(SRC_DIR)}:{node.lineno}:{qualname}")
    return uncalled


def test_every_definition_is_called_outside_tests():
    uncalled = [
        entry for entry in uncalled_definitions()
        if entry.rpartition(":")[2] not in ALLOWED
    ]
    assert not uncalled, f"definitions only tests call (or nothing): {uncalled}"
