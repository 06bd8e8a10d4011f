"""Name-based call graph over a package tree.

The determinism linter's decision-path rules need one question answered:
*which functions are reachable from a given set of entry points?*  Precise
points-to analysis is overkill for a single package with a consistent naming
discipline, so the graph is **name-based and conservative**:

* a node is every ``def`` (function, method, lambda-holding assignment is
  ignored) in every loaded module, identified by ``module.py:Class.method``
  qualnames (a nested def as ``outer.inner``, the determinism linter's
  naming);
* an edge goes from a function to *every* function whose name matches a name
  the body references — called directly (``foo()``, ``obj.foo()``) or passed
  as a callback (``sim.post(t, self._complete, ...)`` keeps ``_complete``
  reachable), which matters because the runtime wires completion events
  exactly that way.

Over-approximation is the right failure mode for a linter: an unreachable
function wrongly considered reachable can only produce a finding a human then
waives; an unreachable edge missed would silently skip a rule.
"""

from __future__ import annotations

import ast

from repro.verify.base import Module


class FunctionNode:
    """One ``def`` in the tree."""

    __slots__ = ("module", "qualname", "name", "refs")

    def __init__(self, module: str, qualname: str, name: str, refs: set[str]) -> None:
        self.module = module  # posix relpath, e.g. "runtime/transfer.py"
        self.qualname = qualname  # e.g. "TransferManager._select_source"
        self.name = name  # unqualified, e.g. "_select_source"
        #: every Name id / Attribute attr referenced in the body — the
        #: superset of callees under name-based resolution.
        self.refs = refs

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


class CallGraph:
    """All functions of a tree plus name-based reachability queries."""

    def __init__(self, nodes: list[FunctionNode]) -> None:
        self.nodes = nodes
        self._by_name: dict[str, list[FunctionNode]] = {}
        for node in nodes:
            self._by_name.setdefault(node.name, []).append(node)

    def functions_named(self, name: str) -> list[FunctionNode]:
        return self._by_name.get(name, [])

    def reachable(self, roots: list[str]) -> set[str]:
        """Keys of every function reachable from the given root names.

        A root may be an unqualified name (``"pop"`` — every function or
        method named ``pop``), a ``Class.method`` qualname, or a full
        ``path/to/module.py:Class.method`` key.
        """
        frontier: list[FunctionNode] = []
        for root in roots:
            if ":" in root:
                frontier.extend(n for n in self.nodes if n.key == root)
            elif "." in root:
                frontier.extend(n for n in self.nodes if n.qualname == root)
            else:
                frontier.extend(self.functions_named(root))
        seen: set[str] = set()
        work = list(frontier)
        while work:
            node = work.pop()
            if node.key in seen:
                continue
            seen.add(node.key)
            for ref in node.refs:
                for callee in self._by_name.get(ref, ()):
                    if callee.key not in seen:
                        work.append(callee)
        return seen

    # -------------------------------------------------------------- building

    @classmethod
    def build(cls, modules: list[Module]) -> "CallGraph":
        """The graph of every function in the loaded package.

        Files that do not parse contribute nothing (the AST lint reports
        them as L000).
        """
        nodes: list[FunctionNode] = []
        for module in modules:
            for qualname, fn in module.functions:
                refs: set[str] = set()
                for sub in ast.walk(fn):
                    if isinstance(sub, ast.Name):
                        refs.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        refs.add(sub.attr)
                nodes.append(FunctionNode(module.name, qualname, fn.name, refs))
        return cls(nodes)
