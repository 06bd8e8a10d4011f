"""Project-specific AST lint rules.

Generic linters cannot know this codebase's invariants; these rules encode
them and run over ``src/`` from the CLI (``python -m repro.verify``) and CI:

* **L001 — wall-clock in virtual time** (``sim/``, ``runtime/``): the
  simulator owns time; calling ``time.time``/``time.monotonic``/
  ``time.perf_counter``/``time.process_time`` or ``datetime.now``/
  ``datetime.utcnow`` inside the engine or the runtime would leak host time
  into virtual time and break determinism (every benchmark figure depends on
  bit-identical replays).
* **L002 — salted hashing** (``sim/``, ``runtime/``, ``memory/``): builtin
  ``hash()`` is salted per process (``PYTHONHASHSEED``); any decision keyed
  on it (e.g. pseudo-random source selection over ``TileKey``\\ s) would vary
  across processes.  The transfer manager's ``_mix`` exists precisely to
  avoid this.
* **L003 — hot-path dataclasses declare ``slots=True``** (``sim/``,
  ``runtime/``, ``memory/``): tasks, accesses, tiles, events, cache and
  directory entries are allocated millions of times in large runs; a
  ``__dict__`` per instance roughly doubles their memory and slows attribute
  access.
* **L004 — ``Task.state`` mutated outside the owners**: only
  ``runtime/executor.py`` and ``runtime/dataflow.py`` implement the task
  lifecycle; any other module assigning ``.state`` bypasses the readiness
  protocol the race detector certifies.
* **L005 — unused private methods** (every subpackage): a ``_method`` never
  referenced anywhere in the package is dead code (the executor's ``_wake``
  rotted this way once its caller was refactored away).
  This is a *tree-wide* rule — it only runs from :func:`lint_path`, because
  subclass hooks are routinely defined in one module and invoked from
  another (``Scheduler`` subclasses override methods ``base.py`` calls), so
  per-file analysis would drown in false positives.

Rules are path-scoped relative to the package root, so tests can lint
synthetic trees: a file ``<root>/sim/x.py`` is treated as part of ``sim/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.verify.base import Finding

_PASS = "lint"

#: call roots considered wall clocks (module attribute chains, dotted).
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.process_time",
    "time.time_ns",
    "time.monotonic_ns",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
#: bare names that count as wall clocks when imported directly
#: (``from time import time``).
_WALL_CLOCK_NAMES = {"time", "monotonic", "perf_counter", "process_time"}

_VIRTUAL_TIME_SCOPES = ("sim", "runtime")
_HASH_SCOPES = ("sim", "runtime", "memory")
_SLOTS_SCOPES = ("sim", "runtime", "memory")
_STATE_OWNERS = {("runtime", "executor.py"), ("runtime", "dataflow.py"),
                 ("runtime", "task.py")}


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


def _wall_clock_imports(tree: ast.Module) -> set[str]:
    """Names bound by ``from time import ...`` that denote wall clocks."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_NAMES:
                    names.add(alias.asname or alias.name)
    return names


def _is_dataclass_decorator(dec: ast.expr) -> ast.Call | str | None:
    """Return the decorator call (or the bare name) if it is a dataclass."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    dotted = _dotted(target)
    if dotted in ("dataclass", "dataclasses.dataclass"):
        return dec if isinstance(dec, ast.Call) else dotted
    return None


def _in_scope(rel_parts: tuple[str, ...], scopes: tuple[str, ...]) -> bool:
    return bool(rel_parts) and rel_parts[0] in scopes


def lint_source(source: str, rel_path: Path) -> list[Finding]:
    """Lint one module; ``rel_path`` is relative to the package root."""
    findings: list[Finding] = []
    try:
        tree = ast.parse(source, filename=str(rel_path))
    except SyntaxError as exc:
        return [
            Finding(_PASS, "L000", f"{rel_path}:{exc.lineno}", f"syntax error: {exc.msg}")
        ]
    parts = rel_path.parts
    wall_clock_names = _wall_clock_imports(tree)

    for node in ast.walk(tree):
        where = f"{rel_path}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if _in_scope(parts, _VIRTUAL_TIME_SCOPES):
                bare_clock = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in wall_clock_names
                )
                if (dotted in _WALL_CLOCK_CALLS) or bare_clock:
                    findings.append(
                        Finding(
                            _PASS,
                            "L001",
                            where,
                            f"wall-clock call {dotted or node.func.id}() inside "
                            "a virtual-time module breaks determinism; use "
                            "the simulator clock",
                        )
                    )
            if (
                _in_scope(parts, _HASH_SCOPES)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                findings.append(
                    Finding(
                        _PASS,
                        "L002",
                        where,
                        "builtin hash() is salted per process; derive "
                        "deterministic integers arithmetically (see "
                        "transfer._mix)",
                    )
                )
        elif isinstance(node, ast.ClassDef) and _in_scope(parts, _SLOTS_SCOPES):
            for dec in node.decorator_list:
                found = _is_dataclass_decorator(dec)
                if found is None:
                    continue
                slots_true = False
                if isinstance(found, ast.Call):
                    for kw in found.keywords:
                        if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                            slots_true = bool(kw.value.value)
                if not slots_true:
                    findings.append(
                        Finding(
                            _PASS,
                            "L003",
                            f"{rel_path}:{node.lineno}",
                            f"hot-path dataclass {node.name} must declare "
                            "slots=True",
                        )
                    )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            if len(parts) >= 2 and (parts[-2], parts[-1]) in _STATE_OWNERS:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == "state":
                    findings.append(
                        Finding(
                            _PASS,
                            "L004",
                            where,
                            "Task.state may only be mutated by "
                            "runtime/executor.py and runtime/dataflow.py "
                            "(the readiness protocol owners)",
                        )
                    )
    return findings


def _private_method_defs(
    tree: ast.Module, rel_path: Path
) -> list[tuple[str, str, str]]:
    """``(name, class, where)`` for every non-dunder ``_method`` definition."""
    defs: list[tuple[str, str, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = item.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            defs.append((name, node.name, f"{rel_path}:{item.lineno}"))
    return defs


def _attribute_uses(tree: ast.Module) -> set[str]:
    """Every attribute name referenced in the module (any context).

    ``self._foo()``, ``other._foo``, and ``cls._foo = x`` all count; a
    ``def _foo`` does not.  A class-body alias (``visit_FunctionDef = _foo``)
    counts as a use of ``_foo``: the method is called under the alias.
    String constants are also scanned so dynamic dispatch via
    ``getattr(obj, "_foo")`` keeps a method alive.
    """
    uses: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    uses.add(item.value.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("_") and node.value.isidentifier():
                uses.add(node.value)
    return uses


def _lint_unused_private_methods(
    trees: list[tuple[Path, ast.Module]]
) -> list[Finding]:
    """L005 over the whole package tree (two-phase: collect, then flag).

    Definitions are collected from every subpackage (the top-level modules
    hold constants, exception types and re-exports); *usages* are collected
    from every module, so a hook defined in ``runtime/`` but invoked from
    ``libraries/`` is not a false positive.
    """
    defs: list[tuple[str, str, str]] = []
    uses: set[str] = set()
    for rel, tree in trees:
        uses |= _attribute_uses(tree)
        if len(rel.parts) > 1:
            defs += _private_method_defs(tree, rel)
    return [
        Finding(
            _PASS,
            "L005",
            where,
            f"private method {cls}.{name} is never referenced anywhere in "
            "the package (dead code); delete it or call it",
        )
        for name, cls, where in defs
        if name not in uses
    ]


def lint_path(root: Path) -> list[Finding]:
    """Lint every ``*.py`` under ``root`` (the package directory).

    Per-file rules (L000–L004) run module by module; the tree-wide L005
    pass runs once over all parsed modules at the end.
    """
    findings: list[Finding] = []
    trees: list[tuple[Path, ast.Module]] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        source = path.read_text(encoding="utf-8")
        findings += lint_source(source, rel)
        try:
            trees.append((rel, ast.parse(source, filename=str(rel))))
        except SyntaxError:
            continue  # already reported as L000 by lint_source
    findings += _lint_unused_private_methods(trees)
    return findings
