"""Project-specific AST lint rules.

Generic linters cannot know this codebase's invariants; these rules encode
them and run over ``src/`` from the CLI (``python -m repro.verify``) and CI:

* **L001 — wall-clock reads** (``sim/``, ``runtime/``, ``memory/``,
  ``blas/``): the simulator owns time; a ``time.*`` clock or a
  ``datetime``/``date`` "now"/"today", called as written or under any name
  an import binds (``import time as t``, ``from time import perf_counter``),
  anywhere in the engine, the runtime, the data model or the task builders
  would leak host time into virtual time and break determinism (every
  benchmark figure depends on bit-identical replays).  ``bench/`` is
  exempt: it measures wall time, which is reporting, not deciding.
* **L002 — salted hashing** (``sim/``, ``runtime/``, ``memory/``,
  ``blas/``, ``bench/``): builtin ``hash()`` is salted per process
  (``PYTHONHASHSEED``); any value derived from it (e.g. pseudo-random source
  selection over ``TileKey``\\ s, a cell key) would vary across processes.
  The transfer manager's ``_mix`` exists precisely to avoid this.
  Module-level calls count as much as calls inside functions.
* **L003 — hot-path dataclasses declare ``slots=True``** (``sim/``,
  ``runtime/``, ``memory/``): tasks, accesses, tiles, events, cache and
  directory entries are allocated millions of times in large runs; a
  ``__dict__`` per instance roughly doubles their memory and slows attribute
  access.
* **L004 — ``Task.state`` mutated outside the owners**: only
  ``runtime/executor.py``, ``runtime/dataflow.py`` and ``runtime/task.py``
  implement the task lifecycle; any other module assigning ``.state``
  bypasses the readiness protocol the race detector certifies.
* **L005 — unused private methods** (every subpackage): a ``_method`` never
  referenced anywhere in the package is dead code (the executor's ``_wake``
  rotted this way once its caller was refactored away).
  This is a *tree-wide* rule — it only runs from :func:`lint_package`,
  because subclass hooks are routinely defined in one module and invoked
  from another (``Scheduler`` subclasses override methods ``base.py``
  calls), so per-file analysis would drown in false positives.

The rules take no waivers: a finding here is fixed, not annotated.  They
run over the modules :func:`~repro.verify.base.load_package` parsed, and are
path-scoped relative to the package root, so tests can lint synthetic
trees: a file ``<root>/sim/x.py`` is treated as part of ``sim/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.verify.base import Finding, Module, _dotted, _in_scope

_PASS = "lint"

#: wall-clock reads, as dotted calls; a call through an import alias is
#: resolved to its origin first (:func:`_is_wall_clock`).
_WALL_CLOCKS = frozenset({
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.process_time",
    "time.time_ns",
    "time.monotonic_ns",
    "time.perf_counter_ns",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "date.today",
})

_CLOCK_SCOPES = ("sim", "runtime", "memory", "blas")
_HASH_SCOPES = ("sim", "runtime", "memory", "blas", "bench")
_SLOTS_SCOPES = ("sim", "runtime", "memory")
_STATE_OWNERS = {("runtime", "executor.py"), ("runtime", "dataflow.py"),
                 ("runtime", "task.py")}


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin of every absolute import that renames
    (``import time as t``) or binds a module member (``from time import
    perf_counter``)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _is_wall_clock(dotted: str, aliases: dict[str, str]) -> bool:
    """Is the called name a wall clock, as written or through an import?"""
    head, dot, rest = dotted.partition(".")
    origin = aliases.get(head)
    return dotted in _WALL_CLOCKS or (
        origin is not None and origin + dot + rest in _WALL_CLOCKS
    )


def _is_dataclass_decorator(dec: ast.expr) -> ast.Call | str | None:
    """Return the decorator call (or the bare name) if it is a dataclass."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    dotted = _dotted(target)
    if dotted in ("dataclass", "dataclasses.dataclass"):
        return dec if isinstance(dec, ast.Call) else dotted
    return None


def _lint_module(module: Module) -> list[Finding]:
    rel_path = module.rel
    tree = module.tree
    if tree is None:
        exc = module.error
        assert exc is not None
        return [
            Finding(_PASS, "L000", f"{rel_path}:{exc.lineno}", f"syntax error: {exc.msg}")
        ]
    findings: list[Finding] = []
    parts = rel_path.parts
    aliases = _import_aliases(tree)

    for node in ast.walk(tree):
        where = f"{rel_path}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if (
                dotted is not None
                and _in_scope(rel_path, _CLOCK_SCOPES)
                and _is_wall_clock(dotted, aliases)
            ):
                findings.append(
                    Finding(
                        _PASS,
                        "L001",
                        where,
                        f"wall-clock call {dotted}() in a module that feeds "
                        "virtual time breaks determinism; use the simulator "
                        "clock",
                    )
                )
            if (
                _in_scope(rel_path, _HASH_SCOPES)
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
        elif isinstance(node, ast.ClassDef) and _in_scope(rel_path, _SLOTS_SCOPES):
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
                            "runtime/executor.py, runtime/dataflow.py and "
                            "runtime/task.py (the readiness protocol owners)",
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


def _lint_unused_private_methods(modules: list[Module]) -> list[Finding]:
    """L005 over the whole package tree (two-phase: collect, then flag).

    Definitions are collected from every subpackage (the top-level modules
    hold constants, exception types and re-exports); *usages* are collected
    from every module, so a hook defined in ``runtime/`` but invoked from
    ``libraries/`` is not a false positive.
    """
    defs: list[tuple[str, str, str]] = []
    uses: set[str] = set()
    for module in modules:
        if module.tree is None:
            continue
        uses |= _attribute_uses(module.tree)
        if len(module.rel.parts) > 1:
            defs += _private_method_defs(module.tree, module.rel)
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


def lint_package(modules: list[Module]) -> list[Finding]:
    """Lint every loaded module (:func:`~repro.verify.base.load_package`).

    Per-file rules (L000–L004) run module by module; the tree-wide L005
    pass runs once over all parsed modules at the end.
    """
    findings: list[Finding] = []
    for module in modules:
        findings += _lint_module(module)
    findings += _lint_unused_private_methods(modules)
    return findings
