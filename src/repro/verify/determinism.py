"""Purity & determinism linter (static).

Every committed experiment table in this repo is gated on *bit-identical*
golden makespans, and the sweep cache replays cell outcomes across processes
— so every scheduling or source-selection decision must be a pure function of
**run-local** state.  The one purity bug that shipped (PR 3: the
process-global ``Matrix.id`` counter leaking into the ``ANY_VALID`` source
pick through ``transfer._mix``) was only caught dynamically, after it had
skewed committed numbers.  This pass encodes the lesson statically:

* **D101 — ``id()`` on a decision-adjacent value**: CPython object addresses
  vary across processes and allocations; any comparison, container key or
  dedup keyed on ``id()`` is process-history-dependent.  (Value-identity —
  tile keys, names — is always available in this codebase.)
* **D103 — module-level mutable state written from a function**: globals
  written at call time (``global`` rebinding, ``+=``, ``.append``/``.add``/
  ``.update`` on a module-level container, ``next()`` of a module-level
  ``itertools.count``) make any value derived from them depend on how often
  the process called the function before — exactly the ``Matrix.id`` shape.
* **D104 — unseeded random sources**: ``random.*`` (except constructing a
  seeded ``random.Random``), ``np.random.seed`` and an unseeded
  ``default_rng()`` anywhere in the scanned scopes.
* **D105 — unordered-collection iteration on a decision path**: iterating a
  ``set``/``frozenset`` (literal, comprehension, constructor call, or a local
  assigned one) in a function reachable from the scheduler/transfer entry
  points injects ``PYTHONHASHSEED``-dependent order into schedules.
  Order-insensitive reductions (``min``/``max``/``sorted``/``sum``/``len``/
  ``any``/``all``) are exempt.
* **D106 — process-global counter mixed into decision arithmetic**: reading
  an attribute whose value comes from a process-global counter (discovered,
  not hardcoded: module-level ``itertools.count()`` objects and the instance
  attributes assigned ``next(<counter>)``, propagated one constructor hop to
  fields like ``TileKey.matrix_id``) inside arithmetic or a ``*mix*`` call on
  a decision path — unless laundered through the run-local
  ``DataStore.matrix_index`` translation first.  This is the static form of
  the PR-3 purity bug.

**Decision paths** are computed, not asserted: every function reachable (via
:mod:`repro.verify.callgraph`) from the scheduler protocol
(``Scheduler.push``/``pop``/``on_complete``), the transfer manager's
selection/residency entry points, and the executor's wake/launch/finish loop.

Wall clocks and builtin ``hash()`` are the AST lint's rules L001/L002
(:mod:`repro.verify.lint`), one rule each over the union of the scopes.

**Waivers**: a ``# det: <reason>`` comment on the flagged line (or the line
above it) suppresses the finding — the reason is free text, reviewed like
code.  It is the only way to suppress one: every other finding fails the
CLI run.  The rules walk the trees :func:`~repro.verify.base.load_package`
parsed, so one CLI run reads each file once for every static pass.
"""

from __future__ import annotations

import ast
import dataclasses

from repro.verify.base import Finding, Module, _dotted, _in_scope
from repro.verify.callgraph import CallGraph

_PASS = "determinism"

#: package subtrees the linter scans (relative to the package root).
SCOPES = ("sim", "runtime", "memory", "blas", "bench")

#: entry points whose transitive callees are "decision paths".
DECISION_ROOTS = [
    # the scheduler protocol — every policy's placement/serving logic
    "Scheduler.push",
    "Scheduler.pop",
    "Scheduler.on_complete",
    "push",
    "pop",
    "on_complete",
    # transfer-manager source selection and residency
    "TransferManager.ensure_resident",
    "TransferManager._select_source",
    "TransferManager.estimate_transfers",
    "TransferManager.ensure_host_valid",
    # the executor's dispatch loop (the pump is the only submission path)
    "Executor._pump",
    "Executor._wake_all",
    "Executor._launch",
    "Executor._finish",
]

#: functions that translate a process-global id into run-local state; a
#: tainted attribute read inside a call to one of these is laundered.
LAUNDERERS = {"matrix_index"}

#: reductions whose result does not depend on iteration order.
_ORDER_INSENSITIVE = {"min", "max", "sorted", "sum", "len", "any", "all", "set",
                      "frozenset", "bool"}


# --------------------------------------------------------------------- taint


@dataclasses.dataclass(slots=True)
class TaintInfo:
    """Discovered process-global counters and the attributes they feed."""

    #: module-level names bound to ``itertools.count()`` per module.
    counters: dict[str, set[str]]
    #: attribute names whose values derive from a process-global counter
    #: (``Matrix.id``, ``Task.uid``, propagated: ``TileKey.matrix_id``).
    tainted_attrs: set[str]


def _is_count_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    return dotted in ("itertools.count", "count")


def _module_counters(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_count_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_count_call(node.value) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _expr_contains_tainted(node: ast.expr, tainted: set[str]) -> str | None:
    """Name of the first tainted attribute read inside ``node``, if any."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            if sub.attr in tainted:
                return sub.attr
    return None


def _expr_is_next_of_counter(node: ast.expr, counters: set[str]) -> bool:
    """``next(_matrix_ids)`` — including inside a lambda default_factory."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "next"
            and sub.args
            and isinstance(sub.args[0], ast.Name)
            and sub.args[0].id in counters
        ):
            return True
    return False


def _class_field_order(cls: ast.ClassDef) -> list[str]:
    """Positional field names of a dataclass-style class body."""
    fields: list[str] = []
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            fields.append(item.target.id)
    return fields


def discover_taint(modules: list[Module]) -> TaintInfo:
    """Find process-global counters and the attributes carrying their values.

    Three steps, all name-based:

    1. module-level ``itertools.count()`` bindings are the counter set;
    2. an instance attribute assigned ``next(<counter>)`` anywhere in a class
       body — directly (``self.id = next(_matrix_ids)``) or as a dataclass
       ``default_factory`` lambda — is tainted;
    3. one constructor hop: a dataclass field that some call site populates
       with a tainted attribute expression (``TileKey(matrix.id, i, j)``,
       ``TileKey(matrix_id=m.id, ...)``) becomes tainted itself, to a
       fixpoint.  That is how ``matrix_id`` inherits ``Matrix.id``'s taint.
    """
    counters: dict[str, set[str]] = {}
    tainted: set[str] = set()
    trees = [m.tree for m in modules if m.tree is not None]
    for module in modules:
        if module.tree is None:
            continue
        module_counters = _module_counters(module.tree)
        if module_counters:
            counters[module.name] = module_counters
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in ast.walk(node):
                # self.id = next(_matrix_ids)
                if isinstance(sub, ast.Assign) and _expr_is_next_of_counter(
                    sub.value, module_counters
                ):
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            tainted.add(target.attr)
                # uid: int = field(default_factory=lambda: next(_task_ids))
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    if isinstance(sub.target, ast.Name) and _expr_is_next_of_counter(
                        sub.value, module_counters
                    ):
                        tainted.add(sub.target.id)

    # Constructor-hop propagation to a fixpoint.
    class_fields: dict[str, list[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                class_fields[node.name] = _class_field_order(node)
    ctor_calls = [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in class_fields
    ]
    changed = True
    while changed:
        changed = False
        for node in ctor_calls:
            fields = class_fields[node.func.id]
            for idx, arg in enumerate(node.args):
                if idx < len(fields) and _expr_contains_tainted(arg, tainted):
                    if fields[idx] not in tainted:
                        tainted.add(fields[idx])
                        changed = True
            for kw in node.keywords:
                if kw.arg is not None and _expr_contains_tainted(
                    kw.value, tainted
                ):
                    if kw.arg not in tainted:
                        tainted.add(kw.arg)
                        changed = True
    return TaintInfo(counters=counters, tainted_attrs=tainted)


# ------------------------------------------------------------------ per-file


class _ParentMap(dict):
    """child AST node -> parent, for context checks."""

    @classmethod
    def of(cls, tree: ast.AST) -> "_ParentMap":
        parents = cls()
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return parents


def _own_nodes(fn: ast.AST) -> list[ast.AST]:
    """``ast.walk`` order over ``fn`` without descending into nested defs,
    which are linted as functions of their own."""
    nodes = [fn]
    for node in nodes:
        nodes.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
    return nodes


def _set_like_locals(func: ast.AST) -> set[str]:
    """Local names assigned a set-typed value anywhere in the function."""
    names: set[str] = set()
    for node in ast.walk(func):
        value = None
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if value is None or not isinstance(target, ast.Name):
            continue
        if _is_set_expr(value, names):
            names.add(target.id)
    return names


def _is_set_expr(node: ast.expr, set_locals: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        # set algebra producing new sets from a set-typed receiver
        if node.func.attr in ("union", "intersection", "difference",
                              "symmetric_difference", "copy") and _is_set_expr(
            node.func.value, set_locals
        ):
            return True
    if isinstance(node, ast.Name) and node.id in set_locals:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_locals) or _is_set_expr(
            node.right, set_locals
        )
    return False


_ARITH_OPS = (ast.Mult, ast.Add, ast.Mod, ast.BitXor, ast.LShift, ast.RShift,
              ast.BitAnd, ast.BitOr, ast.Sub)


def _lint_module(
    module: Module, decision_keys: set[str], taint: TaintInfo
) -> list[Finding]:
    findings: list[Finding] = []
    tree = module.tree
    assert tree is not None
    name = module.name
    parents = _ParentMap.of(tree)
    module_counters = taint.counters.get(name, set())
    #: module-level names bound to mutable containers (or arbitrary calls).
    module_mutables: set[str] = set(module_counters)
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        if isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                    ast.SetComp)
        ) or _is_count_call(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    module_mutables.add(target.id)

    def emit(code: str, lineno: int, scope: str, message: str) -> None:
        if not module.waived(lineno):
            findings.append(
                Finding(_PASS, code, f"{name}:{lineno}", f"{scope}: {message}")
            )

    # Functions with their AST subtrees, for scope labels and the
    # reachability gate of D105/D106.
    func_nodes = module.functions
    #: every node inside any function body (to tell module scope apart).
    in_function: set[int] = set()
    for _qual, fn in func_nodes:
        for sub in ast.walk(fn):
            in_function.add(id(sub))

    # D103 also applies to lambdas *outside* any def — most importantly the
    # dataclass ``field(default_factory=lambda: next(_ids))`` idiom, where the
    # counter advances at every instance construction.
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Lambda)
            and id(node) not in in_function
            and _expr_is_next_of_counter(node.body, module_counters)
        ):
            emit(
                "D103", node.lineno, "<lambda>",
                "default_factory draws from a process-global counter; "
                "values encode how many instances the process has ever "
                "built (the PR-3 Matrix.id bug class)",
            )

    # ---- rules that apply to the whole module (any function) --------------
    #: a nested def is on a decision path when its enclosing def is (its
    #: body is checked once, as its own function).
    on_path: dict[str, bool] = {}
    for qual, fn in func_nodes:
        on_decision_path = (
            f"{name}:{qual}" in decision_keys
            or on_path.get(qual.rpartition(".")[0], False)
        )
        on_path[qual] = on_decision_path
        is_dunder = fn.name.startswith("__") and fn.name.endswith("__")
        body = _own_nodes(fn)
        globals_declared: set[str] = set()
        set_locals = _set_like_locals(fn)
        for sub in body:
            if isinstance(sub, ast.Global):
                globals_declared.update(sub.names)

        for sub in body:
            lineno = getattr(sub, "lineno", fn.lineno)

            # D101: id() — process-address identity.
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
                and len(sub.args) == 1
            ):
                emit(
                    "D101", lineno, qual,
                    "id() yields a process-local address; key on value "
                    "identity (tile keys, names) instead",
                )

            # D103: module-global state written from a function.
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in globals_declared
                    ):
                        emit(
                            "D103", lineno, qual,
                            f"rebinds module-global '{target.id}' at call "
                            "time; decisions derived from it depend on "
                            "process history",
                        )
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in module_mutables
                    ):
                        emit(
                            "D103", lineno, qual,
                            f"writes module-level container "
                            f"'{target.value.id}' from a function",
                        )
            if isinstance(sub, ast.Call):
                func_expr = sub.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and isinstance(func_expr.value, ast.Name)
                    and func_expr.value.id in module_mutables
                    and func_expr.attr
                    in ("append", "add", "update", "setdefault", "extend",
                        "insert", "pop", "popitem", "clear", "remove",
                        "discard", "appendleft")
                ):
                    emit(
                        "D103", lineno, qual,
                        f"mutates module-level container "
                        f"'{func_expr.value.id}' from a function",
                    )
                elif (
                    isinstance(func_expr, ast.Name)
                    and func_expr.id == "next"
                    and sub.args
                    and isinstance(sub.args[0], ast.Name)
                    and sub.args[0].id in module_counters
                ):
                    emit(
                        "D103", lineno, qual,
                        f"advances process-global counter "
                        f"'{sub.args[0].id}'; values drawn from it encode "
                        "process history (the PR-3 Matrix.id bug class)",
                    )

            # D104: unseeded randomness.
            if isinstance(sub, ast.Call):
                dotted = _dotted(sub.func)
                if dotted is not None:
                    if (
                        dotted.startswith("random.")
                        and dotted != "random.Random"
                    ) or dotted in ("np.random.seed", "numpy.random.seed"):
                        emit(
                            "D104", lineno, qual,
                            f"{dotted}() draws from global, process-seeded "
                            "state; construct a seeded Random/default_rng "
                            "and thread it through config",
                        )
                    elif dotted in (
                        "np.random.default_rng",
                        "numpy.random.default_rng",
                        "default_rng",
                    ) and not sub.args and not sub.keywords:
                        emit(
                            "D104", lineno, qual,
                            "default_rng() without a seed is entropy-seeded; "
                            "pass an explicit seed",
                        )

            # ---- decision-path-only rules --------------------------------
            if not on_decision_path or is_dunder:
                continue

            # D105: iterating an unordered collection.
            iter_expr: ast.expr | None = None
            if isinstance(sub, ast.For):
                iter_expr = sub.iter
            elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                                  ast.GeneratorExp)):
                iter_expr = sub.generators[0].iter
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("list", "tuple", "enumerate", "iter", "next")
                and sub.args
            ):
                iter_expr = sub.args[0]
            if iter_expr is not None and _is_set_expr(iter_expr, set_locals):
                # min/max/sorted/... over a set is order-insensitive; only
                # flag when the *iteration order* can escape.
                parent = parents.get(sub)
                if not (
                    isinstance(parent, ast.Call)
                    and isinstance(parent.func, ast.Name)
                    and parent.func.id in _ORDER_INSENSITIVE
                ):
                    emit(
                        "D105", lineno, qual,
                        "iterates an unordered set on a decision path; "
                        "iteration order leaks PYTHONHASHSEED into "
                        "schedules — sort, or iterate an ordered source",
                    )

            # D106: tainted process-global identity in decision arithmetic.
            tainted_attr = None
            context = None
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
                and sub.attr in taint.tainted_attrs
            ):
                # climb: inside a launderer call -> ok; inside a *mix* call
                # or arithmetic BinOp -> finding.
                node_it: ast.AST = sub
                while True:
                    parent = parents.get(node_it)
                    if parent is None or isinstance(
                        parent, (ast.stmt, ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        break
                    if isinstance(parent, ast.Call):
                        pdotted = _dotted(parent.func) or ""
                        pname = pdotted.rsplit(".", 1)[-1]
                        if pname in LAUNDERERS:
                            break
                        if "mix" in pname:
                            tainted_attr, context = sub.attr, f"{pname}()"
                            break
                    if isinstance(parent, ast.BinOp) and isinstance(
                        parent.op, _ARITH_OPS
                    ):
                        tainted_attr, context = sub.attr, "arithmetic"
                        break
                    node_it = parent
            if tainted_attr is not None:
                emit(
                    "D106", lineno, qual,
                    f"process-global counter value '.{tainted_attr}' feeds "
                    f"{context} on a decision path; translate through the "
                    "run-local DataStore.matrix_index first (the PR-3 "
                    "purity bug, statically)",
                )
    return findings


# ----------------------------------------------------------------- tree pass


def lint_determinism(modules: list[Module]) -> list[Finding]:
    """Run the purity/determinism rules over the loaded package.

    The call graph spans every module; the rules run over the parsed
    modules of :data:`SCOPES`.
    """
    decision_keys = CallGraph.build(modules).reachable(DECISION_ROOTS)
    scoped = [
        m for m in modules if m.tree is not None and _in_scope(m.rel, SCOPES)
    ]
    taint = discover_taint(scoped)
    findings: list[Finding] = []
    for module in scoped:
        findings += _lint_module(module, decision_keys, taint)
    return findings
