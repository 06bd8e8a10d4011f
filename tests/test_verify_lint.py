"""Tests for the project AST lint rules (:mod:`repro.verify.lint`).

The repository's own sources must lint clean; each rule is proven live on
synthetic modules placed (by relative path) inside and outside its scope.
"""

import json
from pathlib import Path

import repro
from repro.verify import cli
from repro.verify.base import load_package
from repro.verify.lint import lint_package


def codes(findings):
    return {f.code for f in findings}


def lint_tree(root: Path):
    """Every lint rule over the package tree at ``root``."""
    return lint_package(load_package(root))


def lint_module(root: Path, rel: str, source: str):
    """Every lint rule over the package tree at ``root`` with ``source``
    written at the relative path ``rel``."""
    _seed(root, rel, source)
    return lint_tree(root)


def static_findings(root: Path, tmp_path: Path) -> list[tuple[str, str]]:
    """``(code, subject)`` of every finding of one static CLI run over
    ``root`` (AST lint, determinism and reclamation passes), sorted."""
    report = tmp_path / "report.json"
    cli.main(
        ["--src", str(root), "--skip-graph", "--skip-runtime", "--json", str(report)]
    )
    document = json.loads(report.read_text(encoding="utf-8"))
    return sorted((f["code"], f["subject"]) for f in document["findings"])


def _seed(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")


def test_repository_sources_lint_clean():
    assert lint_tree(Path(repro.__file__).parent) == []


# ------------------------------------------------------------ L001 wall clock


def test_wall_clock_call_in_sim_detected(tmp_path):
    src = "import time\n\ndef now():\n    return time.time()\n"
    assert codes(lint_module(tmp_path, "sim/engine.py", src)) == {"L001"}


def test_wall_clock_variants_detected(tmp_path):
    for call in ("time.monotonic()", "time.perf_counter_ns()",
                 "datetime.datetime.now()"):
        src = f"import time, datetime\n\ndef f():\n    return {call}\n"
        assert codes(lint_module(tmp_path, "runtime/executor.py", src)) == {"L001"}


def test_from_import_wall_clock_detected(tmp_path):
    src = "from time import perf_counter as pc\n\ndef f():\n    return pc()\n"
    assert codes(lint_module(tmp_path, "sim/stream.py", src)) == {"L001"}


def test_aliased_module_wall_clock_detected(tmp_path):
    for imports, call in (
        ("import time as t", "t.time()"),
        ("from datetime import datetime as dt", "dt.now()"),
        ("from datetime import date", "date.today()"),
    ):
        src = f"{imports}\n\ndef f():\n    return {call}\n"
        assert codes(lint_module(tmp_path, "runtime/executor.py", src)) == {"L001"}, call


def test_non_clock_names_from_clock_modules_are_fine(tmp_path):
    src = (
        "import time as t\nfrom datetime import timedelta\n\n"
        "def f():\n    return t.sleep, timedelta(seconds=1)\n"
    )
    assert lint_module(tmp_path, "sim/engine.py", src) == []


def test_wall_clock_outside_virtual_time_scope_is_fine(tmp_path):
    src = "import time\n\ndef now():\n    return time.time()\n"
    assert lint_module(tmp_path, "bench/harness.py", src) == []


def test_wall_clock_scope_memory_and_blas_yes_bench_no(tmp_path):
    """One wall-clock rule covers the data model and the task builders too,
    with the ``datetime`` reads and bare imported names of its one table."""
    root = tmp_path / "pkg"
    _seed(root, "memory/t.py", "import time\ndef now():\n    return time.monotonic()\n")
    _seed(root, "memory/d.py",
          "import datetime\ndef now():\n    return datetime.datetime.now()\n")
    _seed(root, "blas/p.py",
          "from time import perf_counter\ndef now():\n    return perf_counter()\n")
    # bench legitimately measures wall time (it benchmarks the simulator).
    _seed(root, "bench/t.py", "import time\ndef now():\n    return time.monotonic()\n")
    assert static_findings(root, tmp_path) == [
        ("L001", "blas/p.py:3"),
        ("L001", "memory/d.py:3"),
        ("L001", "memory/t.py:3"),
    ]


# ------------------------------------------------------------ L002 salted hash


def test_builtin_hash_in_memory_detected(tmp_path):
    src = "def bucket(key):\n    return hash(key) % 7\n"
    assert codes(lint_module(tmp_path, "memory/cache.py", src)) == {"L002"}


def test_builtin_hash_outside_scope_is_fine(tmp_path):
    src = "def bucket(key):\n    return hash(key) % 7\n"
    assert lint_module(tmp_path, "topology/platform.py", src) == []


def test_hash_rule_covers_every_scope_once(tmp_path):
    """One ``hash()`` rule over sim/, runtime/, memory/, blas/ and bench/:
    module-level calls count, and no call is reported twice."""
    root = tmp_path / "pkg"
    _seed(root, "bench/h.py", "def key(x):\n    return hash(x)\n")
    _seed(root, "sim/h.py", "def key(x):\n    return hash(x)\n")
    _seed(root, "blas/m.py", "SALT = hash('tiles')\n")
    assert static_findings(root, tmp_path) == [
        ("L002", "bench/h.py:2"),
        ("L002", "blas/m.py:1"),
        ("L002", "sim/h.py:2"),
    ]


# ---------------------------------------------------------------- L003 slots


def test_dataclass_without_slots_detected(tmp_path):
    src = (
        "import dataclasses\n\n"
        "@dataclasses.dataclass\n"
        "class Hot:\n"
        "    x: int = 0\n"
    )
    assert codes(lint_module(tmp_path, "runtime/task.py", src)) == {"L003"}


def test_bare_dataclass_decorator_detected(tmp_path):
    src = (
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Hot:\n"
        "    x: int = 0\n"
    )
    assert codes(lint_module(tmp_path, "sim/event.py", src)) == {"L003"}


def test_dataclass_with_slots_is_fine(tmp_path):
    src = (
        "import dataclasses\n\n"
        "@dataclasses.dataclass(frozen=True, slots=True)\n"
        "class Hot:\n"
        "    x: int = 0\n"
    )
    assert lint_module(tmp_path, "memory/tile.py", src) == []


def test_dataclass_outside_hot_scopes_is_fine(tmp_path):
    src = "import dataclasses\n\n@dataclasses.dataclass\nclass Cfg:\n    x: int = 0\n"
    assert lint_module(tmp_path, "bench/experiments/fig2.py", src) == []


# ------------------------------------------------------- L004 state ownership


def test_state_mutation_outside_owners_detected(tmp_path):
    src = "def hack(task):\n    task.state = 'done'\n"
    assert codes(lint_module(tmp_path, "runtime/scheduler/base.py", src)) == {"L004"}


def test_state_mutation_in_owner_modules_is_fine(tmp_path):
    src = "def advance(task):\n    task.state = 'done'\n"
    assert lint_module(tmp_path, "runtime/executor.py", src) == []
    assert lint_module(tmp_path, "runtime/dataflow.py", src) == []


# ------------------------------------------------- L005 unused private method


def test_unused_private_method_detected(tmp_path):
    _seed(tmp_path, "runtime/exec.py",
          "class Exec:\n"
          "    def run(self):\n"
          "        return self._used()\n"
          "    def _used(self):\n"
          "        return 1\n"
          "    def _dead(self):\n"
          "        return 2\n")
    findings = [f for f in lint_tree(tmp_path) if f.code == "L005"]
    assert len(findings) == 1
    assert "Exec._dead" in findings[0].message


def test_private_hook_used_from_another_module_is_fine(tmp_path):
    # Subclass hooks are defined in one module and invoked from another
    # (Scheduler subclasses override methods base.py calls); the tree-wide
    # usage scan must keep them alive.
    _seed(tmp_path, "runtime/policy.py",
          "class Policy:\n"
          "    def _owner_hint(self):\n"
          "        return None\n")
    _seed(tmp_path, "libraries/driver.py",
          "def drive(policy):\n"
          "    return policy._owner_hint()\n")
    assert [f for f in lint_tree(tmp_path) if f.code == "L005"] == []


def test_private_method_kept_alive_by_getattr_string(tmp_path):
    _seed(tmp_path, "sim/hooks.py",
          "class Hooks:\n"
          "    def _on_tick(self):\n"
          "        return 0\n"
          "def fire(obj):\n"
          "    return getattr(obj, '_on_tick')()\n")
    assert [f for f in lint_tree(tmp_path) if f.code == "L005"] == []


def test_dunder_public_and_out_of_scope_methods_ignored(tmp_path):
    _seed(tmp_path, "memory/thing.py",
          "class Thing:\n"
          "    def __hash__(self):\n"
          "        return 0\n"
          "    def public_but_unused(self):\n"
          "        return 0\n")
    # Top-level modules (config, errors) are outside every subpackage.
    _seed(tmp_path, "tool.py",
          "class Tool:\n"
          "    def _dead_but_out_of_scope(self):\n"
          "        return 0\n")
    assert [f for f in lint_tree(tmp_path) if f.code == "L005"] == []


def test_unused_private_method_in_any_subpackage_detected(tmp_path):
    _seed(tmp_path, "libraries/session.py",
          "class Session:\n"
          "    def _grid_shape(self, part):\n"
          "        return part.shape\n")
    findings = [f for f in lint_tree(tmp_path) if f.code == "L005"]
    assert len(findings) == 1
    assert "Session._grid_shape" in findings[0].message


def test_class_body_alias_keeps_private_method_alive(tmp_path):
    # ast.NodeVisitor dispatches on visit_<Node>; aliasing one private
    # handler under two visit names is a use, not dead code.
    _seed(tmp_path, "runtime/visitor.py",
          "class Visitor:\n"
          "    def _fn(self, node):\n"
          "        return node\n"
          "    visit_FunctionDef = _fn\n"
          "    visit_AsyncFunctionDef = _fn\n")
    assert [f for f in lint_tree(tmp_path) if f.code == "L005"] == []


# ------------------------------------------------------------------- plumbing


def test_syntax_error_reported_not_raised(tmp_path):
    assert codes(lint_module(tmp_path, "sim/x.py", "def broken(:\n")) == {"L000"}


def test_lint_path_walks_a_seeded_tree(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "clock.py").write_text(
        "import time\nNOW = time.time()\n", encoding="utf-8"
    )
    (tmp_path / "analysis").mkdir()
    (tmp_path / "analysis" / "ok.py").write_text(
        "import time\nNOW = time.time()\n", encoding="utf-8"
    )
    findings = lint_tree(tmp_path)
    assert codes(findings) == {"L001"}
    assert all("sim" in f.subject for f in findings)
