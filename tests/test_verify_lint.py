"""Tests for the project AST lint rules (:mod:`repro.verify.lint`).

The repository's own sources must lint clean; each rule is proven live on
synthetic modules placed (by relative path) inside and outside its scope.
"""

from pathlib import Path

import repro
from repro.verify.lint import lint_path, lint_source


def codes(findings):
    return {f.code for f in findings}


def test_repository_sources_lint_clean():
    assert lint_path(Path(repro.__file__).parent) == []


# ------------------------------------------------------------ L001 wall clock


def test_wall_clock_call_in_sim_detected():
    src = "import time\n\ndef now():\n    return time.time()\n"
    assert codes(lint_source(src, Path("sim/engine.py"))) == {"L001"}


def test_wall_clock_variants_detected():
    for call in ("time.monotonic()", "time.perf_counter_ns()",
                 "datetime.datetime.now()"):
        src = f"import time, datetime\n\ndef f():\n    return {call}\n"
        assert codes(lint_source(src, Path("runtime/executor.py"))) == {"L001"}


def test_from_import_wall_clock_detected():
    src = "from time import perf_counter as pc\n\ndef f():\n    return pc()\n"
    assert codes(lint_source(src, Path("sim/stream.py"))) == {"L001"}


def test_wall_clock_outside_virtual_time_scope_is_fine():
    src = "import time\n\ndef now():\n    return time.time()\n"
    assert lint_source(src, Path("bench/harness.py")) == []


# ------------------------------------------------------------ L002 salted hash


def test_builtin_hash_in_memory_detected():
    src = "def bucket(key):\n    return hash(key) % 7\n"
    assert codes(lint_source(src, Path("memory/cache.py"))) == {"L002"}


def test_builtin_hash_outside_scope_is_fine():
    src = "def bucket(key):\n    return hash(key) % 7\n"
    assert lint_source(src, Path("blas/tiled.py")) == []


# ---------------------------------------------------------------- L003 slots


def test_dataclass_without_slots_detected():
    src = (
        "import dataclasses\n\n"
        "@dataclasses.dataclass\n"
        "class Hot:\n"
        "    x: int = 0\n"
    )
    assert codes(lint_source(src, Path("runtime/task.py"))) == {"L003"}


def test_bare_dataclass_decorator_detected():
    src = (
        "from dataclasses import dataclass\n\n"
        "@dataclass\n"
        "class Hot:\n"
        "    x: int = 0\n"
    )
    assert codes(lint_source(src, Path("sim/event.py"))) == {"L003"}


def test_dataclass_with_slots_is_fine():
    src = (
        "import dataclasses\n\n"
        "@dataclasses.dataclass(frozen=True, slots=True)\n"
        "class Hot:\n"
        "    x: int = 0\n"
    )
    assert lint_source(src, Path("memory/tile.py")) == []


def test_dataclass_outside_hot_scopes_is_fine():
    src = "import dataclasses\n\n@dataclasses.dataclass\nclass Cfg:\n    x: int = 0\n"
    assert lint_source(src, Path("bench/experiments/fig2.py")) == []


# ------------------------------------------------------- L004 state ownership


def test_state_mutation_outside_owners_detected():
    src = "def hack(task):\n    task.state = 'done'\n"
    assert codes(lint_source(src, Path("runtime/scheduler/base.py"))) == {"L004"}


def test_state_mutation_in_owner_modules_is_fine():
    src = "def advance(task):\n    task.state = 'done'\n"
    assert lint_source(src, Path("runtime/executor.py")) == []
    assert lint_source(src, Path("runtime/dataflow.py")) == []


# ------------------------------------------------- L005 unused private method


def _seed(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")


def test_unused_private_method_detected(tmp_path):
    _seed(tmp_path, "runtime/exec.py",
          "class Exec:\n"
          "    def run(self):\n"
          "        return self._used()\n"
          "    def _used(self):\n"
          "        return 1\n"
          "    def _dead(self):\n"
          "        return 2\n")
    findings = [f for f in lint_path(tmp_path) if f.code == "L005"]
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
    assert [f for f in lint_path(tmp_path) if f.code == "L005"] == []


def test_private_method_kept_alive_by_getattr_string(tmp_path):
    _seed(tmp_path, "sim/hooks.py",
          "class Hooks:\n"
          "    def _on_tick(self):\n"
          "        return 0\n"
          "def fire(obj):\n"
          "    return getattr(obj, '_on_tick')()\n")
    assert [f for f in lint_path(tmp_path) if f.code == "L005"] == []


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
    assert [f for f in lint_path(tmp_path) if f.code == "L005"] == []


def test_unused_private_method_in_any_subpackage_detected(tmp_path):
    _seed(tmp_path, "libraries/session.py",
          "class Session:\n"
          "    def _grid_shape(self, part):\n"
          "        return part.shape\n")
    findings = [f for f in lint_path(tmp_path) if f.code == "L005"]
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
    assert [f for f in lint_path(tmp_path) if f.code == "L005"] == []


# ------------------------------------------------------------------- plumbing


def test_syntax_error_reported_not_raised():
    assert codes(lint_source("def broken(:\n", Path("sim/x.py"))) == {"L000"}


def test_lint_path_walks_a_seeded_tree(tmp_path):
    (tmp_path / "sim").mkdir()
    (tmp_path / "sim" / "clock.py").write_text(
        "import time\nNOW = time.time()\n", encoding="utf-8"
    )
    (tmp_path / "analysis").mkdir()
    (tmp_path / "analysis" / "ok.py").write_text(
        "import time\nNOW = time.time()\n", encoding="utf-8"
    )
    findings = lint_path(tmp_path)
    assert codes(findings) == {"L001"}
    assert all("sim" in f.subject for f in findings)
