"""Tests for the purity/determinism linter (:mod:`repro.verify.determinism`)
and its call-graph substrate (:mod:`repro.verify.callgraph`)."""

import shutil
from pathlib import Path

import pytest

from repro.verify import callgraph
from repro.verify.base import load_package
from repro.verify.determinism import lint_determinism

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_tree(root: Path):
    """The determinism linter over the package tree at ``root``."""
    return lint_determinism(load_package(root))


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def codes(findings) -> list[str]:
    return sorted(f.code for f in findings)


# --------------------------------------------------------------- rules D101+


def test_d101_flags_id_calls(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/m.py": "def dedup(xs):\n    return {id(x) for x in xs}\n",
    })
    assert codes(lint_tree(root)) == ["D101"]


def test_d103_flags_global_rebinding_and_container_writes(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/g.py": (
            "_cache = {}\n"
            "_count = 0\n"
            "def remember(k, v):\n"
            "    _cache[k] = v\n"
            "def bump():\n"
            "    global _count\n"
            "    _count = _count + 1\n"
        ),
    })
    assert codes(lint_tree(root)) == ["D103", "D103"]


def test_d103_flags_module_counter_draws_including_default_factory(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/c.py": (
            "import itertools\n"
            "import dataclasses\n"
            "_ids = itertools.count()\n"
            "@dataclasses.dataclass\n"
            "class Thing:\n"
            "    uid: int = dataclasses.field(default_factory=lambda: next(_ids))\n"
            "def fresh():\n"
            "    return next(_ids)\n"
        ),
    })
    assert codes(lint_tree(root)) == ["D103", "D103"]


def test_d104_flags_unseeded_random_but_not_seeded_rng(tmp_path):
    root = make_tree(tmp_path, {
        "bench/r.py": (
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n"
            "def rng(seed):\n"
            "    return random.Random(seed)\n"
        ),
    })
    assert codes(lint_tree(root)) == ["D104"]


def test_d105_set_iteration_only_on_decision_paths(tmp_path):
    decision = (
        "def pop(q):\n"
        "    return helper(q)\n"
        "def helper(q):\n"
        "    for x in {1, 2, 3}:\n"
        "        q.append(x)\n"
    )
    offline = (
        "def summarize(xs):\n"
        "    out = []\n"
        "    for x in set(xs):\n"
        "        out.append(x)\n"
        "    return out\n"
    )
    root = make_tree(tmp_path, {
        "runtime/sched.py": decision,
        "bench/report.py": offline,
    })
    found = lint_tree(root)
    assert codes(found) == ["D105"]
    assert "helper" in found[0].message


def test_d105_exempts_order_insensitive_reductions(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/sched.py": (
            "def pop(q):\n"
            "    best = min({3, 1, 2})\n"
            "    total = sum(set(q))\n"
            "    return best + total\n"
        ),
    })
    assert lint_tree(root) == []


def test_d106_taint_flows_through_constructor_into_mix_call(tmp_path):
    root = make_tree(tmp_path, {
        "memory/mat.py": (
            "import itertools\n"
            "_matrix_ids = itertools.count()\n"
            "class Matrix:\n"
            "    def __init__(self):\n"
            "        self.mid = next(_matrix_ids)  # det: identity only\n"
        ),
        "runtime/key.py": (
            "import dataclasses\n"
            "@dataclasses.dataclass\n"
            "class Key:\n"
            "    matrix_id: int\n"
            "    i: int\n"
            "def make_key(matrix, i):\n"
            "    return Key(matrix.mid, i)\n"
        ),
        "runtime/tm.py": (
            "def _mix(a, b):\n"
            "    return a * 1000003 + b\n"
            "class TransferManager:\n"
            "    def _select_source(self, key):\n"
            "        return _mix(key.matrix_id, key.i)\n"
        ),
    })
    found = lint_tree(root)
    assert codes(found) == ["D106"]
    assert "matrix_id" in found[0].message


def test_d106_laundered_through_matrix_index_is_clean(tmp_path):
    root = make_tree(tmp_path, {
        "memory/mat.py": (
            "import itertools\n"
            "_ids = itertools.count()\n"
            "class Matrix:\n"
            "    def __init__(self):\n"
            "        self.matrix_id = next(_ids)  # det: identity only\n"
        ),
        "runtime/tm.py": (
            "def _mix(a, b):\n"
            "    return a * 1000003 + b\n"
            "class TransferManager:\n"
            "    def _select_source(self, key):\n"
            "        return _mix(self.datastore.matrix_index(key.matrix_id), key.i)\n"
        ),
    })
    assert lint_tree(root) == []


def test_nested_def_body_is_linted_once(tmp_path):
    """A nested def is checked as its own function, on the decision path of
    its enclosing one, not a second time inside the enclosing body."""
    root = make_tree(tmp_path, {
        "runtime/sched.py": (
            "class Sched:\n"
            "    def pop(self, q):\n"
            "        def order():\n"
            "            return [x for x in {id(q), 2}]\n"
            "        return order()\n"
        ),
    })
    found = lint_tree(root)
    assert codes(found) == ["D101", "D105"]
    assert all(f.message.startswith("Sched.pop.order:") for f in found)


# ------------------------------------------------------------------- waivers


def test_det_waiver_on_same_or_preceding_line(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/w.py": (
            "def same(xs):\n"
            "    return {id(x) for x in xs}  # det: ephemeral debug map\n"
            "def above(xs):\n"
            "    # det: ephemeral debug map\n"
            "    return {id(x) for x in xs}\n"
            "def naked(xs):\n"
            "    return {id(x) for x in xs}\n"
        ),
    })
    found = lint_tree(root)
    assert codes(found) == ["D101"]
    assert "naked" in found[0].message


# ----------------------------------------------------------- the repository


def test_repository_tree_is_determinism_clean():
    """Every intentional finding carries an inline ``# det:`` waiver."""
    assert lint_tree(PACKAGE_ROOT) == []


def test_reseeded_pr3_purity_bug_is_caught(tmp_path):
    """Acceptance: the Matrix.id-into-_mix bug must be caught statically."""
    dst = tmp_path / "repro"
    shutil.copytree(PACKAGE_ROOT, dst)
    transfer = dst / "runtime" / "transfer.py"
    source = transfer.read_text(encoding="utf-8")
    assert "self.datastore.matrix_index(key.matrix_id)" in source
    transfer.write_text(
        source.replace(
            "self.datastore.matrix_index(key.matrix_id)", "key.matrix_id"
        ),
        encoding="utf-8",
    )
    fresh = lint_tree(dst)
    assert [f.code for f in fresh] == ["D106"]
    assert "transfer.py" in fresh[0].subject


# -------------------------------------------------------------- call graph


def test_callgraph_reachability_follows_callbacks(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/e.py": (
            "class Executor:\n"
            "    def _launch(self, sim, t):\n"
            "        sim.post(t, self._complete)\n"
            "    def _complete(self):\n"
            "        helper()\n"
            "def helper():\n"
            "    pass\n"
            "def unrelated():\n"
            "    pass\n"
        ),
    })
    graph = callgraph.CallGraph.build(load_package(root))
    keys = graph.reachable(["Executor._launch"])
    names = {k.split(":", 1)[1].rsplit(".", 1)[-1] for k in keys}
    assert {"_launch", "_complete", "helper"} <= names
    assert "unrelated" not in names


def test_syntax_error_files_are_skipped(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/bad.py": "def broken(:\n",
        "runtime/good.py": "def fine():\n    return id(fine)\n",
    })
    found = lint_tree(root)
    assert codes(found) == ["D101"]  # bad.py skipped, L000 is lint's job


@pytest.mark.parametrize("scope", ["sim", "runtime", "memory", "blas", "bench"])
def test_all_five_scopes_are_scanned(tmp_path, scope):
    root = make_tree(tmp_path / scope, {
        f"{scope}/x.py": "def f(xs):\n    return id(xs)\n",
    })
    assert codes(lint_tree(root)) == ["D101"]


def test_out_of_scope_trees_are_ignored(tmp_path):
    root = make_tree(tmp_path, {
        "verify/x.py": "def f(xs):\n    return id(xs)\n",
        "topology/y.py": "def f(xs):\n    return id(xs)\n",
    })
    assert lint_tree(root) == []
