"""Tests for the purity/determinism linter (:mod:`repro.verify.determinism`)
and its call-graph substrate (:mod:`repro.verify.callgraph`)."""

import shutil
from pathlib import Path

import pytest

from repro.verify import callgraph
from repro.verify.determinism import (
    lint_determinism,
    load_baseline,
    new_findings,
    write_baseline,
)

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def codes(findings) -> list[str]:
    return sorted(f.finding.code for f in findings)


# --------------------------------------------------------------- rules D101+


def test_d101_flags_id_calls(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/m.py": "def dedup(xs):\n    return {id(x) for x in xs}\n",
    })
    assert codes(lint_determinism(root)) == ["D101"]


def test_d102_flags_hash_in_bench_scope_only(tmp_path):
    root = make_tree(tmp_path, {
        "bench/h.py": "def key(x):\n    return hash(x)\n",
        # sim/ is L002's scope, not D102's — no double reporting.
        "sim/h.py": "def key(x):\n    return hash(x)\n",
    })
    found = lint_determinism(root)
    assert codes(found) == ["D102"]
    assert found[0].finding.subject.startswith("bench/h.py")


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
    assert codes(lint_determinism(root)) == ["D103", "D103"]


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
    assert codes(lint_determinism(root)) == ["D103", "D103"]


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
    assert codes(lint_determinism(root)) == ["D104"]


def test_d104_wall_clock_scope_memory_yes_bench_no(tmp_path):
    root = make_tree(tmp_path, {
        "memory/t.py": "import time\ndef now():\n    return time.monotonic()\n",
        # bench legitimately measures wall time (it benchmarks the simulator).
        "bench/t.py": "import time\ndef now():\n    return time.monotonic()\n",
    })
    found = lint_determinism(root)
    assert codes(found) == ["D104"]
    assert found[0].finding.subject.startswith("memory/t.py")


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
    found = lint_determinism(root)
    assert codes(found) == ["D105"]
    assert "helper" in found[0].finding.message


def test_d105_exempts_order_insensitive_reductions(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/sched.py": (
            "def pop(q):\n"
            "    best = min({3, 1, 2})\n"
            "    total = sum(set(q))\n"
            "    return best + total\n"
        ),
    })
    assert lint_determinism(root) == []


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
    found = lint_determinism(root)
    assert codes(found) == ["D106"]
    assert "matrix_id" in found[0].finding.message


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
    assert lint_determinism(root) == []


# ------------------------------------------------------- waivers & baseline


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
    found = lint_determinism(root)
    assert codes(found) == ["D101"]
    assert "naked" in found[0].finding.message


def test_baseline_roundtrip_filters_fingerprints(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/b.py": "def f(xs):\n    return id(xs)\n",
    })
    found = lint_determinism(root)
    assert len(found) == 1
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, found)
    baseline = load_baseline(baseline_file)
    assert new_findings(found, baseline) == []
    # Fingerprints are line-free: moving the finding does not churn them.
    root2 = make_tree(tmp_path / "v2", {
        "runtime/b.py": "# a new comment shifts every line\n\ndef f(xs):\n    return id(xs)\n",
    })
    assert new_findings(lint_determinism(root2), baseline) == []
    # ...but a genuinely new finding is not absorbed.
    root3 = make_tree(tmp_path / "v3", {
        "runtime/b.py": "def f(xs):\n    return id(xs)\ndef g(xs):\n    return id(xs)\n",
    })
    fresh = new_findings(lint_determinism(root3), baseline)
    assert [f.code for f in fresh] == ["D101"] and "g" in fresh[0].message


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(tmp_path / "nope.json") == set()


# ----------------------------------------------------------- the repository


def test_repository_tree_is_clean_against_committed_baseline():
    found = lint_determinism(PACKAGE_ROOT)
    baseline = load_baseline(PACKAGE_ROOT / "verify" / "determinism_baseline.json")
    assert new_findings(found, baseline) == []


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
    baseline = load_baseline(dst / "verify" / "determinism_baseline.json")
    fresh = new_findings(lint_determinism(dst), baseline)
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
    graph = callgraph.CallGraph.build(root)
    keys = graph.reachable(["Executor._launch"])
    names = {k.split(":", 1)[1].rsplit(".", 1)[-1] for k in keys}
    assert {"_launch", "_complete", "helper"} <= names
    assert "unrelated" not in names


def test_syntax_error_files_are_skipped(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/bad.py": "def broken(:\n",
        "runtime/good.py": "def fine():\n    return id(fine)\n",
    })
    found = lint_determinism(root)
    assert codes(found) == ["D101"]  # bad.py skipped, L000 is lint's job


@pytest.mark.parametrize("scope", ["sim", "runtime", "memory", "blas", "bench"])
def test_all_five_scopes_are_scanned(tmp_path, scope):
    root = make_tree(tmp_path / scope, {
        f"{scope}/x.py": "def f(xs):\n    return id(xs)\n",
    })
    assert codes(lint_determinism(root)) == ["D101"]


def test_out_of_scope_trees_are_ignored(tmp_path):
    root = make_tree(tmp_path, {
        "verify/x.py": "def f(xs):\n    return id(xs)\n",
        "topology/y.py": "def f(xs):\n    return id(xs)\n",
    })
    assert lint_determinism(root) == []
