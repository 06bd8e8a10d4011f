"""Tests for the reclamation-safety pass (:mod:`repro.verify.reclaim`)."""

from pathlib import Path

from repro.verify.base import load_package
from repro.verify.reclaim import lint_reclamation

PACKAGE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def lint_tree(root: Path):
    """The reclamation pass over the package tree at ``root``."""
    return lint_reclamation(load_package(root))


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return tmp_path


def codes(findings) -> list[str]:
    return sorted(f.code for f in findings)


# ------------------------------------------------------------------- M101a


def test_m101a_read_of_cleared_field_after_complete(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/x.py": (
            "def finish(graph, task):\n"
            "    graph.complete(task)\n"
            "    return task.successors\n"
        ),
    })
    found = lint_tree(root)
    assert codes(found) == ["M101"]
    assert "successors" in found[0].message


def test_m101a_read_before_complete_is_clean(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/x.py": (
            "def finish(graph, task):\n"
            "    succ = task.successors\n"
            "    graph.complete(task)\n"
            "    return succ\n"
        ),
    })
    assert lint_tree(root) == []


def test_m101a_uncleared_field_after_complete_is_clean(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/x.py": (
            "def finish(graph, task):\n"
            "    graph.complete(task)\n"
            "    return task.uid\n"
        ),
    })
    assert lint_tree(root) == []


def test_m101a_only_the_completed_variable_is_tracked(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/x.py": (
            "def finish(graph, task, other):\n"
            "    graph.complete(task)\n"
            "    return other.successors\n"
        ),
    })
    assert lint_tree(root) == []


# ------------------------------------------------------------------- M101b


def test_m101b_on_complete_reads_cleared_field(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/sched.py": (
            "class Scheduler:\n"
            "    def on_complete(self, task, ctx):\n"
            "        for succ in task.successors:\n"
            "            ctx.wake(succ)\n"
        ),
    })
    found = lint_tree(root)
    assert codes(found) == ["M101"]


def test_m101b_follows_one_call_hop(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/sched.py": (
            "class Scheduler:\n"
            "    def on_complete(self, task, ctx):\n"
            "        self._credit(task)\n"
            "    def _credit(self, task):\n"
            "        return len(task.accesses)\n"
        ),
    })
    found = lint_tree(root)
    assert codes(found) == ["M101"]
    assert "accesses" in found[0].message


def test_m101b_safe_fields_in_on_complete_are_clean(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/sched.py": (
            "class Scheduler:\n"
            "    def on_complete(self, task, ctx):\n"
            "        self.done.add(task.uid)\n"
            "        self.flops += task.flops\n"
        ),
    })
    assert lint_tree(root) == []


# -------------------------------------------------------------------- M102


def test_m102_unguarded_graph_tasks_read(tmp_path):
    root = make_tree(tmp_path, {
        "sim/a.py": (
            "def census(graph):\n"
            "    return len(graph.tasks)\n"
        ),
    })
    found = lint_tree(root)
    assert codes(found) == ["M102"]


def test_m102_retained_only_method_call(tmp_path):
    root = make_tree(tmp_path, {
        "sim/a.py": (
            "def check(task_graph):\n"
            "    task_graph.critical_path_priorities()\n"
        ),
    })
    assert codes(lint_tree(root)) == ["M102"]


def test_m102_if_guard_dominates(tmp_path):
    root = make_tree(tmp_path, {
        "sim/a.py": (
            "def census(graph):\n"
            "    if graph.retain_tasks:\n"
            "        return len(graph.tasks)\n"
            "    return -1\n"
        ),
    })
    assert lint_tree(root) == []


def test_m102_early_raise_guard_dominates_the_rest(tmp_path):
    # The exact shape of the repo's critical_path fix in sim/analysis.py.
    root = make_tree(tmp_path, {
        "sim/a.py": (
            "def census(graph):\n"
            "    if not graph.retain_tasks:\n"
            "        raise RuntimeError('needs retained graph')\n"
            "    return len(graph.tasks)\n"
        ),
    })
    assert lint_tree(root) == []


def test_m102_try_except_taskgrapherror_dominates(tmp_path):
    root = make_tree(tmp_path, {
        "sim/a.py": (
            "from repro.errors import TaskGraphError\n"
            "def census(graph):\n"
            "    try:\n"
            "        return len(graph.tasks)\n"
            "    except TaskGraphError:\n"
            "        return -1\n"
        ),
    })
    assert lint_tree(root) == []


def test_m102_unrelated_except_does_not_dominate(tmp_path):
    root = make_tree(tmp_path, {
        "sim/a.py": (
            "def census(graph):\n"
            "    try:\n"
            "        return len(graph.tasks)\n"
            "    except ValueError:\n"
            "        return -1\n"
        ),
    })
    assert codes(lint_tree(root)) == ["M102"]


def test_m102_non_graph_receiver_is_ignored(tmp_path):
    root = make_tree(tmp_path, {
        "sim/a.py": (
            "def census(pool):\n"
            "    return len(pool.tasks)\n"
        ),
    })
    assert lint_tree(root) == []


def test_m102_dataflow_module_is_exempt(tmp_path):
    root = make_tree(tmp_path, {
        "runtime/dataflow.py": (
            "class TaskGraph:\n"
            "    def census(self):\n"
            "        graph = self\n"
            "        return len(graph.tasks)\n"
        ),
    })
    assert lint_tree(root) == []


# --------------------------------------------------------- waivers & repo


def test_det_waiver_silences_reclaim_findings(tmp_path):
    root = make_tree(tmp_path, {
        "sim/a.py": (
            "def census(graph):\n"
            "    return len(graph.tasks)  # det: examples only pass retained graphs\n"
        ),
    })
    assert lint_tree(root) == []


def test_repository_tree_is_reclamation_clean():
    assert lint_tree(PACKAGE_ROOT) == []
