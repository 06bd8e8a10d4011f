"""Importing the package loads no third-party module but numpy.

numpy is the one runtime dependency ``pyproject.toml`` declares.  Any other
package imported at load time would cost every process that imports
``repro`` memory and start-up time (a benchmark run, each spawned sweep
worker, the tuning service), and a plain ``pip install .`` would not provide
it.  The probe runs in a fresh interpreter because this test process has
already loaded pytest and its plugins.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = (
    "repro",
    "repro.bench.harness",
    "repro.bench.experiments.fig1_topology",
    "repro.tuning.service.server",
    "repro.verify.cli",
)
#: the package itself and the ``dependencies`` of ``pyproject.toml``.
ALLOWED = ("repro", "numpy")

# Modules the interpreter loaded before the probe (site hooks) are not the
# package's doing; ``__mp_main__`` is multiprocessing's alias of ``__main__``.
PROBE = f"""
import importlib, sys
preloaded = set(sys.modules)
for name in {ENTRY_POINTS!r}:
    importlib.import_module(name)
top_level = {{name.partition(".")[0] for name in set(sys.modules) - preloaded}}
print(" ".join(sorted(
    name for name in top_level
    if name not in sys.stdlib_module_names
    and name not in {ALLOWED!r}
    and sys.modules.get(name) is not sys.modules["__main__"]
)))
"""


def test_entry_points_import_only_stdlib_and_numpy():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "", f"third-party modules loaded: {proc.stdout.strip()}"
