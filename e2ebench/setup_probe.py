"""Cold set-up time of one workload, measured in a fresh interpreter.

Prints two CPU times: from before the first import of the package to a
runtime constructed with the workload's configuration and its operands
partitioned — everything a caller pays before the first task is submitted —
and then the mean of :data:`REFERENCE_REPS` calls of the reference kernel
(``calibrate.py``) in the same interpreter, so ``run.py`` can express the
set-up at the reference speed.  Run by ``run.py`` as
``python3 e2ebench/setup_probe.py WORKLOAD SEED``.
"""

import time

T0 = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2])).prepare()
setup = time.process_time() - T0

from calibrate import reference_cpu_s  # noqa: E402

#: reference-kernel calls timed after the set-up.
REFERENCE_REPS = 3
print(setup, sum(reference_cpu_s() for _ in range(REFERENCE_REPS)) / REFERENCE_REPS)
