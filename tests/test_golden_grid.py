"""Replay every cell of ``tests/data/golden_grid.json``.

One golden per library configuration the figures run: every library ×
routine × {host, device} at N=8192, nb=1024 on the 8-GPU DGX-1, Fig. 8's
composition cells, and XKBLAS GEMM on a 16-GPU NVSwitch node and a 6-GPU
Summit node (``tests/record_golden_grid.py`` lists them and re-records the
file).  A cell must reproduce its makespan bit for bit, its event and task
counts and its transfer stats, or raise the same ``LibraryError`` text.
"""

import json

import pytest

from tests.record_golden_grid import GRID_PATH, grid_cells, observe

RECORDED = json.loads(GRID_PATH.read_text())["cells"]
CELLS = grid_cells()


def test_grid_file_records_exactly_the_grid():
    assert list(RECORDED) == [spec.cache_key() for spec in CELLS]


@pytest.mark.parametrize("spec", CELLS, ids=lambda spec: spec.cache_key())
def test_cell_reproduces_its_golden(spec):
    assert observe(spec) == RECORDED[spec.cache_key()]
