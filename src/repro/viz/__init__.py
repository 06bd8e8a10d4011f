"""Dependency-free terminal visualization.

The environment has no plotting stack, so ``python -m repro.bench <fig>
--plot`` renders each size sweep (a result whose first column is N, such as
Figs. 3-5) as an ASCII line chart.  The Fig. 9 Gantt chart is drawn by its
experiment, :mod:`repro.bench.experiments.fig9_gantt`.
"""

from repro.viz.ascii import line_chart

__all__ = ["line_chart"]
