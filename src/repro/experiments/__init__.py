"""First-class Experiment/Sweep API.

Declarative parameter grids (:class:`ParameterGrid`) executed into
aggregated reports (:class:`SweepReport`) by :class:`Experiment` — or, more
conveniently, by :meth:`GinFlow.sweep <repro.runtime.ginflow.GinFlow.sweep>`::

    from functools import partial

    from repro import GinFlow, ParameterGrid, diamond_workflow

    grid = ParameterGrid({"nodes": [5, 15], "broker": ["activemq", "kafka"]})
    report = GinFlow().sweep(partial(diamond_workflow, 5, 5, duration=0.1),
                             grid, repeats=3, workers=4)  # in 4 processes
    print(report.format_table())
    report.to_csv("sweep.csv")

Every benchmark driver of :mod:`repro.bench` is a thin grid declaration over
this API.
"""

from .experiment import Experiment
from .grid import ParameterGrid
from .report import SweepReport
from .stats import format_table, mean, std

__all__ = [
    "Experiment",
    "ParameterGrid",
    "SweepReport",
    "format_table",
    "mean",
    "std",
]
