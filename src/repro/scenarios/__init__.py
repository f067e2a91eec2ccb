"""Scenario subsystem: a closed catalog of parameterized scientific-workflow generators.

Public surface::

    from repro.scenarios import (
        available_scenarios,   # names of every scenario of the catalog
        get_scenario,          # name -> Scenario (factory + declared profile)
        build_scenario,        # "cybershake:size=500,seed=3" -> Workflow
        parse_scenario_spec,   # spec string -> (name, params)
    )

See :mod:`repro.scenarios.registry` for the lookup by name and
:mod:`repro.scenarios.catalog` for the nine DAG families, the rows of its
``SCENARIOS`` table.
"""

from .registry import (
    Scenario,
    ScenarioError,
    available_scenarios,
    build_scenario,
    get_scenario,
    parse_scenario_spec,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "available_scenarios",
    "build_scenario",
    "get_scenario",
    "parse_scenario_spec",
]
