"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture()
def scratch_scenario(monkeypatch):
    """Add throwaway rows to the scenario table for one test:
    ``scratch_scenario(name, factory, **profile)``."""
    from repro.scenarios.catalog import SCENARIOS
    from repro.scenarios.registry import Scenario

    def add(name, factory, **profile):
        monkeypatch.setitem(SCENARIOS, name, Scenario(name, factory, **profile))

    return add
