"""Scenarios — named, parameterized scientific-workflow generators.

A *scenario* is a seed-deterministic generator producing a
:class:`~repro.workflow.dag.Workflow` of a given ``size`` plus a declared
cost/failure profile.  The nine built-in scenarios are the rows of one closed
table, :data:`repro.scenarios.catalog.SCENARIOS`: the CLI (``ginflow
scenarios`` / ``ginflow run --scenario``), ``GinFlow.sweep`` grid axes and
the benchmark matrix all resolve them by name through this module.

Every factory takes at least ``size`` (approximate task count) and ``seed``
(all randomness must derive from it, so the same spec always produces the
same workflow) and may declare extra shape keywords.  A textual *spec* names
a scenario plus parameter overrides::

    epigenomics                 -> ("epigenomics", {})
    cybershake:size=500         -> ("cybershake", {"size": 500})
    sipht:size=200,seed=3       -> ("sipht", {"size": 200, "seed": 3})

This module imports nothing from the rest of :mod:`repro` except the
workflow model, so any layer can depend on it without import cycles; the
catalog is imported on the first lookup of a scenario.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.records import Frozen
from repro.workflow.dag import Workflow

__all__ = [
    "Scenario",
    "ScenarioError",
    "get_scenario",
    "available_scenarios",
    "build_scenario",
    "parse_scenario_spec",
    "coerce_value",
]


class ScenarioError(ValueError):
    """Raised on unknown scenario names, bad specs or parameters a factory refuses."""


#: the default of a factory parameter that has none
_REQUIRED: Any = object()


def _keywords(factory: Callable[..., Any]) -> tuple[dict[str, Any], bool]:
    """The parameters the plain function ``factory`` takes by keyword, each with
    its default (``_REQUIRED`` when it has none), read off its code object, and
    whether it takes any other keyword (``**kwargs``)."""
    code, positional = factory.__code__, factory.__defaults__ or ()
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    defaults = dict(zip(names[code.co_argcount - len(positional) : code.co_argcount], positional))
    defaults.update(factory.__kwdefaults__ or {})
    keywords = {name: defaults.get(name, _REQUIRED) for name in names[code.co_posonlyargcount :]}
    return keywords, bool(code.co_flags & 0x08)  # CO_VARKEYWORDS


class Scenario(Frozen):
    """One scenario: a named workflow generator plus its declared profile.

    Attributes
    ----------
    name:
        Public name the CLI/sweeps refer to (``"epigenomics"``).
    factory:
        ``(size=..., seed=..., **shape) -> Workflow`` generator, a plain
        function.  Must be deterministic for fixed arguments.
    description:
        One-line human description.
    structure:
        Short sketch of the coordination structure (``"parallel pipelines
        feeding one fan-in"``) shown by ``ginflow scenarios``.
    cost_profile:
        Declared duration profile, mapping a stage/class name to its
        ``(low, high)`` duration range in seconds.  Informational: the
        generator stamps the actual drawn values on the tasks.
    failure_profile:
        Declared failure behaviour (``idempotent``, suggested injection
        probability, ...) merged into every task's metadata by the generator.
    tags:
        Free-form labels (``"pegasus"``, ``"synthetic"``, ``"stress"``).
    """

    __slots__ = ("name", "factory", "description", "structure", "cost_profile", "failure_profile", "tags")
    name: str
    factory: Callable[..., Workflow]
    description: str
    structure: str
    cost_profile: Mapping[str, tuple[float, float]]
    failure_profile: Mapping[str, Any]
    tags: tuple[str, ...]

    def __init__(
        self, name: str, factory: Callable[..., Workflow], description: str = "", structure: str = "",
        cost_profile: Mapping[str, tuple[float, float]] | None = None, failure_profile: Mapping[str, Any] | None = None,
        tags: tuple[str, ...] = (),
    ):
        self._init(
            name, factory, description, structure, {} if cost_profile is None else cost_profile,
            {} if failure_profile is None else failure_profile, tags,
        )

    def build(self, **params: Any) -> Workflow:
        """Generate the workflow (unknown parameters raise :class:`ScenarioError`)."""
        keywords, any_keyword = _keywords(self.factory)
        unknown = [name for name in params if name not in keywords]
        if unknown and not any_keyword:
            raise ScenarioError(
                f"scenario {self.name!r}: got an unexpected keyword argument {unknown[0]!r} "
                f"(accepted parameters: {sorted(keywords)})"
            )
        try:
            workflow = self.factory(**params)
        except ValueError as exc:  # a parameter the factory (or its generator) refused
            raise ScenarioError(f"scenario {self.name!r}: {exc}") from None
        if not isinstance(workflow, Workflow):
            raise ScenarioError(
                f"scenario {self.name!r} factory returned {type(workflow).__name__}, not a Workflow"
            )
        return workflow

    def parameters(self) -> dict[str, Any]:
        """The factory's keyword parameters and their defaults."""
        return {name: None if default is _REQUIRED else default for name, default in _keywords(self.factory)[0].items()}


def get_scenario(name: str) -> Scenario:
    """The catalog's scenario called ``name``; raises :class:`ScenarioError` if unknown."""
    from .catalog import SCENARIOS

    if name not in SCENARIOS:
        raise ScenarioError(f"unknown scenario {name!r}; expected one of {tuple(SCENARIOS)}")
    return SCENARIOS[name]


def available_scenarios() -> tuple[str, ...]:
    """Names of every scenario of the catalog, in its order."""
    from .catalog import SCENARIOS

    return tuple(SCENARIOS)


def parse_scenario_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Split ``"name:k1=v1,k2=v2"`` into ``(name, params)`` with typed values.

    Values parse as int, then float, then bool (``true``/``false``), then
    stay strings — the same coercion the ``ginflow sweep --param`` flag uses.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ScenarioError(f"invalid scenario spec {spec!r}; expected 'name' or 'name:k=v,...'")
    name, separator, remainder = spec.strip().partition(":")
    name = name.strip()
    if not name:
        raise ScenarioError(f"invalid scenario spec {spec!r}; missing scenario name")
    params: dict[str, Any] = {}
    if separator and not remainder.strip():
        raise ScenarioError(f"invalid scenario spec {spec!r}; empty parameter list after ':'")
    if remainder.strip():
        for assignment in remainder.split(","):
            key, equals, value = assignment.partition("=")
            key, value = key.strip(), value.strip()
            if not equals or not key or not value:
                raise ScenarioError(
                    f"invalid scenario spec {spec!r}; bad parameter {assignment!r} "
                    "(expected k=v)"
                )
            if key in params:
                raise ScenarioError(f"invalid scenario spec {spec!r}; duplicate parameter {key!r}")
            params[key] = coerce_value(value)
    return name, params


def coerce_value(text: str) -> Any:
    """``text`` as an int, else a float, else a bool (``true``/``false``), else itself."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    return text


def build_scenario(spec: str, **overrides: Any) -> Workflow:
    """Build the workflow a spec describes (``overrides`` win over spec params)."""
    name, params = parse_scenario_spec(spec)
    params.update(overrides)
    return get_scenario(name).build(**params)
