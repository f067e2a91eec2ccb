"""The scenario registry — named, parameterized scientific-workflow generators.

A *scenario* is a seed-deterministic generator producing a
:class:`~repro.workflow.dag.Workflow` of a given ``size`` plus a declared
cost/failure profile.  Scenarios are first-class registered objects: the CLI
(``ginflow scenarios`` / ``ginflow run --scenario``), ``GinFlow.sweep`` grid
axes and the benchmark matrix all resolve them by name through this module.

Registering a scenario::

    from repro.scenarios import register_scenario

    @register_scenario(
        "mychain",
        structure="a plain chain of size tasks",
        cost_profile={"task": (0.1, 0.5)},
    )
    def mychain(size: int = 20, seed: int = 0) -> Workflow:
        '''A linear chain stressing sequential hand-off.'''
        ...

Every factory takes at least ``size`` (approximate task count) and ``seed``
(all randomness must derive from it, so the same spec always produces the
same workflow) and may declare extra shape keywords.  A textual *spec* names
a scenario plus parameter overrides::

    epigenomics                 -> ("epigenomics", {})
    cybershake:size=500         -> ("cybershake", {"size": 500})
    sipht:size=200,seed=3       -> ("sipht", {"size": 200, "seed": 3})

This module imports nothing from the rest of :mod:`repro` except the
workflow model, so any layer can depend on it without import cycles; the
built-in catalog (:mod:`repro.scenarios.catalog`) is imported lazily by
:func:`ensure_builtin_scenarios` on first lookup.
"""

from __future__ import annotations

import threading
from types import FunctionType
from typing import Any, Callable, Mapping

from repro.records import Frozen
from repro.workflow.dag import Workflow

__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioRegistry",
    "registry",
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "build_scenario",
    "parse_scenario_spec",
    "ensure_builtin_scenarios",
]


class ScenarioError(ValueError):
    """Raised on unknown scenario names, bad specs or conflicting registrations."""


#: the default of a factory parameter that has none
_REQUIRED: Any = object()


def _keywords(factory: Callable[..., Any]) -> tuple[dict[str, Any], bool]:
    """The parameters ``factory`` takes by keyword, each with its default (``_REQUIRED``
    when it has none), and whether it takes any other keyword (``**kwargs``).

    A plain function is read off its code object; any other callable (a
    ``functools.partial``, a class, a wrapped function) through :mod:`inspect`.
    """
    if not isinstance(factory, FunctionType) or hasattr(factory, "__wrapped__"):
        import inspect

        parameters = inspect.signature(factory).parameters.values()
        keywords = {
            spec.name: _REQUIRED if spec.default is spec.empty else spec.default
            for spec in parameters
            if spec.kind in (spec.POSITIONAL_OR_KEYWORD, spec.KEYWORD_ONLY)
        }
        return keywords, any(spec.kind == spec.VAR_KEYWORD for spec in parameters)
    code, positional = factory.__code__, factory.__defaults__ or ()
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
    defaults = dict(zip(names[code.co_argcount - len(positional) : code.co_argcount], positional))
    defaults.update(factory.__kwdefaults__ or {})
    keywords = {name: defaults.get(name, _REQUIRED) for name in names[code.co_posonlyargcount :]}
    return keywords, bool(code.co_flags & 0x08)  # CO_VARKEYWORDS


class Scenario(Frozen):
    """One registered scenario: a named workflow generator plus its declared profile.

    Attributes
    ----------
    name:
        Public name the CLI/sweeps refer to (``"epigenomics"``).
    factory:
        ``(size=..., seed=..., **shape) -> Workflow`` generator.  Must be
        deterministic for fixed arguments.
    description:
        One-line human description (defaults to the factory's first doc line).
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


class ScenarioRegistry:
    """A thread-safe name → :class:`Scenario` registry."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}
        self._lock = threading.Lock()

    # --------------------------------------------------------- registration
    def register(
        self,
        name: str,
        factory: Callable[..., Workflow] | None = None,
        *,
        description: str = "",
        structure: str = "",
        cost_profile: Mapping[str, tuple[float, float]] | None = None,
        failure_profile: Mapping[str, Any] | None = None,
        tags: tuple[str, ...] = (),
        replace: bool = False,
    ) -> Any:
        """Register ``factory`` as scenario ``name`` (direct call or decorator)."""

        def _store(func: Callable[..., Workflow]) -> Callable[..., Workflow]:
            if not callable(func):
                raise ScenarioError(f"scenario {name!r}: factory must be callable")
            parameters = _keywords(func)[0]
            for required in ("size", "seed"):
                if required not in parameters:
                    raise ScenarioError(
                        f"scenario {name!r}: factory must accept a {required!r} keyword"
                    )
            about = description or _first_doc_line(func)
            with self._lock:
                if not replace and name in self._scenarios:
                    raise ScenarioError(
                        f"scenario {name!r} is already registered (pass replace=True to override)"
                    )
                self._scenarios[name] = Scenario(
                    name=name,
                    factory=func,
                    description=about,
                    structure=structure,
                    cost_profile=dict(cost_profile or {}),
                    failure_profile=dict(failure_profile or {}),
                    tags=tuple(tags),
                )
            return func

        if factory is None:
            return _store
        return _store(factory)

    def unregister(self, name: str) -> None:
        """Remove a scenario (no error if absent) — mostly for tests."""
        with self._lock:
            self._scenarios.pop(name, None)

    # --------------------------------------------------------------- lookup
    def get(self, name: str) -> Scenario:
        """The scenario called ``name``; raises :class:`ScenarioError` if unknown."""
        with self._lock:
            scenario = self._scenarios.get(name)
            if scenario is None:
                known = tuple(self._scenarios)
                raise ScenarioError(f"unknown scenario {name!r}; expected one of {known}")
            return scenario

    def has(self, name: str) -> bool:
        """Whether a scenario called ``name`` is registered."""
        with self._lock:
            return name in self._scenarios

    def names(self) -> tuple[str, ...]:
        """Registered names, in registration order."""
        with self._lock:
            return tuple(self._scenarios)

    def scenarios(self) -> tuple[Scenario, ...]:
        """Every registered scenario, in registration order."""
        with self._lock:
            return tuple(self._scenarios.values())


def _first_doc_line(func: Callable[..., Any]) -> str:
    doc = getattr(func, "__doc__", None) or ""
    for line in doc.strip().splitlines():
        if line.strip():
            return line.strip()
    return ""


#: The process-wide registry the CLI, sweeps and benchmarks resolve against.
registry = ScenarioRegistry()


def register_scenario(name: str, factory: Callable[..., Workflow] | None = None, **kwargs: Any) -> Any:
    """Register a scenario on the global registry (decorator or direct call)."""
    return registry.register(name, factory, **kwargs)


def get_scenario(name: str) -> Scenario:
    """Resolve one scenario from the global registry (catalog loaded first)."""
    ensure_builtin_scenarios()
    return registry.get(name)


def available_scenarios() -> tuple[str, ...]:
    """Names of every registered scenario."""
    ensure_builtin_scenarios()
    return registry.names()


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
            params[key] = _coerce(value)
    return name, params


def _coerce(text: str) -> Any:
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


_builtins_loaded = False
_builtins_lock = threading.RLock()


def ensure_builtin_scenarios() -> None:
    """Import the built-in catalog exactly once (idempotent, thread-safe)."""
    global _builtins_loaded
    if _builtins_loaded:
        return
    with _builtins_lock:
        if _builtins_loaded:
            return
        import importlib

        importlib.import_module("repro.scenarios.catalog")
        _builtins_loaded = True
