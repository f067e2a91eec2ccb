"""The design decisions of the codebase, as tier-1 tests over its source.

Each gate reads the modules under ``src/repro`` with :mod:`ast` — a comment or
a docstring never trips it, a renamed import does not slip past it — or asks
the objects a run builds.  Every gate is also shown a seeded violation it must
reject: a gate that cannot fail is not a gate.
"""

import ast
import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.analysis.analyzer import analyze_rules
from repro.hocl import Compare, Multiset, Ref, Rule, RuleError, Var
from repro.hocl import patterns as patterns_module
from repro.hocl import templates as templates_module

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"


@functools.cache
def _sources():
    """Path under ``src/repro`` -> parsed module, for every module there (parsed once: do not mutate)."""
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}


def _parsed(**modules):
    """Seeded modules: ``hocl__rules="..."`` is ``hocl/rules.py``, ``cluster____init__`` ``cluster/__init__.py``."""
    return {f"{name.replace('__', '/').replace('//init/', '/__init__')}.py": ast.parse(text) for name, text in modules.items()}


@functools.cache
def _tests():
    """File name -> parsed module, for every test module and helper under ``tests``."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TESTS.glob("*.py"))}


def _names(tree):
    """Every name the code defines, reads, imports (or imports from), or passes or takes by keyword, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):  # every part of a dotted module name
            yield from ((name, node.lineno) for name in {*node.name.split("."), node.asname} - {None})
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from ((name, node.lineno) for name in node.module.split("."))
        elif isinstance(node, (ast.keyword, ast.arg)) and node.arg:
            yield node.arg, node.lineno


@functools.cache
def _walked(tree):
    """Every node of ``tree``, and every name in it (walked once per module)."""
    return list(ast.walk(tree)), list(_names(tree))


def _called(node):
    """The name a call calls (``f(...)``, ``x.f(...)``), or ``None``."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
    return None


# ------------------------------------------------------ one matcher, one fire
def interpreted_paths(modules):
    """Where a tree-walking match path, a closure compiler beside the
    generator, or an interpreted firing path has grown back: a generator in
    ``patterns.py`` / ``matching.py``; a register layout or a per-pattern
    ``compile`` in ``repro.hocl``; an ``expand`` / ``quick_reject`` method,
    ``expand_templates`` or a delta's ``eager`` anywhere; a second ``exec`` or
    ``compile`` in ``repro.hocl`` (the search, the fire and the reaction are
    all compiled by ``matching._load``)."""
    found, execs, compiles = [], 0, 0
    for path, tree in modules.items():
        in_hocl = path.startswith("hocl/")
        for node in _walked(tree)[0]:
            if path in ("hocl/patterns.py", "hocl/matching.py") and isinstance(node, (ast.Yield, ast.YieldFrom)):
                found.append(f"{path}:{node.lineno}: yield")
            if in_hocl and isinstance(node, ast.FunctionDef) and node.name == "compile":
                if any(arg.arg == "layout" for arg in node.args.args):
                    found.append(f"{path}:{node.lineno}: compile(self, layout)")
            if isinstance(node, ast.Attribute) and node.attr == "eager":
                found.append(f"{path}:{node.lineno}: .eager")
            execs += in_hocl and _called(node) == "exec" and isinstance(node.func, ast.Name)
            compiles += in_hocl and _called(node) == "compile" and isinstance(node.func, ast.Name)
        banned = {"expand", "quick_reject", "expand_templates"}
        if in_hocl:
            banned |= {"Layout", "Registers", "_binder", "_element", "_pick"}
        found += [f"{path}:{line}: {name}" for name, line in _walked(tree)[1] if name in banned]
    if execs != 1 or compiles != 1:
        found.append(f"{execs} exec() and {compiles} compile() calls in repro.hocl, not one of each")
    return found


class TestOneMatcherAndOneFire:
    def test_the_source(self):
        assert interpreted_paths(_sources()) == []

    @pytest.mark.parametrize(
        "seeded",
        [
            {"hocl__patterns": "def match(p, a):\n    yield a\n"},
            {"hocl__matching": "class Layout:\n    pass\n"},
            {"hocl__patterns": "class P:\n    def compile(self, layout):\n        return layout\n"},
            {"hoclflow__rules": "def f(rule):\n    return rule.delta.eager\n"},
            {"agents__core": "from repro.hocl.templates import expand_templates\n"},
            {"hocl__deltas": "def fire(code):\n    exec(code)\n"},  # a second exec
            {"hocl__deltas": "def fire(text):\n    return compile(text, '<fire>', 'exec')\n"},  # a second compile
        ],
    )
    def test_a_seeded_interpreter_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert interpreted_paths(modules)

    def test_the_local_gw_pass_fires_as_one_unlink(self):
        """In its reaction, on the locals its search bound the sites to."""
        from repro.agents.local_rules import GW_PASS
        from repro.hocl.deltas import Reaction

        text = Reaction._write(GW_PASS)[0]
        assert text.count("._remove_entry(") == 1 and "s14._remove_entry(e15)" in text
        assert "for e15 in s14._index.get(" in text and "sites" not in text


# ------------------------------------------- the engine a run needs, no more
#: what the reaction replaced in ``repro.hocl``: a second generated search, its
#: match record and the hooks only the oracles read
_RETIRED_HOOKS = {"observer", "compiled_search", "first_match"}


def oracle_hooks(modules):
    """Where ``repro.hocl`` has grown back what only an oracle reaches: a
    ``Match(`` (called, or written into generated text), an ``observer``, a
    ``compiled_search`` or a ``first_match``."""
    found = []
    for path, tree in modules.items():
        if not path.startswith("hocl/"):
            continue
        nodes, names = _walked(tree)
        found += [f"{path}:{line}: {name}" for name, line in names if name in _RETIRED_HOOKS]
        for node in nodes:
            if _called(node) == "Match" or isinstance(node, ast.Constant) and isinstance(node.value, str) and "Match(" in node.value:
                found.append(f"{path}:{node.lineno}: Match(")
    return found


class TestTheEngineARunNeeds:
    def test_the_source(self):
        assert oracle_hooks(_sources()) == []

    @pytest.mark.parametrize(
        "seeded",
        [
            {"hocl__engine": "def fire(rule, match, observer):\n    observer(rule, match)\n"},
            {"hocl__deltas": "LINE = 'match = Match(View(b), [], ())'\n"},
            {"hocl__rules": "from .search import compiled_search\n"},
            {"hocl__engine": "def probe(rule, solution):\n    return rule.first_match(solution)\n"},
        ],
    )
    def test_a_seeded_hook_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert oracle_hooks(modules)


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_patches(modules):
    """Where a test monkeypatches (``setattr``) a private name of ``repro.hocl``:
    a ``_``-name reached from what it imports of it, or a ``_`` attribute set
    on it — outside the functions a ``MUTANTS`` table names."""
    found = []
    for path, tree in modules.items():
        hocl, tables = set(), set()  # what it imports of repro.hocl; what its MUTANTS table names
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (getattr(node, "module", None) or "").startswith("repro.hocl"):
                hocl |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                hocl |= {alias.asname for alias in node.names if alias.name.startswith("repro.hocl") and alias.asname}
            elif isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "MUTANTS" for target in node.targets):
                tables |= {inner.id for inner in ast.walk(node.value) if isinstance(inner, ast.Name)}
        skipped = {id(node) for function in ast.walk(tree) if isinstance(function, ast.FunctionDef) and function.name in tables for node in ast.walk(function)}
        for node in ast.walk(tree):
            if id(node) in skipped or not (isinstance(node, ast.Call) and _called(node) == "setattr" and isinstance(node.func, ast.Attribute)):
                continue
            target, attribute = (node.args + [None, None])[:2]
            chain = []
            while isinstance(target, ast.Attribute):
                chain.append(target.attr)
                target = target.value
            if not (isinstance(target, ast.Name) and target.id in hocl):
                continue
            chain.append(target.id)
            if isinstance(attribute, ast.Constant) and isinstance(attribute.value, str):
                chain.append(attribute.value)
            found += [f"{path}:{node.lineno}: {name}" for name in chain if _private(name)]
    return found


class TestNoTestReachesIntoTheEngine:
    """A test that patches a private hook watches a path a run may no longer
    take: the oracles are held to what runs through its public faces."""

    def test_the_tests(self):
        assert private_patches(_tests()) == []

    @pytest.mark.parametrize(
        "seeded",
        [
            "from repro.hocl.multiset import _Memory\ndef test(monkeypatch):\n    monkeypatch.setattr(_Memory, 'open', None)\n",
            "from repro.hocl import ReductionEngine\ndef test(monkeypatch):\n    monkeypatch.setattr(ReductionEngine, '_reduce_level', None)\n",
            "from repro.hocl import deltas as d\ndef test(patch):\n    patch.setattr(d, '_load', None)\n",
            "import repro.hocl.rules as r\ndef test(monkeypatch):\n    monkeypatch.setattr(r.Rule, '_delta', None)\n",
            # a mutant table names what it patches; anything else does not ride along
            "from repro.hocl import Multiset\ndef _mutant(monkeypatch):\n    pass\nMUTANTS = {'m': _mutant}\n"
            "def test(monkeypatch):\n    monkeypatch.setattr(Multiset, '_remove_entry', None)\n",
        ],
    )
    def test_a_seeded_patch_is_rejected(self, seeded):
        assert private_patches({**_tests(), "test_seeded.py": ast.parse(seeded)})

    def test_a_mutant_table_may(self):
        seeded = "from repro.hocl import Multiset\ndef _mutant(monkeypatch):\n    monkeypatch.setattr(Multiset, '_remove_entry', None)\nMUTANTS = {'m': _mutant}\n"
        assert private_patches({"test_seeded.py": ast.parse(seeded)}) == []


# ------------------------------------------------ no dataclass on the run path
_RUN_PATH = """
import os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "benchmarks", "e2e"))
from workloads import ADAPTIVE_DIAMOND_FILE, WORKLOADS, ginflow_argv
from repro import adaptive_diamond_workflow, workflow_to_json
from repro.cli import main
workdir = os.getcwd()  # a temporary directory of the caller's
workflow_to_json(adaptive_diamond_workflow(4, 4, "full", "simple", duration=0.1), os.path.join(workdir, ADAPTIVE_DIAMOND_FILE))
for workload in WORKLOADS:
    assert main(ginflow_argv(workload, "smoke", 1, workdir)) == 0, workload.name
print("MODULES", *sorted({m.__file__ for n, m in list(sys.modules.items()) if n.startswith("repro")}))
"""


@functools.cache
def run_path_modules():
    """Path under ``src/repro`` -> parsed module, of every module the five e2e
    workloads import, run at smoke scale in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-c", _RUN_PATH, str(ROOT)], capture_output=True, text=True, timeout=300, env=env, cwd=cwd)
    assert done.returncode == 0, done.stderr[-2000:]
    files = done.stdout.rsplit("MODULES", 1)[1].split()
    return {path: tree for path, tree in _sources().items() if str(SRC / path) in {str(Path(file).resolve()) for file in files}}


def dataclass_machinery(modules):
    """Where per-class generated code has grown back on the run path: a
    ``@dataclass`` (however imported) or any import of ``dataclasses`` in a
    module a run imports, or an import statement run inside a function of
    ``hocl/atoms.py`` (on every ``Subsolution``)."""
    found = []
    for path, tree in modules.items():
        for node in _walked(tree)[0]:
            for decorator in getattr(node, "decorator_list", ()):
                called = decorator.func if isinstance(decorator, ast.Call) else decorator
                if (called.id if isinstance(called, ast.Name) else getattr(called, "attr", None)) == "dataclass":
                    found.append(f"{path}:{decorator.lineno}: @dataclass")
            if isinstance(node, ast.ImportFrom) and node.module == "dataclasses" or isinstance(node, ast.Import) and any(alias.name == "dataclasses" for alias in node.names):
                found.append(f"{path}:{node.lineno}: import dataclasses")
            if path == "hocl/atoms.py" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path}:{inner.lineno}: import in {node.name}" for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return found


class TestNoDataclassOnTheRunPath:
    """Every record a run builds (atoms, multisets, reduction reports, agent
    actions, configs, tasks, encodings, hosts, reports, ...) is a slotted class
    on ``repro.records`` with a hand-written ``__init__``; the modules a run
    imports are listed by running the five e2e workloads at smoke scale.  The
    call budgets themselves are gated by ``tests/test_run_floor.py``."""

    def test_the_run_path(self):
        modules = run_path_modules()
        assert len(modules) > 50 and "hocl/atoms.py" in modules
        assert dataclass_machinery(modules) == []

    @pytest.mark.parametrize(
        "seeded",
        [
            {"records": "from dataclasses import dataclass\n\n@dataclass\nclass Report:\n    name: str\n"},
            {"runtime__config": "import dataclasses as dc\n\n@dc.dataclass(frozen=True)\nclass Config:\n    nodes: int = 1\n"},
            {"hocl__atoms": "class Subsolution:\n    def __init__(self, contents=()):\n        from .multiset import Multiset\n        self.solution = Multiset(contents)\n"},
        ],
    )
    def test_a_seeded_dataclass_is_rejected(self, seeded):
        assert dataclass_machinery({**run_path_modules(), **_parsed(**seeded)})


# ----------------------------------------------- no hand-written delta, no body
def hand_written_deltas(modules):
    """Where a rule is written a second way: a delta or a patch built outside
    ``repro.hocl.deltas``, a fire walking field paths or keeping a rebuild
    form or holder guards, a holder list, a ``Compute`` product, or a rule
    given a Python body (a lambda condition or effect)."""
    found = []
    for path, tree in modules.items():
        for node in _walked(tree)[0]:
            if path != "hocl/deltas.py" and _called(node) in ("RewriteDelta", "PatchAdd", "PatchRemove"):
                found.append(f"{path}:{node.lineno}: {_called(node)}(...)")
            for keyword in node.keywords if isinstance(node, ast.Call) else ():
                if keyword.arg == "delta" and path != "hocl/deltas.py":
                    found.append(f"{path}:{node.lineno}: delta=")
                if keyword.arg in ("condition", "effect") and isinstance(keyword.value, ast.Lambda):
                    found.append(f"{path}:{node.lineno}: {keyword.arg}=lambda")
        for name, line in _walked(tree)[1]:
            walked = path == "hocl/deltas.py" and (
                name in ("_resolve_target", "_anchor_solution", "path") or "rebuild" in name or "guards" in name
            )
            if walked or name in ("_parents", "Compute"):
                found.append(f"{path}:{line}: {name}")
    return found


class TestRulesCarryNoHandWrittenDelta:
    def test_the_source(self):
        assert hand_written_deltas(_sources()) == []

    @pytest.mark.parametrize(
        "seeded",
        [
            {"hoclflow__adaptation": "from repro.hocl.deltas import PatchAdd\nOPS = [PatchAdd(3, ())]\n"},
            {"hoclflow__generic_rules": "RULE = make(delta=None)\n"},
            {"hocl__deltas": "def _resolve_target(match, path=()):\n    return match\n"},
            {"hocl__multiset": "class Multiset:\n    _parents = ()\n"},
            {"hoclflow__generic_rules": "from repro.hocl import Compute\n"},
            {"agents__local_rules": "RULE = Rule('r', [], [], condition=lambda b: True)\n"},
            {"agents__local_rules": "RULE = Rule('r', [], [], effect=lambda b: [])\n"},
        ],
    )
    def test_a_seeded_second_way_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert hand_written_deltas(modules)

    def test_one_rule_body_per_context(self):
        """Every task's centralised ``gw_call`` is one rule bound to its task,
        and every entry task's ``activate`` one rule bound to its name: one
        delta, one summary, one set of products."""
        from repro import adaptive_diamond_workflow
        from repro.hoclflow import build_plan, make_activate, make_gw_call

        workflow = adaptive_diamond_workflow(2, 2)
        plan = build_plan(workflow, workflow.adaptations[0])
        for first, second in ((make_gw_call("a"), make_gw_call("b")), [make_activate(plan, e) for e in plan.entry_tasks]):
            assert shares_its_body(first, second)
        twin = Rule("gw_call", make_gw_call("a").patterns, make_gw_call("a").products)  # the seeded violation
        assert not shares_its_body(make_gw_call("a"), twin)


def shares_its_body(first, second):
    return first.delta is second.delta and first.summary is second.summary and first.products is second.products


# ------------------------------------------------------ one model of a rule
#: what the analyzer once read off rules its own way, and the closure machinery
#: a condition needed before it was data
_RETIRED = {
    "dis", "condition_variables", "_walk_templates", "producible_keys", "_nested_injected_keys", "_guarded",
    "guarded_condition", "gw_pass_condition", "_x_is_larger", "referenced_variables", "bound_variables",
    "omega_variables", "readers",
}  # fmt: skip


def second_models(modules):
    """Where a rule is read another way than through its summary: a ``dis``
    import, a name of the retired walks and closure machinery, or
    ``repro.analysis`` importing a pattern or template class."""
    shapes = set(patterns_module.__all__) | set(templates_module.__all__)
    found = []
    for path, tree in modules.items():
        found += [f"{path}:{line}: {name}" for name, line in _walked(tree)[1] if name in _RETIRED]
        if not path.startswith("analysis/"):
            continue
        for node in _walked(tree)[0]:
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                if module.lstrip(".").endswith(("hocl.patterns", "hocl.templates")):
                    found.append(f"{path}:{node.lineno}: from {module} import")
                elif module.lstrip(".").endswith("hocl"):
                    found += [f"{path}:{node.lineno}: {alias.name}" for alias in node.names if alias.name in shapes]
            elif isinstance(node, ast.Import):
                found += [
                    f"{path}:{node.lineno}: import {alias.name}"
                    for alias in node.names
                    if alias.name.endswith(("hocl.patterns", "hocl.templates"))
                ]
    return found


class TestOneModelOfARule:
    def test_the_source(self):
        assert second_models(_sources()) == []

    @pytest.mark.parametrize(
        "seeded",
        [
            {"analysis__rule_checks": "import dis\n"},
            {"hocl__engine": "from dis import get_instructions as read\n"},
            {"analysis__analyzer": "from repro.hocl.templates import Ref\n"},
            {"analysis__plan_checks": "from ..hocl.patterns import Literal\n"},
            {"analysis__trace_checks": "from repro.hocl import SolutionPattern\n"},
            {"analysis__rule_checks": "import repro.hocl.patterns\n"},
            {"hocl__rules": "def referenced_variables(rule):\n    return set()\n"},
            {"hocl__multiset": "class _Memory:\n    __slots__ = ()\n    def open(self):\n        self.readers += 1\n"},
        ],
    )
    def test_a_seeded_second_model_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert second_models(modules)

    def test_a_condition_is_data(self):
        """A closure is no condition; a parsed one is a comparison the analyzer reads."""

        class Permissive(Rule):  # the seeded violation: a rule that keeps a closure
            __slots__ = ()

            def __init__(self, *args, condition=None, **kwargs):
                super().__init__(*args, **kwargs)
                self.condition = condition

        assert refuses_closures(Rule) and not refuses_closures(Permissive)
        rule = Rule("r", [Var("x")], [Ref("x")], condition=Compare(">", Ref("z"), 0))
        assert [f.check for f in analyze_rules([rule], solution=Multiset([1]))] == ["rule-unbound-condition"]


def refuses_closures(rule_class):
    try:
        rule_class("r", [Var("x")], [], condition=lambda bindings: True)
    except RuleError:
        return True
    return False


# ------------------------------------------------------- one simulation kernel
#: the SimPy-style event layer `repro.simkernel` replaced (a time-ordered queue of plain calls)
_EVENT_LAYER = {"Event", "Timeout", "Process", "AllOf", "AnyOf", "Interrupt", "Store", "Resource"}


def event_layers(modules):
    """Where an event/process layer has grown back beside the kernel: a class
    of the retired layer's names in ``repro.simkernel``, or its trigger marker."""
    found = []
    for path, tree in modules.items():
        if not path.startswith("simkernel/"):
            continue
        for node in _walked(tree)[0]:
            if isinstance(node, ast.ClassDef) and node.name in _EVENT_LAYER:
                found.append(f"{path}:{node.lineno}: class {node.name}")
        found += [f"{path}:{line}: {name}" for name, line in _walked(tree)[1] if "_TriggeredMarker" in name]
    return found


class TestOneSimulationKernel:
    def test_the_source(self):
        assert event_layers(_sources()) == []

    @pytest.mark.parametrize(
        "seeded",
        [
            {"simkernel__sim": "class Timeout:\n    pass\n"},
            {"simkernel__events": "class Process(object):\n    def run(self):\n        pass\n"},
            {"simkernel__sim": "_TriggeredMarker = object()\n"},
        ],
    )
    def test_a_seeded_event_layer_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert event_layers(modules)


# ----------------------------------------------------------- one agent driver
#: what running an agent on a thread of its own, or on a queue of its own, takes
_PER_AGENT = {("threading", "Thread"), ("queue", "Queue"), ("asyncio", "Queue")}
#: the steps of an agent's life `repro.runtime.driver` runs for both clocks
_DRIVER_STEPS = {"_crash", "_recover", "_dispatch", "_complete_invocation"}


def second_drivers(modules):
    """Where a second agent driver has grown back: a thread, an inbox queue
    (used or imported by any name), a poison pill or a per-agent loop under
    ``repro.runtime``, or one of the driver's steps defined outside
    ``runtime/driver.py``."""
    found = []
    for path, tree in modules.items():
        in_runtime = path.startswith("runtime/")
        for node in _walked(tree)[0]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in _DRIVER_STEPS and path != "runtime/driver.py":
                found.append(f"{path}:{node.lineno}: def {node.name}")
            if not in_runtime:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute)):
                owner = node.value.id if isinstance(node.value, ast.Name) else node.value.attr
                if any(owner == module and node.attr.startswith(name) for module, name in _PER_AGENT):
                    found.append(f"{path}:{node.lineno}: {owner}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and any((node.module, alias.name) in _PER_AGENT for alias in node.names):
                found.append(f"{path}:{node.lineno}: from {node.module} import")
        if in_runtime:
            found += [f"{path}:{line}: {name}" for name, line in _walked(tree)[1] if "_POISON" in name or "_agent_loop" in name]
    return found


class TestOneAgentDriver:
    def test_the_source(self):
        assert second_drivers(_sources()) == []

    def test_no_threaded_runtime_is_listed(self):
        from repro.runtime.config import BACKENDS

        assert "threaded" not in BACKENDS["runtime"]

    @pytest.mark.parametrize(
        "seeded",
        [
            {"runtime__threads": "import threading\nWORKER = threading.Thread(target=print)\n"},
            {"runtime__aio": "from asyncio import Queue as Inbox\n"},
            {"runtime__simulation": "from queue import Queue\n"},
            {"runtime__aio": "_POISON = object()\n"},
            {"runtime__simulation": "def _agent_loop(agent):\n    return agent\n"},
            {"agents__core": "class Core:\n    def _recover(self):\n        pass\n"},
            {"runtime__aio": "class AsyncioRun:\n    async def _dispatch(self, agent):\n        pass\n"},
        ],
    )
    def test_a_seeded_second_driver_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert second_drivers(modules)


# ------------------------------------------------------- a catalog is a table
#: the decorators of a registry: one per kind of backend, the scenarios' and the checks'
_REGISTRARS = {
    "register_runtime", "register_executor", "register_broker", "register_cluster", "register_scenario",
    "register_check",
}
#: what a registry would import for what importing it registers: a package, or a module by its name
_REGISTERING = (
    "repro.runtime", "repro.executors", "repro.messaging", "repro.cluster", "repro.analysis", "repro.scenarios",
    "_checks", "catalog",
)
#: the registries a run builds and its user fills (services, HOCL externals, metrics), not process-wide ones
_PER_RUN_REGISTRIES = {"ServiceRegistry", "ExternalRegistry", "MetricsRegistry"}


def _strings(node, assigned):
    """The string constants in ``node`` (a name resolved through the module's own assignments)."""
    node = assigned.get(node.id, node) if isinstance(node, ast.Name) else node
    return [inner.value for inner in ast.walk(node) if isinstance(inner, ast.Constant) and isinstance(inner.value, str)]


def registries(modules):
    """Where a process-wide registry has grown back beside the closed tables
    (``BACKENDS`` of ``repro.runtime.config``, ``SCENARIOS`` of
    ``repro.scenarios.catalog``, ``CHECKS`` of ``repro.analysis.checks``): a
    module ``runtime/backends.py``; a ``register_<kind>`` function or an
    ``ensure_builtin_*`` one; a ``*Registry`` class that is not a per-run
    value; ``import_module`` called in a loop over modules of those packages,
    or whose module it drops (loaded for what importing it registers)."""
    found = [f"{path}: the registry's module" for path in modules if path == "runtime/backends.py"]
    for path, tree in modules.items():
        assigned = {
            target.id: node.value
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in _walked(tree)[0]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name in _REGISTRARS or node.name.startswith("ensure_builtin")
            ):
                found.append(f"{path}:{node.lineno}: def {node.name}")
            if isinstance(node, ast.ClassDef) and node.name.endswith("Registry") and node.name not in _PER_RUN_REGISTRIES:
                found.append(f"{path}:{node.lineno}: class {node.name}")
            if isinstance(node, ast.Expr) and _called(node.value) == "import_module":
                found.append(f"{path}:{node.lineno}: import_module for what importing registers")
            if isinstance(node, ast.For):
                iterables, bodies = [node.iter], node.body
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                iterables, bodies = [loop.iter for loop in node.generators], [node.elt]
            else:
                continue
            for call in (inner for body in bodies for inner in ast.walk(body) if _called(inner) == "import_module"):
                named = [text for iterable in iterables for text in _strings(iterable, assigned)]
                named += [text for argument in call.args for text in _strings(argument, assigned)]
                if any(module in text for text in named for module in _REGISTERING):
                    found.append(f"{path}:{call.lineno}: import_module in a loop over registering modules")
    return found


class TestNoProcessWideRegistry:
    def test_the_source(self):
        assert registries(_sources()) == []

    @pytest.mark.parametrize(
        "seeded",
        [
            {"runtime__backends": "KINDS = ('runtime', 'executor', 'broker', 'cluster')\n"},
            {"messaging__kafka": "def register_broker(name, factory=None):\n    return factory\n"},
            {"runtime__config": (
                "import importlib\n_BUILTIN_MODULES = ('repro.executors.ssh', 'repro.cluster.presets')\n"
                "def load():\n    for module in _BUILTIN_MODULES:\n        importlib.import_module(module)\n"
            )},
            {"cli": "from importlib import import_module\nfor name in ('ssh', 'mesos'):\n    import_module(f'repro.executors.{name}')\n"},
            {"cluster____init__": "import importlib\nLOADED = [importlib.import_module(m) for m in ['repro.cluster.grid5000']]\n"},
            {"scenarios__registry": "def register_scenario(name, factory=None, **profile):\n    return factory\n"},
            {"analysis__checks": "def register_check(check_id, func=None, *, kind):\n    return func\n"},
            {"analysis__analyzer": "def ensure_builtin_checks():\n    pass\n"},
            {"scenarios__registry": "class ScenarioRegistry:\n    pass\n"},
            {"analysis__analyzer": (
                "import importlib\n"
                "def load():\n    for module in ('rule_checks', 'trace_checks'):\n"
                "        importlib.import_module(f'repro.analysis.{module}')\n"
            )},
            {"analysis__trace": (
                "import importlib\n"
                "def load():\n    for module in ('rule_checks', 'trace_checks'):\n"
                "        importlib.import_module(f'.{module}', __package__)\n"
            )},
            {"scenarios__catalog": (
                "from importlib import import_module\nCATALOGS = ('repro.scenarios.catalog',)\n"
                "MODULES = [import_module(name) for name in CATALOGS]\n"
            )},
            {"scenarios__registry": "import importlib\ndef load():\n    importlib.import_module('repro.scenarios.catalog')\n"},
        ],
    )
    def test_a_seeded_registry_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert registries(modules)

    def test_a_seed_replaces_the_module_it_names(self):
        """The ``cluster____init__`` seed replaces the package's own ``__init__.py``
        rather than landing beside it."""
        (path,) = _parsed(cluster____init__="")
        assert path == "cluster/__init__.py" and path in _sources()


# ------------------------------------------------------------- a run is a value
#: process-wide state a run meets on purpose, and why it cannot change what a run reports
_SHARED_ON_PURPOSE = {
    ("hocl/deltas.py", "_FACTORIES"): "a memo of compiled reactions by source text: a hit returns what a miss builds",
    ("hocl/deltas.py", "_serial"): "numbers the file name a compiled reaction shows in a traceback; no report reads it",
    ("hocl/atoms.py", "Symbol._interned"): "a memo of symbols by name: an interned symbol equals the one a miss builds",
    ("runtime/frozen.py", "FrozenSetUp.wiped"): "mirrors the interpreter's one collector; no two set-ups run at once",
}
#: the methods that write into the container they are called on
_MUTATORS = {"append", "add", "update", "clear", "pop", "popitem", "setdefault", "extend", "insert", "remove", "discard"}


def _writes(node):
    """``(holder, into)`` for what ``node`` writes: an assigned or deleted target, or the
    object a mutating method is called on (``into``: the write goes into the holder)."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets, into = node.targets, False
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets, into = [node.target], False
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
        targets, into = [node.func.value], True
    else:
        return
    for target in targets:
        holder = target
        while isinstance(holder, ast.Subscript):
            holder = holder.value
        yield holder, into or holder is not target


def _names_a_class(node, classes):
    """``Cls`` (a class of the modules), ``cls``, ``type(...)`` or ``x.__class__``."""
    return (
        isinstance(node, ast.Name) and (node.id in classes or node.id == "cls")
        or _called(node) == "type" and isinstance(node.func, ast.Name)
        or isinstance(node, ast.Attribute) and node.attr == "__class__"
    )


def process_wide_state(modules):
    """``(path, line, name, what)`` for each piece of state a run could leave to the next
    run in its process, or share with a run beside it: a module-level counter
    (``count(...)``, a bound ``__next__``); a module-level name rebound by ``global`` or a
    module-level container written into from a function; a class attribute written from a
    method (``__init_subclass__``, which runs once per class, aside); and a thread pool."""
    return [found for path, tree in modules.items() for found in _state_in(path, tree)]


@functools.cache
def _classes(tree):
    return frozenset(node.name for node in _walked(tree)[0] if isinstance(node, ast.ClassDef))


@functools.cache
def _state_in(path, tree):
    """:func:`process_wide_state` in one module (a class is one of ``src/repro``'s, or the module's own)."""
    classes = _classes(tree).union(*map(_classes, _sources().values()))
    found, module_names = [], set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
            module_names.update(names)
            if any(_called(inner) == "count" or isinstance(inner, ast.Attribute) and inner.attr == "__next__" for inner in ast.walk(node.value)):
                found += [(path, node.lineno, name, "a module-level counter") for name in names]
    for function in _walked(tree)[0]:
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) or function.name == "__init_subclass__":
            continue
        parameters = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                found += [(path, node.lineno, name, "a module-level name rebound by global") for name in node.names]
            for holder, into in _writes(node):
                if into and isinstance(holder, ast.Name) and holder.id in module_names - parameters:
                    found.append((path, node.lineno, holder.id, "a module-level container written from a function"))
                elif isinstance(holder, ast.Attribute) and _names_a_class(holder.value, classes):
                    found.append((path, node.lineno, ast.unparse(holder), "a class attribute written from a method"))
    found += [(path, line, name, "a thread pool") for name, line in _walked(tree)[1] if name == "ThreadPoolExecutor"]
    return found


def unexplained_state(modules):
    return [f"{path}:{line}: {name}: {what}" for path, line, name, what in process_wide_state(modules) if (path, name) not in _SHARED_ON_PURPOSE]


class TestARunIsAValue:
    """What a run reports depends on its inputs only, not on the runs before it in the
    process or beside it in a thread: a sweep cell is a process, and a message a plain
    value.  ``tests/test_run_floor.py::TestARunIsAValue`` runs the same cells in two orders."""

    def test_the_source(self):
        assert unexplained_state(_sources()) == []

    def test_each_shared_state_is_still_there(self):
        assert {(path, name) for path, _, name, _ in process_wide_state(_sources())} == set(_SHARED_ON_PURPOSE)

    @pytest.mark.parametrize(
        "seeded",
        [
            {"messaging__message": "import itertools\nnext_message_id = itertools.count(1).__next__\n"},
            {"runtime__driver": "from itertools import count\n_ids = count()\n"},
            {"agents__core": "_built = 0\ndef build():\n    global _built\n    _built += 1\n"},
            {"runtime__simulation": "_SEEN = {}\ndef seen(key):\n    _SEEN[key] = True\n"},
            {"messaging__broker": "_LOG = []\ndef log(message):\n    _LOG.append(message)\n"},
            {"runtime__frozen": "class FrozenSetUp:\n    runs = 0\n    def __enter__(self):\n        FrozenSetUp.runs += 1\n"},
            {"messaging__broker": "class Broker:\n    total = 0\n    def publish(self, message):\n        type(self).total += 1\n"},
            {"hocl__atoms": "class Symbol:\n    _seen = {}\n    def __new__(cls, name):\n        cls._seen[name] = name\n"},
            {"agents__core": "class AgentCore:\n    def boot(self):\n        self.__class__.booted = True\n"},
            {"experiments__experiment": "from concurrent.futures import ThreadPoolExecutor\n"},
            {"runtime__ginflow": "import concurrent.futures\ndef pool(n):\n    return concurrent.futures.ThreadPoolExecutor(n)\n"},
        ],
    )
    def test_a_seeded_process_wide_state_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        (path,) = _parsed(**seeded)
        assert [found for found in unexplained_state(modules) if found.startswith(f"{path}:")]


# ------------------------------------------------- a run report states each fact once
_MAPPINGS = {"dict", "Mapping", "MutableMapping"}


def _free_form(annotation):
    """Whether a constructor annotation admits a free-form mapping: a bare ``dict``,
    or a mapping whose values are ``Any``."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in _MAPPINGS:
            return True  # bare: `dict | None`
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id in _MAPPINGS:
            values = node.slice.elts[-1] if isinstance(node.slice, ast.Tuple) else node.slice
            return any(isinstance(inner, ast.Name) and inner.id == "Any" for inner in ast.walk(values))
    return False


def report_field_problems(tree):
    """What is wrong with the fields of ``RunReport`` in ``tree`` (``runtime/results.py``): a slot
    that is not a typed constructor parameter, one typed as a free-form mapping (a bag of facts
    with no declared source), or one the class docstring's Attributes do not list."""
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "RunReport"]
    (slots,) = [ast.literal_eval(node.value) for node in cls.body if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__"]
    (init,) = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    annotations = {arg.arg: arg.annotation for arg in init.args.args if arg.annotation is not None}
    attributes = ast.get_docstring(cls).partition("Attributes\n----------\n")[2]
    listed = {name.strip() for line in attributes.splitlines() if line.endswith(":") and not line[0].isspace() for name in line[:-1].split("/")}
    problems = []
    for slot in slots:
        if slot not in annotations:
            problems.append(f"{slot}: not a typed constructor parameter")
        elif _free_form(annotations[slot]):
            problems.append(f"{slot}: a free-form mapping ({ast.unparse(annotations[slot])})")
        if slot not in listed:
            problems.append(f"{slot}: not listed in the docstring's Attributes")
    return problems


class TestARunReportStatesEachFactOnce:
    """``RunReport`` is typed fields, each documented, with no bag of extras beside
    them: a fact a runtime measures gets a field, and a derived one a property."""

    RESULTS = SRC / "runtime" / "results.py"

    def test_the_source(self):
        assert report_field_problems(_sources()["runtime/results.py"]) == []

    @pytest.mark.parametrize(
        "replacements, problem",
        [
            (  # the free-form slot the report once carried, documented and typed as it was
                [('"virtual_events", "timeline",', '"virtual_events", "timeline", "extra",'),
                 ("timeline: list[TimelineEvent] | None = None,", "timeline: list[TimelineEvent] | None = None, extra: dict[str, Any] | None = None,"),
                 ("    timeline:\n        Chronological", "    extra:\n        Free-form additional measurements.\n    timeline:\n        Chronological")],
                "extra: a free-form mapping (dict[str, Any] | None)",
            ),
            (
                [('"virtual_events", "timeline",', '"virtual_events", "timeline", "verdict",'),
                 ("timeline: list[TimelineEvent] | None = None,", "timeline: list[TimelineEvent] | None = None, verdict: str = '',")],
                "verdict: not listed in the docstring's Attributes",
            ),
            (
                [('"virtual_events", "timeline",', '"virtual_events", "timeline", "notes",'),
                 ("    timeline:\n        Chronological", "    notes:\n        Anything.\n    timeline:\n        Chronological")],
                "notes: not a typed constructor parameter",
            ),
        ],
        ids=["extra", "undocumented", "untyped"],
    )
    def test_a_seeded_field_is_rejected(self, replacements, problem):
        source = self.RESULTS.read_text(encoding="utf-8")
        for old, new in replacements:
            assert old in source
            source = source.replace(old, new, 1)
        assert report_field_problems(ast.parse(source)) == [problem]


# -------------------------------------------------- one table, loaded on demand
#: the two documented facades that resolve their names on first access
_FACADES = {"__init__.py", "runtime/__init__.py"}


def lazy_modules(modules):
    """Every module-level ``__getattr__`` outside the two facades: a third way
    of deciding what an import loads, beside the facades and plain imports."""
    return [
        f"{path}:{node.lineno}: __getattr__"
        for path, tree in modules.items() if path not in _FACADES
        for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]


def second_command_places(tree):
    """Where ``cli.py`` names a subcommand beside its row of ``COMMANDS``: a
    name given as a string more than once, or a second table of commands."""
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "COMMANDS"
    ]
    names = [key.value for key in table.keys]
    strings = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    found = [f"{name}: named {strings.count(name)} times" for name in names if strings.count(name) != 1]
    found += [
        f"{target.id}: a second table"
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and "COMMANDS" in target.id and target.id != "COMMANDS"
    ]
    return found


class TestOneTableOfCommands:
    def test_the_source(self):
        assert lazy_modules(_sources()) == []
        assert second_command_places(_sources()["cli.py"]) == []

    def test_the_parser_is_the_table(self):
        from repro.cli import COMMANDS, build_parser

        (subparsers,) = [action for action in build_parser()._actions if action.dest == "command"]
        assert tuple(subparsers.choices) == tuple(COMMANDS)

    @pytest.mark.parametrize(
        "seeded",
        [
            {"hocl____init__": "def __getattr__(name):\n    raise AttributeError(name)\n"},
            {"analysis____init__": "import importlib\ndef __getattr__(name):\n    return importlib.import_module(name)\n"},
        ],
    )
    def test_a_seeded_lazy_module_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert lazy_modules(modules)

    @pytest.mark.parametrize(
        "seeded",
        [
            "def extra(subparsers):\n    subparsers.add_parser('run')\n",
            "_COMMANDS = {}\n",
        ],
        ids=["a-second-block", "a-second-table"],
    )
    def test_a_seeded_second_place_is_rejected(self, seeded):
        source = (SRC / "cli.py").read_text(encoding="utf-8") + "\n" + seeded
        assert second_command_places(ast.parse(source))
