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

from repro.analysis import analyze_rules
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
    """Seeded modules: ``hocl__rules="..."`` is ``hocl/rules.py``."""
    return {f"{name.replace('__', '/')}.py": ast.parse(text) for name, text in modules.items()}


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
        from repro.runtime.backends import available_runtimes, ensure_builtin_backends

        ensure_builtin_backends()
        assert "threaded" not in available_runtimes()

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
