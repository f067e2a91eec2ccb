"""The design decisions of the codebase, as tier-1 tests over its source.

Each gate reads the modules under ``src/repro`` with :mod:`ast` — a comment or
a docstring never trips it, a renamed import does not slip past it — or asks
the objects a run builds.  Every gate is also shown a seeded violation it must
reject: a gate that cannot fail is not a gate.
"""

import ast
import functools
from pathlib import Path

import pytest

from repro.analysis import analyze_rules
from repro.hocl import Compare, Multiset, Ref, Rule, RuleError, Var
from repro.hocl import patterns as patterns_module
from repro.hocl import templates as templates_module

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@functools.cache
def _sources():
    """Path under ``src/repro`` -> parsed module, for every module there (parsed once: do not mutate)."""
    return {path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}


def _parsed(**modules):
    """Seeded modules: ``hocl__rules="..."`` is ``hocl/rules.py``."""
    return {f"{name.replace('__', '/')}.py": ast.parse(text) for name, text in modules.items()}


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
    ``expand_templates`` or a delta's ``eager`` anywhere; a second ``exec``."""
    found, execs = [], 0
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
        banned = {"expand", "quick_reject", "expand_templates"}
        if in_hocl:
            banned |= {"Layout", "Registers", "_binder", "_element", "_pick"}
        found += [f"{path}:{line}: {name}" for name, line in _walked(tree)[1] if name in banned]
    if execs != 1:
        found.append(f"{execs} exec() calls in repro.hocl, not one")
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
        ],
    )
    def test_a_seeded_interpreter_is_rejected(self, seeded):
        modules = {**_sources(), **_parsed(**seeded)}
        assert interpreted_paths(modules)

    def test_the_local_gw_pass_fires_as_one_unlink(self):
        from repro.agents.local_rules import GW_PASS

        assert "sites[4]._remove_entry(sites[5])" in GW_PASS.delta.__source__


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
