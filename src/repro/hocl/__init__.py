"""HOCL — the Higher-Order Chemical Language core used by GinFlow.

This package is a self-contained multiset-rewriting engine reproducing the
semantics the paper relies on (Section III-A):

* a :class:`~repro.hocl.multiset.Multiset` of :mod:`atoms <repro.hocl.atoms>`
  (scalars, symbols, tuples, lists, sub-solutions and rules),
* :mod:`patterns <repro.hocl.patterns>` with ω rest-capture and higher-order
  rule matching,
* :mod:`rules <repro.hocl.rules>` with ``replace`` / ``replace-one`` /
  ``with … inject`` disciplines, reaction conditions, and side-effect hooks,
* a :mod:`reduction engine <repro.hocl.engine>` that rewrites solutions to
  inertness, reducing nested solutions first,
* an :mod:`external function registry <repro.hocl.externals>` so products can
  call host (Python) functions such as ``invoke`` and ``list``,
* an ASCII :mod:`parser <repro.hocl.parser>` for textual HOCL programs.
"""

import importlib
from typing import Any

from .atoms import (
    Atom,
    BoolAtom,
    FloatAtom,
    IntAtom,
    ListAtom,
    ScalarAtom,
    StringAtom,
    Subsolution,
    Symbol,
    TupleAtom,
    atoms_equal,
    from_atom,
    to_atom,
)
from .engine import ReductionEngine, ReductionReport, reduce_solution
from .errors import (
    AtomError,
    ExternalFunctionError,
    HOCLError,
    MatchError,
    ParseError,
    PatternError,
    ReductionError,
    RuleError,
)
from .externals import ExternalRegistry, default_registry
from .multiset import Multiset
from .patterns import (
    Literal,
    Omega,
    Pattern,
    RulePattern,
    SolutionPattern,
    SymbolPattern,
    TuplePattern,
    Var,
)
from .rules import BindingView, Compare, Rule, replace, replace_one, with_inject
from .templates import (
    Call,
    ListTemplate,
    Ref,
    SolutionTemplate,
    Splice,
    Template,
    TupleTemplate,
)

#: what the textual parser, which no enactment needs at start-up, exports
#: here, imported on first attribute access
_LAZY = ("Program", "parse_program", "parse_solution")


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        value = globals()[name] = getattr(importlib.import_module(f"{__name__}.parser"), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    # atoms
    "Atom",
    "ScalarAtom",
    "IntAtom",
    "FloatAtom",
    "BoolAtom",
    "StringAtom",
    "Symbol",
    "TupleAtom",
    "ListAtom",
    "Subsolution",
    "to_atom",
    "from_atom",
    "atoms_equal",
    # multiset
    "Multiset",
    # patterns
    "Pattern",
    "Var",
    "Omega",
    "Literal",
    "SymbolPattern",
    "TuplePattern",
    "SolutionPattern",
    "RulePattern",
    # templates
    "Template",
    "Ref",
    "Splice",
    "TupleTemplate",
    "SolutionTemplate",
    "ListTemplate",
    "Call",
    # rules
    "Rule",
    "Compare",
    "BindingView",
    "replace",
    "replace_one",
    "with_inject",
    # engine
    "ReductionEngine",
    "ReductionReport",
    "reduce_solution",
    # externals
    "ExternalRegistry",
    "default_registry",
    # parser
    "Program",
    "parse_program",
    "parse_solution",
    # errors
    "HOCLError",
    "AtomError",
    "PatternError",
    "MatchError",
    "RuleError",
    "ReductionError",
    "ExternalFunctionError",
    "ParseError",
]
