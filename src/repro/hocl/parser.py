"""An ASCII parser for HOCL / HOCLflow programs.

The paper prints programs with mathematical typography (``〈 … 〉``, ω, primes);
this parser accepts an ASCII rendering of the same language so that programs
like the getMax example or the workflow of Fig. 8 can be written as text:

.. code-block:: text

    let max = replace x, y by x if x >= y in
    let clean = replace-one <max, ?w> by ?w in
    < <2, 3, 5, 8, 9, max>, clean >

Syntax conventions
------------------
* Solutions are written ``< ... >``; lists are written ``[ ... ]``.
* Tuples are colon-separated: ``SRC : <T1>``, ``MVSRC : T4 : T2 : T2p``.
* Identifiers starting with an **uppercase** letter are symbol literals
  (``SRC``, ``ERROR``, ``T1``); identifiers starting with a lowercase letter
  are **pattern variables** inside rule left-hand sides and variable
  references inside products — unless they name a previously ``let``-defined
  rule, in which case they denote that rule (higher order).
* ``?name`` is an omega (rest) variable, the ω of the paper.
* ``fn(arg, ...)`` in a product calls the external function ``fn``.
* Rule definitions: ``let NAME = replace LHS by RHS [if COND] in BODY``,
  ``replace-one`` for one-shot rules and ``with LHS inject RHS`` for the
  HOCLflow sugar.
* Conditions are comparisons between two operands (variables or literals)
  with ``<= >= < > == !=``.
* ``#`` starts a comment running to the end of the line.

The parser returns a :class:`Program` exposing the top-level solution (a
:class:`~repro.hocl.multiset.Multiset`) and the dictionary of named rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable

from .atoms import Atom, FloatAtom, IntAtom, ListAtom, StringAtom, Subsolution, Symbol, TupleAtom
from .errors import ParseError
from .multiset import Multiset
from .patterns import Literal, Omega, Pattern, RulePattern, SolutionPattern, SymbolPattern, TuplePattern, Var
from .rules import BindingView, Rule, with_inject
from .templates import Call, ListTemplate, Ref, SolutionTemplate, Splice, Template, TupleTemplate

__all__ = ["Program", "parse_program", "parse_solution"]

_KEYWORDS = {"let", "replace", "replace-one", "by", "if", "in", "with", "inject"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op><=|>=|==|!=|[<>\[\](),:=?])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    line_start = 0
    position = 0
    while position < len(source):
        match = _TOKEN_RE.match(source, position)
        if match is None:
            column = position - line_start + 1
            raise ParseError(f"unexpected character {source[position]!r}", line, column)
        kind = match.lastgroup or ""
        text = match.group(0)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line, match.start() - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + text.rfind("\n") + 1
        position = match.end()
    return tokens


def _merge_replace_one(source: str) -> str:
    """Rewrite ``replace-one`` into a single token the tokenizer can read."""
    return source.replace("replace-one", "replace_one__")


@dataclass
class Program:
    """A parsed HOCL program: the top-level solution plus its named rules."""

    solution: Multiset
    rules: dict[str, Rule] = field(default_factory=dict)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.position = 0
        self.rules: dict[str, Rule] = {}

    # ------------------------------------------------------------- utilities
    def _peek(self) -> _Token | None:
        return self.tokens[self.position] if self.position < len(self.tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError("unexpected end of input", last.line if last else None)
        self.position += 1
        return token

    def _expect(self, text: str) -> _Token:
        token = self._next()
        if token.text != text:
            raise ParseError(f"expected {text!r}, got {token.text!r}", token.line, token.column)
        return token

    def _at(self, text: str) -> bool:
        token = self._peek()
        return token is not None and token.text == text

    def _at_name(self, name: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "name" and token.text == name

    # --------------------------------------------------------------- program
    def parse_program(self) -> Program:
        solution_atom = self._parse_body()
        if self._peek() is not None:
            token = self._peek()
            raise ParseError(f"trailing input starting at {token.text!r}", token.line, token.column)  # type: ignore[union-attr]
        if isinstance(solution_atom, Subsolution):
            return Program(solution=solution_atom.solution, rules=dict(self.rules))
        raise ParseError("a program must end with a top-level solution '< ... >'")

    def _parse_body(self) -> Atom:
        """Parse ``let``-definitions followed by a solution (or value)."""
        if self._at_name("let"):
            self._next()
            name_token = self._next()
            if name_token.kind != "name":
                raise ParseError("expected a rule name after 'let'", name_token.line, name_token.column)
            self._expect("=")
            rule = self._parse_rule_definition(name_token.text)
            self.rules[rule.name] = rule
            if not self._at_name("in"):
                token = self._peek()
                raise ParseError(
                    "expected 'in' after rule definition",
                    token.line if token else None,
                    token.column if token else None,
                )
            self._next()
            return self._parse_body()
        return self._parse_value()

    # ----------------------------------------------------------------- rules
    def _parse_rule_definition(self, name: str) -> Rule:
        token = self._next()
        if token.kind != "name" or token.text not in ("replace", "replace_one__", "with"):
            raise ParseError(
                f"expected 'replace', 'replace-one' or 'with', got {token.text!r}",
                token.line,
                token.column,
            )
        style = token.text
        patterns = self._parse_pattern_list()
        if style == "with":
            self._expect_name("inject")
            products = self._parse_product_list()
            return with_inject(name, patterns, products)
        self._expect_name("by")
        products = self._parse_product_list()
        condition = None
        if self._at_name("if"):
            self._next()
            condition = self._parse_condition()
        return Rule(name, patterns, products, condition=condition, one_shot=(style == "replace_one__"))

    def _expect_name(self, name: str) -> None:
        token = self._next()
        if token.kind != "name" or token.text != name:
            raise ParseError(f"expected {name!r}, got {token.text!r}", token.line, token.column)

    def _parse_pattern_list(self) -> list[Pattern]:
        patterns = [self._parse_pattern()]
        while self._at(","):
            self._next()
            patterns.append(self._parse_pattern())
        return patterns

    def _parse_product_list(self) -> list[Any]:
        products = [self._parse_product()]
        while self._at(","):
            self._next()
            products.append(self._parse_product())
        return products

    # -------------------------------------------------------------- patterns
    def _parse_pattern(self) -> Pattern:
        primary = self._parse_pattern_primary()
        if self._at(":"):
            elements = [primary]
            while self._at(":"):
                self._next()
                elements.append(self._parse_pattern_primary())
            return TuplePattern(*elements)
        return primary

    def _parse_pattern_primary(self) -> Pattern:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in pattern")
        if token.text == "?":
            self._next()
            name_token = self._next()
            if name_token.kind != "name":
                raise ParseError("expected a name after '?'", name_token.line, name_token.column)
            return Omega(name_token.text)
        if token.text == "<":
            return self._parse_solution_pattern()
        if token.kind == "number":
            self._next()
            return Literal(_number_atom(token.text))
        if token.kind == "string":
            self._next()
            return Literal(StringAtom(_unquote(token.text)))
        if token.kind == "name":
            self._next()
            name = token.text
            if name in self.rules:
                return RulePattern(name=name)
            if name[0].isupper():
                return SymbolPattern(name)
            return Var(name)
        raise ParseError(f"unexpected token {token.text!r} in pattern", token.line, token.column)

    def _parse_solution_pattern(self) -> SolutionPattern:
        self._expect("<")
        elements: list[Any] = []
        if not self._at(">"):
            elements.append(self._parse_pattern())
            while self._at(","):
                self._next()
                elements.append(self._parse_pattern())
        self._expect(">")
        return SolutionPattern(*elements)

    # -------------------------------------------------------------- products
    def _parse_product(self) -> Any:
        primary = self._parse_product_primary()
        if self._at(":"):
            elements = [primary]
            while self._at(":"):
                self._next()
                elements.append(self._parse_product_primary())
            return TupleTemplate(*elements)
        return primary

    def _parse_product_primary(self) -> Any:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in product")
        if token.text == "?":
            self._next()
            name_token = self._next()
            if name_token.kind != "name":
                raise ParseError("expected a name after '?'", name_token.line, name_token.column)
            return Splice(name_token.text)
        if token.text == "<":
            self._next()
            elements: list[Any] = []
            if not self._at(">"):
                elements.append(self._parse_product())
                while self._at(","):
                    self._next()
                    elements.append(self._parse_product())
            self._expect(">")
            return SolutionTemplate(*elements)
        if token.text == "[":
            self._next()
            items: list[Any] = []
            if not self._at("]"):
                items.append(self._parse_product())
                while self._at(","):
                    self._next()
                    items.append(self._parse_product())
            self._expect("]")
            return ListTemplate(*items)
        if token.kind == "number":
            self._next()
            return _number_atom(token.text)
        if token.kind == "string":
            self._next()
            return StringAtom(_unquote(token.text))
        if token.kind == "name":
            self._next()
            name = token.text
            if self._at("("):
                self._next()
                arguments: list[Any] = []
                if not self._at(")"):
                    arguments.append(self._parse_product())
                    while self._at(","):
                        self._next()
                        arguments.append(self._parse_product())
                self._expect(")")
                return Call(name, *arguments)
            if name in self.rules:
                return self.rules[name]
            if name[0].isupper():
                return Symbol(name)
            return Ref(name)
        raise ParseError(f"unexpected token {token.text!r} in product", token.line, token.column)

    # ------------------------------------------------------------- condition
    def _parse_condition(self) -> Callable[..., bool]:
        left = self._parse_condition_operand()
        op_token = self._next()
        if op_token.text not in ("<=", ">=", "<", ">", "==", "!="):
            raise ParseError(f"expected a comparison operator, got {op_token.text!r}", op_token.line, op_token.column)
        right = self._parse_condition_operand()
        operator = op_token.text

        def evaluate(operand: Any, view: BindingView) -> Any:
            kind, value = operand
            if kind == "var":
                return view.value(value)
            return value

        def condition(view: BindingView, _l: Any = left, _r: Any = right, _op: str = operator) -> bool:
            lhs = evaluate(_l, view)
            rhs = evaluate(_r, view)
            if _op == "<=":
                return lhs <= rhs
            if _op == ">=":
                return lhs >= rhs
            if _op == "<":
                return lhs < rhs
            if _op == ">":
                return lhs > rhs
            if _op == "==":
                return lhs == rhs
            return lhs != rhs

        return condition

    def _parse_condition_operand(self) -> Any:
        """Returns a tagged operand: ("var", name) or ("lit", python value)."""
        token = self._next()
        if token.kind == "number":
            return ("lit", _number_atom(token.text).value)
        if token.kind == "string":
            return ("lit", _unquote(token.text))
        if token.kind == "name":
            if token.text[0].isupper():
                # symbols unwrap to their name when compared in conditions
                return ("lit", token.text)
            return ("var", token.text)
        raise ParseError(f"unexpected token {token.text!r} in condition", token.line, token.column)

    # ----------------------------------------------------------------- values
    def _parse_value(self) -> Atom:
        primary = self._parse_value_primary()
        if self._at(":"):
            elements = [primary]
            while self._at(":"):
                self._next()
                elements.append(self._parse_value_primary())
            return TupleAtom(elements)
        return primary

    def _parse_value_primary(self) -> Atom:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in value")
        if token.text == "<":
            self._next()
            contents: list[Atom] = []
            if not self._at(">"):
                contents.append(self._parse_value())
                while self._at(","):
                    self._next()
                    contents.append(self._parse_value())
            self._expect(">")
            return Subsolution(contents)
        if token.text == "[":
            self._next()
            items: list[Atom] = []
            if not self._at("]"):
                items.append(self._parse_value())
                while self._at(","):
                    self._next()
                    items.append(self._parse_value())
            self._expect("]")
            return ListAtom(items)
        if token.kind == "number":
            self._next()
            return _number_atom(token.text)
        if token.kind == "string":
            self._next()
            return StringAtom(_unquote(token.text))
        if token.kind == "name":
            self._next()
            name = token.text
            if name in self.rules:
                return self.rules[name]
            return Symbol(name)
        raise ParseError(f"unexpected token {token.text!r} in value", token.line, token.column)


def _number_atom(text: str) -> Atom:
    if "." in text:
        return FloatAtom(float(text))
    return IntAtom(int(text))


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def parse_program(source: str) -> Program:
    """Parse a full HOCL program (``let`` definitions plus a top-level solution)."""
    tokens = _tokenize(_merge_replace_one(source))
    return _Parser(tokens).parse_program()


def parse_solution(source: str) -> Multiset:
    """Parse a standalone solution literal such as ``<1, 2, A : <B>>``."""
    program = parse_program(source)
    return program.solution
