"""Propositional guard formulas: parsing, evaluation, and canonical printing.

Guards label the edges of reward machines and are evaluated against the set
of atomic propositions that hold on a single transition.  The grammar is
whitespace-insensitive, `!` binds tighter than `&`, which binds tighter than
`|`, and binary operators are left-associative:

    formula := or
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | '(' formula ')' | atom | 'true' | 'false'

The glyph `⊤` is accepted as an alias for `true`.  Atoms are lowercase
identifiers and must belong to the alphabet declared alongside the formula;
unknown atoms are an error, never implicitly created.

A node compiles on its first evaluation to a one-argument test of a
valuation, cached on the node, so a guard's tree is walked once, not on
every evaluation.  An atom's test is `frozenset((name,)).issubset` and a
negated atom's `.isdisjoint`, C calls with no Python frame; `&`, `|` and
any other `!` are closures over their children's tests.  `eval_formula`
is the one entry point to them.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union

from .errors import PluralismError

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


class FormulaSyntaxError(PluralismError):
    """Guard text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class UnknownAtomError(PluralismError):
    """A guard mentions an atom outside the declared alphabet."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown atom '{name}' at position {position}")
        self.name = name
        self.position = position


class _Node:
    """A formula node; `_test` is its compiled truth function."""

    @cached_property
    def _test(self):
        return _compile(self)

    def __getstate__(self):  # a closure does not pickle; it is rebuilt on use
        return {k: v for k, v in self.__dict__.items() if k != "_test"}


@dataclass(frozen=True)
class Atom(_Node):
    name: str


@dataclass(frozen=True)
class Not(_Node):
    operand: "PropFormula"


@dataclass(frozen=True)
class And(_Node):
    left: "PropFormula"
    right: "PropFormula"


@dataclass(frozen=True)
class Or(_Node):
    left: "PropFormula"
    right: "PropFormula"


@dataclass(frozen=True)
class ConstTrue(_Node):
    pass


@dataclass(frozen=True)
class ConstFalse(_Node):
    pass


PropFormula = Union[Atom, Not, And, Or, ConstTrue, ConstFalse]

TRUE = ConstTrue()
FALSE = ConstFalse()


def is_proposition_name(name: str) -> bool:
    return bool(_NAME_RE.fullmatch(name))


def check_alphabet(names: Iterable[str]) -> tuple[str, ...]:
    """Validate proposition names and reject duplicates; returns them as a tuple."""
    out: list[str] = []
    seen: set[str] = set()
    for name in names:
        if not is_proposition_name(name):
            raise ValueError(f"invalid proposition name '{name}'")
        if name in seen:
            raise ValueError(f"duplicate proposition '{name}' in alphabet")
        seen.add(name)
        out.append(name)
    return tuple(out)


# The deepest guard the parser builds, counted two ways: the `!`, `&` and
# `|` nodes on a path down its tree, and the `!` and `(` open at any point
# of its text.  A guard past either is refused, so no recursion over a
# guard (the parser's own included) comes near Python's limit.
MAX_GUARD_DEPTH = 100


class _Parser:
    """Each parse_* returns (formula, height): the height counts the
    operator nodes on the longest path down the formula."""

    def __init__(self, text: str, atoms: frozenset):
        self.text = text
        self.atoms = atoms
        self.pos = 0
        self.open = 0  # the `!` and `(` the parser is inside

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _within(self, levels: int) -> int:
        if levels > MAX_GUARD_DEPTH:
            raise FormulaSyntaxError(f"nested deeper than {MAX_GUARD_DEPTH} levels", self.pos)
        return levels

    def parse_or(self) -> tuple:
        return self._chain("|", Or, self.parse_and)

    def parse_and(self) -> tuple:
        return self._chain("&", And, self.parse_unary)

    def _chain(self, glyph: str, node_type, operand) -> tuple:
        """operand (glyph operand)*, folded to the left into node_type nodes."""
        node, height = operand()
        while self._peek() == glyph:
            self.pos += 1
            right, right_height = operand()
            node, height = node_type(node, right), self._within(max(height, right_height) + 1)
        return node, height

    def parse_unary(self) -> tuple:
        ch = self._peek()
        if ch == "!" or ch == "(":
            self.pos += 1
            self.open = self._within(self.open + 1)
            if ch == "!":
                node, height = self.parse_unary()
                node, height = Not(node), self._within(height + 1)
            else:
                node, height = self.parse_or()
                if self._peek() != ")":
                    raise FormulaSyntaxError("expected ')'", self.pos)
                self.pos += 1
            self.open -= 1
            return node, height
        if ch == "⊤":
            self.pos += 1
            return TRUE, 0
        m = _NAME_RE.match(self.text, self.pos)
        if m is None:
            raise FormulaSyntaxError("expected atom, 'true', 'false', '!' or '('", self.pos)
        self.pos = m.end()
        name = m.group()
        if name == "true":
            return TRUE, 0
        if name == "false":
            return FALSE, 0
        if name not in self.atoms:
            raise UnknownAtomError(name, m.start())
        return Atom(name), 0

    def expect_end(self) -> None:
        self._skip_ws()
        if self.pos < len(self.text):
            raise FormulaSyntaxError(f"unexpected '{self.text[self.pos]}'", self.pos)


def parse_formula(text: str, alphabet: Iterable[str]) -> PropFormula:
    """Parse guard text over the given alphabet.

    Raises FormulaSyntaxError for malformed input (with the offending
    position) and UnknownAtomError for atoms outside the alphabet.
    """
    parser = _Parser(text, frozenset(alphabet))
    node, _ = parser.parse_or()
    parser.expect_end()
    return node


def eval_formula(formula: PropFormula, valuation) -> bool:
    """Standard propositional semantics against a set of true atom names."""
    return _test_of(formula)(valuation)


def _test_of(formula):
    """The compiled test of `formula`, built on first use."""
    try:
        return formula._test
    except AttributeError:
        raise TypeError(f"not a formula: {formula!r}") from None


def _compile(formula: PropFormula):
    """The one-argument test of a valuation that `formula` is."""
    if isinstance(formula, Atom):
        return frozenset((formula.name,)).issubset
    if isinstance(formula, Not):
        if isinstance(formula.operand, Atom):
            return frozenset((formula.operand.name,)).isdisjoint
        operand = _test_of(formula.operand)
        return lambda valuation: not operand(valuation)
    if isinstance(formula, And):
        left, right = _test_of(formula.left), _test_of(formula.right)
        return lambda valuation: left(valuation) and right(valuation)
    if isinstance(formula, Or):
        left, right = _test_of(formula.left), _test_of(formula.right)
        return lambda valuation: left(valuation) or right(valuation)
    if isinstance(formula, ConstTrue):
        return lambda valuation: True
    if isinstance(formula, ConstFalse):
        return lambda valuation: False
    raise TypeError(f"not a formula: {formula!r}")


def print_formula(formula: PropFormula) -> str:
    """Canonical text form; parse_formula(print_formula(f), ...) is structurally f."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, ConstTrue):
        return "true"
    if isinstance(formula, ConstFalse):
        return "false"
    if isinstance(formula, Not):
        return "!" + print_formula(formula.operand)
    if isinstance(formula, And):
        return f"({print_formula(formula.left)} & {print_formula(formula.right)})"
    if isinstance(formula, Or):
        return f"({print_formula(formula.left)} | {print_formula(formula.right)})"
    raise TypeError(f"not a formula: {formula!r}")


def formula_atoms(formula: PropFormula) -> frozenset:
    """The set of atom names occurring in the formula."""
    if isinstance(formula, Atom):
        return frozenset((formula.name,))
    if isinstance(formula, Not):
        return formula_atoms(formula.operand)
    if isinstance(formula, (And, Or)):
        return formula_atoms(formula.left) | formula_atoms(formula.right)
    return frozenset()


def all_valuations(alphabet: Sequence[str]) -> Iterator[frozenset]:
    """All 2^n valuations over the alphabet, in binary-counting order."""
    atoms = list(alphabet)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        yield frozenset(a for a, b in zip(atoms, bits) if b)


def format_valuation(valuation) -> str:
    return "{" + ",".join(sorted(valuation)) + "}"
