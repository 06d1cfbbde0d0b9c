"""Textual formula language: parser and canonical printer.

Grammar (ASCII, whitespace between tokens is ignored)::

    atom          p<digits>
    negation      ~ f
    grouping      ( f )
    conjunction   f & g          n-ary, flattened
    disjunction   f | g          n-ary, flattened
    implication   f -> g         right-associative, lowest precedence
    knowledge     K[<agent>] f
    knows-whether Kw[<agent>] f
    announcement  [! f] g

Precedence, tightest first: the prefix operators (``~``, ``K``, ``Kw``,
``[! ]``), then ``&``, then ``|``, then ``->``.

Nesting is capped at ``MAX_NESTING`` levels, each a prefix operator, a
parenthesis, an announcement or the right side of an implication; deeper
input is a ``ParseError``.  The cap keeps the parser, the printer and both
evaluators, which all recurse over the formula, well inside Python's
recursion limit.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import IndexOutOfRange, ParseError
from .formula import (
    And,
    Announced,
    Atom,
    Formula,
    Implies,
    Knows,
    KnowsWhether,
    Not,
    Or,
    conj,
    disj,
)

__all__ = ["MAX_NESTING", "parse_formula", "print_formula"]

MAX_NESTING = 100

_ATOM = "atom"
_INT = "int"
_NAME = "name"  # K or Kw
_PUNCT = "punct"
_EOF = "eof"
_DIGITS = frozenset("0123456789")  # not str.isdigit, which takes "²" that int() rejects


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch in _DIGITS or (ch == "p" and text[i + 1 : i + 2] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            atom = ch == "p"
            try:
                value = int(text[i + atom : j])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError(f"index of {j - i - atom} digits is too long", start) from None
            tokens.append((_ATOM if atom else _INT, value, start))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("K", "Kw"):
                raise ParseError(f"unknown operator {word!r}", start)
            tokens.append((_NAME, word, start))
            i = j
        elif ch == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append((_PUNCT, "->", start))
                i += 2
            else:
                raise ParseError("expected '->'", start)
        elif ch in "~&|()[]!":
            tokens.append((_PUNCT, ch, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append((_EOF, None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, n_agents: int):
        self.n_agents = n_agents
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, object, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, value: str) -> bool:
        kind, val, _ = self.peek()
        if kind == _PUNCT and val == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str) -> None:
        kind, val, offset = self.peek()
        if kind != _PUNCT or val != value:
            raise ParseError(f"expected {value!r}", offset)
        self.pos += 1

    def parse(self) -> Formula:
        f = self.implication(0)
        kind, _, offset = self.peek()
        if kind != _EOF:
            raise ParseError("trailing input", offset)
        return f

    def implication(self, depth: int) -> Formula:
        left = self.disjunction(depth)
        if self.accept("->"):
            return Implies(left, self.implication(depth + 1))
        return left

    def disjunction(self, depth: int) -> Formula:
        items = [self.conjunction(depth)]
        while self.accept("|"):
            items.append(self.conjunction(depth))
        return disj(items)

    def conjunction(self, depth: int) -> Formula:
        items = [self.unary(depth)]
        while self.accept("&"):
            items.append(self.unary(depth))
        return conj(items)

    def unary(self, depth: int) -> Formula:
        kind, val, offset = self.peek()
        if depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", offset)
        if kind == _PUNCT and val == "~":
            self.advance()
            return Not(self.unary(depth + 1))
        if kind == _NAME:
            self.advance()
            agent = self.agent_index()
            child = self.unary(depth + 1)
            return Knows(agent, child) if val == "K" else KnowsWhether(agent, child)
        if kind == _PUNCT and val == "[":
            self.advance()
            self.expect("!")
            announcement = self.implication(depth + 1)
            self.expect("]")
            return Announced(announcement, self.unary(depth + 1))
        if kind == _PUNCT and val == "(":
            self.advance()
            f = self.implication(depth + 1)
            self.expect(")")
            return f
        if kind == _ATOM:
            self.advance()
            if val >= self.n_agents:
                raise IndexOutOfRange(
                    f"proposition p{val} out of range for {self.n_agents} agents", offset
                )
            return Atom(val)
        raise ParseError("expected a formula", offset)

    def agent_index(self) -> int:
        self.expect("[")
        kind, val, offset = self.peek()
        if kind != _INT:
            raise ParseError("expected an agent index", offset)
        self.advance()
        if val >= self.n_agents:
            raise IndexOutOfRange(
                f"agent {val} out of range for {self.n_agents} agents", offset
            )
        self.expect("]")
        return val


@lru_cache(maxsize=1 << 12)
def parse_formula(text: str, n_agents: int) -> Formula:
    """Parse ``text`` into a formula over at most ``n_agents`` agents.

    Raises ``ParseError`` (with a byte offset) on malformed input and
    ``IndexOutOfRange`` when an agent or proposition index is too large.
    Results are memoized on ``(text, n_agents)``: nodes are hash-consed and
    immutable, so a repeated text gets the node a fresh parse would build.
    Errors are not cached; a bad text raises again on every call.
    """
    return _Parser(text, n_agents).parse()


# Precedence levels used by the printer; higher binds tighter.
_IMPLIES, _OR, _AND, _UNARY, _ATOM_LEVEL = 0, 1, 2, 3, 4


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f"p{f.prop}", _ATOM_LEVEL
    if isinstance(f, Not):
        return "~" + _child(f.child, _UNARY), _UNARY
    if isinstance(f, Knows):
        return f"K[{f.agent}] " + _child(f.child, _UNARY), _UNARY
    if isinstance(f, KnowsWhether):
        return f"Kw[{f.agent}] " + _child(f.child, _UNARY), _UNARY
    if isinstance(f, Announced):
        inner, _ = _render(f.announcement)
        return f"[! {inner}] " + _child(f.continuation, _UNARY), _UNARY
    if isinstance(f, And):
        return " & ".join(_child(c, _UNARY) for c in f.children), _AND
    if isinstance(f, Or):
        return " | ".join(_child(c, _AND) for c in f.children), _OR
    if isinstance(f, Implies):
        return _child(f.left, _OR) + " -> " + _child(f.right, _IMPLIES), _IMPLIES
    raise TypeError(f"not a formula: {f!r}")


def _child(f: Formula, min_level: int) -> str:
    text, level = _render(f)
    if level < min_level:
        return f"({text})"
    return text


@lru_cache(maxsize=1 << 12)
def print_formula(f: Formula) -> str:
    """Canonical rendering; parsing it back yields the same node."""
    return _render(f)[0]
