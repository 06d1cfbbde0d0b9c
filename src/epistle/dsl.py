"""Textual formula language: parser and canonical printer.

Grammar (indices are ASCII digits; any whitespace separates tokens)::

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

The whole text is tokenized before parsing, so a bad character anywhere is
reported before any parse error.  A token is its text (an operator, ``K`` or
``Kw``, the only words) or its index (a proposition as its ``Atom``, an agent
index as its ``int``), with its offset; ``None`` ends the text.

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

_DIGITS = frozenset("0123456789")  # not str.isdigit, which takes "²" that int() rejects


def _tokenize(text: str) -> list[tuple[object, int]]:
    tokens: list[tuple[object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS or (ch == "p" and text[i + 1 : i + 2] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            atom = ch == "p"
            try:
                index = int(text[i + atom : j])
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError(f"index of {j - i - atom} digits is too long", i) from None
            tokens.append((Atom(index) if atom else index, i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            if text[i:j] not in ("K", "Kw"):
                raise ParseError(f"unknown operator {text[i:j]!r}", i)
        elif ch == "-":
            if text[i + 1 : i + 2] != ">":
                raise ParseError("expected '->'", i)
            j = i + 2
        elif ch in "~&|()[]!":
            j = i + 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append((text[i:j], i))
        i = j
    tokens.append((None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, n_agents: int):
        self.n_agents = n_agents
        self.tokens = _tokenize(text)
        self.pos = 0

    def accept(self, token: str) -> bool:
        if self.tokens[self.pos][0] == token:
            self.pos += 1
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.accept(token):
            raise ParseError(f"expected {token!r}", self.tokens[self.pos][1])

    def parse(self) -> Formula:
        f = self.implication(0)
        token, offset = self.tokens[self.pos]
        if token is not None:
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
        token, offset = self.tokens[self.pos]
        if depth > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", offset)
        self.pos += 1
        if token == "~":
            return Not(self.unary(depth + 1))
        if token == "K" or token == "Kw":
            agent = self.agent_index()
            child = self.unary(depth + 1)
            return Knows(agent, child) if token == "K" else KnowsWhether(agent, child)
        if token == "[":
            self.expect("!")
            announcement = self.implication(depth + 1)
            self.expect("]")
            return Announced(announcement, self.unary(depth + 1))
        if token == "(":
            f = self.implication(depth + 1)
            self.expect(")")
            return f
        if type(token) is Atom:
            if token.prop >= self.n_agents:
                raise IndexOutOfRange(
                    f"proposition p{token.prop} out of range for {self.n_agents} agents", offset
                )
            return token
        raise ParseError("expected a formula", offset)

    def agent_index(self) -> int:
        self.expect("[")
        token, offset = self.tokens[self.pos]
        if type(token) is not int:
            raise ParseError("expected an agent index", offset)
        if token >= self.n_agents:
            raise IndexOutOfRange(f"agent {token} out of range for {self.n_agents} agents", offset)
        self.pos += 1
        self.expect("]")
        return token


@lru_cache(maxsize=1 << 12)
def parse_formula(text: str, n_agents: int) -> Formula:
    """Parse ``text`` into a formula over at most ``n_agents`` agents.

    Raises ``ParseError`` (with a character offset) on malformed input and
    ``IndexOutOfRange`` when an agent or proposition index is too large.
    Results are memoized on ``(text, n_agents)``: nodes are hash-consed and
    immutable, so a repeated text gets the node a fresh parse would build.
    Errors are not cached; a bad text raises again on every call.
    """
    return _Parser(text, n_agents).parse()


# Precedence levels used by the printer; higher binds tighter.
_IMPLIES, _OR, _AND, _UNARY, _ATOM_LEVEL = 0, 1, 2, 3, 4


def _render(f: Formula) -> tuple[str, int]:
    kind = type(f)
    if kind is Atom:
        return f"p{f.prop}", _ATOM_LEVEL
    if kind is Not:
        return "~" + _child(f.child, _UNARY), _UNARY
    if kind is Knows:
        return f"K[{f.agent}] " + _child(f.child, _UNARY), _UNARY
    if kind is KnowsWhether:
        return f"Kw[{f.agent}] " + _child(f.child, _UNARY), _UNARY
    if kind is Announced:
        inner, _ = _render(f.announcement)
        return f"[! {inner}] " + _child(f.continuation, _UNARY), _UNARY
    if kind is And:
        return " & ".join(_child(c, _UNARY) for c in f.children), _AND
    if kind is Or:
        return " | ".join(_child(c, _AND) for c in f.children), _OR
    if kind is Implies:
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
