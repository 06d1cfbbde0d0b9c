import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistle.dsl import MAX_NESTING, parse_formula, print_formula
from epistle.errors import IndexOutOfRange, ParseError
from epistle.formula import (
    And,
    Announced,
    Atom,
    Implies,
    Knows,
    KnowsWhether,
    Not,
    Or,
)
from epistle.rng import SplitMix64

from conftest import formula_strategy
from support import random_formula


class TestParse:
    def test_single_atom(self):
        assert parse_formula("p0", 1) == Atom(0)

    def test_knowledge_over_group(self):
        assert parse_formula("K[1] (p0 | ~p1)", 2) == Knows(
            1, Or((Atom(0), Not(Atom(1))))
        )

    def test_announcement_then_whether(self):
        assert parse_formula("[! p0 | p1] Kw[0] p0", 2) == Announced(
            Or((Atom(0), Atom(1))), KnowsWhether(0, Atom(0))
        )

    def test_whitespace_insensitive(self):
        dense = parse_formula("[!p0|p1]Kw[0]p0", 2)
        spaced = parse_formula("  [!  p0 |\tp1 ]\n Kw[ 0 ]\u2003p0 ", 2)  # an em space too
        assert dense == spaced

    def test_nary_flattening(self):
        assert parse_formula("p0 & p1 & p2", 3) == And((Atom(0), Atom(1), Atom(2)))
        assert parse_formula("p0 | p1 | p2", 3) == Or((Atom(0), Atom(1), Atom(2)))

    def test_implication_right_associative(self):
        f = parse_formula("p0 -> p1 -> p2", 3)
        assert f == Implies(Atom(0), Implies(Atom(1), Atom(2)))

    def test_precedence(self):
        f = parse_formula("~p0 & p1 | p2 -> p0", 3)
        assert f == Implies(Or((And((Not(Atom(0)), Atom(1))), Atom(2))), Atom(0))

    def test_multidigit_indices(self):
        f = parse_formula("K[11] p10", 12)
        assert f == Knows(11, Atom(10))

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("p0 &", 4),
            ("(p0", 3),
            ("p0 p1", 3),
            ("K[0 p1", 4),
            ("Q p0", 0),
            ("p0 - p1", 3),
            ("p0 # p1", 3),
            ("K[p0] p1", 2),
            # indices past the interpreter's int() digit limit
            ("p" + "1" * 5000, 0),
            ("p0 & K[" + "1" * 5000 + "] p1", 7),
        ],
        ids=lambda value: value[:20] if isinstance(value, str) else None,
    )
    def test_syntax_error_offsets(self, text, offset):
        for _ in range(2):  # an error is not memoized: the second call raises again
            with pytest.raises(ParseError) as err:
                parse_formula(text, 3)
            assert err.value.position == offset

    @pytest.mark.parametrize(
        "text,error,message,offset",
        [
            ("Q p0", ParseError, "unknown operator 'Q'", 0),
            ("p0 & pK", ParseError, "unknown operator 'pK'", 5),
            ("p\u00b2", ParseError, "unknown operator 'p'", 0),
            ("\u00e9", ParseError, "unknown operator '\u00e9'", 0),
            ("Q" * 80, ParseError, "unknown operator '" + "Q" * 14 + "…" + "Q" * 30 + "'", 0),
            ("p0 - p1", ParseError, "expected '->'", 3),
            ("p0 -", ParseError, "expected '->'", 3),
            ("p0 # p1", ParseError, "unexpected character '#'", 3),
            ("p0 \u00b2", ParseError, "unexpected character '\u00b2'", 3),
            ("p" + "1" * 5000, ParseError, "index of 5000 digits is too long", 0),
            ("p0 & K[" + "1" * 5000 + "] p1", ParseError, "index of 5000 digits is too long", 7),
            ("K p0", ParseError, "expected '['", 2),
            ("K[p0] p1", ParseError, "expected an agent index", 2),
            ("K[0 p1", ParseError, "expected ']'", 4),
            ("[! p0 p1", ParseError, "expected ']'", 6),
            ("[p0] p1", ParseError, "expected '!'", 1),
            ("(p0", ParseError, "expected ')'", 3),
            ("p0 p1", ParseError, "trailing input", 3),
            ("p0\u2003p1", ParseError, "trailing input", 3),
            ("p0 &", ParseError, "expected a formula", 4),
            ("", ParseError, "expected a formula", 0),
            ("K[0]", ParseError, "expected a formula", 4),
            ("~" * 5000 + "p0", ParseError, f"formula nested deeper than {MAX_NESTING} levels", 101),
            ("p0 -> " * 101 + "p0", ParseError, f"formula nested deeper than {MAX_NESTING} levels", 606),
            ("p3", IndexOutOfRange, "proposition p3 out of range for 3 agents", 0),
            ("K[3] p0", IndexOutOfRange, "agent 3 out of range for 3 agents", 2),
            # the whole text is tokenized first: a bad character anywhere
            # is reported before a parse error earlier in the text
            ("p0 p1 #", ParseError, "unexpected character '#'", 6),
            ("(p0 \u00e9", ParseError, "unknown operator '\u00e9'", 4),
            ("p3 - p0", ParseError, "expected '->'", 3),
        ],
        ids=lambda value: value[:20] if isinstance(value, str) else None,
    )
    def test_error_message_and_offset(self, text, error, message, offset):
        with pytest.raises(ParseError) as err:
            parse_formula(text, 3)
        assert type(err.value) is error
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.position == offset

    def test_prop_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_formula("p3", 3)

    def test_agent_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_formula("K[2] p0", 2)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_formula("", 2)

    def test_nesting_beyond_the_cap_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_formula("~" * 5000 + "p0", 2)
        assert err.value.position == MAX_NESTING + 1  # the first token past the cap
        assert "nested deeper" in str(err.value)

    @pytest.mark.parametrize(
        "opener,closer",
        [
            ("~", ""),
            ("(", ")"),
            ("K[1] ", ""),
            ("Kw[0] ", ""),
            ("[! p1] ", ""),
            ("[! ", "] p1"),
            ("p1 -> ", ""),
        ],
    )
    def test_nesting_up_to_the_cap_round_trips(self, opener, closer):
        text = opener * MAX_NESTING + "p0" + closer * MAX_NESTING
        f = parse_formula(text, 2)
        assert parse_formula(print_formula(f), 2) == f
        with pytest.raises(ParseError):
            parse_formula(opener * (MAX_NESTING + 1) + "p0" + closer * (MAX_NESTING + 1), 2)


class TestParseMemo:
    """``parse_formula`` is memoized on the text and the agent count."""

    def test_a_second_parse_returns_the_same_node_from_the_memo(self):
        text = "[! p0 | ~K[1] p1] (Kw[0] p1 -> p0 & p1)"
        first = parse_formula(text, 2)
        hits = parse_formula.cache_info().hits
        assert parse_formula(text, 2) is first
        assert parse_formula.cache_info().hits == hits + 1

    def test_the_agent_count_is_part_of_the_key(self):
        assert parse_formula("p2", 3) == Atom(2)
        with pytest.raises(IndexOutOfRange):
            parse_formula("p2", 2)

    def test_the_memo_has_the_printers_bound(self):
        assert parse_formula.cache_info().maxsize == 4096
        assert print_formula.cache_info().maxsize == 4096


class TestPrint:
    def test_atom(self):
        assert print_formula(Atom(0)) == "p0"

    def test_whether_negation(self):
        assert print_formula(KnowsWhether(2, Not(Atom(1)))) == "Kw[2] ~p1"

    def test_parenthesizes_only_when_needed(self):
        f = Or((And((Atom(0), Atom(1))), Atom(2)))
        assert print_formula(f) == "p0 & p1 | p2"
        g = And((Atom(0), Or((Atom(1), Atom(2)))))
        assert print_formula(g) == "p0 & (p1 | p2)"

    def test_nested_same_operator_keeps_structure(self):
        f = And((And((Atom(0), Atom(1))), Atom(2)))
        assert print_formula(f) == "(p0 & p1) & p2"
        assert parse_formula(print_formula(f), 3) == f

    def test_left_nested_implication(self):
        f = Implies(Implies(Atom(0), Atom(1)), Atom(2))
        assert print_formula(f) == "(p0 -> p1) -> p2"

    def test_announcement_shape(self):
        f = Announced(Or((Atom(0), Atom(1))), KnowsWhether(0, Atom(0)))
        assert print_formula(f) == "[! p0 | p1] Kw[0] p0"


class TestRoundTrip:
    def test_seeded_thousand(self):
        rng = SplitMix64(0xD51)
        for _ in range(1000):
            f = random_formula(rng, 3, depth=4)
            assert parse_formula(print_formula(f), 3) == f

    @given(formula_strategy())
    @settings(max_examples=300)
    def test_property(self, f):
        assert parse_formula(print_formula(f), 3) == f


# formula characters, ASCII and Unicode digits and spaces, and characters
# no formula holds
_CHARS = list("pKw~&|()[]!->0123456789 ") + ["\u00b2", "\u0663", "\u2003", "#", "\u00e9"]


def _inserted(args) -> str:
    text, inserts = args
    for at, ch in inserts:
        at %= len(text) + 1
        text = text[:at] + ch + text[at:]
    return text


# a printed formula with up to four characters inserted, each from _CHARS or
# arbitrary, often non-ASCII
_FORMULA_TEXT = st.tuples(
    formula_strategy().map(print_formula),
    st.lists(
        st.tuples(st.integers(0, 1 << 10), st.one_of(st.sampled_from(_CHARS), st.characters())),
        max_size=4,
    ),
).map(_inserted)


class TestArbitraryText:
    """Any text parses to a node that round-trips, or is a ``ParseError``."""

    @given(_FORMULA_TEXT, st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_parses_and_round_trips_or_is_a_parse_error(self, text, n_agents):
        try:
            f = parse_formula(text, n_agents)
        except ParseError as err:
            assert 0 <= err.position <= len(text)
            return
        assert parse_formula(print_formula(f), n_agents) is f
