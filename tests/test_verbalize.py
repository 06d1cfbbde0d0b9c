import hashlib
import re
from itertools import product

import pytest

from epistle.formula import Quantifier
from epistle.generator import GenConfig, generate_balanced, iter_problems
from epistle.names import FEMININE_NAMES, MASCULINE_NAMES, MAX_NAMES, sample_names
from epistle.rng import SplitMix64
from epistle.setups import SetupKind
from epistle.statements import BeliefLayer, ExpressionSpec, StatementSpec
from epistle.verbalize import (
    announcement_clause,
    number_word,
    observation_sentences,
    render_belief,
    render_hypothesis,
    render_premise,
    render_prompt,
    render_statement,
)

from inverse import parse_announcement_clause, parse_hypothesis, parse_premise
from support import every_matrix, expression_specs, reference_sample_names


class TestRenderStatement:
    def test_forehead_named_subject(self):
        got = render_statement(SetupKind.FOREHEAD_MUD, 0, False, ("Herbert",))
        assert got == "Herbert's forehead is muddy"

    def test_explicit_someone(self):
        got = render_statement(SetupKind.EXPLICIT, Quantifier.SOMEONE, False, ())
        assert got == "someone picked a red card"

    def test_thirst_negated(self):
        got = render_statement(SetupKind.THIRST, 0, True, ("Mary",))
        assert got == "Mary is not thirsty"

    def test_quantifiers_on_forehead(self):
        for quantifier, text in (
            (Quantifier.EVERYONE, "everyone's forehead is muddy"),
            (Quantifier.NOT_EVERYONE, "not everyone's forehead is muddy"),
            (Quantifier.NOBODY, "nobody's forehead is muddy"),
        ):
            assert (
                render_statement(SetupKind.FOREHEAD_MUD, quantifier, False, ())
                == text
            )

    def test_explicit_negated(self):
        got = render_statement(SetupKind.EXPLICIT, 1, True, ("John", "Mary"))
        assert got == "Mary did not pick a red card"


class TestRenderBelief:
    def test_announcement_knows_whether(self):
        spec = ExpressionSpec(
            (BeliefLayer(0, True, False),),
            StatementSpec(Quantifier.SOMEONE, False),
        )
        got = render_belief(
            SetupKind.FOREHEAD_MUD, spec, ("Herbert", "Anna", "Paul"), "announcement"
        )
        assert got == "Herbert knows whether someone's forehead is muddy"

    def test_announcement_negated(self):
        spec = ExpressionSpec(
            (BeliefLayer(1, False, True),), StatementSpec(0, False)
        )
        got = render_belief(SetupKind.THIRST, spec, ("Mary", "John"), "announcement")
        assert got == "John does not know that Mary is thirsty"

    def test_hypothesis_can_now_know(self):
        spec = ExpressionSpec(
            (BeliefLayer(0, True, False),),
            StatementSpec(Quantifier.EVERYONE, False),
        )
        got = render_belief(
            SetupKind.FOREHEAD_MUD_MIRROR, spec, ("Robert", "Lucy"), "hypothesis"
        )
        assert got == "Robert can now know whether everyone's forehead is muddy"

    @pytest.mark.parametrize("position", ["announcement", "hypothesis"])
    def test_no_layers_is_the_bare_statement(self, position):
        names = ("Ann", "Bea", "Cal")
        subjects = (*range(len(names)), *Quantifier)
        for setup in SetupKind:
            for subject in subjects:
                for negated in (False, True):
                    spec = ExpressionSpec((), StatementSpec(subject, negated))
                    assert render_belief(setup, spec, names, position) == render_statement(
                        setup, subject, negated, names
                    )

    def test_hypothesis_cannot_know_whether(self):
        spec = ExpressionSpec((BeliefLayer(0, True, True),), StatementSpec(1, False))
        got = render_belief(
            SetupKind.FOREHEAD_MUD, spec, ("Mary", "Paul"), "hypothesis"
        )
        assert got == "Mary cannot know whether Paul's forehead is muddy"

    def test_nested_layers_compose_right_to_left(self):
        spec = ExpressionSpec(
            (BeliefLayer(0, False, False), BeliefLayer(1, True, True)),
            StatementSpec(2, False),
        )
        got = render_belief(
            SetupKind.FOREHEAD_MUD, spec, ("Ann", "Bea", "Cal"), "hypothesis"
        )
        assert got == "Ann can now know that Bea cannot know whether Cal's forehead is muddy"

    def test_full_hypothesis_sentence(self):
        spec = ExpressionSpec((BeliefLayer(0, False, False),), StatementSpec(0, False))
        got = render_hypothesis(
            SetupKind.FOREHEAD_MUD, spec, ("Herbert", "Mary", "Paul")
        )
        assert got == "Herbert can now know that Herbert's forehead is muddy."


class TestRenderPremise:
    def _instance(self, setup, names, announcements, obs_rows=None):
        # minimal stand-in with the attributes render_premise needs
        from epistle.kripke import ObservabilityMatrix

        class Stub:
            pass

        stub = Stub()
        stub.setup = setup
        stub.names = names
        stub.n_agents = len(names)
        if obs_rows is None:
            obs_rows = [[False] * len(names)] * len(names)
        stub.obs = ObservabilityMatrix.from_rows(obs_rows)
        stub.announcements = [(None, clause) for clause in announcements]
        return stub

    def test_mirror_repeated_announcements(self):
        instance = self._instance(
            SetupKind.FOREHEAD_MUD_MIRROR,
            ("Robert", "Lucy"),
            (
                "someone's forehead is muddy",
                "not everyone's forehead is muddy",
                "not everyone's forehead is muddy",
            ),
        )
        assert render_premise(instance) == (
            "There are two persons. Everyone is visible to others. "
            "There is a mirror in the room. "
            "It is publicly announced that someone's forehead is muddy. "
            "It is publicly announced that not everyone's forehead is muddy. "
            "It is publicly announced that not everyone's forehead is muddy."
        )

    def test_three_person_premise_with_belief_announcement(self):
        instance = self._instance(
            SetupKind.FOREHEAD_MUD,
            ("Herbert", "Mary", "Paul"),
            (
                "someone's forehead is muddy",
                "Herbert knows whether someone's forehead is muddy",
            ),
        )
        assert render_premise(instance) == (
            "There are three persons. Everyone is visible to others. "
            "It is publicly announced that someone's forehead is muddy. "
            "It is publicly announced that Herbert knows whether someone's forehead is muddy."
        )

    def test_single_announcement_premise_ends_there(self):
        instance = self._instance(
            SetupKind.THIRST, ("Mary", "John"), ("someone is thirsty",)
        )
        assert render_premise(instance) == (
            "There are two persons. Everyone is visible to others. "
            "It is publicly announced that someone is thirsty."
        )

    def test_explicit_reveal_sentence(self):
        instance = self._instance(
            SetupKind.EXPLICIT,
            ("John", "Mary"),
            ("someone picked a red card",),
            obs_rows=[[False, True], [False, False]],
        )
        text = render_premise(instance)
        assert "Each person draws a card, face unrevealed (red or black)." in text
        assert "Mary's card is revealed to John." in text

    def test_number_words(self):
        assert number_word(2) == "two"
        assert number_word(3) == "three"
        assert number_word(10) == "ten"
        assert number_word(11) == "11"


class TestRenderPrompt:
    def test_template(self):
        got = render_prompt("Premise here.", "Something holds.")
        assert got == "Premise here. Question: Something holds. True or False ?"

    def test_split_recovers_fields(self):
        premise = "There are two persons. Everyone is visible to others."
        hypothesis = "Mary can know that Mary is thirsty."
        prompt = render_prompt(premise, hypothesis)
        left, right = prompt.split(" Question: ")
        assert left == premise
        assert right == hypothesis + " True or False ?"


class TestNamePool:
    def test_pool_size_and_balance(self):
        assert len(FEMININE_NAMES) >= 100
        assert len(MASCULINE_NAMES) >= 100
        assert len(FEMININE_NAMES) == len(MASCULINE_NAMES)
        combined = FEMININE_NAMES + MASCULINE_NAMES
        assert len(set(combined)) == len(combined)

    def test_sample_distinct(self):
        rng = SplitMix64(4)
        for _ in range(200):
            names = sample_names(rng, 3)
            assert len(set(names)) == 3

    def test_sample_alternates_tags(self):
        rng = SplitMix64(9)
        feminine = set(FEMININE_NAMES)
        for _ in range(100):
            names = sample_names(rng, 3)
            tags = [name in feminine for name in names]
            assert tags[0] != tags[1] and tags[1] != tags[2]

    def test_full_draw_uses_every_name_once(self):
        feminine = set(FEMININE_NAMES)
        for seed in range(20):
            names = sample_names(SplitMix64(seed), MAX_NAMES)
            assert sorted(names) == sorted(FEMININE_NAMES + MASCULINE_NAMES)
            tags = [name in feminine for name in names]
            assert all(a != b for a, b in zip(tags, tags[1:]))

    @pytest.mark.parametrize(
        "sizes", [range(1, 11), (MAX_NAMES - 1, MAX_NAMES)], ids=["small", "full"]
    )
    def test_sample_matches_reference(self, sizes):
        # same names and the same draws, so the stream stays aligned after
        for n in sizes:
            for seed in range(300):
                ours, ref = SplitMix64(seed * 31 + n), SplitMix64(seed * 31 + n)
                assert sample_names(ours, n) == reference_sample_names(ref, n)
                assert ours.next_u64() == ref.next_u64()

    def test_oversize_draw_raises_before_drawing(self):
        n = MAX_NAMES + 1
        ours, ref = SplitMix64(5), SplitMix64(5)
        with pytest.raises(ValueError) as err:
            sample_names(ours, n)
        with pytest.raises(ValueError) as ref_err:
            reference_sample_names(ref, n)
        assert str(err.value) == str(ref_err.value) == f"cannot draw {n} names from the bundled pool"
        assert ours.next_u64() == ref.next_u64() == SplitMix64(5).next_u64()


def _generated_batch():
    cfg = GenConfig(seed=31)
    return list(iter_problems(cfg, 120))


class TestFaithfulness:
    def test_surface_forms_parse_back_to_the_formulas(self):
        for instance in _generated_batch():
            names = list(instance.names)
            premise = render_premise(instance)
            n, reveals, ann_specs = parse_premise(premise, names, instance.setup)
            assert n == instance.n_agents
            got_anns = tuple(s.to_formula(n) for s in ann_specs)
            assert got_anns == instance.announcement_formulas()
            if instance.setup is SetupKind.EXPLICIT:
                expected = [
                    (i, j)
                    for i, row in enumerate(instance.obs.rows)
                    for j, bit in enumerate(row)
                    if bit
                ]
                assert reveals == expected
            hyp_spec = parse_hypothesis(
                instance.hypothesis.text, names, instance.setup
            )
            assert hyp_spec.to_formula(n) == instance.hypothesis.formula
            assert hyp_spec.order == instance.hypothesis.order

    def test_balanced_dataset_also_faithful(self):
        cfg = GenConfig(seed=13, per_setup_count=8)
        for instance in generate_balanced(cfg):
            names = list(instance.names)
            _, _, ann_specs = parse_premise(
                render_premise(instance), names, instance.setup
            )
            got = tuple(s.to_formula(instance.n_agents) for s in ann_specs)
            assert got == instance.announcement_formulas()


# the pool's names that begin with another of its names, after that name
_POOL = FEMININE_NAMES + MASCULINE_NAMES
_PREFIX_PAIRS = [(a, b) for a in _POOL for b in _POOL if a != b and b.startswith(a)]


def _name_sets(n):
    """Both names of every prefix pair, each pair in one order at n=2 and in
    the other at n=3, where the longer name of another pair sits between."""
    for k, (short, long) in enumerate(_PREFIX_PAIRS):
        pair = (short, long) if (k + n) % 2 else (long, short)
        yield pair if n == 2 else (pair[0], _PREFIX_PAIRS[k - 1][1], pair[1])


# sha256 over every announcement and hypothesis text that
# test_every_text_parses_back renders, one per line in its order; parsing
# back alone would pass a change of spacing or wording
_DRAWABLE_TEXT_SHA256 = {
    2: "f9bebad70c88622ffc89548a418299b4bf641e8ce054841699754a8ceb485716",
    3: "1379f8573ffbc83624a275c9fa4c9d32875ecce40ff0cbb8f5776c847ed3e0a6",
}


class TestEveryDrawableText:
    """Every announcement and hypothesis form the generator can write at n=2
    and 3, in each setup, and the reveal sentences of every explicit matrix,
    parse back to what they were rendered from, and are the pinned bytes."""

    def test_the_pool_has_the_six_prefix_pairs(self):
        assert sorted(_PREFIX_PAIRS) == [
            ("Anna", "Annabelle"), ("Carol", "Caroline"), ("Eliza", "Elizabeth"),
            ("Gabriel", "Gabriella"), ("Joseph", "Josephine"), ("Zoe", "Zoey"),
        ]

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_text_parses_back(self, n):
        existential = ExpressionSpec((), StatementSpec(Quantifier.SOMEONE))
        announcements = [*expression_specs(n, (0, 1)), existential]
        hypotheses = expression_specs(n, (1, 2))
        opening = f"There are {number_word(n)} persons. Everyone is visible to others. "
        digest = hashlib.sha256()
        for names in _name_sets(n):
            for setup in SetupKind:
                for specs, render, parse in (
                    (announcements, announcement_clause, parse_announcement_clause),
                    (hypotheses, render_hypothesis, parse_hypothesis),
                ):
                    texts = [render(setup, spec, names) for spec in specs]
                    assert [parse(text, names, setup) for text in texts] == specs
                    assert len(set(texts)) == len(texts)
                    digest.update("".join(text + "\n" for text in texts).encode())
            for rows in every_matrix(n):
                text = opening + " ".join(observation_sentences(SetupKind.EXPLICIT, names, rows))
                _, reveals, _ = parse_premise(text, names, SetupKind.EXPLICIT)
                assert reveals == [(i, j) for i, j in product(range(n), repeat=2) if rows[i][j]]
        assert digest.hexdigest() == _DRAWABLE_TEXT_SHA256[n]


class TestNameHygiene:
    def test_names_distinct_and_no_strays(self):
        pool_names = set(FEMININE_NAMES) | set(MASCULINE_NAMES)
        for instance in _generated_batch():
            used = set(instance.names)
            assert len(used) == instance.n_agents
            text = render_premise(instance) + " " + instance.hypothesis.text
            words = set(re.findall(r"[A-Za-z]+", text))
            strays = (words & pool_names) - used
            assert not strays, f"unexpected names {strays} in {text!r}"

    def test_every_referenced_agent_is_named(self):
        # knowers and single-agent subjects must show up as names in the text
        for instance in _generated_batch():
            text = render_premise(instance) + " " + instance.hypothesis.text
            words = set(re.findall(r"[A-Za-z]+", text))
            names = list(instance.names)
            hyp_spec = parse_hypothesis(instance.hypothesis.text, names, instance.setup)
            mentioned = {layer.knower for layer in hyp_spec.layers}
            if isinstance(hyp_spec.statement.subject, int):
                mentioned.add(hyp_spec.statement.subject)
            for agent in mentioned:
                assert names[agent] in words
