"""English surface forms for problems: statements, beliefs, premises, prompts.

Every template cell is total: any (setup, subject kind, polarity) combination
renders to exactly one clause, so generated text can be parsed back to the
originating formulas.
"""

from __future__ import annotations

from typing import Sequence

from .formula import Quantifier, Subject
from .setups import SetupKind
from .statements import ExpressionSpec

__all__ = [
    "number_word",
    "render_statement",
    "render_belief",
    "render_premise",
    "render_hypothesis",
    "render_prompt",
]

_NUMBER_WORDS = (
    "zero", "one", "two", "three", "four", "five",
    "six", "seven", "eight", "nine", "ten",
)


def number_word(n: int) -> str:
    """Cardinal words up to ten, digits beyond."""
    if 0 <= n <= 10:
        return _NUMBER_WORDS[n]
    return str(n)


_QUANTIFIER_WORDS = {q: q.value for q in Quantifier}  # "everyone", "not everyone", ...
_MUD = ("'s forehead is muddy", "'s forehead is not muddy")
# What follows the subject in each setup, by the statement's negated flag.
_PREDICATES = {
    SetupKind.FOREHEAD_MUD: _MUD,
    SetupKind.FOREHEAD_MUD_MIRROR: _MUD,
    SetupKind.THIRST: (" is thirsty", " is not thirsty"),
    SetupKind.EXPLICIT: (" picked a red card", " did not pick a red card"),
}
# A belief layer's verb by position, then by [negated][outermost].
_VERBS = {
    "announcement": (("knows", "knows"), ("does not know", "does not know")),
    "hypothesis": (("can know", "can now know"), ("cannot know", "cannot know")),
}
_MODES = ("that", "whether")  # by the layer's whether flag


def render_statement(
    setup: SetupKind, subject: Subject, negated: bool, names: Sequence[str]
) -> str:
    """Clause for one predicate statement, e.g. "Herbert's forehead is muddy"."""
    if setup not in _PREDICATES:
        raise ValueError(f"unknown setup {setup!r}")
    who = _QUANTIFIER_WORDS[subject] if isinstance(subject, Quantifier) else names[subject]
    return who + _PREDICATES[setup][negated]


def render_belief(
    setup: SetupKind, spec: ExpressionSpec, names: Sequence[str], position: str
) -> str:
    """Clause for a statement under zero or more belief layers.

    ``position`` is ``"announcement"`` or ``"hypothesis"``.  Announcements use
    plain "knows / does not know"; hypotheses use "can know / cannot know",
    with "now" inserted in the outermost layer, since every problem opens
    with an announcement.  Nested layers compose right to left; with no
    layers the clause is the bare statement.
    """
    if position not in _VERBS:
        raise ValueError(f"unknown position {position!r}")
    verbs, layers, statement = _VERBS[position], spec.layers, spec.statement
    clause = render_statement(setup, statement.subject, statement.negated, names)
    for depth, layer in enumerate(reversed(layers), 1 - len(layers)):  # the outermost is 0
        mode = _MODES[layer.whether]
        clause = f"{names[layer.knower]} {verbs[layer.negated][depth == 0]} {mode} {clause}"
    return clause


def announcement_clause(
    setup: SetupKind, spec: ExpressionSpec, names: Sequence[str]
) -> str:
    """The clause following "It is publicly announced that"."""
    return render_belief(setup, spec, names, "announcement")


def render_hypothesis(setup: SetupKind, spec: ExpressionSpec, names: Sequence[str]) -> str:
    """Full hypothesis sentence, capitalized and terminated."""
    clause = render_belief(setup, spec, names, "hypothesis")
    return clause[0].upper() + clause[1:] + "."


def observation_sentences(
    setup: SetupKind, names: Sequence[str], obs_rows: Sequence[Sequence[bool]]
) -> list[str]:
    """Setup-specific scene description, before any announcement."""
    if setup is SetupKind.FOREHEAD_MUD_MIRROR:
        return ["There is a mirror in the room."]
    if setup is SetupKind.EXPLICIT:
        sentences = ["Each person draws a card, face unrevealed (red or black)."]
        for i, row in enumerate(obs_rows):
            for j, seen in enumerate(row):
                if seen:
                    sentences.append(f"{names[j]}'s card is revealed to {names[i]}.")
        return sentences
    return []


def render_premise(instance) -> str:
    """Premise text for a complete problem instance."""
    n = instance.n_agents
    sentences = [
        f"There are {number_word(n)} persons.",
        "Everyone is visible to others.",
    ]
    sentences.extend(observation_sentences(instance.setup, instance.names, instance.obs.rows))
    sentences.extend(f"It is publicly announced that {c}." for _, c in instance.announcements)
    return " ".join(sentences)


def render_prompt(premise: str, hypothesis: str) -> str:
    """Single-line prompt with the two answer continuations "True"/"False"."""
    return f"{premise} Question: {hypothesis} True or False ?"
