"""Inverse of the surface templates, for tests only.

Parses rendered premises and hypotheses back into statement/belief
structures.  Anything outside the anchored grammar raises, so a successful
parse doubles as a template-conformance check.
"""

from __future__ import annotations

from epistle.formula import Quantifier
from epistle.setups import SetupKind
from epistle.statements import BeliefLayer, ExpressionSpec, StatementSpec

_WORD_TO_NUMBER = {
    "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10,
}

_QUANTIFIER_PREFIXES = (
    ("not everyone", Quantifier.NOT_EVERYONE),
    ("everyone", Quantifier.EVERYONE),
    ("nobody", Quantifier.NOBODY),
    ("someone", Quantifier.SOMEONE),
)


class SurfaceParseError(AssertionError):
    pass


def _split_subject(text: str, names) -> tuple[object, str]:
    for prefix, quantifier in _QUANTIFIER_PREFIXES:
        if text.startswith(prefix):
            return quantifier, text[len(prefix):]
    for index, name in enumerate(names):
        if text.startswith(name) and not text[len(name):len(name) + 1].isalpha():
            return index, text[len(name):]
    raise SurfaceParseError(f"no subject found in {text!r}")


def parse_statement(text: str, names, setup: SetupKind) -> StatementSpec:
    subject, rest = _split_subject(text, names)
    if setup in (SetupKind.FOREHEAD_MUD, SetupKind.FOREHEAD_MUD_MIRROR):
        if rest == "'s forehead is muddy":
            return StatementSpec(subject, False)
        if rest == "'s forehead is not muddy":
            return StatementSpec(subject, True)
    elif setup is SetupKind.THIRST:
        if rest == " is thirsty":
            return StatementSpec(subject, False)
        if rest == " is not thirsty":
            return StatementSpec(subject, True)
    elif setup is SetupKind.EXPLICIT:
        if rest == " picked a red card":
            return StatementSpec(subject, False)
        if rest == " did not pick a red card":
            return StatementSpec(subject, True)
    raise SurfaceParseError(f"unrecognized statement {text!r}")


_ANNOUNCEMENT_VERBS = (
    (" does not know whether ", True, True),
    (" does not know that ", False, True),
    (" knows whether ", True, False),
    (" knows that ", False, False),
)


def parse_announcement_clause(text: str, names, setup: SetupKind) -> ExpressionSpec:
    for index, name in enumerate(names):
        if not text.startswith(name):
            continue
        rest = text[len(name):]
        for verb, whether, negated in _ANNOUNCEMENT_VERBS:
            if rest.startswith(verb):
                statement = parse_statement(rest[len(verb):], names, setup)
                layer = BeliefLayer(index, whether, negated)
                return ExpressionSpec((layer,), statement)
    return ExpressionSpec((), parse_statement(text, names, setup))


def _hypothesis_verbs(outermost: bool):
    can = " can now know " if outermost else " can know "
    return (
        (" cannot know whether ", True, True),
        (" cannot know that ", False, True),
        (can + "whether ", True, False),
        (can + "that ", False, False),
    )


def parse_hypothesis(text: str, names, setup: SetupKind) -> ExpressionSpec:
    if not text.endswith("."):
        raise SurfaceParseError(f"hypothesis must end with a period: {text!r}")
    body = text[:-1]
    layers: list[BeliefLayer] = []
    outermost = True
    while True:
        matched = False
        for index, name in enumerate(names):
            if not body.startswith(name):
                continue
            for verb, whether, negated in _hypothesis_verbs(outermost):
                if body[len(name):].startswith(verb):
                    layers.append(BeliefLayer(index, whether, negated))
                    body = body[len(name) + len(verb):]
                    matched = True
                    break
            if matched:
                break
        if not matched:
            break
        outermost = False
    if not layers:
        raise SurfaceParseError(f"hypothesis has no belief layer: {text!r}")
    return ExpressionSpec(tuple(layers), parse_statement(body, names, setup))


def parse_premise(text: str, names, setup: SetupKind):
    """Returns (agent count, reveal pairs, announcement specs)."""
    if not text.endswith("."):
        raise SurfaceParseError("premise must end with a period")
    sentences = text[:-1].split(". ")
    if len(sentences) < 3:
        raise SurfaceParseError("premise too short")

    first = sentences[0]
    if not (first.startswith("There are ") and first.endswith(" persons")):
        raise SurfaceParseError(f"bad opening sentence {first!r}")
    count_word = first[len("There are "):-len(" persons")]
    n = _WORD_TO_NUMBER.get(count_word)
    if n is None:
        n = int(count_word)

    if sentences[1] != "Everyone is visible to others":
        raise SurfaceParseError(f"bad visibility sentence {sentences[1]!r}")

    idx = 2
    reveals: list[tuple[int, int]] = []
    if setup is SetupKind.FOREHEAD_MUD_MIRROR:
        if sentences[idx] != "There is a mirror in the room":
            raise SurfaceParseError("missing mirror sentence")
        idx += 1
    elif setup is SetupKind.EXPLICIT:
        if sentences[idx] != "Each person draws a card, face unrevealed (red or black)":
            raise SurfaceParseError("missing card sentence")
        idx += 1
        while idx < len(sentences) and "'s card is revealed to " in sentences[idx]:
            owner_part, viewer = sentences[idx].split("'s card is revealed to ")
            reveals.append((names.index(viewer), names.index(owner_part)))
            idx += 1

    marker = "It is publicly announced that "
    announcements = []
    for sentence in sentences[idx:]:
        if not sentence.startswith(marker):
            raise SurfaceParseError(f"expected an announcement, got {sentence!r}")
        announcements.append(
            parse_announcement_clause(sentence[len(marker):], names, setup)
        )
    return n, reveals, announcements
