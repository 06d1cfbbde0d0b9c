"""Dataset records and their JSON-Lines serialization.

One record per line, UTF-8, LF endings, keys always in the same order, so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from json.encoder import encode_basestring
from typing import Iterable

from .dsl import print_formula
from .generator import ProblemInstance
from .verbalize import render_premise

__all__ = ["DatasetRecord", "record_from_instance", "write_jsonl"]


@dataclass(frozen=True)
class DatasetRecord:
    premise: str
    hypothesis: str
    label: str  # "True" or "False", matching the prompt continuations
    setup: str
    n_agents: int
    n_announcements: int
    hypothesis_order: int
    premise_formulas: tuple[str, ...]
    hypothesis_formula: str
    names: tuple[str, ...]
    seed: int
    index: int

    def to_json(self) -> str:
        """The text ``json.dumps(payload, ensure_ascii=False)`` gives for the
        fields in declaration order, tuples as arrays."""
        items = [key + encode(getattr(self, name)) for key, name, encode in _FIELDS]
        return "{" + ", ".join(items) + "}"


def _string_array(items) -> str:
    return "[" + ", ".join(map(encode_basestring, items)) + "]"


# each field's JSON key, name and value encoder, in declaration order; the
# types are the annotations as written
_ENCODERS = {"str": encode_basestring, "int": str, "tuple[str, ...]": _string_array}
_FIELDS = tuple(
    (encode_basestring(f.name) + ": ", f.name, _ENCODERS[f.type]) for f in fields(DatasetRecord)
)


def record_from_instance(instance: ProblemInstance) -> DatasetRecord:
    """The record of an instance; its text is rendered here, once."""
    hypothesis = instance.hypothesis
    return DatasetRecord(
        premise=render_premise(instance),
        hypothesis=hypothesis.text,
        label="True" if instance.label else "False",
        setup=instance.setup.value,
        n_agents=instance.n_agents,
        n_announcements=len(instance.ann_formulas),
        hypothesis_order=hypothesis.order,
        premise_formulas=tuple(map(print_formula, instance.ann_formulas)),
        hypothesis_formula=print_formula(hypothesis.formula),
        names=instance.names,
        seed=instance.seed,
        index=instance.draw_index,
    )


def write_jsonl(records: Iterable[DatasetRecord], path: str) -> int:
    """Write records one per line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(record.to_json())
            fh.write("\n")
            count += 1
    return count

