"""Dataset records and their JSON-Lines serialization.

One record per line, UTF-8, LF endings, as the standard library's JSON
encoder writes it with ``ensure_ascii=False``: keys in field declaration
order, so identical configurations produce byte-identical files.
``DatasetRecord`` is plain, not frozen: cheaper to build, and never changed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .dsl import print_formula
from .generator import ProblemInstance
from .verbalize import render_premise

__all__ = ["DatasetRecord", "record_from_instance", "write_jsonl"]

_ENCODER = json.JSONEncoder(ensure_ascii=False)


@dataclass
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
        """``json.dumps(vars(self), ensure_ascii=False)``: tuples as arrays."""
        return _ENCODER.encode(vars(self))


def record_from_instance(instance: ProblemInstance) -> DatasetRecord:
    """The record of an instance; its text is rendered here, once."""
    hypothesis = instance.hypothesis
    return DatasetRecord(
        render_premise(instance), hypothesis.text, "True" if instance.label else "False",
        instance.setup.value, instance.n_agents, len(instance.ann_formulas), hypothesis.order,
        tuple(map(print_formula, instance.ann_formulas)), print_formula(hypothesis.formula),
        instance.names, instance.seed, instance.draw_index,
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

