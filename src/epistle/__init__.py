"""Public-announcement epistemic logic over S5, with an explicit and a
symbolic model-checking backend, and a generator for balanced
natural-language entailment datasets with machine-verified labels."""

from .backends import both_label, explicit_label, get_checker, symbolic_label
from .dsl import parse_formula, print_formula
from .errors import (
    BackendMismatch,
    ContradictoryPremise,
    DeadWorld,
    EpistleError,
    GenerationStall,
    IndexOutOfRange,
    ParseError,
    SizeLimit,
    StoreCapacity,
)
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
)
from .generator import GenConfig, ProblemInstance, generate_balanced, iter_problems
from .kripke import ObservabilityMatrix
from .records import DatasetRecord, record_from_instance, write_jsonl
from .setups import ALL_SETUPS, SetupKind
from .verbalize import render_prompt

__all__ = [
    "And", "Announced", "Atom", "Formula", "Implies", "Knows", "KnowsWhether", "Not", "Or",
    "parse_formula", "print_formula",
    "explicit_label", "symbolic_label", "both_label", "get_checker",
    "ObservabilityMatrix",
    "GenConfig", "generate_balanced", "iter_problems", "ProblemInstance",
    "DatasetRecord", "record_from_instance", "write_jsonl",
    "SetupKind", "ALL_SETUPS",
    "render_prompt",
    "EpistleError", "ParseError", "IndexOutOfRange", "DeadWorld", "SizeLimit",
    "ContradictoryPremise", "StoreCapacity", "GenerationStall", "BackendMismatch",
]

__version__ = "0.1.0"
