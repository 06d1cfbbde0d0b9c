"""Public-announcement epistemic logic over S5, with an explicit and a
symbolic model-checking backend, and a generator for balanced
natural-language entailment datasets with machine-verified labels."""

from .bdd import DdNode, DdStore
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
    Quantifier,
    atoms_of,
    conj,
    desugar_subject,
    disj,
    expand_whether,
    modal_depth,
    negated,
    reduce_announcements,
)
from .generator import (
    GenConfig,
    ProblemInstance,
    Rejected,
    generate_balanced,
    make_problem,
    sample_announcement,
    sample_hypothesis,
    sample_observability,
    sample_statement,
)
from .kripke import (
    KripkeModel,
    ObservabilityMatrix,
    announce,
    build_initial_model,
    evaluate,
    is_contradictory,
    label,
)
from .names import DEFAULT_NAME_POOL, NamePool
from .records import DatasetRecord, read_jsonl, record_from_instance, write_jsonl
from .rng import SplitMix64, split_seed, substream
from .setups import ALL_SETUPS, SetupKind
from .statements import BeliefLayer, ExpressionSpec, StatementSpec
from .symbolic import (
    KnowledgeStructure,
    announce_symbolic,
    is_contradictory_symbolic,
    label_symbolic,
    translate,
)
from .verbalize import (
    number_word,
    render_belief,
    render_hypothesis,
    render_premise,
    render_prompt,
    render_statement,
)

__version__ = "0.1.0"
