"""Audit of the dataset ``epistle generate --seed 7`` writes, from its text.

Each record is read back the way a reader of the file would: the premise and
hypothesis sentences are parsed with the test-only inverse templates, the
matrix is rebuilt from the setup's visibility rule or, for ``explicit``, from
the reveal sentences, and the label is recomputed by the brute-force oracle
(up to three agents), the explicit backend (up to its 20) and the symbolic
backend.  Nothing here uses the instance the record was made from.
``tests/audit_dataset.py`` runs the same audit on any written file.
"""

from __future__ import annotations

import hashlib

from click.testing import CliRunner

from epistle import cli
from epistle.backends import explicit_label, symbolic_label
from epistle.dsl import parse_formula, print_formula
from epistle.kripke import MAX_EXPLICIT_AGENTS, ObservabilityMatrix
from epistle.setups import SetupKind

from inverse import parse_hypothesis, parse_premise
from support import oracle_label, read_jsonl

DEFAULT_DATASET_SHA256 = "b32783b3ba329e0e57bd51f5d3a9df7bd77d0b42760403b0c8fd6b700251feda"

# whether agent i sees agent j's predicate, in each setup with no reveals
SEES = {
    SetupKind.FOREHEAD_MUD: lambda i, j: i != j,  # everyone but the bearer
    SetupKind.FOREHEAD_MUD_MIRROR: lambda i, j: True,  # everyone
    SetupKind.THIRST: lambda i, j: i == j,  # only the bearer
}


def rows_from_text(setup: SetupKind, n: int, reveals) -> list[list[bool]]:
    """The matrix the premise describes: the setup's rule, or one true entry
    per reveal sentence (viewer, owner) for ``explicit``."""
    if setup is SetupKind.EXPLICIT:
        rows = [[False] * n for _ in range(n)]
        for viewer, owner in reveals:
            rows[viewer][owner] = True
        return rows
    assert not reveals
    return [[SEES[setup](i, j) for j in range(n)] for i in range(n)]


def audit(record: dict) -> None:
    """Assert that the record's text determines its formulas and its label."""
    setup, names, n = SetupKind(record["setup"]), record["names"], record["n_agents"]
    told_n, reveals, ann_specs = parse_premise(record["premise"], names, setup)
    hyp_spec = parse_hypothesis(record["hypothesis"], names, setup)
    assert told_n == n and len(names) == n
    assert len(ann_specs) == record["n_announcements"]
    assert hyp_spec.order == record["hypothesis_order"]

    anns = [spec.to_formula(n) for spec in ann_specs]
    hyp = hyp_spec.to_formula(n)
    assert [print_formula(a) for a in anns] == record["premise_formulas"]
    assert print_formula(hyp) == record["hypothesis_formula"]
    assert [parse_formula(text, n) for text in record["premise_formulas"]] == anns
    assert parse_formula(record["hypothesis_formula"], n) == hyp

    rows = rows_from_text(setup, n, reveals)
    obs = ObservabilityMatrix.from_rows(rows)
    expected = record["label"] == "True"
    if n <= 3:  # the oracle walks every world for each world
        assert oracle_label(n, rows, anns, hyp) is expected
    if n <= MAX_EXPLICIT_AGENTS:
        assert explicit_label(obs, anns, hyp) is expected
    assert symbolic_label(obs, anns, hyp) is expected


def test_written_seed_7_dataset_is_determined_by_its_text(tmp_path):
    path = tmp_path / "seed7.jsonl"
    result = CliRunner().invoke(cli.main, ["generate", "--seed", "7", "--out", str(path)])
    assert result.exit_code == 0, result.output
    records = read_jsonl(str(path))
    assert len(records) == 1600
    assert {record["setup"] for record in records} == {kind.value for kind in SetupKind}
    for record in records:
        audit(record)
    # the audited file is the shipped one (checked last, so that a wrong
    # text fails the audit rather than the pin)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_DATASET_SHA256
