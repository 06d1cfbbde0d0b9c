"""Run an ``epistle`` command with the partition checker beside the checker
that labels its draws.

    PYTHONPATH=src python tests/partition_replay.py crosscheck --count 2000 --seed 1
    PYTHONPATH=src python tests/partition_replay.py generate --backend both --seed 7 --out d.jsonl

The arguments are those of ``python -m epistle``, and the command runs as it
does there.  ``support.PartitionCheck`` wraps the checker the command hands
the generator (``crosscheck``'s comparison of both backends, or
``generate``'s ``--backend``), so every draw it labels, contradictory ones
included, also gets its outcome from ``support.partition_label``, which
shares no code with the interpreter both backends run.  The command's own
checker accepts or rejects each draw, so the draws are the command's own.
Exits 1 when an outcome differs on a draw or the command labels none, else
with the command's own code.  CI runs its ``crosscheck`` steps at two to
eight agents and its ``generate --backend both`` step this way; its 12- and
16-agent step runs without it, since the partition checker takes about
0.14 s a draw there.

Not collected by pytest.
"""

from __future__ import annotations

import sys

from epistle import cli
from epistle.dsl import print_formula

from support import PartitionCheck


def main(args: list[str]) -> int:
    checks: list[PartitionCheck] = []

    def wrap(checker):
        checks.append(PartitionCheck(checker))
        return checks[-1]

    iter_problems, generate_balanced = cli.iter_problems, cli.generate_balanced
    cli.iter_problems = lambda cfg, count, checker: iter_problems(cfg, count, wrap(checker))
    cli.generate_balanced = lambda cfg, checker: generate_balanced(cfg, checker=wrap(checker))
    try:
        cli.main(args, prog_name="epistle")
        code = 0
    except SystemExit as exc:
        code = exc.code or 0
    draws = sum(c.draws for c in checks)
    wrong = [d for c in checks for d in c.disagreements]
    print(f"partition checker: {draws:,} draws, {sum(c.contradictory for c in checks):,} "
          f"contradictory, {len(wrong)} disagreements")
    for rows, anns, hyp, expected, found in wrong[:5]:
        print(f"  rows={rows} anns={[print_formula(a) for a in anns]} "
              f"hyp={print_formula(hyp)} partition={expected} checker={found}")
    return 1 if wrong or not draws else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
