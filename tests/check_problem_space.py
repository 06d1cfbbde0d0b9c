"""Label the default configuration's problem space with the oracle, or the
n=3 explicit setup's with both backends.

    PYTHONPATH=src python tests/check_problem_space.py             # the oracle
    PYTHONPATH=src python tests/check_problem_space.py --explicit  # both backends

``support.default_problem_space`` gives every matrix, reachable state and
hypothesis form that the default ``GenConfig`` can label, but for the n=3
explicit setup, which stays sampled: 310,896 labels.  For each state the
brute-force ``support.oracle_eval`` rebuilds the worlds its announcements
leave, which must be the state, and labels every hypothesis there, which
must be the explicit backend's label; tier-1 checks the symbolic backend
against the explicit one on the same labels.  Exits 1 at the first
disagreement.  Takes about 16 s.

``--explicit`` runs tier-1's comparison of the two backends
(``support.backend_disagreements``) over ``support.problem_space`` of all 512
three-agent matrices instead: 18,636 states and 29,072,160 (state, distinct
hypothesis) labels, in about 90 s.  Exits 1 when a label differs.

Not collected by pytest.
"""

from __future__ import annotations

import sys

from epistle.dsl import print_formula
from epistle.kripke import ObservabilityMatrix, label

from support import (
    backend_disagreements,
    default_problem_space,
    every_matrix,
    oracle_eval,
    problem_space,
    worlds,
)


def check_explicit_setup() -> int:
    labels = states_seen = wrong = 0
    for n, rows, states, hyps in problem_space(3, every_matrix(3)):
        wrong += backend_disagreements(n, rows, states, hyps)
        labels += len(states) * len(set(hyps))
        states_seen += len(states)
    print(f"{labels:,} labels over {states_seen:,} states of the 512 three-agent matrices: "
          f"the backends disagree on {wrong:,}")
    return 1 if wrong else 0


def main() -> int:
    labels = states_seen = true = 0
    for n, rows, states, hyps in default_problem_space():
        obs = ObservabilityMatrix.from_rows(rows)
        for live, anns in states.items():
            survivors = list(range(1 << n))
            for a in anns:
                survivors = [w for w in survivors if oracle_eval(survivors, rows, w, a)]
            if set(survivors) != worlds(live):
                print(f"n={n} rows={rows}: the oracle leaves {sorted(survivors)} after "
                      f"{[print_formula(a) for a in anns]}, the explicit backend "
                      f"{sorted(worlds(live))}")
                return 1
            for hyp in hyps:
                expected = all(oracle_eval(survivors, rows, w, hyp) for w in survivors)
                if label(obs, live, [], hyp) != expected:
                    print(f"n={n} rows={rows} announcements {[print_formula(a) for a in anns]}: "
                          f"{print_formula(hyp)} is {expected} by the oracle")
                    return 1
                true += expected
            labels += len(hyps)
            states_seen += 1
    print(f"{labels:,} labels over {states_seen} states: the oracle agrees with the "
          f"explicit backend ({true:,} True)")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--explicit"]):
        sys.exit("usage: check_problem_space.py [--explicit]")
    sys.exit(check_explicit_setup() if sys.argv[1:] else main())
