"""Label the default configuration's whole problem space with the oracle.

    PYTHONPATH=src python tests/check_problem_space.py

``support.default_problem_space`` gives every matrix, reachable state and
hypothesis form that the default ``GenConfig`` can label, but for the n=3
explicit setup, which stays sampled: 310,896 labels.  For each state the
brute-force ``support.oracle_eval`` rebuilds the worlds its announcements
leave, which must be the state, and labels every hypothesis there, which
must be the explicit backend's label; tier-1 checks the symbolic backend
against the explicit one on the same labels.  Exits 1 at the first
disagreement.  Not collected by pytest; takes about 16 s.
"""

from __future__ import annotations

import sys

from epistle.dsl import print_formula
from epistle.kripke import ObservabilityMatrix, label

from support import default_problem_space, oracle_eval, worlds


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
    sys.exit(main())
