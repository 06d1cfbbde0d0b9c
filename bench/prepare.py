"""Set-up probe: a fresh interpreter imports epistle and prepares its inputs.

    python3 bench/prepare.py SRC MODULE [PROBLEMS.jsonl]

imports MODULE with SRC first on the path and, given a problems file,
parses every problem in it.  ``run.py`` times whole runs of this script to
get ``setup_s``, and uses ``parse_problems`` for the in-process set-up.
"""

from __future__ import annotations

import importlib
import json
import sys


def parse_problems(path: str) -> list:
    """``(observability, announcements, hypothesis)`` for every line of the
    file: observability rows as 0/1 strings, formulas in the formula
    language."""
    from epistle import dsl
    from epistle.kripke import ObservabilityMatrix

    problems = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            item = json.loads(line)
            n = len(item["obs"])
            obs = ObservabilityMatrix.from_rows([[c == "1" for c in row] for row in item["obs"]])
            anns = [dsl.parse_formula(text, n) for text in item["anns"]]
            problems.append((obs, anns, dsl.parse_formula(item["hyp"], n)))
    return problems


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    importlib.import_module(sys.argv[2])
    if len(sys.argv) > 3:
        parse_problems(sys.argv[3])
