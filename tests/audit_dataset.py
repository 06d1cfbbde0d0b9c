"""Audit written dataset files from their text alone.

    PYTHONPATH=src python tests/audit_dataset.py FILE.jsonl [FILE.jsonl ...]

Every record of every file goes through ``test_dataset_audit.audit``: its
sentences must parse back to its formulas, and the matrix they describe must
give its label.  Prints one line per file and exits 1 at the first record
that fails, 2 when no file is named.  Not collected by pytest.
"""

from __future__ import annotations

import sys
import traceback

from support import read_jsonl
from test_dataset_audit import audit


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: audit_dataset.py FILE.jsonl [FILE.jsonl ...]", file=sys.stderr)
        return 2
    for path in paths:
        records = read_jsonl(path)
        for line, record in enumerate(records, 1):
            try:
                audit(record)
            except Exception as exc:
                where = traceback.extract_tb(exc.__traceback__)[-1]
                print(f"{path}: record {line} fails `{where.line}`: {exc!r}", file=sys.stderr)
                return 1
        print(f"{path}: {len(records)} records audited")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
