"""Mutation gate: every named mutant of the checkers, of the rule that keeps
a matrix, of the generator's label path and draw decoding, of the formula
parser and of the verbalizer must fail tier-1.

    python tests/mutants.py          # tier-1 with -x per mutant
    python tests/mutants.py --full   # the whole tier-1 per mutant, to count kills

Each mutant is a fixed list of source edits.  For each, ``src/``,
``tests/`` and ``bench/`` (whose tracer a test loads) are copied to a
temporary directory, the edits are made there (each old text must occur
exactly once), and tier-1 runs against the copy.  A mutant is killed when
some test fails; tier-1 must first pass on an unmutated copy, so that a
failure is the mutant's.  Exits 1 when the unmutated copy fails, when a
mutant survives that is not named as equivalent with a reason, or when an
edit no longer applies.  Standard library only; not collected by pytest.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    edits: tuple[tuple[str, str, str], ...]  # (file under src/epistle, old, new)
    equivalent: str | None = None  # why no test can kill it, if none can


KRIPKE_ANNOUNCED = (
    "kripke.py",
    "_eval(obs, survivors, f.continuation)",
    "_eval(obs, live, f.continuation)",
)
SYMBOLIC_ANNOUNCED = (
    "symbolic.py",
    "translate(store, obs, store.and_(law, made), f.continuation)",
    "translate(store, obs, law, f.continuation)",
)

MUTANTS = (
    Mutant("explicit Announced keeps the old world set", (KRIPKE_ANNOUNCED,)),
    Mutant("explicit Kw joins its two blurs with | for &", ((
        "kripke.py",
        "_blur(obs, f.agent, live ^ holds) & _blur(obs, f.agent, holds)",
        "_blur(obs, f.agent, live ^ holds) | _blur(obs, f.agent, holds)",
    ),)),
    Mutant("evaluation table key without the world set", ((
        "kripke.py", "key = (obs.key, live, f)", "key = (obs.key, f)",
    ),)),
    Mutant("evaluation table key without the matrix", ((
        "kripke.py", "key = (obs.key, live, f)", "key = (live, f)",
    ),)),
    Mutant("explicit Not complements past the world set", ((
        "kripke.py",
        "out = live ^ _eval(obs, live, f.child)",
        "out = ~_eval(obs, live, f.child)",
    ),)),
    Mutant("symbolic Not returns its child's diagram", ((
        "symbolic.py",
        "out = store.not_(translate(store, obs, law, f.child))",
        "out = translate(store, obs, law, f.child)",
    ),)),
    Mutant("symbolic Announced keeps the old law", (SYMBOLIC_ANNOUNCED,)),
    Mutant("translation table key without the law", ((
        "symbolic.py", "key = (key, law, f)", "key = (key, f)",
    ),)),
    Mutant("step table key without the law", ((
        "symbolic.py", "key = (key, law, psi)", "key = (key, psi)",
    ),)),
    Mutant("hypothesis holds when law ∧ hyp is not false", ((
        "symbolic.py",
        "if step is None else step) is law",
        "if step is None else step) is not store.false",
    ),)),
    Mutant("explicit label probe keyed without the state", (
        ("kripke.py", "_table.get((obs.key, live, a))", "_table.get((obs.key, a))"),
        ("kripke.py", "_table.get((obs.key, live, hyp))", "_table.get((obs.key, hyp))"),
    )),
    Mutant("symbolic label probe keyed without the law", (
        ("symbolic.py", "steps.get((key, law, a))", "steps.get((key, a))"),
        ("symbolic.py", "steps.get((key, law, hyp))", "steps.get((key, hyp))"),
    )),
    Mutant("a table hit skips the contradiction test", (
        (
            "kripke.py",
            "if step is None else step\n        if not live:",
            "if step is None else step\n        if step is None and not live:",
        ),
        (
            "symbolic.py",
            "if step is None else step\n        if law is store.false:",
            "if step is None else step\n        if step is None and law is store.false:",
        ),
    )),
    Mutant("Announced keeps the old state in both backends", (
        KRIPKE_ANNOUNCED, SYMBOLIC_ANNOUNCED,
    )),
    Mutant("Implies with its sides swapped in both backends", (
        (
            "kripke.py",
            "(live ^ _eval(obs, live, f.left)) | _eval(obs, live, f.right)",
            "(live ^ _eval(obs, live, f.right)) | _eval(obs, live, f.left)",
        ),
        (
            "symbolic.py",
            "translate(store, obs, law, f.left), translate(store, obs, law, f.right)",
            "translate(store, obs, law, f.right), translate(store, obs, law, f.left)",
        ),
    )),
    Mutant("Kw drops its not-branch in both backends", (
        (
            "kripke.py",
            "live & ~(_blur(obs, f.agent, live ^ holds) & _blur(obs, f.agent, holds))",
            "live & ~_blur(obs, f.agent, live ^ holds)",
        ),
        (
            "symbolic.py",
            """out = store.or_(
            _knows(store, obs, f.agent, law, body),
            _knows(store, obs, f.agent, law, store.not_(body)),
        )""",
            "out = _knows(store, obs, f.agent, law, body)",
        ),
    )),
    Mutant("DdStore.ite cache key without the else branch", ((
        "bdd.py", "key = (c, t, e)", "key = (c, t)",
    ),)),
    Mutant("DdStore._forall cache key without the variables", ((
        "bdd.py", "key = (vs, x)", "key = x",
    ),)),
    Mutant("keep rule without its off-diagonal condition", ((
        "kripke.py",
        "return all(row == (off,) * i + (on,) + (off,) * (n - 1 - i) for i, row in enumerate(rows))",
        "return all(row[i] == on for i, row in enumerate(rows))",
    ),)),
    Mutant("keep rule's size test with < for <=", ((
        "kripke.py",
        "if n <= _MAX_TABLED_AGENTS or _agent_symmetric(rows):",
        "if n < _MAX_TABLED_AGENTS or _agent_symmetric(rows):",
    ),)),
    Mutant("symbolic_label does not retry StoreCapacity from a retained store", ((
        "backends.py", "if not held:\n            raise", "raise",
    ),)),
    Mutant("symbolic_label keeps a store past RETAINED_NODE_LIMIT", ((
        "backends.py",
        "if store._count > RETAINED_NODE_LIMIT or store._count >= store.capacity:",
        "if store._count >= store.capacity:",
    ),)),
    Mutant("make_problem labels all announcements but the existential", ((
        "generator.py",
        "verdict = checker(obs, ann_formulas, hyp_formula)",
        "verdict = checker(obs, ann_formulas[1:], hyp_formula)",
    ),)),
    Mutant("_fill_setup's duplicate key without the hypothesis", ((
        "generator.py",
        "seen.add((setup, instance.n_agents, instance.ann_formulas, instance.hyp_formula))",
        "seen.add((setup, instance.n_agents, instance.ann_formulas))",
    ),)),
    Mutant("threshold rounds p·2^53 down", ((
        "rng.py", "return math.ceil(p * 2**53) << 11", "return math.floor(p * 2**53) << 11",
    ),)),
    Mutant("a decoded index skips the rejection test", ((
        "names.py",
        "picked.append(pool.pop(u % k if u < LIMITS[k] else rng.below(k)))",
        "picked.append(pool.pop(u % k))",
    ),)),
    Mutant("the announcement's knowledge-negation coin uses P_NEGATE_OTHER", ((
        "generator.py",
        "rng.next_u64()) < _NEGATE_KNOWLEDGE",
        "rng.next_u64()) < _NEGATE",
    ),)),
    Mutant("the parser does not count the right side of -> toward the nesting cap", ((
        "dsl.py",
        "return Implies(left, self.implication(depth + 1))",
        "return Implies(left, self.implication(depth))",
    ),)),
    Mutant("the tokenizer takes Unicode digits through str.isdigit", ((
        "dsl.py",
        'if ch in _DIGITS or (ch == "p" and text[i + 1 : i + 2] in _DIGITS):',
        'if ch.isdigit() or (ch == "p" and text[i + 1 : i + 2].isdigit()):',
    ),)),
    Mutant("hypotheses say whether for that and that for whether", ((
        "verbalize.py",
        "mode = _MODES[layer.whether]",
        'mode = _MODES[layer.whether != (position == "hypothesis")]',
    ),)),
    Mutant("hypotheses say \"can now know\" on the inner layers, not the outermost", ((
        "verbalize.py", '("can know", "can now know")', '("can now know", "can know")',
    ),)),
    Mutant("a reveal sentence names the viewer's card revealed to its owner", ((
        "verbalize.py",
        "f\"{names[j]}'s card is revealed to {names[i]}.\"",
        "f\"{names[i]}'s card is revealed to {names[j]}.\"",
    ),)),
)


def apply(mutant: Mutant, package: Path) -> None:
    for name, old, new in mutant.edits:
        path = package / name
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{mutant.name}: {name} holds {text.count(old)} copies of {old!r}")
        path.write_text(text.replace(old, new), encoding="utf-8")


def run_tier1(mutant: Mutant, full: bool) -> str:
    """Tier-1 on a mutated copy: ``killed (…)`` or ``survived``."""
    with tempfile.TemporaryDirectory(prefix="epistle-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        apply(mutant, work / "src" / "epistle")
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        found = subprocess.run(
            [sys.executable, "-c", "import epistle; print(epistle.__file__)"],
            cwd=work, env=env, capture_output=True, text=True, check=True,
        ).stdout
        if not Path(found.strip()).is_relative_to(work):
            raise SystemExit(f"the mutated copy is not the one imported: {found.strip()}")
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors"] + ([] if full else ["-x"])
        try:
            done = subprocess.run(
                command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return f"killed (no result in {TIMEOUT_S} s)"
        if done.returncode == 0:
            return "survived"
        counts = re.findall(r"(\d+) (failed|error)", done.stdout)
        return "killed (" + ", ".join(f"{count} {what}" for count, what in counts) + ")"


def main(argv: list[str]) -> int:
    full = argv == ["--full"]
    if argv and not full:
        print("usage: mutants.py [--full]", file=sys.stderr)
        return 2
    baseline = run_tier1(Mutant("unmutated", ()), full=False)
    if baseline != "survived":
        print(f"tier-1 fails on an unmutated copy: {baseline}", file=sys.stderr)
        return 1
    failing = 0
    for mutant in MUTANTS:
        verdict = run_tier1(mutant, full)
        if verdict == "survived" and mutant.equivalent:
            verdict = f"equivalent: {mutant.equivalent}"
        elif verdict == "survived":
            failing += 1
        print(f"{mutant.name}: {verdict}", flush=True)
    print(f"{len(MUTANTS)} mutants, {failing} surviving")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
