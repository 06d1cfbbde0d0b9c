"""The names that ``bench/tracing.py`` patches exist in the program.

The tracer wraps named functions of the epistle modules for a traced
benchmark run and raises ``AttributeError`` for a name that is gone.
Entering and leaving ``Tracer().installed()`` checks every hook in
milliseconds.  ``bench/`` is only read: the tracer module is loaded from its
file, so nothing of ``bench/`` is put on ``sys.path``.
"""

import importlib.util
from pathlib import Path

import epistle.backends as backends
import epistle.cli as cli
import epistle.generator as generator
import epistle.kripke as kripke
from epistle.formula import Atom, Knows, Or
from epistle.setups import SetupKind, fixed_observability

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _hooked():
    return (cli.evaluate, cli.translate, generator.make_problem, kripke._eval)


def test_every_trace_hook_is_found_and_restored():
    before = _hooked()
    with _tracer().installed():
        assert all(now is not was for now, was in zip(_hooked(), before))
    assert all(now is was for now, was in zip(_hooked(), before))


def test_puzzle_steps_go_through_the_hooks(capsys):
    tracer = _tracer()
    with tracer.installed():
        for backend in ("explicit", "symbolic"):
            cli.puzzle.callback(n=3, rounds=None, backend=backend)
    assert capsys.readouterr().out.count("after 2 rounds (expected 2)") == 2
    # the existential announcement and two ignorance rounds
    assert tracer.counts["kripke.announce_calls"] == 3
    assert tracer.counts["kripke.eval_calls"] > 0
    assert tracer.counts["symbolic.translate_calls"] > 0


def test_cold_labels_go_through_the_hooks():
    obs = fixed_observability(SetupKind.THIRST, 3)
    anns, hyp = [Or((Atom(0), Atom(2)))], Knows(1, Or((Atom(1), Atom(2))))
    kripke._table.clear()
    kripke._steps.clear()
    backends._thread.store = None
    tracer = _tracer()
    with tracer.installed():
        backends.explicit_label(obs, anns, hyp)
        backends.symbolic_label(obs, anns, hyp)
    assert tracer.counts["kripke.eval_calls"] > 0
    assert tracer.self_s["kripke"] > 0 and tracer.self_s["symbolic"] > 0
