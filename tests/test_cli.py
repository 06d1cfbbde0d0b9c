import hashlib
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epistle
import epistle.cli as cli
import epistle.generator as generator
from epistle.backends import both_label, explicit_label, get_checker, outcome, symbolic_label
from epistle.dsl import MAX_NESTING, parse_formula, print_formula
from epistle.errors import ContradictoryPremise
from epistle.generator import GenConfig, generate_balanced, iter_problems
from epistle.records import DatasetRecord, record_from_instance, write_jsonl
from epistle.rng import substreams

from support import read_jsonl

EXPECTED_KEYS = [
    "premise",
    "hypothesis",
    "label",
    "setup",
    "n_agents",
    "n_announcements",
    "hypothesis_order",
    "premise_formulas",
    "hypothesis_formula",
    "names",
    "seed",
    "index",
]

# sha256 of the shipped dataset, ``epistle generate --seed 7``
DEFAULT_DATASET_SHA256 = "b32783b3ba329e0e57bd51f5d3a9df7bd77d0b42760403b0c8fd6b700251feda"
# sha256 of ``epistle generate --seed 7 --max-order 3 --backend symbolic``
# with ``--n-agents 6 --per-setup 100``, with ``--n-agents 20 --per-setup
# 20`` and with ``--n-agents 32 --per-setup 24``; the second is also what a
# run writes that rejects contradictory draws on the explicit backend and
# labels on the symbolic one.  Each explicit draw of the third flips 1,024
# coins, 32 blocks of generator outputs.
SYMBOLIC_DATASETS = [
    (6, 100, "4f289d4da55ef13ef2e9d4dcf699cba1684b5dc2a315fe98037d8b87a40f4b84"),
    (20, 20, "71458b2b33ef227ec7f91fe808050944ac14f61331f6cf5b9ab9955bcab0d596"),
    (32, 24, "b55b4b4acf51d463a19c8396300c716f14fe12e6a610795240bad36bd312049b"),
]


def run_cli(*args, **env):
    """Run ``python -m epistle`` in a fresh interpreter; returns the process."""
    src = os.path.dirname(os.path.dirname(epistle.__file__))
    full_env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run(
        [sys.executable, "-m", "epistle", *args],
        env=full_env, capture_output=True, text=True, timeout=60,
    )


def assert_usage_error(proc, message):
    """A clean usage error: exit code 2, nothing on stdout, and the one
    ``Error:`` line as the whole of stderr."""
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"Error: {message}\n"
    assert proc.stdout == ""


def assert_one_line_exit_2(proc, prefix):
    """A clean failure: exit code 2 and a single stderr line, no traceback."""
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(prefix)


def test_public_api_names_resolve():
    assert len(set(epistle.__all__)) == len(epistle.__all__)
    for name in epistle.__all__:
        getattr(epistle, name)


class TestGroup:
    def test_unknown_group_option_is_a_one_line_usage_error(self):
        assert_usage_error(run_cli("--bogus"), "No such option '--bogus'.")

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                ["generate", "--out", "x.jsonl", "--seed", "9" * 5000],
                "Invalid value for '--seed': '" + "9" * 80 + "…' is not a valid integer.",
            ),
            (
                ["check", "--hyp", "p0", "--n", "2x" + "9" * 3000],
                "Invalid value for '--n': '2x" + "9" * 78 + "…' is not a valid integer.",
            ),
            (
                ["crosscheck", "--count", "-" + "9" * 4000],
                "Invalid value for '--count': -" + "9" * 79 + "… is not in the range x>=0.",
            ),
            (
                ["puzzle", "--n", "3", "--rounds", "r" * 300],
                "Invalid value for '--rounds': '" + "r" * 80 + "…' is not a valid integer.",
            ),
        ],
        ids=["generate", "check", "crosscheck", "puzzle"],
    )
    def test_long_integer_option_is_quoted_in_a_short_line(self, tmp_path, args, message):
        proc = run_cli(*(str(tmp_path / a) if a == "x.jsonl" else a for a in args))
        assert_usage_error(proc, message)
        assert len(proc.stderr.encode()) <= 200
        assert list(tmp_path.iterdir()) == []

    def test_bare_command_prints_its_help(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert proc.stderr.startswith("Usage: ")
        assert "Commands:" in proc.stderr and "Error" not in proc.stderr


# text that JSON must escape (quotes, backslashes, control characters) mixed
# with arbitrary, often non-ASCII, characters
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é中😀'), st.characters()), max_size=20)
_TEXTS = st.lists(_TEXT, max_size=4).map(tuple)


class TestRecords:
    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(
            DatasetRecord,
            premise=_TEXT, hypothesis=_TEXT, label=_TEXT, setup=_TEXT,
            n_agents=st.integers(), n_announcements=st.integers(),
            hypothesis_order=st.integers(), premise_formulas=_TEXTS,
            hypothesis_formula=_TEXT, names=_TEXTS, seed=st.integers(), index=st.integers(),
        )
    )
    # a fixed case with quotes, backslashes, control and non-ASCII characters
    @example(
        DatasetRecord(
            premise='Zoë said "hi"\\ \x00\x1f\x7f\n\t\u2028 中 😀',
            hypothesis="back\\slash \"quote\"", label="True", setup="\u00e9\b\f\r",
            n_agents=2, n_announcements=-1, hypothesis_order=2**70,
            premise_formulas=("p0 \"&\" p1", "\x01", ""), hypothesis_formula="\\",
            names=("Zoë", "Åsa", "李"), seed=-7, index=0,
        )
    )
    def test_to_json_is_json_dumps(self, record):
        payload = {name: getattr(record, name) for name in EXPECTED_KEYS}
        assert record.to_json() == json.dumps(payload, ensure_ascii=False)

    def test_key_order_and_label_strings(self):
        cfg = GenConfig(seed=41, per_setup_count=2)
        instances = generate_balanced(cfg)
        for instance in instances:
            payload = json.loads(record_from_instance(instance).to_json())
            assert list(payload.keys()) == EXPECTED_KEYS
            assert payload["label"] in ("True", "False")
            assert payload["n_announcements"] == len(payload["premise_formulas"])

    def test_round_trip_file(self, tmp_path):
        cfg = GenConfig(seed=41, per_setup_count=2)
        records = [record_from_instance(i) for i in generate_balanced(cfg)]
        path = tmp_path / "d.jsonl"
        assert write_jsonl(records, str(path)) == len(records)
        loaded = read_jsonl(str(path))
        assert len(loaded) == len(records)
        assert loaded[0]["premise"] == records[0].premise

    # the backends agree on every draw of the shipped dataset, contradictions
    # included
    @pytest.mark.parametrize("checker", [explicit_label, symbolic_label, both_label])
    def test_default_dataset_bytes_are_pinned(self, tmp_path, checker):
        path = tmp_path / "d.jsonl"
        instances = generate_balanced(GenConfig(seed=7), checker=checker)
        assert write_jsonl(map(record_from_instance, instances), str(path)) == 1600
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_DATASET_SHA256

    def test_dataset_bytes_survive_warm_tables_and_caches(self, tmp_path):
        # seed 8 in between fills the node table and the expression and
        # print caches with entries seed 7 did not make
        digests = []
        for seed in (7, 8, 7):
            path = tmp_path / f"d{len(digests)}.jsonl"
            write_jsonl(map(record_from_instance, generate_balanced(GenConfig(seed=seed))), str(path))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[2] == DEFAULT_DATASET_SHA256
        assert digests[1] != DEFAULT_DATASET_SHA256

    @pytest.mark.parametrize("n, per_setup, sha256", SYMBOLIC_DATASETS)
    def test_symbolic_checker_dataset_bytes_are_pinned(self, tmp_path, n, per_setup, sha256):
        path = tmp_path / "d.jsonl"
        cfg = GenConfig(seed=7, n_agents_choices=(n,), max_order=3, per_setup_count=per_setup)
        instances = generate_balanced(cfg, checker=get_checker("symbolic"))
        assert write_jsonl(map(record_from_instance, instances), str(path)) == 4 * per_setup
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_records_reverify_from_serialized_formulas(self):
        cfg = GenConfig(seed=43, per_setup_count=4)
        for instance in generate_balanced(cfg):
            record = record_from_instance(instance)
            n = record.n_agents
            anns = [parse_formula(text, n) for text in record.premise_formulas]
            hyp = parse_formula(record.hypothesis_formula, n)
            verdict = explicit_label(instance.obs, anns, hyp)
            assert str(verdict) == record.label


class TestGenerateCommand:
    def test_writes_balanced_file(self, tmp_path):
        out = tmp_path / "d.jsonl"
        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            ["generate", "--seed", "7", "--per-setup", "4", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        rows = read_jsonl(str(out))
        assert len(rows) == 16
        for setup in ("forehead-mud", "forehead-mud-mirror", "thirst", "explicit"):
            labels = [r["label"] for r in rows if r["setup"] == setup]
            assert len(labels) == 4
            assert labels.count("True") == 2

    def test_byte_identical_reruns(self, tmp_path):
        runner = CliRunner()
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            result = runner.invoke(
                cli.main,
                ["generate", "--seed", "7", "--per-setup", "4", "--out", str(path)],
            )
            assert result.exit_code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_setup_filter(self, tmp_path):
        out = tmp_path / "t.jsonl"
        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            [
                "generate",
                "--seed", "1",
                "--per-setup", "4",
                "--setups", "thirst",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        rows = read_jsonl(str(out))
        assert len(rows) == 4
        assert all(r["setup"] == "thirst" for r in rows)

    def test_odd_per_setup_is_a_one_line_usage_error(self, tmp_path):
        proc = run_cli("generate", "--per-setup", "3", "--out", str(tmp_path / "x.jsonl"))
        assert_usage_error(proc, "per_setup_count must be positive and even")
        assert list(tmp_path.iterdir()) == []

    def test_max_order_whose_text_would_not_parse_is_a_one_line_usage_error(self, tmp_path):
        proc = run_cli("generate", "--max-order", "400", "--out", str(tmp_path / "x.jsonl"))
        assert_usage_error(proc, "max_order must be between 1 and 48")
        assert list(tmp_path.iterdir()) == []

    def test_agent_count_the_name_pool_cannot_name_is_a_one_line_usage_error(self, tmp_path):
        proc = run_cli("generate", "--n-agents", "2,201", "--out", str(tmp_path / "x.jsonl"))
        assert_usage_error(proc, "the name pool names at most 200 agents")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_a_one_line_usage_error(self, tmp_path, seed):
        # the seed would alias one inside the range, which names other records
        out = str(tmp_path / "x.jsonl")
        for args in (["crosscheck", "--count", "2"], ["generate", "--per-setup", "2", "--out", out]):
            proc = run_cli(*args, "--seed", seed)
            assert_usage_error(proc, "seed must be between 0 and 2**64 - 1")
        assert list(tmp_path.iterdir()) == []

    def test_long_unknown_setup_is_quoted_in_a_short_line(self, tmp_path):
        proc = run_cli("generate", "--setups", "x" * 3000, "--out", str(tmp_path / "x.jsonl"))
        assert_one_line_exit_2(proc, "Error: unknown setup '" + "x" * 80 + "…'; choose from ")
        assert len(proc.stderr) <= 200

    def test_bad_flag_exits_2(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            cli.main,
            ["generate", "--setups", "nonsense", "--out", str(tmp_path / "x.jsonl")],
        )
        assert result.exit_code == 2

    def test_missing_output_directory_exits_2_before_generating(self, tmp_path, monkeypatch):
        def never(cfg, checker):
            raise AssertionError("generated before checking the output path")

        monkeypatch.setattr(cli, "generate_balanced", never)
        out = tmp_path / "missing" / "x.jsonl"
        result = CliRunner().invoke(cli.main, ["generate", "--out", str(out)])
        assert result.exit_code == 2
        assert "cannot write to directory" in result.output
        proc = run_cli("generate", "--per-setup", "2", "--out", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("out", ["", "newdir/"])
    def test_out_naming_no_file_exits_2_before_generating(self, tmp_path, monkeypatch, out):
        def never(cfg, checker):
            raise AssertionError("generated before checking the output path")

        monkeypatch.setattr(cli, "generate_balanced", never)
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(cli.main, ["generate", "--out", out])
        assert result.exit_code == 2
        assert (result.stdout, result.stderr) == ("", f"Error: --out {out!r} names no file\n")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail_midway(records, path):
            with open(path, "w") as fh:
                fh.write(next(iter(records)).to_json())
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_jsonl", fail_midway)
        out = tmp_path / "x.jsonl"
        result = CliRunner().invoke(
            cli.main, ["generate", "--per-setup", "2", "--out", str(out)]
        )
        assert isinstance(result.exception, OSError)
        assert list(tmp_path.iterdir()) == []

    def test_replaces_existing_file(self, tmp_path):
        out = tmp_path / "x.jsonl"
        out.write_text("old\n")
        result = CliRunner().invoke(
            cli.main, ["generate", "--per-setup", "2", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert len(read_jsonl(str(out))) == 8
        assert [p.name for p in tmp_path.iterdir()] == ["x.jsonl"]

    def test_symbolic_backend_generates_past_the_explicit_limit(self, tmp_path):
        out = tmp_path / "big.jsonl"
        args = ["generate", "--n-agents", "25", "--per-setup", "2", "--out", str(out)]
        result = CliRunner().invoke(cli.main, [*args, "--backend", "symbolic"])
        assert result.exit_code == 0, result.output
        assert len(read_jsonl(str(out))) == 8
        out.unlink()
        proc = run_cli(*args, "--backend", "both")
        assert_one_line_exit_2(proc, "resource limit: explicit backend handles 1..20 agents")
        assert list(tmp_path.iterdir()) == []

    def test_node_limit_exits_2_without_traceback(self, tmp_path):
        out = tmp_path / "small.jsonl"
        proc = run_cli(
            "generate", "--backend", "symbolic", "--per-setup", "2", "--out", str(out),
            EPISTLE_NODE_LIMIT="10",
        )
        assert_one_line_exit_2(proc, "resource limit: node store exceeded 10 nodes")
        assert list(tmp_path.iterdir()) == []

    def test_stall_exits_3(self, tmp_path, monkeypatch):
        from epistle.errors import GenerationStall

        def stall(cfg, checker):
            raise GenerationStall("forced")

        monkeypatch.setattr(cli, "generate_balanced", stall)
        runner = CliRunner()
        result = runner.invoke(
            cli.main, ["generate", "--out", str(tmp_path / "x.jsonl")]
        )
        assert result.exit_code == 3
        assert result.stderr == "generation stalled: forced\n"

    def test_backend_mismatch_exits_5_with_one_line(self, tmp_path, monkeypatch):
        from epistle.errors import BackendMismatch

        def disagree(*args, **kwargs):
            raise BackendMismatch("forced")

        monkeypatch.setattr(cli, "generate_balanced", disagree)
        monkeypatch.setattr(cli, "get_checker", lambda backend: disagree)
        for args in (
            ["generate", "--backend", "both", "--out", str(tmp_path / "x.jsonl")],
            ["check", "--n", "2", "--hyp", "p0", "--backend", "both"],
        ):
            result = CliRunner().invoke(cli.main, args)
            assert result.exit_code == 5
            assert (result.stdout, result.stderr) == ("", "backend mismatch: forced\n")
        assert list(tmp_path.iterdir()) == []


class TestCheckCommand:
    def _check(self, *args):
        return CliRunner().invoke(cli.main, ["check", *args])

    def test_muddy_children_pair(self):
        before = self._check(
            "--n", "2",
            "--obs", "forehead-mud",
            "--announce", "p0 | p1",
            "--hyp", "Kw[0]p0 & Kw[1]p1",
        )
        assert before.exit_code == 0
        assert before.output.strip() == "False"
        after = self._check(
            "--n", "2",
            "--obs", "forehead-mud",
            "--announce", "p0 | p1",
            "--announce", "~Kw[0]p0 & ~Kw[1]p1",
            "--hyp", "Kw[0]p0 & Kw[1]p1",
        )
        assert after.exit_code == 0
        assert after.output.strip() == "True"

    def test_both_backends_agree(self):
        result = self._check(
            "--n", "2",
            "--obs", "forehead-mud",
            "--announce", "p0 | p1",
            "--hyp", "Kw[0]p0",
            "--backend", "both",
        )
        assert result.exit_code == 0
        assert "explicit: False" in result.output
        assert "symbolic: False" in result.output

    def test_both_backends_label_mismatch_exits_5_with_one_line(self, monkeypatch):
        from epistle import backends

        monkeypatch.setattr(backends, "symbolic_label", lambda *args: True)
        result = self._check("--n", "2", "--announce", "p0 | p1", "--hyp", "p0", "--backend", "both")
        assert result.exit_code == 5
        assert result.stdout == ""
        assert result.stderr == (
            "backend mismatch: explicit=False symbolic=True for the same problem\n"
        )

    def test_contradiction_exit_4(self):
        result = self._check(
            "--n", "2",
            "--announce", "p0",
            "--announce", "~p0",
            "--hyp", "p0",
        )
        assert result.exit_code == 4
        assert "Contradictory" in result.output

    def test_allow_contradiction_exit_0(self):
        result = self._check(
            "--n", "2",
            "--announce", "p0",
            "--announce", "~p0",
            "--hyp", "p0",
            "--allow-contradiction",
        )
        assert result.exit_code == 0
        assert "Contradictory" in result.output

    def test_parse_error_exit_2(self):
        result = self._check("--n", "2", "--hyp", "p0 &")
        assert result.exit_code == 2

    def test_index_error_exit_2(self):
        result = self._check("--n", "2", "--hyp", "K[5] p0")
        assert result.exit_code == 2

    def test_n_below_one_is_a_usage_error(self):
        proc = run_cli("check", "--n", "0", "--hyp", "p0")
        assert_usage_error(proc, "Invalid value for '--n': 0 is not in the range 1<=x<=200.")

    def test_n_past_the_name_pool_is_a_usage_error(self):
        # the name pool's bound; much larger counts overflow the recursion
        proc = run_cli("check", "--n", "201", "--hyp", "p0")
        assert_usage_error(proc, "Invalid value for '--n': 201 is not in the range 1<=x<=200.")

    def test_largest_n_labels_deep_knowledge_on_the_symbolic_backend(self):
        someone = " | ".join(f"p{i}" for i in range(200))
        hyp = "".join(f"K[{i}] " for i in range(99)) + f"({someone})"
        proc = run_cli(
            "check", "--n", "200", "--backend", "symbolic", "--announce", someone, "--hyp", hyp
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")

    def test_deep_nesting_exits_2_without_traceback(self):
        proc = run_cli("check", "--n", "2", "--hyp", "~" * 5000 + "p0")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert (
            f"formula nested deeper than {MAX_NESTING} levels (at offset {MAX_NESTING + 1})"
            in proc.stderr
        )

    def test_deepest_nested_whether_labels_on_both_backends(self):
        # symbolic translation once cost 2^depth here
        proc = run_cli(
            "check", "--n", "2", "--backend", "both",
            "--hyp", "Kw[1] " * MAX_NESTING + "p0",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.splitlines() == ["explicit: True", "symbolic: True"]

    def test_node_limit_exits_2_without_traceback(self):
        proc = run_cli(
            "check", "--n", "3", "--backend", "symbolic",
            "--announce", "p0 | p1 | p2", "--hyp", "K[0] p0",
            EPISTLE_NODE_LIMIT="10",
        )
        assert_one_line_exit_2(proc, "resource limit: node store exceeded 10 nodes")

    def test_explicit_size_limit_exits_2_without_traceback(self):
        proc = run_cli("check", "--n", "21", "--hyp", "p0")
        assert_one_line_exit_2(proc, "resource limit: explicit backend handles 1..20 agents")

    def test_explain_lists_surviving_worlds(self):
        result = self._check(
            "--n", "2",
            "--obs", "forehead-mud",
            "--announce", "p0 | p1",
            "--hyp", "p0",
            "--explain",
        )
        assert result.exit_code == 0
        assert "surviving worlds" in result.output
        assert "10, 01, 11" in result.output

    def test_explain_with_symbolic_backend_is_a_usage_error_before_labeling(
        self, monkeypatch
    ):
        def never(*args):
            raise AssertionError("labeled before rejecting --explain")

        monkeypatch.setattr(cli, "get_checker", never)
        result = self._check("--n", "2", "--hyp", "p0", "--backend", "symbolic", "--explain")
        assert result.exit_code == 2
        assert result.stdout == ""
        proc = run_cli("check", "--n", "2", "--hyp", "p0", "--backend", "symbolic", "--explain")
        assert_usage_error(
            proc, "--explain needs the explicit backend (--backend explicit or both)"
        )

    def test_explain_with_both_backends_lists_surviving_worlds(self):
        result = self._check(
            "--n", "2", "--announce", "p0 | p1", "--hyp", "p0", "--backend", "both", "--explain"
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "explicit: False",
            "symbolic: False",
            "surviving worlds (p0 leftmost): 10, 01, 11",
        ]

    def test_non_ascii_digit_is_a_one_line_parse_error(self):
        proc = run_cli("check", "--n", "2", "--hyp", "p\u00b2")
        assert_usage_error(proc, "cannot parse 'p\u00b2': unknown operator 'p' (at offset 0)")

    @pytest.mark.parametrize(
        "hyp, offset",
        [("p" + "1" * 5000, 0), ("K[" + "1" * 5000 + "] p0", 2)],
        ids=["proposition", "agent"],
    )
    def test_overlong_index_is_a_one_line_parse_error(self, hyp, offset):
        proc = run_cli("check", "--n", "2", "--hyp", hyp)
        assert_one_line_exit_2(proc, f"Error: cannot parse '{hyp[:80]}…': ")
        assert proc.stderr.endswith(f"(at offset {offset})\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "args, quoted",
        [
            (["--hyp", "p" + "1" * 5000], "'p" + "1" * 79 + "…'"),
            (["--hyp", "p" + "1" * 4000], "'p" + "1" * 79 + "…'"),
            (["--hyp", "(" + " & ".join(["p0"] * 800)], "'…" + " & p0" * 16 + "'"),
            (["--hyp", "p0 & " * 1000 + "a" * 3000], "'…" + "p0 & " * 8 + "a" * 40 + "…'"),
            (["--obs", ";".join(["01"] * 2000), "--hyp", "p0"], "'" + "01;" * 26 + "01…'"),
            (
                ["--obs", "01;" * 1000 + "0x" + ";01" * 1000, "--hyp", "p0"],
                "'…" + ";01" * 13 + ";0x" + ";01" * 12 + ";0…' (at offset 3000)",
            ),
        ],
        ids=["index-too-long", "index-out-of-range", "unclosed", "long-word", "rows", "bad-row"],
    )
    def test_long_input_is_quoted_in_a_short_line(self, args, quoted):
        proc = run_cli("check", "--n", "2", *args)
        assert_one_line_exit_2(proc, "Error: ")
        assert len(proc.stderr) <= 200
        assert quoted in proc.stderr
        assert proc.stdout == ""

    # each named --obs pattern's rule: does agent i see agent j's predicate
    NAMED_RULES = {
        "forehead-mud": lambda i, j: i != j,
        "ones-minus-identity": lambda i, j: i != j,
        "mirror": lambda i, j: True,
        "ones": lambda i, j: True,
        "thirst": lambda i, j: i == j,
        "identity": lambda i, j: i == j,
    }

    @pytest.mark.parametrize("name", NAMED_RULES)
    def test_named_matrix_is_the_kept_one_in_a_fresh_process(self, name):
        # a fresh interpreter has built no fixed-setup matrix before the call
        code = (
            "import json, sys\n"
            "from epistle import cli\n"
            "from epistle.setups import fixed_observability\n"
            "name, out = sys.argv[1], []\n"
            "for n in (2, 3, 5, 8):\n"
            "    obs = cli._parse_obs(name, n)\n"
            "    keyed = obs.key is not None\n"
            "    kept = obs is fixed_observability(cli._NAMED_SETUPS[name], n)\n"
            "    out.append([n, keyed, kept, obs.rows])\n"
            "print(json.dumps(out))\n"
        )
        src = os.path.dirname(os.path.dirname(epistle.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code, name], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        sees = self.NAMED_RULES[name]
        assert json.loads(proc.stdout) == [
            [n, True, True, [[sees(i, j) for j in range(n)] for i in range(n)]]
            for n in (2, 3, 5, 8)
        ]

    @pytest.mark.parametrize("first", ["literal", "named"])
    @pytest.mark.parametrize("name", ["forehead-mud", "mirror", "thirst"])
    def test_literal_rows_of_a_named_pattern_are_its_kept_matrix(self, name, first):
        # a fresh interpreter, so nothing built before decides the key
        code = (
            "import json, sys\n"
            "from epistle import cli\n"
            "name, first, out = sys.argv[1], sys.argv[2], []\n"
            "for n, literal in json.loads(sys.argv[3]):\n"
            "    specs = (literal, name) if first == 'literal' else (name, literal)\n"
            "    made = {spec: cli._parse_obs(spec, n) for spec in specs}\n"
            "    out.append([n, made[literal].key is not None, made[literal] is made[name]])\n"
            "print(json.dumps(out))\n"
        )
        sees = self.NAMED_RULES[name]
        literals = [
            [n, ";".join("".join("01"[sees(i, j)] for j in range(n)) for i in range(n))]
            for n in (4, 8)
        ]
        src = os.path.dirname(os.path.dirname(epistle.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code, name, first, json.dumps(literals)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert json.loads(proc.stdout) == [[4, True, True], [8, True, True]]

    def test_literal_matrix_rows(self):
        result = self._check(
            "--n", "2",
            "--obs", "01;10",
            "--announce", "p0 | p1",
            "--hyp", "Kw[0]p0",
        )
        assert result.exit_code == 0
        assert result.output.strip() == "False"


    def test_bad_node_limit_env_exits_2_without_traceback(self):
        proc = run_cli(
            "check", "--n", "2", "--hyp", "p0", "--backend", "symbolic",
            EPISTLE_NODE_LIMIT="abc",
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip() == (
            "configuration error: EPISTLE_NODE_LIMIT must be an integer, got 'abc'"
        )


class TestCrosscheckCommand:
    def test_nearest_rank_median_of_even_count_is_lower_middle(self):
        assert cli._nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        assert cli._nearest_rank([1.0, 2.0, 3.0, 4.0], 99) == 4.0
        assert cli._nearest_rank([5.0], 50) == 5.0
        assert cli._nearest_rank(list(range(1, 11)), 90) == 9
        assert cli._nearest_rank(list(range(1, 5001)), 99) == 4950

    def test_small_run_reports_zero_mismatches(self):
        result = CliRunner().invoke(
            cli.main, ["crosscheck", "--count", "60", "--seed", "1"]
        )
        assert result.exit_code == 0, result.output
        assert "60 instances: 0 mismatches" in result.output

    def test_n_agents_takes_the_generate_list(self):
        result = CliRunner().invoke(
            cli.main, ["crosscheck", "--count", "30", "--seed", "1", "--n-agents", "4,8"]
        )
        assert result.exit_code == 0, result.output
        assert "30 instances: 0 mismatches" in result.output

    @pytest.mark.parametrize(
        "value, message",
        [
            ("2,x", "bad --n-agents value '2,x'"),
            ("2," * 100 + "x", "bad --n-agents value '" + "2," * 40 + "…'"),
            ("1", "problems need at least two agents"),
            ("2,201", "the name pool names at most 200 agents"),
        ],
    )
    def test_bad_n_agents_is_the_generate_usage_error(self, tmp_path, value, message):
        for args in (["crosscheck"], ["generate", "--out", str(tmp_path / "x.jsonl")]):
            assert_usage_error(run_cli(*args, "--n-agents", value), message)

    def test_zero_count_trivially_passes(self):
        result = CliRunner().invoke(cli.main, ["crosscheck", "--count", "0"])
        assert result.exit_code == 0
        assert "0 instances: 0 mismatches" in result.output

    def test_unknown_command_is_a_one_line_usage_error(self):
        assert_usage_error(run_cli("nosuch"), "No such command 'nosuch'.")

    def test_negative_count_is_a_usage_error(self):
        proc = run_cli("crosscheck", "--count", "-3")
        assert_usage_error(proc, "Invalid value for '--count': -3 is not in the range x>=0.")
        assert proc.stdout == ""

    def test_draws_are_checked_without_rendering_text(self, monkeypatch):
        def unrendered(*args):
            raise AssertionError("crosscheck rendered text")

        for name in ("render_hypothesis", "announcement_clause"):
            monkeypatch.setattr(generator, name, unrendered)
        assert len(list(iter_problems(GenConfig(seed=1), 50))) == 50
        result = CliRunner().invoke(cli.main, ["crosscheck", "--count", "200", "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert "200 instances: 0 mismatches" in result.output

    def test_each_draw_is_labeled_by_both_backends_before_the_next_is_made(
        self, monkeypatch
    ):
        draws, calls = [0], []
        make_problem = generator.make_problem

        def draw(*args):
            draws[0] += 1
            return make_problem(*args)

        def logged(name, checker):
            def call(obs, anns, hyp):
                calls.append((draws[0], name))
                return checker(obs, anns, hyp)

            return call

        monkeypatch.setattr(generator, "make_problem", draw)
        monkeypatch.setattr(cli, "explicit_label", logged("explicit", explicit_label))
        monkeypatch.setattr(cli, "symbolic_label", logged("symbolic", symbolic_label))
        result = CliRunner().invoke(cli.main, ["crosscheck", "--count", "60", "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert "checked 60 instances: 0 mismatches" in result.output
        assert draws[0] > 60  # contradictory draws are compared too
        assert f"compared {draws[0]} draws, {draws[0] - 60} of them contradictory" in result.output
        assert calls == [
            (d, name) for d in range(1, draws[0] + 1) for name in ("explicit", "symbolic")
        ]

    def test_a_contradiction_the_symbolic_backend_misses_is_a_mismatch(self, monkeypatch):
        def misses_contradictions(obs, anns, hyp):
            if outcome(explicit_label, obs, anns, hyp) == "contradictory":
                return True
            return symbolic_label(obs, anns, hyp)

        # every draw up to the 20th accepted one, with the explicit outcome
        cfg = GenConfig(seed=1)
        last = list(iter_problems(cfg, 20))[-1].draw_index
        drawn = []

        def record(obs, anns, hyp):
            drawn.append((outcome(explicit_label, obs, anns, hyp), hyp))
            return True

        for draw, rng in zip(range(last + 1), substreams(cfg.seed)):
            generator.make_problem(rng, cfg, draw, record)
        expected = "".join(
            f"mismatch at draw {d}: explicit=contradictory symbolic=True "
            f"hyp={print_formula(hyp)}\n"
            for d, (verdict, hyp) in enumerate(drawn)
            if verdict == "contradictory"
        )
        rejected = last + 1 - 20
        assert expected.count("\n") == rejected > 0

        monkeypatch.setattr(cli, "symbolic_label", misses_contradictions)
        result = CliRunner().invoke(cli.main, ["crosscheck", "--count", "20", "--seed", "1"])
        assert result.exit_code == 5, result.output
        assert result.stderr == expected
        assert f"checked 20 instances: {rejected} mismatches" in result.stdout

    def test_injected_backend_bug_is_caught(self, monkeypatch):
        from epistle.formula import Not

        def broken(obs, anns, hyp):
            verdict = symbolic_label(obs, anns, hyp)
            # seeded bug: polarity flipped for negated hypotheses
            if isinstance(hyp, Not):
                return not verdict
            return verdict

        monkeypatch.setattr(cli, "symbolic_label", broken)
        result = CliRunner().invoke(
            cli.main, ["crosscheck", "--count", "60", "--seed", "1"]
        )
        assert result.exit_code == 5
        assert "mismatch" in result.output

    def test_contradiction_found_by_one_backend_is_a_mismatch(self, monkeypatch):
        # each draw gets one symbolic call; the fifth accepted draw is not
        # the fifth draw, since draw 4 is contradictory
        fifth = list(iter_problems(GenConfig(seed=1), 5))[-1]
        assert fifth.draw_index > 4
        calls = []

        def contradicts_fifth(obs, anns, hyp):
            calls.append(hyp)
            if len(calls) == fifth.draw_index + 1:
                raise ContradictoryPremise("seeded: no world survives")
            return symbolic_label(obs, anns, hyp)

        monkeypatch.setattr(cli, "symbolic_label", contradicts_fifth)
        result = CliRunner().invoke(cli.main, ["crosscheck", "--count", "20", "--seed", "1"])
        assert result.exit_code == 5, result.output
        assert result.stderr == (
            f"mismatch at draw {fifth.draw_index}: explicit={fifth.label} "
            f"symbolic=contradictory hyp={print_formula(fifth.hyp_formula)}\n"
        )
        assert "checked 20 instances: 1 mismatches" in result.stdout


class TestPuzzleCommand:
    def test_two_children_one_round(self):
        result = CliRunner().invoke(cli.main, ["puzzle", "--n", "2"])
        assert result.exit_code == 0
        assert "after 1 rounds (expected 1)" in result.output

    def test_three_children_two_rounds(self):
        result = CliRunner().invoke(cli.main, ["puzzle", "--n", "3"])
        assert result.exit_code == 0
        assert "after 2 rounds (expected 2)" in result.output

    def test_symbolic_backend_scales(self):
        result = CliRunner().invoke(
            cli.main, ["puzzle", "--n", "16", "--backend", "symbolic"]
        )
        assert result.exit_code == 0
        assert "after 15 rounds (expected 15)" in result.output

    def test_round_cap_stops_early(self):
        result = CliRunner().invoke(cli.main, ["puzzle", "--n", "4", "--rounds", "1"])
        assert result.exit_code == 0
        assert "stopped after 1 rounds without resolution" in result.output

    def test_zero_round_cap_announces_only(self):
        result = CliRunner().invoke(cli.main, ["puzzle", "--n", "3", "--rounds", "0"])
        assert result.exit_code == 0
        assert "stopped after 0 rounds without resolution" in result.output

    def test_negative_round_cap_is_a_usage_error(self):
        proc = run_cli("puzzle", "--n", "3", "--rounds", "-1")
        assert_usage_error(proc, "Invalid value for '--rounds': -1 is not in the range x>=0.")
        assert proc.stdout == ""

    def test_one_child_is_a_one_line_usage_error(self):
        assert_usage_error(
            run_cli("puzzle", "--n", "1"),
            "Invalid value for '--n': 1 is not in the range 2<=x<=200.",
        )

    @pytest.mark.parametrize("n", ["201", "1000"])
    def test_more_children_than_the_name_pool_is_a_one_line_usage_error(self, n):
        # at 1000 the symbolic backend once overflowed the recursion
        assert_usage_error(
            run_cli("puzzle", "--n", n, "--backend", "symbolic"),
            f"Invalid value for '--n': {n} is not in the range 2<=x<=200.",
        )

    def test_size_limit(self):
        result = CliRunner().invoke(cli.main, ["puzzle", "--n", "25"])
        assert result.exit_code == 2

    def test_node_limit_exits_2_without_traceback(self):
        proc = run_cli("puzzle", "--n", "8", "--backend", "symbolic", EPISTLE_NODE_LIMIT="10")
        assert_one_line_exit_2(proc, "resource limit: node store exceeded 10 nodes")
