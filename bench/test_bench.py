"""Checks of the benchmark's own code, run from the checkout root with

    python3 -m pytest bench/test_bench.py

The traced-count test runs every workload twice and takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stats import median, percentile, samples_beyond

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gen-default", "label-mix", "gen-large", "puzzle")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_nearest_rank_by_hand():
    values = [50, 15, 40, 20, 35]  # sorted: 15 20 35 40 50
    # rank = ceil(q/100 * 5)
    assert percentile(values, 5) == 15  # rank 1
    assert percentile(values, 30) == 20  # rank 2
    assert percentile(values, 40) == 20  # rank 2
    assert percentile(values, 50) == 35  # rank 3
    assert percentile(values, 80) == 40  # rank 4
    assert percentile(values, 100) == 50  # rank 5


def test_median_of_even_count_is_lower_middle():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.0


def test_rank_is_exact_where_floats_would_round_up():
    # 0.07 * 100 is 7.000000000000001 in floating point; the rank stays 7
    assert percentile(range(1, 101), 7) == 7
    assert percentile(range(1, 101), 0.5) == 1


def test_p99_of_5000_has_50_samples_beyond():
    values = list(range(1, 5001))
    assert percentile(values, 99) == 4950
    assert samples_beyond(5000, 99) == 50
    assert samples_beyond(5000, 99.8) == 10
    assert samples_beyond(5000, 99.9) == 5


def test_keep_best_takes_each_segments_minimum():
    from run import _keep_best

    first = [[3.0, 1.0], [2.0]]
    assert _keep_best(None, first) is first
    assert _keep_best(first, [[1.0, 2.0], [4.0]]) == [[1.0, 1.0], [2.0]]
    with pytest.raises(ValueError):
        _keep_best(first, [[1.0], [4.0]])


@pytest.mark.parametrize("bad", [0, -1, 100.5])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)


def test_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_failed_gate_exits_nonzero_without_traceback(monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "src"))
    from epistle import backends

    import run

    honest = backends.symbolic_label
    monkeypatch.setattr(backends, "symbolic_label", lambda *a: not honest(*a))
    code = run.main(["--workload", "label-mix", "--seed", "1", "--seconds", "0"])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "Traceback" not in err


def test_bucket_by_bucket_writes_the_reference_dataset():
    # the passes generate one setup at a time; the joined files must still
    # be the bytes of generate_balanced(GenConfig(seed=7))
    done = _run("--workload", "gen-default", "--seed", "7", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "gen-default", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    runs = []
    for _ in range(2):
        done = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout.strip().splitlines()[-1])["metrics"])
    first, second = runs
    counts = {k for k, m in first.items() if m["unit"] != "s"}
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
