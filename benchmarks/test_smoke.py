"""Tiny-size smoke test of the benchmark runner (outside the tier-1 suite):

    python -m pytest benchmarks/test_smoke.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_emitted(workload):
    results = {}
    for traced, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result = run.measure(workload, seed=5, seconds=1, traced=traced, tiny=True)
        assert set(result["metrics"]) == set(expected)
        for name, metric in result["metrics"].items():
            assert metric["unit"] == expected[name]
            assert isinstance(metric["value"], float)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert not result["absent_layers"]
        results[traced] = result
    assert all(m["value"] > 0 for m in results[False]["metrics"].values())
    # the traced run checks each traced pass against its own untraced first pass
    assert results[True]["digest"] == results[False]["digest"]


@pytest.mark.parametrize("argv", [
    ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
    ["--workload", "sweep-n12", "--seed", "x1", "--seconds", "1", "--trace", "0"],
    ["--workload", "sweep-n12", "--seed", "-3", "--seconds", "1", "--trace", "0"],
    ["--workload", "sweep-n12", "--seed", "1", "--seconds", "1", "--trace", "2"],
])
def test_bad_input_exits_2(argv):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *argv],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 2
    assert "error:" in out.stderr
    assert out.stdout == ""


def test_missing_hook_target_is_reported_absent(monkeypatch):
    spans, _ = run._load()
    from flipsim import protocols
    kernel = protocols.deliver_round_arrays
    monkeypatch.setitem(spans.HOOKS, "gone.layer", ("flipsim.protocols", "no_such_entry_point", None))
    with spans.hooks_installed(spans.Tracer()) as absent:
        assert protocols.deliver_round_arrays is not kernel
    assert absent == ["gone.layer"]
    assert protocols.deliver_round_arrays is kernel


def test_rejected_oracle_flag_is_a_failed_item():
    spans, workloads = run._load()
    p = workloads.Pass()
    workloads._oracle(p, spans.Tracer(), ["oracle", "direct", "--no-such-flag", "1"])
    assert p.items == 1 and p.failed == 1
    assert p.problems == ["oracle direct exited 2"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sweep-n12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode not in (0, 2)
    assert out.stdout == ""
