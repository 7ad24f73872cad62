import json

import pytest

from flipsim import cli, harness, oracle


def test_oracle_lemma2_pass(capsys):
    code = cli.main(["oracle", "lemma2", "--eps", "0.25", "--delta", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "holds=True" in out


def test_oracle_lemma2_violation_exit_code(capsys):
    code = cli.main(["oracle", "lemma2", "--eps", "0.5", "--delta", "0.0025",
                     "--r-scale", "0.25"])
    assert code == 3
    assert "holds=False" in capsys.readouterr().out


def test_oracle_stirling(capsys):
    assert cli.main(["oracle", "stirling", "--r-max", "500"]) == 0


@pytest.mark.parametrize("flag,value", [
    ("--r-max", "0"), ("--r-max", "-3"),
    ("--eps", "0"), ("--eps", "nan"), ("--eps", "1e-200"),
    ("--delta", "0"), ("--delta", "0.7"),
    ("--r-scale", "inf"), ("--r-scale", "nan"), ("--r-scale", "0"), ("--r-scale", "-1"),
    ("--exponent", "inf"), ("--exponent", "1e300"), ("--exponent", "nan"),
    ("--n", "1"),
])
def test_oracle_bad_value_exit_code(capsys, flag, value):
    check = {
        "--r-max": ["stirling"],
        "--exponent": ["direct", "--eps", "0.25", "--n", "1024"],
        "--n": ["direct", "--eps", "0.25"],
    }.get(flag, ["lemma2", "--eps", "0.25", "--delta", "0.1"])
    assert cli.main(["oracle", *check, flag, value]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_oracle_direct(capsys):
    assert cli.main(["oracle", "direct", "--eps", "0.25", "--n", "1024",
                     "--exponent", "2"]) == 0
    assert "m=79" in capsys.readouterr().out


def test_run_writes_report_and_csv(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = cli.main(["run", "--protocol", "broadcast", "--n", "128", "--eps", "0.5",
                     "--runs", "2", "--seed", "9", "--out", str(out),
                     "--csv", str(csv_path)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schemaVersion"] == 1
    assert doc["perCell"][0]["successRate"] == 1.0
    assert csv_path.read_text().startswith("n,epsilon,runs")


def test_run_prints_cell_extras(monkeypatch, capsys):
    # the forward baseline's depth table, the silent baseline's median wait,
    # and the scaling fit over a two-n broadcast grid
    monkeypatch.setenv("FLIPSIM_THREADS", "1")
    common = ["--eps", "0.25", "--runs", "3", "--seed", "1"]
    assert cli.main(["run", "--protocol", "baseline-forward", "--n", "64", *common]) == 0
    assert cli.main(["run", "--protocol", "baseline-silent", "--n", "64", *common]) == 0
    assert cli.main(["run", "--protocol", "broadcast", "--n", "64", "128", "--eps", "0.5",
                     "--runs", "2", "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n=64 eps=0.25 runs=3 successRate=0.0000 wilson=[0.0000,0.5615] meanRounds=12.3 meanMessages=407.0",
        "  depth 1: 16/19 correct (0.8421)",
        "  depth 2: 29/39 correct (0.7436)",
        "  depth 3: 30/61 correct (0.4918)",
        "  depth 4: 16/42 correct (0.3810)",
        "  depth 5: 7/20 correct (0.3500)",
        "  depth 6: 1/7 correct (0.1429)",
        "  depth 7: 1/1 correct (1.0000)",
        "n=64 eps=0.25 runs=3 successRate=0.0000 wilson=[0.0000,0.5615] meanRounds=27.0 meanMessages=464.0",
        "  median first-threshold round: 7.0",
        "n=64 eps=0.5 runs=2 successRate=1.0000 wilson=[0.3424,1.0000] meanRounds=550.0 meanMessages=24400.0",
        "n=128 eps=0.5 runs=2 successRate=1.0000 wilson=[0.3424,1.0000] meanRounds=728.0 meanMessages=64050.0",
        "scaling fit: rounds ~ 44.500 * log2(n)/eps^2 + -518.0 (max residual 0.000)",
    ]


@pytest.mark.parametrize("module,name,argv", [
    (harness, "run_experiment",
     ["run", "--protocol", "broadcast", "--n", "100000000000", "--eps", "0.5", "--runs", "1"]),
    (oracle, "stirling_claim_grid", ["oracle", "stirling", "--r-max", "100000000000"]),
], ids=["run", "stirling"])
def test_out_of_memory_exit_code(monkeypatch, capsys, module, name, argv):
    # a stand-in raises numpy's error: a real allocation of this size may
    # succeed lazily on a host that overcommits memory, then exhaust it
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)")

    monkeypatch.setattr(module, name, fail)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: Unable to allocate") and err.count("\n") == 1


def test_run_validation_error_exit_code(capsys):
    code = cli.main(["run", "--protocol", "consensus", "--n", "128",
                     "--eps", "0.25", "--runs", "1"])
    assert code == 2
    assert "initial" in capsys.readouterr().err


def test_run_tiny_epsilon_exit_code(capsys):
    # eps = 1e-9 asks for windows past the 2^31 - 1 rounds that the engine's
    # int32 counters can count; the run is refused before it allocates anything
    with pytest.warns(UserWarning, match="outside the analyzed regime"):
        code = cli.main(["run", "--protocol", "broadcast", "--n", "64", "--eps", "1e-9", "--runs", "1"])
    assert code == 2
    assert "window" in capsys.readouterr().err


def test_sweep_round_trip(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "schemaVersion": 1,
        "protocol": "broadcast",
        "nGrid": [128],
        "epsilonGrid": [0.5],
        "runsPerCell": 2,
        "masterSeed": 3,
    }))
    out = tmp_path / "r.json"
    assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
    assert out.exists()


def test_sweep_bad_spec_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "bad.json"
    spec_path.write_text("{")
    assert cli.main(["sweep", "--spec", str(spec_path), "--out",
                     str(tmp_path / "r.json")]) == 2


@pytest.mark.parametrize("field,value", [("runsPerCell", "10"), ("runsPerCell", 2.5),
                                         ("masterSeed", "x"), ("nGrid", 128),
                                         ("constants", {"cS": -1.0})])
def test_sweep_bad_field_type_exit_code(tmp_path, capsys, field, value):
    spec = {"schemaVersion": 1, "protocol": "broadcast", "nGrid": [128],
            "epsilonGrid": [0.5], "runsPerCell": 2, "masterSeed": 3}
    spec[field] = value
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert field in err and err.count("\n") == 1


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_run_bad_thread_count_exit_code(monkeypatch, capsys, threads):
    monkeypatch.setenv("FLIPSIM_THREADS", threads)
    assert cli.main(["run", "--protocol", "broadcast", "--n", "128", "--eps", "0.5",
                     "--runs", "2"]) == 2
    err = capsys.readouterr().err
    assert "FLIPSIM_THREADS" in err and err.count("\n") == 1
