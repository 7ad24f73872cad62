import csv
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flipsim import NoiseChannel, ProtocolConstants, SimConfig, derive_rng, run_baseline_forward
from flipsim.harness import (
    CSV_COLUMNS,
    PROTOCOLS,
    ExperimentReport,
    ExperimentSpec,
    ReportError,
    SchemaVersionError,
    SpecParseError,
    SpecValidationError,
    load_spec,
    report_to_csv,
    report_to_dict,
    run_experiment,
    save_report,
    wilson_interval,
)
from reference import save_spec


def small_spec(**overrides):
    base = dict(
        protocol="broadcast",
        n_grid=(128,),
        epsilon_grid=(0.5,),
        runs_per_cell=3,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_wilson_interval_brackets():
    for k, n in ((0, 10), (5, 10), (10, 10), (198, 200)):
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0
    lo, hi = wilson_interval(200, 200)
    assert lo > 0.98


def test_wilson_coverage_meta():
    # pooled depth-1 agents of the forward baseline are each correct with
    # probability exactly 1/2 + eps; the 95% interval must cover that in
    # at least 90 of 100 batches
    p = 0.75
    covered = 0
    for batch in range(100):
        agents = correct = 0
        for run in range(6):
            config = SimConfig(n=64, channel=NoiseChannel.from_epsilon(0.25),
                               master_seed=batch)
            out = run_baseline_forward(config, max_rounds=120,
                                       rng=derive_rng(batch, "meta", run))
            d1 = out.depth_table[0]
            agents += d1.agents
            correct += d1.correct
        lo, hi = wilson_interval(correct, agents)
        covered += lo <= p <= hi
    assert covered >= 90


def test_spec_validation_lists_every_problem():
    spec = small_spec(protocol="consensus", n_grid=(), epsilon_grid=(0.7,),
                      runs_per_cell=0)
    with pytest.raises(SpecValidationError) as exc:
        spec.validate()
    problems = exc.value.problems
    assert any("nGrid" in p for p in problems)
    assert any("epsilonGrid" in p for p in problems)
    assert any("runsPerCell" in p for p in problems)
    assert any("initialSetSize" in p for p in problems)
    assert any("initialBias" in p for p in problems)
    # each remaining check, with the message that names its field
    for overrides, message in [
        (dict(protocol="gossip"), "protocol: 'gossip' not one of"),
        (dict(n_grid=(128, 1.5)), "nGrid: entries must be integers"),
        (dict(epsilon_grid=()), "epsilonGrid: must be nonempty"),
        # below 2^-55 the channel's flip probability rounds to 1/2
        (dict(epsilon_grid=(1e-20,)), "epsilonGrid: entries must be numbers in (2^-55, 1/2]"),
        (dict(protocol="consensus", initial_set_size=2.5, initial_bias=0.1), "initialSetSize: must be an integer"),
        (dict(protocol="consensus", initial_set_size=129, initial_bias=0.1), "initialSetSize: exceeds"),
        (dict(protocol="consensus", initial_set_size=64, initial_bias=0.7), "initialBias: must be a number"),
        (dict(protocol="baseline-silent", threshold=0), "threshold: must be >= 1"),
        (dict(max_rounds=0), "maxRounds: must be an integer >= 1"),
    ]:
        assert [p for p in small_spec(**overrides).problems() if p.startswith(message)], message


def test_spec_validation_consensus_minimum_set():
    spec = small_spec(protocol="consensus", n_grid=(2 ** 14,), epsilon_grid=(0.25,),
                      initial_bias=0.1, initial_set_size=8)
    with pytest.raises(SpecValidationError, match="admissible minimum"):
        spec.validate()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_CONSTANT_NAMES = ["cS", "cBeta", "cF", "cFinalStage2", "cDirect", "cEntry", "eta", "rScale"]
# specs close to valid ones, with any field swapped for arbitrary JSON
_SPECS = st.fixed_dictionaries(
    {"schemaVersion": st.just(1) | _JSON},
    optional={
        "protocol": st.sampled_from(PROTOCOLS) | _JSON,
        "nGrid": st.lists(st.integers(-2, 2 ** 14) | _JSON, max_size=3) | _JSON,
        "epsilonGrid": st.lists(st.floats() | _JSON, max_size=3) | _JSON,
        "runsPerCell": st.integers() | _JSON,
        "masterSeed": st.integers() | _JSON,
        "constants": st.dictionaries(st.sampled_from(_CONSTANT_NAMES), st.floats() | _JSON,
                                     max_size=3) | _JSON,
        "initialBias": st.floats() | _JSON,
        "initialSetSize": st.integers() | _JSON,
        "threshold": st.integers() | _JSON,
        "maxRounds": st.integers() | _JSON,
        "outputPath": _JSON,
        "bogusField": _JSON,
    },
)


@settings(max_examples=300, deadline=None)
@given(_SPECS | _JSON)
@example({"schemaVersion": 1, "protocol": "consensus", "nGrid": [2 ** 14],
          "epsilonGrid": [5e-324], "runsPerCell": 1, "masterSeed": 0,
          "initialSetSize": 8, "initialBias": 0.1})    # eps * eps underflows to 0
def test_spec_fuzz_only_spec_errors_escape(raw):
    try:
        ExperimentSpec.from_dict(raw).validate()
    except (SpecParseError, SchemaVersionError, SpecValidationError):
        pass


def test_spec_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_spec_fixture_every_field(tmp_path):
    raw = {
        "schemaVersion": 1,
        "protocol": "consensus",
        "nGrid": [1024, 2048],
        "epsilonGrid": [0.25, 0.2],
        "runsPerCell": 4,
        "masterSeed": 99,
        "constants": {"cS": 1.0, "cBeta": 3.0, "cF": 9.0, "cFinalStage2": 2.0,
                      "cDirect": 2.0, "cEntry": 1.0, "eta": 0.1, "rScale": 8.0},
        "initialBias": 0.1,
        "initialSetSize": 512,
        "threshold": 2,
        "maxRounds": 500,
        "outputPath": "out.json",
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(raw))
    spec = load_spec(path)
    assert spec.protocol == "consensus"
    assert spec.n_grid == (1024, 2048)
    assert spec.constants == ProtocolConstants()
    assert spec.initial_bias == 0.1
    assert not hasattr(spec, "output_path") and "outputPath" not in spec.to_dict()
    raw["outputPath"] = 3
    path.write_text(json.dumps(raw))
    with pytest.raises(SpecValidationError, match="outputPath"):
        load_spec(path)


def test_spec_unread_constant_checked_then_dropped():
    # v1 specs carry cDirect; nothing reads it, so it is validated and dropped
    raw = {"schemaVersion": 1, "protocol": "broadcast", "nGrid": [64], "epsilonGrid": [0.5],
           "runsPerCell": 1, "masterSeed": 0, "constants": {"cDirect": 3.0}}
    spec = ExperimentSpec.from_dict(raw)
    assert spec.constants == ProtocolConstants()
    assert "cDirect" not in spec.to_dict()["constants"]
    for bad in (0.0, -1.0, math.inf, math.nan):
        raw["constants"] = {"cDirect": bad}
        with pytest.raises(SpecValidationError, match="cDirect"):
            ExperimentSpec.from_dict(raw)


def test_spec_parse_errors(tmp_path):
    with pytest.raises(SpecParseError, match="cannot read"):
        load_spec(tmp_path / "missing.json")

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(SpecParseError, match="line"):
        load_spec(bad_json)

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"schemaVersion": 1, "protocol": "broadcast",
                                   "nGrid": [4], "epsilonGrid": [0.5],
                                   "runsPerCell": 1, "masterSeed": 0,
                                   "bogusField": 3}))
    with pytest.raises(SpecParseError, match="bogusField"):
        load_spec(unknown)

    for version in (2, True):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({"schemaVersion": version, "protocol": "broadcast",
                                     "nGrid": [4], "epsilonGrid": [0.5],
                                     "runsPerCell": 1, "masterSeed": 0}))
        with pytest.raises(SchemaVersionError):
            load_spec(stale)


def test_run_experiment_deterministic():
    spec = small_spec(runs_per_cell=2)
    a = report_to_dict(run_experiment(spec))
    b = report_to_dict(run_experiment(spec))
    assert a == b


def test_run_experiment_worker_count_invariant(monkeypatch):
    spec = small_spec(runs_per_cell=4)
    monkeypatch.setenv("FLIPSIM_THREADS", "1")
    serial = report_to_dict(run_experiment(spec))
    monkeypatch.setenv("FLIPSIM_THREADS", "2")
    parallel = report_to_dict(run_experiment(spec))
    assert serial == parallel


def test_noiseless_cell_statistics():
    # 40/40 noiseless successes pull the Wilson lower bound above 0.9
    # (30/30 alone only reaches 0.886)
    spec = small_spec(n_grid=(256,), runs_per_cell=40, master_seed=5)
    report = run_experiment(spec)
    cell = report.per_cell[0]
    assert cell.success_rate == 1.0
    assert cell.wilson_lo > 0.9
    assert cell.all_activated_rate == 1.0


def test_empty_report_rejected(tmp_path):
    spec = small_spec()
    report = ExperimentReport(spec=spec, per_cell=(), scaling_fit=None)
    with pytest.raises(ReportError, match="zero cells"):
        save_report(report, tmp_path / "r.json")
    with pytest.raises(ReportError):
        report_to_csv(report, tmp_path / "r.csv")
    # a path in a missing directory cannot be written
    report = run_experiment(small_spec(runs_per_cell=1))
    with pytest.raises(ReportError, match="cannot write report"):
        save_report(report, tmp_path / "missing" / "r.json")
    with pytest.raises(ReportError, match="cannot write CSV"):
        report_to_csv(report, tmp_path / "missing" / "r.csv")


def test_csv_and_json_agree(tmp_path):
    # every CSV cell is the repr of the JSON number, or empty where it is null
    for spec in (small_spec(n_grid=(128, 256), runs_per_cell=3),
                 small_spec(protocol="consensus", runs_per_cell=3,
                            initial_bias=0.0, initial_set_size=64)):
        report = run_experiment(spec)
        jpath = tmp_path / "r.json"
        cpath = tmp_path / "r.csv"
        save_report(report, jpath)
        report_to_csv(report, cpath)
        jdoc = json.loads(jpath.read_text())
        with open(cpath, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(jdoc["perCell"])
        for row, jcell in zip(rows, jdoc["perCell"]):
            assert tuple(row) == CSV_COLUMNS
            for key in CSV_COLUMNS:
                jv = jcell[key]
                assert row[key] == ("" if jv is None else repr(jv)), key


_REPORT_KEYS = {"schemaVersion", "toolVersion", "spec", "constantsUsed", "perCell", "scalingFit"}
_SPEC_KEYS = {"schemaVersion", "protocol", "nGrid", "epsilonGrid", "runsPerCell", "masterSeed",
              "constants"}
_CONSTANTS_JSON_KEYS = {"cS", "cBeta", "cF", "cFinalStage2", "cEntry", "eta", "rScale"}
_CELL_KEYS = {"n", "epsilon", "runs", "successRate", "wilsonLo", "wilsonHi", "relaxedSuccessRate",
              "meanRounds", "meanMessages", "meanFinalCorrect", "allActivatedRate",
              "symmetricOutcomeRate"}
_FIT_KEYS = {"slope", "intercept", "log2sqCoeff", "maxResidualRel"}
# (spec overrides, extra spec keys, extra cell keys, has a fit, sha256 of JSON bytes + CSV bytes)
_PINNED = [
    (dict(protocol="broadcast", n_grid=(64, 128), epsilon_grid=(0.5, 0.25)), set(), set(), True,
     "19044f89c351263425abddca886c8ee8a7ba970559d365a71840d38f710ed3dd"),
    (dict(protocol="consensus", n_grid=(128,), initial_bias=0.1, initial_set_size=64),
     {"initialBias", "initialSetSize"}, set(), False,
     "6b56ffd9296f5dc07d10fc17f15d45b10ff8125db4f8d19755a8178f39f6f251"),
    (dict(protocol="consensus", n_grid=(128,), initial_bias=0.0, initial_set_size=64),
     {"initialBias", "initialSetSize"}, set(), False,
     "a54ba41af19f2cf628a2df453b045c9cd186baa3f322fe353c76f80426641c40"),
    # two n cannot pin the desync fit's three coefficients: no fit
    (dict(protocol="desync", n_grid=(64, 128)), set(), set(), False,
     "7cba3c08b364a1796cc0b82f92a554b16bb38efce3cc9789ae0301905c346471"),
    (dict(protocol="baseline-forward", n_grid=(64,), epsilon_grid=(0.25,), max_rounds=40),
     {"maxRounds"}, {"depthTable"}, False,
     "8e694a5aa1ef8da742b698e1389d2242f5a278f3cc52fefbf7018936df561389"),
    (dict(protocol="baseline-silent", n_grid=(64,), epsilon_grid=(0.25,), threshold=3),
     {"threshold"}, {"medianFirstThreshold"}, False,
     "3de5b92d8ca5b9eec17869e861c1cf6084d64d06ad19997f17dd0b206a3ce774"),
]


def test_report_format_pinned(tmp_path, monkeypatch):
    # the v1 report and CSV formats, byte for byte: a renamed record field,
    # a dropped default or a changed number rendering moves a digest
    monkeypatch.setenv("FLIPSIM_THREADS", "1")
    for overrides, spec_extra, cell_extra, has_fit, digest in _PINNED:
        report = run_experiment(small_spec(master_seed=5, **overrides))
        doc = report_to_dict(report)
        assert set(doc) == _REPORT_KEYS
        assert set(doc["spec"]) == _SPEC_KEYS | spec_extra
        assert set(doc["spec"]["constants"]) == set(doc["constantsUsed"]) == _CONSTANTS_JSON_KEYS
        assert all(set(cell) == _CELL_KEYS | cell_extra for cell in doc["perCell"])
        assert (set(doc["scalingFit"]) == _FIT_KEYS) if has_fit else doc["scalingFit"] is None
        save_report(report, tmp_path / "r.json")
        report_to_csv(report, tmp_path / "r.csv")
        written = (tmp_path / "r.json").read_bytes() + (tmp_path / "r.csv").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest, overrides["protocol"]


def test_scaling_fit_mechanics():
    spec = small_spec(protocol="broadcast", n_grid=(128, 512), epsilon_grid=(0.5,),
                      runs_per_cell=2)
    report = run_experiment(spec)
    fit = report.scaling_fit
    assert fit is not None
    assert fit.slope > 0
    # round counts are schedule-determined, so a 2-point fit is exact
    assert fit.max_residual_rel < 1e-9
    # desync fits three coefficients (slope, log2(n)^2, intercept): two n
    # leave the split between the first two open, three n pin it
    two = run_experiment(small_spec(protocol="desync", n_grid=(64, 128), runs_per_cell=1))
    assert two.scaling_fit is None
    three = run_experiment(small_spec(protocol="desync", n_grid=(64, 128, 256), runs_per_cell=1))
    assert three.scaling_fit is not None and three.scaling_fit.log2sq_coeff is not None
    assert three.scaling_fit.max_residual_rel < 1e-9


def test_symmetric_outcome_rate_for_unbiased_consensus():
    spec = small_spec(
        protocol="consensus", n_grid=(256,), epsilon_grid=(0.25,),
        runs_per_cell=30, master_seed=11,
        initial_bias=0.0, initial_set_size=256)
    report = run_experiment(spec)
    cell = report.per_cell[0]
    assert cell.success_rate is None and cell.wilson_lo is None
    assert cell.symmetric_outcome_rate is not None
    # either opinion wins by symmetry; 30 runs stay within ~3.7 sigma of 1/2
    assert 0.2 <= cell.symmetric_outcome_rate <= 0.8


def test_baseline_cells_report_extras():
    fwd = run_experiment(small_spec(protocol="baseline-forward", n_grid=(256,),
                                    epsilon_grid=(0.25,), runs_per_cell=3))
    assert fwd.per_cell[0].depth_table
    silent = run_experiment(small_spec(protocol="baseline-silent", n_grid=(100,),
                                       epsilon_grid=(0.25,), runs_per_cell=5))
    assert silent.per_cell[0].median_first_threshold is not None
