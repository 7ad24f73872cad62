import math
import warnings

import pytest

from flipsim import (
    ConfigurationError,
    ConstantsOrderingError,
    InitialSetTooSmallError,
    NoiseChannel,
    PAPER_R_SCALE,
    ProtocolConstants,
    SimConfig,
    derive_schedule,
    majority_entry_phase,
)

EPS_GRID = (0.5, 0.4, 0.25, 0.1, 0.05)
N_GRID = (2, 3, 5, 17, 100, 1000, 4096, 100_000)


def test_schedule_example_large_n():
    # n = 2^20, eps = 0.25: s=16, beta=48, beta_s=320, T=1
    sch = derive_schedule(2 ** 20, NoiseChannel.from_epsilon(0.25))
    assert sch.s == 16
    assert sch.beta == 48
    assert sch.f == 144
    assert sch.beta_s == 320
    assert sch.t_phases == 1


def test_schedule_example_small_n_clamps():
    # n = 1024, eps = 0.25: log2(3.2)/log2(49) < 1 so T = 0
    sch = derive_schedule(1024, NoiseChannel.from_epsilon(0.25))
    assert sch.t_phases == 0
    # schedule degenerates to phase 0 followed immediately by the final phase
    assert sch.phase_bounds_stage1 == ((0, sch.beta_s), (sch.beta_s, sch.beta_f))


def test_schedule_noiseless():
    sch = derive_schedule(4096, NoiseChannel.from_epsilon(0.5))
    assert (sch.s, sch.beta, sch.f) == (4, 12, 36)
    assert sch.f > sch.beta > sch.s


def test_literal_r_scale_constant():
    assert PAPER_R_SCALE == 2 ** 22
    sch = derive_schedule(1024, NoiseChannel.from_epsilon(0.25),
                          ProtocolConstants(r_scale=PAPER_R_SCALE))
    assert sch.r == math.ceil(2 ** 22 / 0.0625)


def test_t_monotone_in_n():
    ch = NoiseChannel.from_epsilon(0.25)
    ts = [derive_schedule(2 ** k, ch).t_phases for k in range(2, 24)]
    assert all(a <= b for a, b in zip(ts, ts[1:]))


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("n", N_GRID)
def test_schedule_well_formed_across_grid(n, eps):
    sch = derive_schedule(n, NoiseChannel.from_epsilon(eps))
    # consecutive disjoint stage-1 phases
    expected_start = 0
    for start, length in sch.phase_bounds_stage1:
        assert start == expected_start
        assert length > 0
        expected_start = start + length
    assert expected_start == sch.stage1_rounds
    assert len(sch.phase_bounds_stage1) == sch.t_phases + 2
    # every stage-2 majority subset size is odd
    assert all(m % 2 == 0 and (m // 2) % 2 == 1 for m in sch.stage2_phase_lengths)
    assert len(sch.stage2_phase_lengths) == sch.k + 1
    assert sch.gamma == 2 * sch.r + 1
    if sch.t_phases >= 1:
        assert sch.beta_s * (sch.beta + 1) ** sch.t_phases <= n / 2


@pytest.mark.parametrize("eps", EPS_GRID)
@pytest.mark.parametrize("n", (16, 256, 4096, 100_000))
def test_stage1_length_ratio_bounded(n, eps):
    sch = derive_schedule(n, NoiseChannel.from_epsilon(eps))
    ratio = sch.stage1_rounds / (math.log2(n) / eps ** 2)
    assert ratio <= 16.0


def test_constants_ordering_error():
    ch = NoiseChannel.from_epsilon(0.25)
    with pytest.raises(ConstantsOrderingError, match="beta > s"):
        derive_schedule(1024, ch, ProtocolConstants(c_s=3.0, c_beta=3.0))
    with pytest.raises(ConstantsOrderingError, match="f > beta"):
        derive_schedule(1024, ch, ProtocolConstants(c_beta=9.0, c_f=9.0))


def test_constants_scaling_past_the_largest_float():
    ch = NoiseChannel.from_epsilon(0.25)
    for name in ("c_s", "c_beta", "c_f", "r_scale", "c_final_stage2"):
        with pytest.raises(ConfigurationError, match=f"{name} = 1e\\+308 scales a round count"):
            derive_schedule(1024, ch, ProtocolConstants(**{name: 1e308}))


def test_constants_validation():
    with pytest.raises(ConfigurationError):
        ProtocolConstants(c_s=0.0)
    with pytest.raises(ConfigurationError):
        ProtocolConstants(eta=0.5)


def test_entry_phase_example():
    assert majority_entry_phase(4096, 2 ** 16, NoiseChannel.from_epsilon(0.25)) == 2


def test_entry_phase_full_population_clamps_to_stage2():
    ch = NoiseChannel.from_epsilon(0.25)
    n = 2 ** 16
    sch = derive_schedule(n, ch)
    assert majority_entry_phase(n, n, ch) == sch.t_phases + 1


def test_entry_phase_boundary_set():
    # smallest admissible set at eps=1/2 (4*log2 n agents) enters at phase 1:
    # floor(log2(4 log2(n) / log2(n)) / (2 log2(2))) = 1
    ch = NoiseChannel.from_epsilon(0.5)
    assert majority_entry_phase(64, 2 ** 16, ch) == 1


def test_entry_phase_too_small():
    with pytest.raises(InitialSetTooSmallError):
        majority_entry_phase(10, 2 ** 16, NoiseChannel.from_epsilon(0.25))


def test_sim_config_regime_warning():
    # eps at or below n^-(1/2-eta) warns but does not fail
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SimConfig(n=2 ** 20, channel=NoiseChannel.from_epsilon(0.001), master_seed=0)
    assert any("regime" in str(w.message) for w in caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        SimConfig(n=1024, channel=NoiseChannel.from_epsilon(0.25), master_seed=0)
    assert not caught


def test_sim_config_regime_warning_names_caller():
    with pytest.warns(UserWarning, match="regime") as caught:
        SimConfig(n=64, channel=NoiseChannel.from_epsilon(0.01))
    assert [w.filename for w in caught] == [__file__]


def test_sim_config_validation():
    with pytest.raises(ConfigurationError):
        SimConfig(n=1, channel=NoiseChannel.from_epsilon(0.25))
    with pytest.raises(ConfigurationError):
        SimConfig(n=4, channel=NoiseChannel.from_epsilon(0.25), correct_opinion=2)
