import math
from fractions import Fraction

import numpy as np
import pytest

from flipsim import ConfigurationError
from flipsim.oracle import (
    binomial_tail_geq,
    boost_map,
    direct_sample_requirement,
    lemma_second_bound_check,
    majority_correct_prob,
    majority_wrong_prob,
    sample_correct_prob,
    stirling_claim_grid,
)
from flipsim.oracle import _stirling_log_p
from flipsim.model import derive_rng
from reference import (
    binom_sums,
    flip_count_bound_check,
    simulate_two_step_counts,
    stirling_claim_check,
    two_step_correct_count_pmf,
    two_step_correct_prob,
)


def brute_force_majority(gamma, q):
    """Enumerate all 2**gamma outcome vectors (grouped by popcount)."""
    ones = np.zeros(gamma + 1, np.int64)
    for mask in range(2 ** gamma):
        ones[bin(mask).count("1")] += 1
    total = 0.0
    for k in range((gamma + 1) // 2, gamma + 1):
        total += ones[k] * (q ** k) * ((1 - q) ** (gamma - k))
    return total


def test_sample_correct_prob():
    assert sample_correct_prob(0.0, 0.25) == 0.5
    assert sample_correct_prob(0.5, 0.5) == 1.0
    assert sample_correct_prob(0.1, 0.25) == pytest.approx(0.55, abs=1e-15)
    with pytest.raises(ConfigurationError):
        sample_correct_prob(0.6, 0.25)
    with pytest.raises(ConfigurationError):
        sample_correct_prob(0.1, 0.0)


def test_majority_single_sample_is_q():
    for q in (0.5, 0.6, 0.9, 1.0):
        assert majority_correct_prob(1, q) == pytest.approx(q, abs=1e-15)


def test_majority_fair_coin_exactly_half():
    for gamma in (1, 3, 5, 21, 1001):
        assert majority_correct_prob(gamma, 0.5) == 0.5


def test_majority_spec_instance():
    # 10*0.216*0.16 + 5*0.1296*0.4 + 0.07776 = 0.68256
    assert majority_correct_prob(5, 0.6) == pytest.approx(0.68256, abs=1e-12)


def test_majority_even_gamma_rejected():
    with pytest.raises(ConfigurationError):
        majority_correct_prob(4, 0.6)


@pytest.mark.parametrize("q", [0.5, 0.55, 0.6, 0.75, 0.9, 1.0])
def test_majority_matches_brute_force(q):
    for gamma in range(1, 16, 2):
        expected = brute_force_majority(gamma, q)
        assert abs(majority_correct_prob(gamma, q) - expected) < 1e-12


def test_cross_method_agreement():
    # incomplete beta vs the reference's direct summation to 1e-10 relative,
    # gamma <= 1e6
    gen = derive_rng(2024, "oracle-grid")
    for _ in range(25):
        gamma = int(gen.integers(3, 10 ** 6)) | 1
        q = 0.5 + 0.4999 * float(gen.random())
        a, d = majority_correct_prob(gamma, q), binom_sums(gamma, q, (gamma + 1) // 2)[1]
        assert abs(a - d) <= 1e-10 * d
    # the wrong tail, at q within 2/sqrt(gamma) of 1/2 so that it does not
    # underflow to 0 on both routes
    gen = derive_rng(2024, "oracle-grid", "wrong-tail")
    for _ in range(25):
        gamma = int(gen.integers(3, 10 ** 6)) | 1
        q = 0.5 + min(2.0 / math.sqrt(gamma), 0.4999) * float(gen.random())
        a, d = majority_wrong_prob(gamma, q), binom_sums(gamma, q, (gamma + 1) // 2)[0]
        assert d > 0.0 and abs(a - d) <= 1e-10 * d


def test_majority_monotone_in_q_and_gamma():
    probs = [majority_correct_prob(21, q) for q in np.linspace(0.5, 1.0, 26)]
    assert all(a <= b + 1e-15 for a, b in zip(probs, probs[1:]))
    by_gamma = [majority_correct_prob(g, 0.55) for g in range(1, 400, 2)]
    assert all(a <= b + 1e-15 for a, b in zip(by_gamma, by_gamma[1:]))


def test_wrong_prob_is_precise_complement():
    # exact rational reference for the failure tail at m=79, q=3/4
    m, j0 = 79, 40
    p = Fraction(3, 4)
    exact = sum(Fraction(math.comb(m, j)) * p ** j * (1 - p) ** (m - j) for j in range(j0))
    got = majority_wrong_prob(m, 0.75)
    assert abs(got - float(exact)) <= 1e-12 * float(exact)
    for gamma, q in ((21, 0.6), (101, 0.52)):
        assert majority_wrong_prob(gamma, q) + majority_correct_prob(gamma, q) == pytest.approx(1.0, abs=1e-12)


def test_lemma_bound_holds_at_literal_scale():
    for delta in (1e-8, 1e-4, 0.05, 0.4):
        res = lemma_second_bound_check(0.25, delta)
        assert res.holds
        assert res.r == math.ceil(2 ** 22 / 0.0625)
        assert res.probability >= res.bound - 1e-9


def test_lemma_reports_violation_when_underscaled():
    # tiny sample radius: majority of 3 samples cannot reach 1/2 + 1/100
    res = lemma_second_bound_check(0.5, 0.0025, r_scale=0.25)
    assert res.gamma == 3
    assert not res.holds
    assert res.probability < res.bound


def test_two_step_marginal():
    assert two_step_correct_prob(0.0) == 0.5
    assert two_step_correct_prob(0.5) == 1.0
    # the per-player identity 1 - (1 - 2b)/2 = 1/2 + b, exact on rationals
    for b in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
        assert 1 - Fraction(1, 2) * (1 - 2 * b) == Fraction(1, 2) + b
        assert two_step_correct_prob(float(b)) == pytest.approx(0.5 + float(b), abs=1e-15)


def test_two_step_process_matches_binomial_law():
    # TV distance between simulated two-step counts and Binomial(21, 0.6)
    gamma, b, trials = 21, 0.1, 10 ** 6
    counts = simulate_two_step_counts(gamma, b, trials, derive_rng(7, "two-step"))
    hist = np.bincount(counts, minlength=gamma + 1) / trials
    pmf = two_step_correct_count_pmf(gamma, b)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    tv = 0.5 * np.abs(hist - pmf).sum()
    assert tv <= 0.005


def test_stirling_r1_exact():
    # three fair coins: P(2 wrong) = 3/8 > 1/10
    assert math.exp(_stirling_log_p(np.array([1.0]), np.array([1.0]))[0]) == pytest.approx(0.375, abs=1e-12)
    assert stirling_claim_check(1)


def test_stirling_r100_value():
    p101 = math.exp(_stirling_log_p(np.array([100.0]), np.array([1.0]))[0])
    assert p101 == pytest.approx(0.05606952614287497, abs=1e-9)
    # central-binomial asymptote sqrt(2/(pi*(2r+1)))
    assert abs(p101 - math.sqrt(2 / (math.pi * 201))) < 5e-4
    assert p101 > 1 / (10 * math.sqrt(100))
    assert stirling_claim_check(100)


def test_stirling_grid_matches_scalar():
    grid = stirling_claim_grid(200)
    scalar = np.array([stirling_claim_check(r) for r in range(1, 201)])
    assert np.array_equal(grid, scalar)
    assert grid.all()


def test_flip_count_case1_example():
    res = flip_count_bound_check(10, 0.05)
    assert res.case1_probability == pytest.approx(11 * 0.1 * 0.9 ** 10, abs=1e-12)
    assert res.case1_probability == pytest.approx(0.38354628411, abs=1e-9)
    assert res.case1_holds
    assert res.case2_probability is None and res.case2_holds is None


def test_flip_count_zero_b_boundary():
    res = flip_count_bound_check(10, 0.0)
    assert res.case1_probability == 0.0
    assert res.case1_holds   # 0 >= 0, equality


def test_flip_count_case2():
    res = flip_count_bound_check(10 ** 4, 0.01)
    assert res.case1_probability is None and res.case1_holds is None
    assert res.case2_holds
    assert res.case2_probability >= 1 / 3


def test_boost_map():
    assert boost_map(0.0, 0.25, 21, 0.9) == 0.5
    assert boost_map(0.5, 0.5, 3, 1.0) == pytest.approx(1.0, abs=1e-12)
    # frozen fixture: exact-rational tail sum at the float-rounded q gives
    # 0.9 * 0.5917377688241049 + 0.1 * 0.55
    assert boost_map(0.05, 0.25, 21, 0.9) == pytest.approx(0.5875639919416944, abs=1e-12)


def test_direct_sample_requirement():
    assert direct_sample_requirement(0.5, 1024, 2) == 1
    # frozen fixture: independent exact-rational scan gives m = 79
    assert direct_sample_requirement(0.25, 1024, 2) == 79
    ms = [direct_sample_requirement(e, 1024, 2) for e in (0.05, 0.1, 0.25, 0.5)]
    assert all(a >= b for a, b in zip(ms, ms[1:]))
    assert all(m % 2 == 1 for m in ms)
    # eps = 1e-7 needs m of order 1e15, past the 2^40 search limit
    for eps, n, message in ((0.0, 1024, "epsilon"), (0.25, 1, "n must be"), (1e-7, 1024, "out of range")):
        with pytest.raises(ConfigurationError, match=message):
            direct_sample_requirement(eps, n, 2)


def test_direct_sample_requirement_is_tight():
    m = direct_sample_requirement(0.25, 1024, 2)
    allowed = 1024.0 ** -2
    assert majority_wrong_prob(m, 0.75) <= allowed
    assert majority_wrong_prob(m - 2, 0.75) > allowed


def test_binomial_tail_edges():
    assert binomial_tail_geq(10, 0, 0.3) == 1.0
    assert binomial_tail_geq(10, 11, 0.3) == 0.0
    assert binomial_tail_geq(10, 5, 0.0) == 0.0
    assert binomial_tail_geq(10, 5, 1.0) == 1.0
    for n, p in ((-1, 0.3), (10, -0.1), (10, 1.5), (10, math.nan)):
        with pytest.raises(ConfigurationError):
            binomial_tail_geq(n, 5, p)
