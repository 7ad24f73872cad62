"""Exact and high-precision numerical checks of the protocol's probabilistic
building blocks, independent of the simulator.

Two routes compute binomial tails and must agree: a direct summation of the
probability mass (mode-normalized product recurrence, exact to ~1e-13
relative, used for n <= 1e6) and the regularized incomplete beta function
(scipy's continued-fraction evaluation, used beyond).  Small cases are
additionally pinned by brute-force enumeration over all 2**gamma outcome
vectors in the test suite.  No factorials are ever formed: everything runs
through ratios or log-gamma.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .model import ConfigurationError
from .params import PAPER_R_SCALE

DIRECT_SUM_LIMIT = 10 ** 6


def _check_unit(name, value, lo, hi):
    if not (lo <= value <= hi):
        raise ConfigurationError(f"{name} must lie in [{lo}, {hi}], got {value}")


def sample_correct_prob(delta: float, epsilon: float) -> float:
    """Probability that one noisy sample from a population with bias delta
    shows the correct opinion: (1/2+delta)(1/2+eps) + (1/2-delta)(1/2-eps)
    = 1/2 + 2*eps*delta."""
    _check_unit("delta", delta, 0.0, 0.5)
    if not (0.0 < epsilon <= 0.5):
        raise ConfigurationError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    return 0.5 + 2.0 * epsilon * delta


def _binom_sums(n: int, q: float, k: int):
    """Unnormalized pmf sums (below k, at-or-above k) for Binomial(n, q).

    The pmf is built by a product recurrence normalized at the mode, which
    sidesteps log-gamma cancellation entirely; accuracy is ~1e-13 relative.
    """
    mode = min(max(int((n + 1) * q), 0), n)
    j = np.arange(n, dtype=np.float64)
    ratio = (n - j) / (j + 1.0) * (q / (1.0 - q))
    u = np.empty(n + 1)
    u[mode] = 1.0
    if mode < n:
        u[mode + 1:] = np.cumprod(ratio[mode:])
    if mode > 0:
        u[mode - 1::-1] = np.cumprod(1.0 / ratio[mode - 1::-1])
    below = float(u[:k].sum())
    above = float(u[k:].sum())
    total = below + above
    return below / total, above / total


def binomial_tail_geq(n: int, k: int, p: float) -> float:
    """P(Binomial(n, p) >= k), dual-route: direct summation up to
    ``DIRECT_SUM_LIMIT`` trials, incomplete beta beyond."""
    if n < 0:
        raise ConfigurationError("n must be nonnegative")
    _check_unit("p", p, 0.0, 1.0)
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    if n <= DIRECT_SUM_LIMIT:
        return _binom_sums(n, p, k)[1]
    return float(betainc(k, n - k + 1, p))


def majority_correct_prob(gamma: int, q: float) -> float:
    """Probability that the majority of ``gamma`` independent samples, each
    correct with probability q, is correct.  ``gamma`` must be odd."""
    if gamma < 1 or gamma % 2 == 0:
        raise ConfigurationError(f"gamma must be odd and positive, got {gamma}")
    _check_unit("q", q, 0.0, 1.0)
    if q == 0.5:
        return 0.5   # exact by symmetry of an odd-sample majority
    return binomial_tail_geq(gamma, (gamma + 1) // 2, q)


def majority_wrong_prob(gamma: int, q: float) -> float:
    """Complement of :func:`majority_correct_prob`, computed as its own tail
    so that tiny failure probabilities keep full relative precision."""
    if gamma < 1 or gamma % 2 == 0:
        raise ConfigurationError(f"gamma must be odd and positive, got {gamma}")
    _check_unit("q", q, 0.0, 1.0)
    if q == 0.5:
        return 0.5
    if q == 1.0:
        return 0.0
    if q == 0.0:
        return 1.0
    j0 = (gamma + 1) // 2
    if gamma <= DIRECT_SUM_LIMIT:
        return _binom_sums(gamma, q, j0)[0]
    return float(betainc(gamma - j0 + 1, j0, 1.0 - q))


def majority_correct_prob_direct(gamma: int, q: float) -> float:
    """Direct-summation route, unconditionally (cross-validation hook)."""
    if gamma % 2 == 0:
        raise ConfigurationError("gamma must be odd")
    if q == 0.5:
        return 0.5
    if q in (0.0, 1.0):
        return q
    return _binom_sums(gamma, q, (gamma + 1) // 2)[1]


def majority_correct_prob_beta(gamma: int, q: float) -> float:
    """Incomplete-beta route, unconditionally (cross-validation hook)."""
    if gamma % 2 == 0:
        raise ConfigurationError("gamma must be odd")
    j0 = (gamma + 1) // 2
    return float(betainc(j0, gamma - j0 + 1, q))


@dataclass(frozen=True)
class LemmaCheck:
    probability: float
    bound: float
    holds: bool
    r: int
    gamma: int
    q: float


def lemma_second_bound_check(epsilon: float, delta: float, r_scale: float = PAPER_R_SCALE) -> LemmaCheck:
    """Check that a gamma = 2*ceil(r_scale/eps^2)+1 sample majority from a
    delta-biased population is correct with probability at least
    min(1/2 + 4*delta, 1/2 + 1/100).

    Reports rather than asserts: under-scaled constants may legitimately
    violate the bound.
    """
    if not (0.0 < delta <= 0.5):
        raise ConfigurationError(f"delta must lie in (0, 1/2], got {delta}")
    if not (0.0 < epsilon <= 0.5):
        raise ConfigurationError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    if not (0.0 < r_scale < math.inf):
        raise ConfigurationError(f"r_scale must be positive and finite, got {r_scale}")
    eps2 = epsilon * epsilon
    if eps2 == 0.0 or 2.0 * (r_scale / eps2) + 1.0 == math.inf:
        raise ConfigurationError(
            f"gamma = 2*ceil(r_scale/eps^2)+1 overflows at eps={epsilon}, r_scale={r_scale}")
    r = math.ceil(r_scale / eps2)
    gamma = 2 * r + 1
    q = sample_correct_prob(delta, epsilon)
    probability = majority_correct_prob(gamma, min(q, 1.0))
    bound = min(0.5 + 4.0 * delta, 0.5 + 0.01)
    return LemmaCheck(probability, bound, probability >= bound, r, gamma, q)


def two_step_correct_prob(b: float) -> float:
    """Per-player correct probability after the fair-coin-then-corrective-flip
    process: 1 - (1 - 2b)/2 = 1/2 + b."""
    _check_unit("b", b, 0.0, 0.5)
    return 0.5 + b


def two_step_correct_count_pmf(gamma: int, b: float) -> np.ndarray:
    """Exact law of the post-process correct-count: Binomial(gamma, 1/2+b).

    Serves as the reference distribution when checking the simulated
    two-step process for equivalence with direct biased sampling.
    """
    _check_unit("b", b, 0.0, 0.5)
    q = 0.5 + b
    if q >= 1.0:
        pmf = np.zeros(gamma + 1)
        pmf[gamma] = 1.0
        return pmf
    mode = min(max(int((gamma + 1) * q), 0), gamma)
    j = np.arange(gamma, dtype=np.float64)
    ratio = (gamma - j) / (j + 1.0) * (q / (1.0 - q))
    u = np.empty(gamma + 1)
    u[mode] = 1.0
    if mode < gamma:
        u[mode + 1:] = np.cumprod(ratio[mode:])
    if mode > 0:
        u[mode - 1::-1] = np.cumprod(1.0 / ratio[mode - 1::-1])
    return u / u.sum()


def simulate_two_step_counts(gamma: int, b: float, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the two-step process ``trials`` times; returns correct-counts.

    Step one gives each of the gamma players a fair-coin opinion; step two
    flips each wrong player to correct independently with probability 2b.
    The player coins are exchangeable, so the wrong-count after step one and
    the flip-count after step two are the sufficient statistics sampled here.
    """
    _check_unit("b", b, 0.0, 0.5)
    wrong = rng.binomial(gamma, 0.5, size=trials)
    flips = rng.binomial(wrong, 2.0 * b)
    return gamma - wrong + flips


def _stirling_log_p(r_flat: np.ndarray, i_flat: np.ndarray) -> np.ndarray:
    """log of P(r+i) = 2^-(2r+1) C(2r+1, r+i), elementwise."""
    two_r1 = 2.0 * r_flat + 1.0
    return (
        -two_r1 * math.log(2.0)
        + gammaln(two_r1 + 1.0)
        - gammaln(r_flat - i_flat + 2.0)
        - gammaln(r_flat + i_flat + 1.0)
    )


def stirling_claim_check(r: int) -> bool:
    """True when P(r+i) > 1/(10*sqrt(r)) for every 1 <= i <= floor(sqrt(r)),
    which implies the summed central-deviation bound."""
    if r < 1:
        raise ConfigurationError(f"r must be >= 1, got {r}")
    w = math.isqrt(r)
    i = np.arange(1, w + 1, dtype=np.float64)
    logp = _stirling_log_p(np.full(w, float(r)), i)
    return bool((logp > -math.log(10.0 * math.sqrt(r))).all())


def stirling_claim_grid(r_max: int) -> np.ndarray:
    """Vectorized :func:`stirling_claim_check` over r = 1..r_max; returns a
    boolean array (index 0 <-> r=1)."""
    if r_max < 1:
        raise ConfigurationError(f"r_max must be >= 1, got {r_max}")
    rs = np.arange(1, r_max + 1, dtype=np.int64)
    w = np.sqrt(rs).astype(np.int64)
    w = np.where((w + 1) ** 2 <= rs, w + 1, w)
    w = np.where(w ** 2 > rs, w - 1, w)          # exact floor(sqrt(r))
    r_flat = np.repeat(rs, w).astype(np.float64)
    ends = np.cumsum(w)
    starts = ends - w
    i_flat = (np.arange(ends[-1]) - np.repeat(starts, w) + 1).astype(np.float64)
    logp = _stirling_log_p(r_flat, i_flat)
    ok_flat = logp > -np.log(10.0 * np.sqrt(r_flat))
    # segments are nonempty for every r >= 1 since floor(sqrt(r)) >= 1
    return np.logical_and.reduceat(ok_flat, starts)


@dataclass(frozen=True)
class FlipCountCheck:
    case1_probability: float | None
    case1_holds: bool | None
    case2_probability: float | None
    case2_holds: bool | None


def flip_count_bound_check(r: int, b: float) -> FlipCountCheck:
    """Corrective-flip bounds for the two-step process.

    With rb <= 2: the exact probability that precisely one of r+1 wrong
    players flips, (r+1) * 2b * (1-2b)^r, is compared against r*b/e^4.
    With rb > 2: the probability of at least ceil(rb) flips among
    r + ceil(rb) wrong players is compared against 1/3.
    """
    if r < 1:
        raise ConfigurationError(f"r must be >= 1, got {r}")
    _check_unit("b", b, 0.0, 0.5)
    rb = r * b
    if rb <= 2.0:
        value = (r + 1) * 2.0 * b * (1.0 - 2.0 * b) ** r
        return FlipCountCheck(value, value >= rb / math.e ** 4, None, None)
    x = math.ceil(rb)
    prob = binomial_tail_geq(r + x, x, 2.0 * b)
    return FlipCountCheck(None, None, prob, prob >= 1.0 / 3.0)


def boost_map(delta: float, epsilon: float, gamma: int, success_rate: float) -> float:
    """Expected next-phase correct fraction: successful agents follow the
    subset majority, the rest keep their current opinion."""
    _check_unit("success_rate", success_rate, 0.0, 1.0)
    q = sample_correct_prob(delta, epsilon)
    return success_rate * majority_correct_prob(gamma, q) + (1.0 - success_rate) * (0.5 + delta)


def direct_sample_requirement(epsilon: float, n: int, target_exponent: float) -> int:
    """Smallest odd m such that a majority over m direct noisy samples from
    the source is correct with probability >= 1 - n**(-target_exponent).

    This is the round count an agent would need if the source informed it
    directly, and serves as the scaling yardstick for the protocol's round
    complexity.
    """
    if not (0.0 < epsilon <= 0.5):
        raise ConfigurationError(f"epsilon must lie in (0, 1/2], got {epsilon}")
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if not (0.0 < target_exponent < math.inf):
        raise ConfigurationError(f"target_exponent must be positive and finite, got {target_exponent}")
    q = 0.5 + epsilon
    allowed = n ** (-float(target_exponent))
    if allowed < sys.float_info.min:
        raise ConfigurationError(
            f"n**-target_exponent = {allowed:g} is below the smallest normal float "
            f"at n={n}, target_exponent={target_exponent}")

    def ok(m: int) -> bool:
        return majority_wrong_prob(m, q) <= allowed

    if ok(1):
        return 1
    lo, hi = 1, 3
    while not ok(hi):
        lo, hi = hi, 2 * hi + 1
        if hi > 2 ** 40:
            raise ConfigurationError("direct sample requirement out of range")
    # invariant: ok(hi) holds, ok(lo) fails; bisect over odd values
    while hi - lo > 2:
        mid = lo + (hi - lo) // 2
        if mid % 2 == 0:
            mid += 1
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi
