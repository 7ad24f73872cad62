"""Exact and high-precision numerical checks of the protocol's probabilistic
building blocks, independent of the simulator.

Every binomial tail is a regularized incomplete beta function (scipy's
continued-fraction evaluation), each tail computed as its own so that tiny
probabilities keep full relative precision.  No factorials are ever formed:
everything runs through the incomplete beta or log-gamma.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, gammaln

from .model import ConfigurationError
from .params import PAPER_R_SCALE


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


def _binomial_tails(n: int, k: int, p: float):
    """(P(Binomial(n, p) < k), P(Binomial(n, p) >= k)), each computed as its
    own incomplete-beta tail."""
    if k <= 0:
        return 0.0, 1.0
    if k > n or p == 0.0:
        return 1.0, 0.0
    if p == 1.0:
        return 0.0, 1.0
    return float(betainc(n - k + 1, k, 1.0 - p)), float(betainc(k, n - k + 1, p))


def binomial_tail_geq(n: int, k: int, p: float) -> float:
    """P(Binomial(n, p) >= k)."""
    if n < 0:
        raise ConfigurationError("n must be nonnegative")
    _check_unit("p", p, 0.0, 1.0)
    return _binomial_tails(n, k, p)[1]


def _majority_tails(gamma: int, q: float):
    """(wrong, correct) probabilities of the majority of ``gamma`` independent
    samples, each correct with probability q.  ``gamma`` must be odd."""
    if gamma < 1 or gamma % 2 == 0:
        raise ConfigurationError(f"gamma must be odd and positive, got {gamma}")
    _check_unit("q", q, 0.0, 1.0)
    if q == 0.5:
        return 0.5, 0.5   # exact by symmetry of an odd-sample majority
    return _binomial_tails(gamma, (gamma + 1) // 2, q)


def majority_correct_prob(gamma: int, q: float) -> float:
    """Probability that the majority of ``gamma`` independent samples, each
    correct with probability q, is correct.  ``gamma`` must be odd."""
    return _majority_tails(gamma, q)[1]


def majority_wrong_prob(gamma: int, q: float) -> float:
    """Complement of :func:`majority_correct_prob`, computed as its own tail
    so that tiny failure probabilities keep full relative precision."""
    return _majority_tails(gamma, q)[0]


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


def _stirling_log_p(r_flat: np.ndarray, i_flat: np.ndarray) -> np.ndarray:
    """log of P(r+i) = 2^-(2r+1) C(2r+1, r+i), elementwise."""
    two_r1 = 2.0 * r_flat + 1.0
    return (
        -two_r1 * math.log(2.0)
        + gammaln(two_r1 + 1.0)
        - gammaln(r_flat - i_flat + 2.0)
        - gammaln(r_flat + i_flat + 1.0)
    )


def stirling_claim_grid(r_max: int) -> np.ndarray:
    """For each r = 1..r_max, whether P(r+i) > 1/(10*sqrt(r)) for every
    1 <= i <= floor(sqrt(r)), which implies the summed central-deviation
    bound; returns a boolean array (index 0 <-> r=1)."""
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
