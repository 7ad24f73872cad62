"""Exact and high-precision numerical checks of the protocol's probabilistic
building blocks, independent of the simulator.

Every binomial tail is a regularized incomplete beta function (scipy's
continued-fraction evaluation), each tail computed as its own so that tiny
probabilities keep full relative precision.  No factorials are ever formed:
everything runs through the incomplete beta or log-gamma.  The Stirling grid
checks each r at its binding i = floor(sqrt(r)) only, in O(r_max).
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc, gammaln

from .model import ConfigurationError
from .params import PAPER_R_SCALE


def _check_unit(name, value, lo, hi):
    if not (lo <= value <= hi):
        raise ConfigurationError(f"{name} must lie in [{lo}, {hi}], got {value}")


def _check_epsilon(epsilon):
    if not (0.0 < epsilon <= 0.5):
        raise ConfigurationError(f"epsilon must lie in (0, 1/2], got {epsilon}")


def binomial_tails(n, k, p: float):
    """(P(Binomial(n, p) < k), P(Binomial(n, p) >= k)), elementwise over n
    and k, each computed as its own incomplete-beta tail."""
    n = np.asarray(n, np.float64)
    k = np.asarray(k, np.float64)
    a, b = np.maximum(k, 1.0), np.maximum(n - k + 1.0, 1.0)
    inside = (k > 0) & (k <= n)
    low = np.where(k > n, 1.0, 0.0)     # the lower tail outside 0 < k <= n
    return np.where(inside, betainc(b, a, 1.0 - p), low), np.where(inside, betainc(a, b, p), 1.0 - low)


def binomial_tail_geq(n: int, k: int, p: float) -> float:
    """P(Binomial(n, p) >= k)."""
    if n < 0:
        raise ConfigurationError("n must be nonnegative")
    _check_unit("p", p, 0.0, 1.0)
    return float(binomial_tails(n, k, p)[1])


def _majority_tails(gamma: int, q: float):
    """(wrong, correct) probabilities of the majority of ``gamma`` independent
    samples, each correct with probability q.  ``gamma`` must be odd."""
    if gamma < 1 or gamma % 2 == 0:
        raise ConfigurationError(f"gamma must be odd and positive, got {gamma}")
    _check_unit("q", q, 0.0, 1.0)
    if q == 0.5:
        return 0.5, 0.5   # exact by symmetry of an odd-sample majority
    return tuple(map(float, binomial_tails(gamma, (gamma + 1) // 2, q)))


def majority_correct_prob(gamma: int, q: float) -> float:
    """Probability that the majority of ``gamma`` independent samples, each
    correct with probability q, is correct.  ``gamma`` must be odd."""
    return _majority_tails(gamma, q)[1]


def majority_wrong_prob(gamma: int, q: float) -> float:
    """Complement of :func:`majority_correct_prob`, computed as its own tail
    so that tiny failure probabilities keep full relative precision."""
    return _majority_tails(gamma, q)[0]


class PhaseClass(NamedTuple):
    fail: float     # P(fewer than s samples): the agent keeps its opinion
    q: float        # P(a sample is correct)
    event: float    # P(fails or ends on a wrong majority), the union-bound term
    correct: float  # P(ends correct)


def phase_class(fail, s: int, w: float, p: float, start_correct: bool = True) -> PhaseClass:
    """The stage-2 law of an agent that fails with probability ``fail`` (a
    float, or an array over agents) and otherwise takes the majority of s
    samples, each from a uniform other agent, a share w of them wrong,
    through a channel that flips a bit with probability p: each sample is
    correct with probability q = (1-p)(1-w) + p w."""
    q = (1.0 - p) * (1.0 - w) + p * w
    bad, good = _majority_tails(s, q)
    return PhaseClass(fail, q, fail + (1.0 - fail) * bad, fail * start_correct + (1.0 - fail) * good)


def phase_law(n: int, m: int, wrong: int, p: float):
    """The one-phase law of stage 2: ``(start correct, start wrong)``
    :class:`PhaseClass` records for an m-round phase in which all n agents
    send their frozen opinions, ``wrong`` of them wrong, through a channel
    that flips a bit with probability p; a class with no members gets zeros.
    An agent hears in a round with probability h = 1-(1-1/(n-1))^(n-1) from
    a uniform other agent, fails with probability P(Bin(m, h) < s), s = m/2,
    and otherwise takes the majority of s samples, a share w = (wrong - c) /
    (n-1) of them from wrong agents, c = 1 for an agent that starts wrong
    (:func:`phase_class`).
    """
    if not (n >= 2 and 0 <= wrong <= n):
        raise ConfigurationError(f"need n >= 2 and 0 <= wrong <= n, got n={n}, wrong={wrong}")
    s = m // 2
    miss = ((n - 2) / (n - 1)) ** (n - 1)           # P(an agent hears nothing in a round)
    fail = binomial_tail_geq(m, m - s + 1, miss)    # P(Bin(m, h) < s), as its own tail
    return tuple(phase_class(fail, s, (wrong - c) / (n - 1), p, not c) if agents else PhaseClass(0.0, 0.0, 0.0, 0.0)
                 for c, agents in enumerate((n - wrong, wrong)))


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
    _check_epsilon(epsilon)
    if not (0.0 < r_scale < math.inf):
        raise ConfigurationError(f"r_scale must be positive and finite, got {r_scale}")
    eps2 = epsilon * epsilon
    if eps2 == 0.0 or 2.0 * (r_scale / eps2) + 1.0 == math.inf:
        raise ConfigurationError(
            f"gamma = 2*ceil(r_scale/eps^2)+1 overflows at eps={epsilon}, r_scale={r_scale}")
    r = math.ceil(r_scale / eps2)
    gamma = 2 * r + 1
    q = 0.5 + 2.0 * epsilon * delta     # (1/2+delta)(1/2+eps) + (1/2-delta)(1/2-eps)
    probability = majority_correct_prob(gamma, min(q, 1.0))
    bound = min(0.5 + 4.0 * delta, 0.5 + 0.01)
    return LemmaCheck(probability, bound, probability >= bound, r, gamma, q)


def _stirling_log_p(r: np.ndarray, i: np.ndarray) -> np.ndarray:
    """log of P(r+i) = 2^-(2r+1) C(2r+1, r+i), elementwise."""
    two_r1 = 2.0 * r + 1.0
    return (
        -two_r1 * math.log(2.0)
        + gammaln(two_r1 + 1.0)
        - gammaln(r - i + 2.0)
        - gammaln(r + i + 1.0)
    )


def stirling_claim_grid(r_max: int) -> np.ndarray:
    """For each r = 1..r_max, whether P(r+i) > 1/(10*sqrt(r)) for every
    1 <= i <= floor(sqrt(r)), which implies the summed central-deviation
    bound; returns a boolean array (index 0 <-> r=1).

    Only i = floor(sqrt(r)) is evaluated: C(2r+1, r+i+1) / C(2r+1, r+i)
    = (r+1-i) / (r+i+1) < 1 for i >= 1, so P(r+i) falls strictly in i and
    the largest i binds.
    """
    if r_max < 1:
        raise ConfigurationError(f"r_max must be >= 1, got {r_max}")
    rs = np.arange(1, r_max + 1, dtype=np.int64)
    w = np.sqrt(rs).astype(np.int64)
    w = np.where((w + 1) ** 2 <= rs, w + 1, w)
    w = np.where(w ** 2 > rs, w - 1, w)          # exact floor(sqrt(r))
    r = rs.astype(np.float64)
    return _stirling_log_p(r, w.astype(np.float64)) > -np.log(10.0 * np.sqrt(r))


def direct_sample_requirement(epsilon: float, n: int, target_exponent: float) -> int:
    """Smallest odd m such that a majority over m direct noisy samples from
    the source is correct with probability >= 1 - n**(-target_exponent).

    This is the round count an agent would need if the source informed it
    directly, and serves as the scaling yardstick for the protocol's round
    complexity.
    """
    _check_epsilon(epsilon)
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

    def ok(k: int) -> bool:
        return majority_wrong_prob(2 * k + 1, q) <= allowed

    # search over k with m = 2k + 1: probe m = 1, 3, 7, ..., 2^40 - 1
    lo = hi = 0
    while not ok(hi):
        lo, hi = hi + 1, 2 * hi + 1
        if 2 * hi + 1 > 2 ** 40:
            raise ConfigurationError("direct sample requirement out of range")
    # ok(hi) holds, and ok(k) fails for k < lo since the wrong tail falls in m
    return 2 * bisect.bisect_left(range(hi), True, lo, key=ok) + 1
