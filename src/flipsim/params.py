"""Protocol parameter derivation: every schedule quantity is computed from
``(n, epsilon)`` and a set of configurable constants.

All logarithms are base 2.  The asymptotic analysis needs "sufficiently
large" constants (e.g. a 2**22 factor inside the stage-2 sample count) that
are hopeless at desk scale; the defaults here are tuned for empirical
success rates >= 0.99 at n <= 2**14 while the literal constant remains
available as :data:`PAPER_R_SCALE` for the numerical oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .model import ConfigurationError, NoiseChannel

PAPER_R_SCALE = 2 ** 22


class ConstantsOrderingError(ConfigurationError):
    """Derived phase constants violate the required ordering f > beta > s."""


class InitialSetTooSmallError(ConfigurationError):
    """A majority-consensus initial set is below the admissible size."""


@dataclass(frozen=True)
class ProtocolConstants:
    """Scale factors for the derived schedule.

    c_s, c_beta, c_f scale the per-phase round counts s, beta, f (all of the
    form ceil(c / eps**2)); r_scale replaces the literal 2**22 in the stage-2
    sample radius; c_final_stage2 scales the final stage-2 phase length;
    c_entry gates admissible consensus initial sets; eta bounds the
    (epsilon, n) regime.
    """

    c_s: float = 1.0
    c_beta: float = 3.0
    c_f: float = 9.0
    c_final_stage2: float = 2.0
    c_entry: float = 1.0
    eta: float = 0.1
    r_scale: float = 8.0

    def __post_init__(self):
        for name in ("c_s", "c_beta", "c_f", "c_final_stage2", "c_entry", "r_scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite")
        if not (0.0 < self.eta < 0.5):
            raise ConfigurationError(f"eta must lie in (0, 1/2), got {self.eta}")


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on."""

    n: int
    channel: NoiseChannel
    correct_opinion: int = 1
    master_seed: int = 0
    constants: ProtocolConstants = field(default_factory=ProtocolConstants)

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError(f"need at least 2 agents, got {self.n}")
        if self.correct_opinion not in (0, 1):
            raise ConfigurationError("correct_opinion must be 0 or 1")
        eps = self.channel.epsilon_bias
        floor = self.n ** -(0.5 - self.constants.eta)
        if eps <= floor:
            # Desk-scale runs may sit outside the asymptotic regime; warn, don't fail.
            warnings.warn(
                f"epsilon={eps:g} is at or below n^-(1/2-eta)={floor:g}; "
                "outside the analyzed regime",
                stacklevel=3,     # past the generated __init__, to the code that built the config
            )


@dataclass(frozen=True)
class ScheduleParams:
    """Full derived schedule for one (n, epsilon, constants) triple.

    Stage 1 runs phases 0..T+1 (phase 0 of beta_s rounds, phases 1..T of
    beta rounds each, phase T+1 of beta_f rounds); stage 2 runs k+1 phases
    of lengths ``stage2_phase_lengths``.
    """

    n: int
    epsilon: float
    s: int
    beta: int
    f: int
    beta_s: int
    beta_f: int
    t_phases: int                      # T
    phase_bounds_stage1: tuple         # ((start, length), ...) for phases 0..T+1
    r: int
    gamma: int                         # 2r + 1, odd
    k: int
    stage2_phase_lengths: tuple        # (m_1, ..., m_{k+1})

    @property
    def stage1_rounds(self) -> int:
        return self.beta_s + self.t_phases * self.beta + self.beta_f

    @property
    def stage2_rounds(self) -> int:
        return sum(self.stage2_phase_lengths)

    @property
    def total_rounds(self) -> int:
        return self.stage1_rounds + self.stage2_rounds


def _ceil_log2(n: int) -> int:
    return max(1, math.ceil(math.log2(n)))


def clock_bound(n: int) -> int:
    """D = 2 ceil(log2 n): the clock-free variant's window gap and clock-spread bound."""
    return 2 * _ceil_log2(n)


def derive_schedule(n: int, channel: NoiseChannel, constants: ProtocolConstants | None = None) -> ScheduleParams:
    """Derive the complete two-stage schedule.

    Raises :class:`ConstantsOrderingError` when the configured constants fail
    to produce f > beta > s, and :class:`ConfigurationError` when a constant
    scales a round count past the largest float.
    """
    if constants is None:
        constants = ProtocolConstants()
    if n < 2:
        raise ConfigurationError(f"need at least 2 agents, got {n}")
    eps = channel.epsilon_bias
    inv_eps2 = 1.0 / (eps * eps)

    def rounds(name, scaled):
        if not math.isfinite(scaled):
            raise ConfigurationError(f"{name} = {getattr(constants, name):g} scales a round count "
                                     "past the largest float")
        return math.ceil(scaled)

    s = rounds("c_s", constants.c_s * inv_eps2)
    beta = rounds("c_beta", constants.c_beta * inv_eps2)
    f = rounds("c_f", constants.c_f * inv_eps2)
    if not f > beta:
        raise ConstantsOrderingError(f"need f > beta, got f={f} <= beta={beta}")
    if not beta > s:
        raise ConstantsOrderingError(f"need beta > s, got beta={beta} <= s={s}")

    log_ceil = _ceil_log2(n)
    beta_s = s * log_ceil
    beta_f = f * log_ceil

    ratio = n / (2.0 * beta_s)
    if ratio <= 1.0:
        t = 0   # degenerate small-n schedule: phase T+1 follows phase 0 directly
    else:
        t = max(0, math.floor(math.log2(ratio) / math.log2(beta + 1)))

    bounds = [(0, beta_s)]
    for i in range(1, t + 1):
        bounds.append((beta_s + (i - 1) * beta, beta))
    bounds.append((beta_s + t * beta, beta_f))

    r = rounds("r_scale", constants.r_scale * inv_eps2)
    gamma = 2 * r + 1

    log2n = math.log2(n)
    delta1 = math.sqrt(log2n / n)
    k = max(1, math.ceil(math.log2(1.0 / delta1)))

    m_final = rounds("c_final_stage2", constants.c_final_stage2 * inv_eps2 * log2n)
    while m_final % 4 != 2:
        m_final += 1    # m/2 must be odd so subset majorities cannot tie
    lengths = tuple([2 * gamma] * k + [m_final])

    return ScheduleParams(
        n=n,
        epsilon=eps,
        s=s,
        beta=beta,
        f=f,
        beta_s=beta_s,
        beta_f=beta_f,
        t_phases=t,
        phase_bounds_stage1=tuple(bounds),
        r=r,
        gamma=gamma,
        k=k,
        stage2_phase_lengths=lengths,
    )


def min_initial_set_size(n: int, epsilon: float, c_entry: float) -> int | float:
    """Smallest admissible consensus initial set, ceil(c_entry * log2(n) / eps^2);
    ``math.inf`` when eps^2 underflows."""
    try:
        return math.ceil(c_entry * math.log2(n) / (epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):
        return math.inf


def majority_entry_phase(
    a_size: int,
    n: int,
    channel: NoiseChannel,
    constants: ProtocolConstants | None = None,
) -> int:
    """Entry phase for a majority-consensus initial set of ``a_size`` agents.

    Returns floor(log2(a_size / log2 n) / (2 log2(1/eps))), clamped to
    [0, T+1] for the derived schedule.
    """
    if constants is None:
        constants = ProtocolConstants()
    eps = channel.epsilon_bias
    min_size = min_initial_set_size(n, eps, constants.c_entry)
    if a_size < min_size:
        raise InitialSetTooSmallError(
            f"initial set of {a_size} agents is below the admissible minimum {min_size}"
        )
    schedule = derive_schedule(n, channel, constants)
    i_a = math.floor(math.log2(a_size / math.log2(n)) / (2.0 * math.log2(1.0 / eps)))
    return min(max(i_a, 0), schedule.t_phases + 1)
