"""Core domain primitives: opinions, the binary symmetric channel, seeded
RNG streams, and the round-synchronous push-gossip delivery engine.

Opinions are plain ints in {0, 1}.  All randomness flows through numpy
Generators derived from a single master seed (see :class:`RngStream`), so a
run is reproducible bit-for-bit across platforms and processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """A simulation input violates a structural precondition."""


def complement(bit: int) -> int:
    """Complement of an opinion bit; an involution on {0, 1}."""
    return bit ^ 1


@dataclass(frozen=True)
class NoiseChannel:
    """Binary symmetric channel that flips each delivered bit independently.

    Parameters are redundant by design: ``flip_probability = 1/2 - epsilon_bias``.
    A channel is valid when ``0 <= flip_probability < 1/2`` (equivalently
    ``0 < epsilon_bias <= 1/2``).
    """

    flip_probability: float

    def __post_init__(self):
        if not (0.0 <= self.flip_probability < 0.5):
            raise ConfigurationError(
                f"flip_probability must lie in [0, 1/2), got {self.flip_probability}"
            )

    @property
    def epsilon_bias(self) -> float:
        return 0.5 - self.flip_probability

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "NoiseChannel":
        if not (0.0 < epsilon <= 0.5):
            raise ConfigurationError(f"epsilon must lie in (0, 1/2], got {epsilon}")
        return cls(flip_probability=0.5 - epsilon)


def _mix_id(part) -> int:
    """Map a stream-id component to a stable nonnegative integer.

    Ints pass through; strings are hashed with blake2b (stable across
    platforms and processes, unlike the builtin ``hash``).
    """
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ConfigurationError("stream id components must be nonnegative")
        return int(part)
    if isinstance(part, str):
        return int.from_bytes(hashlib.blake2b(part.encode(), digest_size=8).digest(), "big")
    raise ConfigurationError(f"unsupported stream id component: {part!r}")


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream derived from a master seed.

    The mixing function is ``SeedSequence(entropy=master_seed,
    spawn_key=stream_id)`` feeding PCG64.  Identical ``(master_seed,
    stream_id)`` pairs yield identical draw sequences everywhere, and streams
    with distinct ids are statistically independent, so adding an
    instrumentation stream never perturbs protocol draws.
    """

    master_seed: int
    stream_id: tuple = ()

    def generator(self) -> np.random.Generator:
        key = tuple(_mix_id(p) for p in self.stream_id)
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))


def derive_rng(master_seed: int, *stream_id) -> np.random.Generator:
    """Shorthand for ``RngStream(master_seed, stream_id).generator()``."""
    return RngStream(master_seed, tuple(stream_id)).generator()


def deliver_round_arrays(
    sender_ids: np.ndarray,
    payloads: np.ndarray,
    n: int,
    channel: NoiseChannel,
    rng: np.random.Generator,
):
    """Sender-identity path of one push-gossip delivery round.

    Each sender's message goes to one agent drawn uniformly among the other
    ``n - 1`` agents (self excluded).  Each receiver with at least one
    arrival accepts exactly one, chosen uniformly at random; the accepted
    payload passes through the noise channel, every other arrival is dropped.

    Returns ``(receivers, accepted, senders_of)`` with receivers in
    ascending order.  ``senders_of`` is diagnostics-only; protocol logic
    must consume payloads alone.  Consumers that read only how many
    arrivals carry each bit use :func:`deliver_round_counts`, which draws
    no arrival order.

    The uniform accept choice is realized by drawing one random arrival
    order per round (a permutation) and letting the earliest arrival win;
    relative orders of disjoint arrival groups under a uniform permutation
    are independent and uniform, so each receiver's accepted message is an
    independent uniform pick.
    """
    m = int(sender_ids.size)
    empty = np.empty(0, np.int64)
    if m == 0:
        return empty, np.empty(0, np.int8), empty
    if n < 2:
        raise ConfigurationError("delivery requires at least two agents")
    t = rng.integers(0, n - 1, size=m)
    targets = t + (t >= sender_ids)
    perm = rng.permutation(m)
    slot = np.full(n, -1, np.int64)
    # reversed scatter: the earliest arrival in permuted order wins its slot
    tp = targets[perm]
    slot[tp[::-1]] = perm[::-1]
    receivers = np.flatnonzero(slot >= 0)
    chosen = slot[receivers]
    flips = rng.random(receivers.size) < channel.flip_probability
    accepted = (payloads[chosen] ^ flips).astype(np.int8)
    return receivers, accepted, sender_ids[chosen]


def delivery_buffers(n: int):
    """Work arrays for :func:`deliver_round_counts` at ``n`` agents.  A run
    allocates them once and passes them to every round, so rounds allocate
    no per-agent arrays (fresh ones cost a page fault per touched page)."""
    return (np.empty(n, bool), np.empty(n, bool), np.empty(n, np.float64),
            np.empty(n, np.int64), np.empty(n, np.int64))


def deliver_round_counts(carriers, others, n, channel, rng, out):
    """Count-based core of one push-gossip delivery round.

    ``carriers`` send the reference bit and ``others`` its complement.  Each
    message goes to one agent drawn uniformly among the other ``n - 1``
    agents (self excluded), as in :func:`deliver_round_arrays`.  An agent
    with ``a`` arrivals, ``c`` of them carrying the reference bit, accepts
    one of them uniformly and passes it through the channel, so the bit it
    keeps equals the reference bit with probability
    ``(c (1 - p) + (a - c) p) / a``.  One float64 uniform per agent decides
    this: ``(u - p) a / (1 - 2p) < c``.  Given the targets, accepts at
    distinct agents are independent, so this is the law of the permutation
    kernel with the arrival order left undrawn.

    ``out`` is ``delivery_buffers(n)``.  Returns per-agent boolean arrays
    ``(heard, match)``, views of ``out`` that the next call overwrites:
    ``heard`` marks agents that accepted a message and ``match`` those whose
    accepted bit equals the reference bit.  Both depend on the messages only
    through who carries the reference bit, so they are invariant under
    relabeling the bits.
    """
    heard, match, u, a, c = out
    k = carriers.size
    if k + others.size and n < 2:
        raise ConfigurationError("delivery requires at least two agents")
    t = rng.integers(0, n - 1, size=k + others.size)
    t[:k] += t[:k] >= carriers
    t[k:] += t[k:] >= others
    c.fill(0)     # counted in place: np.bincount allocates a fresh array per call
    np.add.at(c, t[:k], 1)
    a.fill(0)
    np.add.at(a, t[k:], 1)
    a += c
    p = channel.flip_probability
    rng.random(out=u)
    u -= p
    u *= a
    u /= 1.0 - 2.0 * p
    np.less(u, c, out=match)
    np.greater(a, 0, out=heard)
    return heard, match
