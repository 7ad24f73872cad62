"""Core domain primitives: opinions, the binary symmetric channel, seeded
RNG streams, and the round-synchronous push-gossip delivery kernels: one
that tracks sender identities round by round, and one that delivers a span
of rounds with fixed senders as per-agent counts.

Opinions are plain ints in {0, 1}.  All randomness flows through numpy
Generators derived from a single master seed (see :func:`derive_rng`), so a
run is reproducible bit-for-bit across platforms and processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """A simulation input violates a structural precondition."""


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


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
        if not (0.0 < epsilon <= 0.5 and 0.5 - epsilon < 0.5):    # below 2^-55 it rounds to 1/2
            raise ConfigurationError(f"epsilon must lie in (2^-55, 1/2], got {epsilon}")
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


def derive_rng(master_seed: int, *stream_id) -> np.random.Generator:
    """A named, reproducible random stream derived from a master seed.

    The mixing function is ``SeedSequence(entropy=master_seed,
    spawn_key=stream_id)`` feeding PCG64.  Identical ``(master_seed,
    stream_id)`` pairs yield identical draw sequences everywhere, and streams
    with distinct ids are statistically independent, so adding an
    instrumentation stream never perturbs protocol draws.
    """
    key = tuple(_mix_id(p) for p in stream_id)
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


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
    arrivals carry each bit use :func:`deliver_span_counts`, which draws
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


# A kernel call delivers its rounds in blocks of BLOCK_CELLS // n rounds, so
# that a block's per-call overhead is shared while its (round, agent) cells
# stay in cache; below 8 rounds (n >= 2^14) a block is one round.  On a
# 2-vCPU host, dense rounds at n = 4096 with 600 senders cost 72 us one at a
# time and 45 us in blocks of 16.  At n = 2^14 and 2^15, rounds in which
# every agent sends, or one in six, cost 5-35% less one at a time than in
# blocks of 4 or 2, in both modes of the kernel.
BLOCK_CELLS = 2 ** 16
# A block takes the sparse step, which touches only the heard cells, when at
# most one agent in SPARSE_FACTOR sends.  Fancy indexing costs several times
# a contiguous pass per element, and on the same host the two steps break
# even at about n/6.5 senders for n from 2^10 to 2^16; at n/8 the sparse step
# is 15-27% faster.
SPARSE_FACTOR = 8


def _block_rounds(n: int) -> int:
    """Rounds per block of :func:`deliver_span_counts` at ``n`` agents."""
    block = BLOCK_CELLS // n
    return block if block >= 8 else 1


def delivery_buffers(n: int):
    """Work arrays for :func:`deliver_span_counts` at ``n`` agents: the
    per-agent int32 ``heard`` and float64 ``match`` arrays and the cell
    buffers of one block.  A run allocates them once and passes them to
    every call, so calls allocate no per-agent arrays (fresh ones cost a
    page fault per touched page).  The arrival counts stay zero between
    calls."""
    cells = _block_rounds(n) * n
    return (np.empty(n, np.int32), np.empty(n, np.float64),
            np.zeros(cells, np.float64), np.zeros(cells, np.float64),
            np.empty(cells, np.float64), np.empty(cells, bool))


def _add_rows(total, cells, b, n):
    """``total += `` the ``b`` rows of ``n`` agents in ``cells``, summed;
    boolean cells are summed as int32, several times faster than float64."""
    if b > 1:
        cells = np.add.reduce(cells.reshape(b, n), axis=0,
                              dtype=np.int32 if cells.dtype == bool else cells.dtype)
    np.add(total, cells, out=total)


def deliver_span_counts(carriers, others, rounds, n, channel, rng, out, expected=False):
    """Count-based core of ``rounds`` independent push-gossip delivery
    rounds with one fixed set of senders.

    ``carriers`` send the reference bit and ``others`` its complement, every
    round.  Each message goes to one agent drawn uniformly among the other
    ``n - 1`` agents (self excluded), as in :func:`deliver_round_arrays`.  An
    agent with ``a`` arrivals in a round, ``c`` of them carrying the
    reference bit, accepts one of them uniformly and passes it through the
    channel, so the bit it keeps equals the reference bit with probability
    ``q = p + (1 - 2p) c / a``.  Given the targets, accepts at distinct
    cells are independent, so drawing one Bernoulli(q) per heard
    (round, agent) cell, as a float64 uniform tested by
    ``(u - p) a / (1 - 2p) < c``, is the law of ``rounds`` rounds of the
    permutation kernel with the arrival order left undrawn.

    With ``expected`` true nothing is drawn after the targets: ``match``
    holds each agent's sum of ``q`` over its heard cells, a deterministic
    function of the targets, instead of a drawn count.  A caller that reads
    ``match`` only through one Bernoulli draw of ``match / heard`` (a
    uniform pick among the accepted messages, made later) sees the same law
    either way, since given the targets the drawn count has mean ``sum q``.

    Rounds go in blocks of ``BLOCK_CELLS // n`` (one round for n >= 2^14).
    A block draws its targets at once and counts ``a`` and ``c`` per cell.
    The dense step then tests every cell; the sparse step, taken when at most
    one agent in ``SPARSE_FACTOR`` sends, keeps one message per heard cell
    (which one does not matter: ``a`` and ``c`` are read from the counts) and
    tests those cells alone.  Both steps have the same law in either mode.

    ``out`` is ``delivery_buffers(n)``.  Returns per-agent arrays
    ``(heard, match)``, views of ``out`` that the next call overwrites:
    int32 ``heard`` counts the rounds in which an agent accepted a message,
    and float64 ``match`` those in which the accepted bit equals the
    reference bit (integer-valued), or with ``expected`` their expected
    number given the targets.  The draws depend on the messages only through
    who carries the reference bit, so both are invariant under relabeling
    the bits.
    """
    heard, match, ref_cells, other_cells, u, hit = out
    k = carriers.size
    senders = np.concatenate((carriers, others))
    m = senders.size
    if m and n < 2:
        raise ConfigurationError("delivery requires at least two agents")
    heard.fill(0)
    match.fill(0)
    p = channel.flip_probability
    spread = 1.0 - 2.0 * p
    block = _block_rounds(n)
    sparse = SPARSE_FACTOR * m <= n
    for first in range(0, rounds, block):
        b = min(block, rounds - first)
        targets = rng.integers(0, n - 1, size=(m, b))    # a row per sender, carriers first
        targets += targets >= senders[:, None]
        keys = targets      # cell keys: round * n + target
        if b > 1:           # in place unless the sparse step reads the targets
            keys = np.add(targets, np.arange(0, b * n, n), out=None if sparse else targets)
        c = ref_cells[:b * n]       # arrivals carrying the reference bit
        a = other_cells[:b * n]     # the other arrivals, until c is added
        np.add.at(c, keys[:k], 1.0)
        np.add.at(a, keys[k:], 1.0)
        if sparse:
            flat = keys.ravel()
            order = np.arange(flat.size)
            # whichever message of a cell is written last, exactly one
            # message per heard cell reads its own index back; the dense
            # step's uniforms lend their buffer to the slots
            slot = u.view(np.int64)
            slot[flat] = order
            kept = slot[flat] == order
            cells = flat[kept]
            cc = c[cells]
            ac = a[cells] + cc
            a[cells] = 0.0
            c[cells] = 0.0
            agents = targets.ravel()[kept]
            np.add.at(heard, agents, np.int32(1))
            if expected:
                np.add.at(match, agents, cc / ac)
            else:
                uu = rng.random(cells.size)
                uu -= p
                uu *= ac
                uu /= spread
                np.add.at(match, agents[uu < cc], 1.0)
        else:
            a += c
            h = hit[:b * n]
            np.greater(a, 0.0, out=h)
            _add_rows(heard, h, b, n)
            if expected:
                np.maximum(a, 1.0, out=a)
                np.divide(c, a, out=c)
                _add_rows(match, c, b, n)
            else:
                uu = u[:b * n]
                rng.random(out=uu)
                uu -= p
                uu *= a
                uu /= spread
                np.less(uu, c, out=h)
                _add_rows(match, h, b, n)
            a.fill(0.0)
            c.fill(0.0)
        del targets, keys   # before the next block draws its own
    if expected:
        match *= spread     # sum of q = p heard + (1 - 2p) sum of c / a
        match += p * heard
    return heard, match
