"""Core domain primitives: opinions, the binary symmetric channel, seeded
RNG streams, and the round-synchronous push-gossip delivery kernels: one
that tracks sender identities through a block of rounds with fixed senders,
and one that delivers a span of rounds with fixed senders as per-agent
counts.

Opinions are plain ints in {0, 1}.  All randomness flows through numpy
Generators derived from a single master seed (see :func:`derive_rng`), so a
run is reproducible bit-for-bit across platforms and processes.  At
``n >= SPLIT_AGENTS`` the count kernel delivers the second half of a span
on a helper thread, from a generator seeded by one draw of the caller's;
which rounds each generator draws depends only on ``n`` and the span's
length, so results do not depend on threads, CPUs or pool workers.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from multiprocessing import parent_process

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


# A call of deliver_round_arrays finds its winners by sorting its messages
# when they number at most one in SORT_FACTOR of its (round, agent) cells,
# else by scanning one slot per cell.  On a 2-vCPU host, one round at
# n = 10^4 or 2^14 costs about the same both ways at n/8 senders; with n/64
# senders the sort is 15-25% faster, with n/4 the scan.
SORT_FACTOR = 8


def deliver_round_arrays(
    sender_ids: np.ndarray,
    payloads: np.ndarray,
    n: int,
    channel: NoiseChannel,
    rng: np.random.Generator,
    rounds: int = 1,
    slot: np.ndarray | None = None,
):
    """Sender-identity path of ``rounds`` push-gossip delivery rounds with
    one fixed set of senders.

    In each round every sender's message goes to one agent drawn uniformly
    among the other ``n - 1`` agents (self excluded).  Each receiver with at
    least one arrival in a round accepts exactly one of them, chosen
    uniformly at random; the accepted payload passes through the noise
    channel, every other arrival is dropped.

    Returns ``(cells, accepted, senders_of)`` for the accepted messages, in
    ascending order of their cell ``round * n + receiver`` (with one round
    the cells are the receivers).  ``senders_of`` is diagnostics-only;
    protocol logic must consume payloads alone.  Consumers that read only
    how many arrivals carry each bit use :func:`deliver_span_counts`, which
    draws no arrival order.

    The call draws the ``(rounds, m)`` targets at once, then one random
    order of all ``rounds * m`` messages (a permutation), and the earliest
    arrival in each cell wins.  Relative orders of disjoint arrival groups
    under a uniform permutation are independent and uniform, so each cell's
    accepted message is an independent uniform pick, and the rounds are
    independent rounds of the one-round law.  With one round the call draws
    exactly as a one-round call always has.  The winners are found by
    sorting the messages by cell and arrival when they number at most one
    in ``SORT_FACTOR`` of the cells, else by a scatter into one slot per
    cell and a scan of the slots.  ``slot`` is an int64 work array of at least
    ``rounds * n`` entries, all -1, that the scan leaves all -1 again; a
    caller that delivers many rounds passes one, so that a call costs no
    allocation of its cells.  Without it the scan allocates its slots.
    """
    m = int(sender_ids.size)
    empty = np.empty(0, np.int64)
    if m == 0:
        return empty, np.empty(0, np.int8), empty
    if n < 2:
        raise ConfigurationError("delivery requires at least two agents")
    t = rng.integers(0, n - 1, size=(rounds, m) if rounds > 1 else m)
    keys = t + (t >= sender_ids)        # targets, then cells round * n + target
    if rounds > 1:
        keys += np.arange(0, rounds * n, n)[:, None]
        keys = keys.ravel()
    size = keys.size
    perm = rng.permutation(size)
    tp = keys[perm]                     # cells in arrival order
    if SORT_FACTOR * size <= rounds * n:
        # sorted by cell, then by arrival: a cell's first entry wins
        order = tp * size + np.arange(size)
        order.sort()
        cells = order // size
        first = np.empty(size, bool)
        first[0] = True
        np.not_equal(cells[1:], cells[:-1], out=first[1:])
        cells = cells[first]
        chosen = perm[order[first] % size]
    else:
        if slot is None:
            slot = np.full(rounds * n, -1, np.int64)
        # reversed scatter: the earliest arrival in permuted order wins its slot
        slot[tp[::-1]] = perm[::-1]
        cells = np.flatnonzero(slot[:rounds * n] >= 0)
        chosen = slot[cells]
        slot[cells] = -1
    if rounds > 1:
        chosen %= m
    flips = rng.random(cells.size) < channel.flip_probability
    accepted = (payloads[chosen] ^ flips).astype(np.int8)
    return cells, accepted, sender_ids[chosen]


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


# A kernel call whose rounds have at least SPLIT_AGENTS agents delivers the
# second half of a span of two or more rounds on a helper thread.  On a
# 2-vCPU host, one broadcast at eps 0.25 (medians of alternated runs) took
# 10% longer split at n = 2^14, 26% less at 2^15 and 36% less at 2^16.
SPLIT_AGENTS = 2 ** 15


def delivery_buffers(n: int):
    """Work arrays for :func:`deliver_span_counts` at ``n`` agents, as a
    tuple of buffer sets.  A set holds the per-agent int32 ``heard`` and
    float64 ``match`` arrays and the cell buffers of one block; at
    ``n >= SPLIT_AGENTS`` a second set holds the half of a span that the
    helper thread delivers (about 2 MB more at n = 2^16).  A run allocates
    them once and passes them to every call, so calls allocate no per-agent
    arrays (fresh ones cost a page fault per touched page).  The arrival
    counts stay zero between calls."""
    cells = _block_rounds(n) * n
    return tuple((np.empty(n, np.int32), np.empty(n, np.float64),
                  np.zeros(cells, np.float64), np.zeros(cells, np.float64),
                  np.empty(cells, np.float64), np.empty(cells, bool))
                 for _ in range(2 if n >= SPLIT_AGENTS else 1))


def _halves(n: int, rounds: int) -> tuple:
    """The round counts that :func:`deliver_span_counts` delivers from the
    caller's generator and, if the span splits, from the second one."""
    if n >= SPLIT_AGENTS and rounds >= 2:
        return rounds // 2, rounds - rounds // 2
    return (rounds,)


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

    At ``n >= SPLIT_AGENTS`` a span of two or more rounds is split: the
    call takes one draw of ``rng`` to seed a second generator, delivers the
    first ``rounds // 2`` rounds from ``rng`` into the first buffer set of
    ``out`` and the rest from the second generator into the second set, and
    adds the second set's counts to the first's.  The rounds are
    independent given the senders, so the split has the same law.  The
    second half runs on a helper thread that the call starts and joins, or,
    in a pool worker (``multiprocessing.parent_process()`` is set), on the
    calling thread after the first, so as not to compete with the other
    workers; either way the values depend only on ``(n, rounds)``, the
    senders and ``rng``.  ``FLIPSIM_THREADS`` still counts pool workers
    only.

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
    senders = np.concatenate((carriers, others))
    if senders.size and n < 2:
        raise ConfigurationError("delivery requires at least two agents")
    k = carriers.size
    p = channel.flip_probability
    halves = _halves(n, rounds)
    heard, match = out[0][:2]
    if len(halves) == 2:
        helper = _split_rng(rng)
        _run_halves(lambda: _deliver_rounds(k, senders, halves[0], n, p, rng, out[0], expected),
                    lambda: _deliver_rounds(k, senders, halves[1], n, p, helper, out[1], expected))
        heard += out[1][0]
        match += out[1][1]
    else:
        _deliver_rounds(k, senders, rounds, n, p, rng, out[0], expected)
    if expected:
        match *= 1.0 - 2.0 * p      # sum of q = p heard + (1 - 2p) sum of c / a
        match += p * heard
    return heard, match


def _split_rng(rng):
    """The generator of a split span's second half, seeded by one draw of
    ``rng``."""
    return np.random.Generator(np.random.PCG64(int(rng.integers(1 << 63))))


def _run_halves(first, second):
    """Run ``first()`` here and ``second()`` on a helper thread that is
    joined before this returns or raises; in a pool worker, whose siblings
    keep the other CPUs busy, run both here, in that order.  On a 2-vCPU
    host a harness batch of broadcasts over two workers (medians of 10
    alternated pairs) took 11% (n = 2^15) and 9% (2^16) longer with threads
    at 4 runs, where both workers stay busy, and 5% and 15% less at 3 runs,
    where the last run leaves a CPU idle."""
    if parent_process() is not None:
        first()
        second()
        return
    failed = []

    def helper():
        try:
            second()
        except BaseException as exc:    # re-raised on the calling thread
            failed.append(exc)

    thread = threading.Thread(target=helper, name="flipsim-span-half")
    thread.start()
    try:
        first()
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _deliver_rounds(k, senders, rounds, n, p, rng, out, expected):
    """:func:`deliver_span_counts` of ``rounds`` rounds into one buffer set
    ``out``, drawn from ``rng`` alone, with ``match`` in expected mode left
    as the sum of ``c / a`` over the heard cells."""
    heard, match, ref_cells, other_cells, u, hit = out
    m = senders.size
    heard.fill(0)
    match.fill(0)
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
