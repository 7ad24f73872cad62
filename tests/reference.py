"""Reference implementations of the protocol's contract-level operations.

The engines realize these operations with vectorized equivalents (count-based
picks, hypergeometric subset counts, array delivery); the tests pin those
equivalents against the plain forms here.  The two kernel stand-ins at the
end are installed by tests in place of ``flipsim.protocols.deliver_round_counts``
(and the recorder also in place of ``flipsim.protocols.unanimous_phase``).
"""

import hashlib

import numpy as np

from flipsim import ConfigurationError, NoiseChannel
from flipsim.model import deliver_round_arrays, deliver_round_counts
from flipsim.protocols import unanimous_phase


class ProtocolInvariantError(RuntimeError):
    """Internal bookkeeping violated a protocol invariant."""


def flip(bit, channel: NoiseChannel, rng: np.random.Generator):
    """Pass an opinion (or an array of opinions) through the channel.

    Returns the complement with probability ``channel.flip_probability``,
    consuming exactly one uniform draw per element.
    """
    if isinstance(bit, np.ndarray):
        u = rng.random(bit.shape)
        return (bit ^ (u < channel.flip_probability)).astype(bit.dtype)
    u = rng.random()
    return int(bit) ^ int(u < channel.flip_probability)


def deliver_round(senders, n: int, channel: NoiseChannel, rng: np.random.Generator) -> dict:
    """Deliver one round of push gossip for a set of ``(agent, opinion)`` pairs.

    Protocol-facing form: the returned map contains only receivers that
    accepted a message, mapping receiver index to the accepted opinion.
    Sender identities are not exposed (anonymity).
    """
    pairs = sorted(senders)
    ids = np.asarray([p[0] for p in pairs], dtype=np.int64)
    if ids.size:
        if ids.min() < 0 or ids.max() >= n:
            raise ConfigurationError("sender index out of range")
        if np.unique(ids).size != ids.size:
            raise ConfigurationError("duplicate sender index")
    pay = np.asarray([p[1] for p in pairs], dtype=np.int8)
    receivers, accepted, _ = deliver_round_arrays(ids, pay, n, channel, rng)
    return {int(r): int(v) for r, v in zip(receivers, accepted)}


def select_initial_opinion(inbox, rng: np.random.Generator) -> int:
    """Uniform choice among the messages of an agent's activation phase.

    The result's distribution depends only on the multiset of inbox values,
    never on arrival order.
    """
    if len(inbox) == 0:
        raise ProtocolInvariantError("activation bookkeeping violated: empty inbox")
    return int(inbox[int(rng.integers(0, len(inbox)))])


def majority_update(samples, subset_size: int, rng: np.random.Generator) -> int:
    """Majority opinion of a uniformly random subset of exactly
    ``subset_size`` samples.  ``subset_size`` must be odd (no ties)."""
    if subset_size % 2 == 0 or subset_size < 1:
        raise ConfigurationError(f"subset size must be odd and positive, got {subset_size}")
    if len(samples) < subset_size:
        raise ProtocolInvariantError(
            f"{len(samples)} samples cannot fill a subset of {subset_size}; "
            "callers must gate on successfulness"
        )
    samples = np.asarray(samples)
    idx = rng.choice(len(samples), size=subset_size, replace=False)
    ones = int(samples[idx].sum())
    return 1 if 2 * ones > subset_size else 0


def replay_targets(senders, n, rng):
    """The targets the next delivery call on ``rng`` will draw for
    ``senders`` (in the kernel's order), read from a clone of ``rng``."""
    clone = np.random.Generator(np.random.PCG64())
    clone.bit_generator.state = rng.bit_generator.state
    t = clone.integers(0, n - 1, size=senders.size)
    return t + (t >= senders)


def permutation_counts(carriers, others, n, channel, rng, out):
    """:func:`~flipsim.model.deliver_round_counts` realized by the
    permutation kernel: the reference bit travels as payload 1, and
    ``heard``/``match`` are filled from the receivers and their accepted
    payloads."""
    heard, match = out[:2]
    senders = np.concatenate((carriers, others))
    payloads = (np.arange(senders.size) < carriers.size).astype(np.int8)
    receivers, accepted, _ = deliver_round_arrays(senders, payloads, n, channel, rng)
    heard.fill(False)
    heard[receivers] = True
    match.fill(False)
    match[receivers[accepted == 1]] = True
    return heard, match


class KernelRecorder:
    """Count kernel that feeds every round's carriers, other senders,
    ``heard`` and ``match`` into one sha256, and counts the messages sent.
    Its :meth:`phase` does the same for the unanimous-phase shortcut: the
    phase length, the failed and the turned-wrong agents of every phase it
    draws, and that phase's messages."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.messages = 0
        self.shortcuts = 0      # phases drawn by the shortcut

    def __call__(self, carriers, others, n, channel, rng, out):
        heard, match = deliver_round_counts(carriers, others, n, channel, rng, out)
        self.sha.update(np.array([carriers.size, others.size], np.int64).tobytes())
        for arr in (carriers, others, heard, match):
            self.sha.update(arr.tobytes())
        self.messages += carriers.size + others.size
        return heard, match

    def phase(self, n, m, channel, rng, out):
        drawn = unanimous_phase(n, m, channel, rng, out)
        if drawn is not None:
            failed, wrong = drawn
            self.sha.update(np.array([m, failed.size, wrong.size], np.int64).tobytes())
            self.sha.update(failed.tobytes())
            self.sha.update(wrong.tobytes())
            self.messages += n * m
            self.shortcuts += 1
        return drawn

    def digest(self) -> str:
        return self.sha.hexdigest()


def run_recorded(monkeypatch, engine, *args, **kwargs):
    """Run ``engine(*args, **kwargs)`` with a fresh :class:`KernelRecorder`
    as the engine's count kernel and unanimous-phase shortcut; returns
    ``(outcome, recorder)``."""
    recorder = KernelRecorder()
    with monkeypatch.context() as m:
        m.setattr("flipsim.protocols.deliver_round_counts", recorder)
        m.setattr("flipsim.protocols.unanimous_phase", recorder.phase)
        return engine(*args, **kwargs), recorder
