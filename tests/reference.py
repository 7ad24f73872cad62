"""Reference implementations of the protocol's contract-level operations.

The engines realize these operations with vectorized equivalents (count-based
picks, hypergeometric subset counts, array delivery); the tests pin those
equivalents against the plain forms here.
"""

import numpy as np

from flipsim import ConfigurationError, NoiseChannel
from flipsim.model import deliver_round_arrays


class ProtocolInvariantError(RuntimeError):
    """Internal bookkeeping violated a protocol invariant."""


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
