"""Reference implementations of the protocol's contract-level operations.

The engines realize these operations with vectorized equivalents (count-based
picks, hypergeometric subset counts, array delivery); the tests pin those
equivalents against the plain forms here.  The two kernel stand-ins at the
end are installed by tests in place of ``flipsim.protocols.deliver_span_counts``
(and the recorder also in place of ``flipsim.protocols.stage2_draw``),
:func:`phase_draw` calls that drawn stage-2 path for one window under one
clock, and :func:`clean_horizon` writes out the round up to which it draws.

The lemma references state the paper's side claims that the package does not
ship: the two-step process (fair coin, then corrective flip) with its exact
correct-count law and a sampler (:func:`two_step_correct_prob`,
:func:`two_step_correct_count_pmf`, :func:`simulate_two_step_counts`), the
corrective-flip bounds (:func:`flip_count_bound_check`), and the exact scalar
Stirling claim over every i (:func:`stirling_claim_check`), which
``flipsim.oracle.stirling_claim_grid`` checks at the binding i only.
:func:`binom_sums` sums the binomial mass directly, the reference for the
package's incomplete-beta tails.  :func:`save_spec` writes the spec files that
``flipsim.harness.load_spec`` reads.

Two plain forms pin the clock-free variant: :func:`window_codes` writes out
the window code of every local round, which the engine keeps only as window
edges, and :func:`push_spread` samples the push rumor spreading whose
completion time is the preamble's clock spread.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from flipsim import ConfigurationError, NoiseChannel, model
from flipsim.model import deliver_round_arrays, deliver_span_counts
from flipsim.oracle import binomial_tail_geq
from flipsim.protocols import stage2_draw


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


def two_step_correct_prob(b: float) -> float:
    """Per-player correct probability after the fair-coin-then-corrective-flip
    process: 1 - (1 - 2b)/2 = 1/2 + b."""
    return 0.5 + b


def two_step_correct_count_pmf(gamma: int, b: float) -> np.ndarray:
    """Exact law of the post-process correct-count: Binomial(gamma, 1/2+b)."""
    q = 0.5 + b
    return np.array([math.comb(gamma, j) * q ** j * (1.0 - q) ** (gamma - j) for j in range(gamma + 1)])


def simulate_two_step_counts(gamma: int, b: float, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Sample the two-step process ``trials`` times; returns correct-counts.

    Step one gives each of the gamma players a fair-coin opinion; step two
    flips each wrong player to correct independently with probability 2b.
    The player coins are exchangeable, so the wrong-count after step one and
    the flip-count after step two are the sufficient statistics sampled here.
    """
    wrong = rng.binomial(gamma, 0.5, size=trials)
    flips = rng.binomial(wrong, 2.0 * b)
    return gamma - wrong + flips


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
    rb = r * b
    if rb <= 2.0:
        value = (r + 1) * 2.0 * b * (1.0 - 2.0 * b) ** r
        return FlipCountCheck(value, value >= rb / math.e ** 4, None, None)
    x = math.ceil(rb)
    prob = binomial_tail_geq(r + x, x, 2.0 * b)
    return FlipCountCheck(None, None, prob, prob >= 1.0 / 3.0)


def binom_sums(n: int, q: float, k: int):
    """Normalized pmf sums (below k, at-or-above k) for Binomial(n, q), 0 < q < 1.

    The pmf, scaled to 1 at the mode, is built by a product recurrence from
    the mode, which sidesteps log-gamma cancellation entirely; accuracy is
    ~1e-13 relative.
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


def stirling_claim_check(r: int) -> bool:
    """Whether P(r+i) = C(2r+1, r+i) / 2^(2r+1) > 1/(10*sqrt(r)) for every
    1 <= i <= floor(sqrt(r)), decided exactly in integers as
    100 r C(2r+1, r+i)^2 > 4^(2r+1)."""
    bound = 4 ** (2 * r + 1)
    c = math.comb(2 * r + 1, r)
    for i in range(1, math.isqrt(r) + 1):
        c = c * (r + 2 - i) // (r + i)      # C(2r+1, r+i), exactly
        if 100 * r * c * c <= bound:
            return False
    return True


def save_spec(spec, path) -> None:
    """Write a validated :class:`~flipsim.harness.ExperimentSpec` as JSON."""
    spec.validate()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def window_codes(schedule, d):
    """The window code of every local round of the clock-free layout, built
    straight from the schedule: stage-1 phase i in local rounds
    [r_i + i d, r_i + i d + x_i), then one more d-gap and the stage-2 phases
    back to back.  Codes 0..T+1 mark stage 1, T+1+j stage-2 phase j, and -1
    a gap."""
    t = schedule.t_phases
    st2 = schedule.stage1_rounds + (t + 2) * d
    code = np.full(st2 + schedule.stage2_rounds, -1, np.int64)
    for i, (start, length) in enumerate(schedule.phase_bounds_stage1):
        code[start + i * d:start + i * d + length] = i
    off = st2
    for j, m in enumerate(schedule.stage2_phase_lengths, start=1):
        code[off:off + m] = t + 1 + j
        off += m
    return code


def push_spread(n, rounds, rng):
    """The round in which push rumor spreading informs its last agent.  The
    source sends from round 0; an agent informed in round r sends from round
    r + 1; each agent sends in ``rounds`` consecutive rounds, each time to a
    uniform other agent.  If the senders run out first, the last round that
    informed anyone."""
    first = np.full(n, -1, np.int64)    # first sending round; -1 while uninformed
    first[0] = 0
    r = last = 0
    informed = 1
    while informed < n:
        senders = np.flatnonzero((first >= 0) & (first <= r) & (r < first + rounds))
        if senders.size == 0:
            break
        t = rng.integers(0, n - 1, senders.size)
        t += t >= senders
        fresh = np.unique(t[first[t] < 0])
        if fresh.size:
            first[fresh] = r + 1
            informed += fresh.size
            last = r
        r += 1
    return last


def clone(rng):
    """A generator in ``rng``'s current state that draws independently of it."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def replay_targets(senders, n, rng, rounds=None):
    """The targets the next delivery call will draw for ``senders`` (in the
    kernel's order), drawn from ``rng``, a :func:`clone` of the call's
    generator: one per sender, or with ``rounds`` the (rounds, senders)
    targets of :func:`~flipsim.model.deliver_span_counts`, which draws them
    block by block, sender by sender.  A span that the kernel splits (see
    ``model._halves``) takes one draw for the second half's generator, then
    draws the first half's rounds from the call's generator and the rest
    from that one.  Past the first block of a
    half these are the call's targets only if it draws nothing else, as with
    ``expected``."""
    if rounds is None:
        t = rng.integers(0, n - 1, size=senders.size)
        return t + (t >= senders)
    spans = model._halves(n, rounds)
    gens = (rng, model._split_rng(rng)) if len(spans) == 2 else (rng,)
    block = model._block_rounds(n)
    rows = []
    for gen, span in zip(gens, spans):
        for first in range(0, span, block):
            t = gen.integers(0, n - 1, size=(senders.size, min(block, span - first)))
            rows.append((t + (t >= senders[:, None])).T)
    return np.concatenate(rows)


def permutation_counts(carriers, others, rounds, n, channel, rng, out, expected=False):
    """:func:`~flipsim.model.deliver_span_counts` realized by ``rounds``
    rounds of the permutation kernel: the reference bit travels as payload
    1, and ``heard``/``match`` sum the receivers and the receivers of an
    accepted payload 1 over the rounds.  ``match`` is a drawn count also
    with ``expected``, whose sum of q is that count's mean given the
    targets."""
    heard, match = out[0][:2]
    senders = np.concatenate((carriers, others))
    payloads = (np.arange(senders.size) < carriers.size).astype(np.int8)
    heard.fill(0)
    match.fill(0)
    for _ in range(rounds):
        receivers, accepted, _ = deliver_round_arrays(senders, payloads, n, channel, rng)
        heard[receivers] += 1
        match[receivers[accepted == 1]] += 1
    return heard, match


def clean_horizon(t, opens, lengths):
    """The first round after t at which every clock group that still sends
    closes a window, so that every counter is zero there: group g closes
    its stage-2 window j in round ``opens[g] + sum(lengths[:j+1])`` and
    sends until its last close."""
    ends = [[int(o) + sum(lengths[:j + 1]) for j in range(len(lengths))] for o in opens]
    for e in sorted({e for row in ends for e in row if e > t}):
        if all(e in row for row in ends if row[-1] >= e):
            return e


class KernelRecorder:
    """Count kernel that feeds every call's carriers, other senders, round
    count, mode, ``heard`` and ``match`` into one sha256, and counts the
    messages sent.
    Its :meth:`draw` does the same for every drawn stage-2 path: the rounds
    it covers, the agents wrong at its start, the agents that fail in it and
    the agents wrong after it, with more than one close each close's phase,
    group and failure count, and the counters it hands back when it stops
    before its :func:`clean_horizon`; it counts the messages of the rounds
    it covers."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.messages = 0
        self.shortcuts = 0      # phases and tails drawn instead of simulated

    def __call__(self, carriers, others, rounds, n, channel, rng, out, expected=False):
        heard, match = deliver_span_counts(carriers, others, rounds, n, channel, rng, out, expected)
        self.sha.update(np.array([carriers.size, others.size, rounds, expected], np.int64).tobytes())
        for arr in (carriers, others, heard, match):
            self.sha.update(arr.tobytes())
        self.messages += rounds * (carriers.size + others.size)
        return heard, match

    def draw(self, t, opens, lengths, gid, cnt, corr, wrong, channel, rng):
        drawn = stage2_draw(t, opens, lengths, gid, cnt, corr, wrong, channel, rng)
        if drawn is not None:
            end, closes, held, good = drawn
            failed = np.concatenate([c[2] for c in closes])
            wrong_after = np.union1d(failed[wrong[failed]], np.concatenate([c[3] for c in closes]))
            self.sha.update(np.array([end - t, failed.size, wrong_after.size], np.int64).tobytes())
            for arr in (wrong, failed, wrong_after):
                self.sha.update(arr.tobytes())
            if len(closes) > 1:
                self.sha.update(np.array([(j, g, f.size) for j, g, f, _ in closes], np.int64).tobytes())
            if end < clean_horizon(t, opens, lengths):
                self.sha.update(np.asarray(held, np.int64).tobytes() + np.asarray(good, np.int64).tobytes())
            # every agent sends until its group's last window closes
            self.messages += int((np.clip(opens[gid] + sum(lengths), t, end) - t).sum())
            self.shortcuts += 1
        return drawn

    def digest(self) -> str:
        return self.sha.hexdigest()


def run_recorded(monkeypatch, engine, *args, **kwargs):
    """Run ``engine(*args, **kwargs)`` with a fresh :class:`KernelRecorder`
    as the engine's count kernel and drawn stage-2 path; returns
    ``(outcome, recorder)``."""
    recorder = KernelRecorder()
    with monkeypatch.context() as m:
        m.setattr("flipsim.protocols.deliver_span_counts", recorder)
        m.setattr("flipsim.protocols.stage2_draw", recorder.draw)
        return engine(*args, **kwargs), recorder


def phase_draw(n, m, wrong, channel, rng, t=0):
    """:func:`~flipsim.protocols.stage2_draw` for one clock group whose
    m-round stage-2 window opens in round t with every counter at zero,
    ``wrong`` marking the agents wrong then: None when it refuses, else
    ``(failed, wrong_after)``, the agents that fail and keep their
    opinions, and the agents wrong after the window."""
    drawn = stage2_draw(t, np.array([t], np.int64), (m,), np.zeros(n, np.intp),
                        np.zeros(n, np.int32), np.zeros(n), wrong, channel, rng)
    if drawn is None:
        return None
    end, ((_, _, failed, turned),), _, _ = drawn
    assert end == t + m
    return failed, np.union1d(failed[wrong[failed]], turned)
