"""Protocol state machines: two-stage noisy broadcast, majority consensus,
the clock-free (desynchronized) variant, and the two failing baselines.

One windowed engine runs stage 1 and stage 2 of all three two-stage
protocols.  The schedule is a row of phase windows on a local clock, and
every agent belongs to a clock group whose local clock reads ``t - shift``
at global round ``t``.  Broadcast is one group with shift 0 and no gap
between windows; majority consensus is one group that enters the schedule
at ``r_entry``, the first round of its entry phase, so the earlier windows
are skipped; the clock-free variant is many groups, one per clock offset,
with a gap of D rounds between windows.

Engines are array-based for speed.  An agent's state is its entry of an
int8 opinion vector (-1 until it holds one) and its clock group; it sends
exactly when it holds an opinion and is inside one of its windows.  An
agent only ever uses how many of the messages it accepted carry each
opinion, so the engine also keeps two counters per agent, accepted
messages and correct ones among them.  Five equivalences keep the hot path
fast without changing any distribution:

* the uniform accept among a round's arrivals is drawn from the arrival
  counts (:func:`~flipsim.model.deliver_span_counts`): an agent with ``a``
  arrivals, ``c`` of them correct, keeps a correct bit with probability
  ``(c (1 - p) + (a - c) p) / a``, and no arrival order is drawn.  While
  no clock group's window opens or closes the senders, payloads and
  listeners are fixed, so the rounds of such a span are independent and
  one kernel call delivers them all;
* an agent's uniform choice among the messages of its activation phase is
  drawn at the phase close from its counters: correct with probability
  ``correct / accepted``.  Only that draw reads the stage-1 correct
  counter, so a span in which no clock group is inside a stage-2 window
  adds each agent's expected correct accepts given the targets, the sum of
  ``(c (1 - p) + (a - c) p) / a`` over its heard rounds, and draws no
  accept (``expected`` in the kernel); spans with a stage-2 listener draw
  integer counts, which the subset majority below needs;
* the majority of a uniformly random fixed-size subset of samples is
  realized by drawing the subset's correct-sample count from the matching
  hypergeometric law;
* when every agent shares one clock (broadcast, consensus, desync with
  identical clocks), a stage-2 phase that opens with every agent holding an
  opinion is drawn from its exact law instead of simulated
  (:func:`stage2_phase`): opinions are frozen within the phase and every
  agent sends, so an agent's accepted samples are independent, each correct
  with a probability set by the share of wrong agents among the others.
  The events "fails or ends on a wrong majority" come from the
  Karp-Luby-Madras union sampler, which simulates the phase's rounds only
  with probability pi, the union bound of those events; without any event
  every agent succeeds and ends correct.  When pi >= 1 the rounds are
  simulated;
* under staggered clocks (desync with supplied offsets or the preamble),
  once every agent holds the correct opinion and every clock group is in
  stage 2, or past it, in a window that opened after the last opinion
  change, the rest of the run is drawn (:func:`stage2_tail`): every sample
  is then correct with probability 1-p whatever the occupancy, so each
  remaining close's subset majority is a coin, drawn first.  With no wrong
  coin no opinion changes again, and the remaining failures come from the
  Karp-Luby-Madras sampler over the events "ends a window short of
  samples", which simulates the rounds' heard counts only with probability
  pi, their union bound; with a wrong coin the rounds are simulated up to
  its close.  When pi >= 1 the rounds are simulated.

The permutation kernel (:func:`~flipsim.model.deliver_round_arrays`) runs
only in the two baselines.  Every draw of the windowed engine consumes
randomness in a pattern that depends on opinions only through "equals the
correct opinion", so a run is invariant under relabeling the opinions
0 <-> 1.  Tests that watch or replace the engine's draws patch its
bindings ``flipsim.protocols.deliver_span_counts``, through which every
simulated round passes, ``flipsim.protocols.stage2_phase`` and
``flipsim.protocols.stage2_tail``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy.special import gammaln

from . import model
from .model import (
    ConfigurationError,
    _block_rounds,
    _is_int,
    complement,
    deliver_round_arrays,
    deliver_span_counts,
    delivery_buffers,
    derive_rng,
)
from .oracle import binomial_tail_geq, majority_wrong_prob
from .params import ScheduleParams, SimConfig, _ceil_log2, clock_bound, derive_schedule, majority_entry_phase

# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class PhaseMetrics:
    """Stage-1 observables for one phase: cumulative activated (x), newly
    activated (y), initially-correct among them (z), and the phase bias
    epsilon = z/y - 1/2 (None when y = 0)."""

    phase: int
    x: int
    y: int
    z: int
    epsilon: float | None


@dataclass(frozen=True)
class Stage1Result:
    per_phase: tuple
    all_activated: bool
    rounds_used: int


@dataclass(frozen=True)
class Stage2PhaseRecord:
    phase_index: int
    successful_count: int            # summed over the clock groups' closes
    correct_fraction: float          # measured after the phase (the last group's close)
    start_correct_fraction: float    # measured before the phase (before the first group's close)


@dataclass(frozen=True)
class DepthStat:
    depth: int
    agents: int
    correct: int


@dataclass(frozen=True)
class DesyncInfo:
    d_bound: int
    offset_spread: int               # widest clock gap actually realized
    preamble_rounds: int             # 0 when clocks were supplied
    local_total: int
    stalled: bool


@dataclass(frozen=True)
class Outcome:
    final_opinions: np.ndarray
    correct_fraction: float
    rounds_used: int
    messages_sent: int
    stage1: Stage1Result | None
    stage2: tuple
    initial_majority_bias: float | None = None
    depth_table: tuple | None = None
    first_threshold_round: int | None = None
    desync: DesyncInfo | None = None


@dataclass(frozen=True)
class ClockConfiguration:
    """Initial clock values for the desynchronized variant: one integer offset
    per agent, each in [0, d_bound), kept as a read-only int64 array."""

    offsets: np.ndarray
    d_bound: int

    def __post_init__(self):
        off = np.asarray(self.offsets)
        if off.dtype.kind not in "iu" or not _is_int(self.d_bound) or self.d_bound < 1:
            raise ConfigurationError("clock offsets must be integers and d_bound an integer >= 1")
        if off.size and (off.min() < 0 or off.max() >= self.d_bound):
            raise ConfigurationError("every clock offset must lie in [0, d_bound)")
        object.__setattr__(self, "offsets", off.astype(np.int64))
        self.offsets.flags.writeable = False


def _correct_fraction(opinion, correct) -> float:
    return float((opinion == correct).mean())


def _source_opinions(config: SimConfig) -> np.ndarray:
    """Opinions at the start of a broadcast: only the source, agent 0, holds
    one, the correct opinion; -1 marks an agent without an opinion."""
    opinion = np.full(config.n, -1, np.int8)
    opinion[0] = config.correct_opinion
    return opinion


# ---------------------------------------------------------------------------
# the windowed engine


def _stage1_pick(cnt, corr, gen):
    """Whether each activating agent's uniform pick among the ``cnt``
    messages it accepted in its window, ``corr`` of them correct, is a
    correct one: true with probability ``corr / cnt``."""
    return gen.random(cnt.size) * cnt < corr


def _stage2_apply(opinion, correct, successful, cnt, corr, subset, gen):
    """Subset-majority update for all successful agents of one phase.

    The number of correct samples inside a uniform subset of ``subset``
    samples is hypergeometric; drawing it directly is distributionally
    identical to materializing the subset.
    """
    if successful.size == 0:
        return
    good = corr[successful].astype(np.int64)
    bad = cnt[successful].astype(np.int64) - good
    h = gen.hypergeometric(good, bad, subset)
    opinion[successful] = np.where(2 * h > subset, correct, complement(correct)).astype(np.int8)


def _truncated_binomial(m, q, s, gen):
    """One draw of Binomial(m, q) conditioned on being below ``s``."""
    k = np.arange(s)
    logp = k * math.log(q) + (m - k) * math.log1p(-q) - gammaln(k + 1) - gammaln(m - k + 1)
    w = np.exp(logp - logp.max())
    return int(gen.choice(s, p=w / w.sum()))


def stage2_phase(n, m, wrong, channel, gen):
    """Outcome of an m-round stage-2 phase in which all n agents hold an
    opinion and every counter starts at zero, drawn without simulating its
    rounds; ``wrong`` marks the agents whose opinion is wrong at the open.

    Returns ``(failed, wrong_after)``: the agents with fewer than s = m/2
    samples, who keep their opinions, and the agents wrong after the phase.
    Opinions are frozen within the phase and all n agents send every round,
    so agent i hears in a round with probability h = 1-(1-1/(n-1))^(n-1),
    and the arrival it accepts comes from a uniform other agent: its samples
    are independent, each correct with probability
    q_i = (1-p)(1-w_i) + p w_i, where w_i is the share of wrong agents among
    the other n-1.  Let B_i be "i fails or ends on a wrong majority":
    P(B_i) = P(Bin(m, h) < s) + P(Bin(m, h) >= s) ``majority_wrong_prob(s, q_i)``,
    and pi is their sum.  Without any B_i every agent succeeds and ends
    correct.  The Karp-Luby-Madras sampler: with probability pi pick I with
    probability P(B_I)/pi, draw I's count, its subset majority and the class
    of each sender it picked given B_I, simulate everyone else's rounds given
    I's arrivals (:func:`_occupancy_given`), close them as
    :func:`_stage2_apply` does, and keep the outcome with probability 1/|F|,
    F = {j : B_j}; in every other case no B_j happens.  A given outcome with
    a nonempty F is reached through each of its |F| agents with probability
    P(outcome)/|F|, so it is drawn with its own probability.  Returns None
    when pi >= 1, or at n = 2, where each agent hears in every round and no
    sender can aim past I; the caller then simulates the rounds.
    """
    if n < 3:
        return None
    s = m // 2
    p = channel.flip_probability
    members = (np.flatnonzero(~wrong), np.flatnonzero(wrong))    # start correct, start wrong
    miss = ((n - 2) / (n - 1)) ** (n - 1)           # P(an agent hears nothing in a round)
    fail = binomial_tail_geq(m, m - s + 1, miss)    # P(Bin(m, h) < s), as its own tail
    omega, q, event = [], [], []
    for c, agents in enumerate(members):
        w = (members[1].size - c) / (n - 1)         # wrong share among the other n-1
        omega.append(w)
        q.append((1.0 - p) * (1.0 - w) + p * w)
        event.append(fail + (1.0 - fail) * majority_wrong_prob(s, q[c]) if agents.size else 0.0)
    weight = [agents.size * e for agents, e in zip(members, event)]
    pi = sum(weight)
    if pi >= 1.0:
        return None
    none = np.empty(0, np.int64)
    if gen.random() >= pi:
        return none, none
    c = int(gen.random() * pi >= weight[0])
    i = int(members[c][gen.integers(members[c].size)])
    w = omega[c]
    if gen.random() * event[c] < fail:
        heard = _truncated_binomial(m, 1.0 - miss, s, gen)      # I fails
        cell = np.full(heard, w)
    else:
        heard = m - _truncated_binomial(m, miss, m - s + 1, gen)
        good = _truncated_binomial(s, q[c], (s + 1) // 2, gen)    # I's subset majority is wrong
        # a picked sender is wrong-class with probability w, updated on the
        # sample it gave when that sample lies in the subset
        cell = np.concatenate((np.full(good, w * p / q[c]), np.full(s - good, w * (1.0 - p) / (1.0 - q[c])),
                               np.full(heard - s, w)))
    pick = np.full(m, -1, np.int8)      # per round: -1 I hears nothing, else its pick is wrong-class
    pick[gen.permutation(m)[:heard]] = gen.random(heard) < cell
    cnt, corr = _occupancy_given(i, pick, wrong, channel, gen)
    opinion = (~wrong).astype(np.int8)     # 1: correct
    successful = np.flatnonzero(cnt >= s)
    _stage2_apply(opinion, 1, successful[successful != i], cnt, corr, s, gen)
    cnt[i] = heard
    if heard >= s:
        opinion[i] = 0
    failed = np.flatnonzero(cnt < s)
    wrong_after = np.flatnonzero(opinion == 0)
    if gen.random() * np.union1d(failed, wrong_after).size >= 1.0:
        return none, none
    return failed, wrong_after


def _occupancy_given(i, pick, wrong, channel, gen, sending=None):
    """How many samples each agent other than i accepts, and how many of them
    are correct, over rounds in which the agents of the bool mask
    ``sending`` (all n when None) send their opinions (``wrong`` marks the
    wrong ones), conditioned on agent i's arrivals: in round r, i hears
    nothing when ``pick[r]`` is -1, and otherwise accepts from a sender
    that is wrong exactly when ``pick[r]`` is 1.  Rounds go in the kernel's
    blocks, and each heard cell keeps a correct sample with the kernel's
    probability.  Returns int64 ``(cnt, corr)`` with zeros at i."""
    n = wrong.size
    p = channel.flip_probability
    rest = np.arange(n) != i
    if sending is not None:
        rest &= sending
    others = np.flatnonzero(rest)       # the senders besides i
    right = ~wrong[others]
    senders = np.concatenate((others[right], others[~right]))     # correct ones first
    k = int(right.sum())
    pools = (np.arange(k), np.arange(k, others.size))     # each class, as columns of senders
    lo = np.minimum(senders, i)
    hi = np.maximum(senders, i)
    cnt = np.zeros(n, np.int64)
    corr = np.zeros(n, np.int64)
    block = _block_rounds(n)
    for first in range(0, pick.size, block):
        cls = pick[first:first + block]
        b = cls.size
        # every other sender aims uniformly at the n-2 agents that are
        # neither itself nor I ...
        t = gen.integers(0, n - 2, size=(b, others.size))     # a row per round, a column per sender
        t += t >= lo
        t += t >= hi
        for r in np.flatnonzero(cls >= 0):
            # ... except, in a round where I hears, K >= 1 of them, where K
            # is Binomial(senders, 1/(n-1)) conditioned on K >= 1: I's pick,
            # uniform in its class, and K-1 uniform among the rest
            arrivals = 0
            while not arrivals:
                arrivals = gen.binomial(others.size, 1.0 / (n - 1))
            pool = pools[cls[r]]
            x = pool[gen.integers(pool.size)]
            t[r, x] = i
            if arrivals > 1:
                aimed = gen.choice(others.size - 1, arrivals - 1, replace=False)
                t[r, aimed + (aimed >= x)] = i
        rows = np.arange(0, b * n, n)
        t += rows[:, None]                  # cell keys: round * n + target
        c = np.bincount(t[:, :k].ravel(), minlength=b * n).astype(np.float64)
        a = np.bincount(t[:, k:].ravel(), minlength=b * n).astype(np.float64)
        if sending is None or sending[i]:
            own = gen.integers(0, n - 1, size=b)
            own += (own >= i) + rows        # I's own messages
            (a if wrong[i] else c)[own] += 1.0   # one key per round: no repeats
        a += c
        a[i::n] = 0.0                       # I's arrivals are given
        c[i::n] = 0.0
        # each listener accepts a uniform arrival and passes it through the
        # channel: correct with probability (c (1-p) + (a-c) p) / a
        u = gen.random(b * n)
        u -= p
        u *= a
        u /= 1.0 - 2.0 * p
        cnt += (a > 0.0).reshape(b, n).sum(0)
        corr += (u < c).reshape(b, n).sum(0)
    return cnt, corr


@lru_cache(maxsize=256)
def _binomial_pmf(r, h, size):
    """P(Binomial(r, h) = x) for x < ``size`` and x <= r, read-only: the
    windows of a tail draw share most of their runs of rounds."""
    if h == 0.0:
        pmf = np.ones(1)
    elif h == 1.0:
        pmf = (np.arange(min(size, r + 1)) == r).astype(np.float64)
    else:
        x = np.arange(min(size, r + 1))
        pmf = np.exp(gammaln(r + 1) - gammaln(x + 1) - gammaln(r - x + 1)
                     + x * math.log(h) + (r - x) * math.log1p(-h))
    pmf.flags.writeable = False
    return pmf


def _below(pmf, size):
    """``c[y] = P(X < y)`` for y = 0..size, from the pmf of X (its values
    below ``size`` at least)."""
    pmf = pmf[:size]
    c = np.zeros(size + 1)
    c[1:pmf.size + 1] = np.cumsum(pmf)
    c[pmf.size + 1:] = c[pmf.size]
    return c


def _heard_laws(runs, n, size):
    """For rounds in ``runs`` of ``(rounds, m)``, m the senders besides the
    listener in each of them, the law of the rounds it hears in each run,
    Binomial(rounds, 1-(1-1/(n-1))^m), and of the sum over the runs from
    each one on, all below ``size``."""
    laws = [_binomial_pmf(r, 1.0 - ((n - 2) / (n - 1)) ** m, size) for r, m in runs]
    suffix = [np.ones(1)]
    for law in reversed(laws):
        suffix.append(np.convolve(law, suffix[-1])[:size])
    return laws, suffix[::-1]


def _heard_given_below(runs, n, below, gen):
    """One draw of a listener's rounds over ``runs`` (as :func:`_heard_laws`)
    given that it hears in fewer than ``below`` of them: per round, -1 when
    it hears nothing and 0 when it hears.  Each run's count is drawn given
    the counts before it, and rounds within a run are exchangeable."""
    laws, suffix = _heard_laws(runs, n, below)
    pick = []
    for law, rest, (r, _) in zip(laws, suffix[1:], runs):
        # P(this run's count is x and the later runs' sum is below below - x)
        x = np.arange(min(law.size, below))
        w = law[:x.size] * _below(rest, below)[below - x]
        heard = int(gen.choice(x.size, p=w / w.sum()))
        below -= heard
        run = np.full(r, -1, np.int8)
        run[gen.permutation(r)[:heard]] = 0
        pick.append(run)
    return np.concatenate(pick)


def stage2_tail(t, opens, lengths, gid, cnt, channel, gen):
    """The rest of a run under staggered clocks, drawn from round ``t`` on
    without simulating its rounds, when every agent holds the correct
    opinion and every clock group is inside stage 2 (or past it) in a
    window that opened after the last opinion change.

    Clock group g's stage-2 phase j spans the global rounds before
    ``opens[g] + sum(lengths[:j+1])``, and agent i is in group ``gid[i]``
    with ``cnt[i]`` samples in its current window.  From here on every sample
    an agent holds or will take is correct with probability 1-p, whatever
    the occupancy, so a successful close's subset majority is wrong with
    probability w_j = P(Binomial(s_j, 1-p) < s_j/2), a coin independent of
    everything else.  Coins first: the number of wrong coins of phase j
    is Binomial(N_j, w_j) over its N_j remaining (agent, close) pairs,
    placed uniformly.  With any wrong coin, returns ``((j, g, agents),
    None)``: the earliest close (in round, then code, then shift order)
    that holds one, and its wrong-coin agents; the caller simulates on,
    keeps every successful agent of the closes before it correct, turns the
    successful ``agents`` there and discards the later coins.

    Without one no opinion changes again, and only failures remain.  Let
    F_ij be "agent i ends its phase-j window with fewer than s_j samples":
    it hears in round u with probability h_u = 1-(1-1/(n-1))^(m_u-1), m_u
    the senders of round u (every agent of a group still in stage 2), so
    its count is ``cnt[i]`` (current window only) plus a Poisson-binomial
    sum; pi is the sum of P(F_ij).  The Karp-Luby-Madras sampler, as in
    :func:`stage2_phase`: with probability pi pick (I, J) with probability
    P(F_IJ)/pi, draw I's heard rounds in window J given F_IJ, simulate
    every remaining round's heard counts given them (the kernel's expected
    mode, and :func:`_occupancy_given` over I's window), and keep the
    failures with probability 1/|F|; in every other case every remaining
    close succeeds.  Returns ``(None, successful)``, the successful
    remaining closes per phase; every agent ends correct.  Returns None
    when pi >= 1, before drawing anything, or at n = 2 (see
    :func:`stage2_phase`); the caller then simulates the rounds.
    """
    n = gid.size
    if n < 3:
        return None
    size = np.bincount(gid, minlength=opens.size)
    members = [np.flatnonzero(gid == g) for g in range(opens.size)]
    ends = opens[:, None] + np.cumsum(lengths)      # each group's closes
    ahead = ends > t
    leave = ends[:, -1]                             # a group sends before this round, ascending
    steps = leave.tolist()
    gone = [0, *accumulate(size.tolist())]          # the agents of the groups that left by each step

    def runs(a, b):
        """(rounds, senders besides the listener) over rounds [a, b)."""
        cuts = [a, *(v for v in steps if a < v < b), b]
        return tuple((v - u, n - 1 - gone[bisect_right(steps, u)]) for u, v in zip(cuts, cuts[1:]))

    # P(F_ij) for each group's windows ahead, by agent in the current one
    cdfs = {}
    blocks = []     # (g, j, runs, P(F_ij) per member or None when equal, weight)
    for g, j in zip(*np.nonzero(ahead)):
        s = lengths[j] // 2
        opened = ends[g, j] - lengths[j]
        key = (runs(max(opened, t), ends[g, j]), s)
        if key not in cdfs:
            cdfs[key] = _below(_heard_laws(key[0], n, s)[1][0], s)
        cdf = cdfs[key]                             # cdf[y] = P(heard < y)
        if opened < t:
            prob = cdf[np.maximum(s - cnt[members[g]], 0)]
            blocks.append((g, j, key[0], prob, float(prob.sum())))
        else:
            blocks.append((g, j, key[0], None, size[g] * cdf[s]))
    weights = np.array([b[-1] for b in blocks])
    pi = float(weights.sum())
    if pi >= 1.0:
        return None

    pairs = size @ ahead                            # N_j
    coins = []
    for m, pairs_j, u in zip(lengths, pairs.tolist(), gen.random(len(lengths))):
        s = m // 2
        w = _binomial_pmf(s, 1.0 - channel.flip_probability, (s + 1) // 2).sum()     # w_j
        # Binomial(N_j, w_j) wrong coins: none with probability (1-w_j)^N_j,
        # else drawn given at least one
        if u < math.exp(pairs_j * math.log1p(-w)):
            coins.append(0)
        else:
            law = _binomial_pmf(pairs_j, w, pairs_j + 1)[1:]
            coins.append(1 + int(gen.choice(pairs_j, p=law / law.sum())))
    coins = np.array(coins)
    if coins.any():
        first = None
        for j in np.flatnonzero(coins):
            agents = np.concatenate([members[g] for g in np.flatnonzero(ahead[:, j])])
            wrong = agents[gen.choice(pairs[j], coins[j], replace=False)]
            g = int(gid[wrong].min())
            if first is None or (ends[g, j], j) < (ends[first[1], first[0]], first[0]):
                first = (int(j), g, np.sort(wrong[gid[wrong] == g]))
        return first, None
    if gen.random() >= pi:
        return None, pairs

    g, j, window, prob, weight = blocks[min(int(np.searchsorted(np.cumsum(weights), gen.random() * pi, "right")),
                                            len(blocks) - 1)]
    if prob is None:
        i = members[g][gen.integers(size[g])]
    else:
        i = members[g][min(int(np.searchsorted(np.cumsum(prob), gen.random() * weight, "right")), prob.size - 1)]
    b = ends[g, j]
    a = max(t, b - lengths[j])
    pick = _heard_given_below(window, n, lengths[j] // 2 - (cnt[i] if b - lengths[j] < t else 0), gen)
    # everyone's heard rounds per window, given I's in window J
    heard_in = np.zeros((n, len(lengths)), np.int64)
    current = (ends <= t).sum(1)[gid]
    live = np.flatnonzero(current < len(lengths))
    heard_in[live, current[live]] = cnt[live]
    buffers = delivery_buffers(n)
    none = np.empty(0, np.int64)
    spans = np.unique(np.append(ends[ahead], t))
    for u, v in zip(spans[:-1].tolist(), spans[1:].tolist()):
        sending = leave[gid] > u
        if a <= u < b:
            heard = _occupancy_given(i, pick[u - a:v - a], np.zeros(n, bool), channel, gen, sending)[0]
        else:
            # these rounds belong to the draw, not to the run: the model's
            # binding, which tests that patch the engine's kernel do not see
            heard = model.deliver_span_counts(np.flatnonzero(sending), none, v - u, n, channel, gen, buffers, True)[0]
        live = np.flatnonzero(sending)
        heard_in[live, (ends <= u).sum(1)[gid[live]]] += heard[live]
    heard_in[i, j] += int((pick >= 0).sum())
    failed = ahead[gid] & (heard_in < np.array(lengths) // 2)
    if gen.random() * failed.sum() >= 1.0:
        return None, pairs
    return None, pairs - failed.sum(0)


def _local_windows(schedule: ScheduleParams, d: int):
    """Local-clock window layout: stage-1 phase i shifted to start at
    r_i + i*d, one further d-gap isolating stage 2, stage-2 phases
    contiguous.  Window codes: 0..T+1 stage 1, T+1+j for stage-2 phase j,
    -1 between windows and outside them.

    Returns ``(edges, codes)``: the ascending local rounds at which the code
    changes, and the code of each segment they cut, so local round u has
    code ``codes[searchsorted(edges, u, "right")]``.  A window longer than
    2^31 - 1 rounds is rejected: the engine counts its accepts in int32.
    """
    windows = [(start + i * d, length) for i, (start, length) in enumerate(schedule.phase_bounds_stage1)]
    off = schedule.stage1_rounds + (schedule.t_phases + 2) * d
    for m in schedule.stage2_phase_lengths:
        windows.append((off, m))
        off += m
    longest = max(length for _, length in windows)
    if longest > 2 ** 31 - 1:
        raise ConfigurationError(f"epsilon={schedule.epsilon:g} gives a window of {longest} rounds, "
                                 "over the 2^31 - 1 that the int32 counters can count")
    edges, codes = [], [-1]
    for code, (start, length) in enumerate(windows):
        if edges and edges[-1] == start:     # no gap since the previous window
            codes[-1] = code
        else:
            edges.append(start)
            codes.append(code)
        edges.append(start + length)
        codes.append(-1)
    return np.array(edges, np.int64), np.array(codes, np.int64)


def _run_windows(opinion, config, schedule, gen, shift, d=0):
    """Run the stage-1 and stage-2 windows of ``schedule`` on each agent's
    local clock, updating ``opinion`` in place; returns the :class:`Outcome`
    that holds ``opinion``, with ``desync`` set when ``d > 0``.

    ``shift[i]`` is the global round at which agent i's local clock reads 0,
    and ``d`` is the gap between windows.  Agents that share a shift form a
    clock group, ``gid[i]`` indexes agent i's group in the ascending shifts
    ``groups``, and a window closes (phase activation, or subset-majority
    update) one group at a time.  With ``shift=None`` an activation preamble
    forms the groups: with pre = 2*ceil(log2 n), the source (agent 0)
    broadcasts a junk bit in rounds [0, pre), and an agent that first hears
    in round t' joins the group with shift v = t' + 2*pre, which broadcasts
    in rounds v - 2*pre < t <= v - pre.  The source's group is round 0's;
    until the preamble reaches it an agent has ``gid`` -1 and no window.

    Everything the loop needs comes from the group shifts and the window
    edges of :func:`_local_windows`.  A span runs from round t to the
    earliest next edge of any group, or the next end of a preamble send
    window; within it the senders, payloads and listeners are fixed, so one
    kernel call counts each agent's accepts and correct accepts over the
    span's rounds, and listeners add them to their counters in place, with
    work buffers allocated once per run.  When every group's code is at
    most T+1 (stage 1, a gap, or not yet informed) the correct accepts are
    their expected number given the targets; otherwise they are drawn.  The
    groups whose code changes at a span's end close their windows there, in
    (code, shift) order.  While the preamble is still informing agents a
    span is one round, because an agent that hears starts sending in the
    next round.  With one clock group and no preamble, a stage-2 window that
    opens with every agent holding an opinion is drawn whole by
    :func:`stage2_phase` unless its union bound is 1 or more, and its rounds
    are skipped.  With more than one group, a span start at which every
    agent is informed and correct and every group is in stage 2, or past it,
    in a window that opened at or after the last round that followed an
    opinion change (any close's) hands the rest of the run to
    :func:`stage2_tail`, once per such change.  A drawn tail sets the
    stage-2 records, the messages and the round and ends the run; a wrong
    coin leaves the rounds simulated, with every successful agent of the
    closes before the coin's close kept correct and that close turning its
    successful wrong-coin agents; None simulates them as before.  The run
    ends when the last window of the latest group has closed.
    """
    n = config.n
    channel = config.channel
    correct = config.correct_opinion
    t1 = schedule.t_phases + 1                 # code of the last stage-1 window
    edges, codes = _local_windows(schedule, d)
    local_total = int(edges[-1])
    open2 = local_total - sum(schedule.stage2_phase_lengths)    # local round at which stage 2 opens
    cnt = np.zeros(n, np.int32)     # messages accepted in the current window
    corr = np.zeros(n, np.float64)  # ... of them correct after the channel; in stage 1 expected
    buffers = delivery_buffers(n)

    preamble = shift is None
    pre = 2 * _ceil_log2(n)         # length of a preamble send window
    if preamble:
        groups = np.array([2 * pre], np.int64)    # the source's clock reads 0 at round 2*pre
        gid = np.full(n, -1, np.intp)
        gid[0] = 0
    else:
        groups, gid = np.unique(shift, return_inverse=True)
    uninformed = int((gid < 0).sum())   # agents the preamble has not reached
    one_clock = groups.size == 1 and not preamble   # see stage2_phase

    y_acc = [0] * (t1 + 1)
    z_acc = [0] * (t1 + 1)
    lengths = schedule.stage2_phase_lengths
    n_st2 = len(lengths)
    succ_acc = [0] * n_st2
    end_frac = [None] * n_st2
    start_frac = [None] * n_st2

    def round_setup(t):
        """Senders carrying the correct opinion, the other senders, and the
        listener mask of round t."""
        code = np.append(gcode, -1)[gid]    # gid -1 picks the appended -1: no window
        inside = code >= 0
        main = inside & (opinion >= 0)
        carries = main & (opinion == correct)
        if preamble:
            # preamble broadcasts carry a junk bit: the complement of the
            # correct opinion, so that relabeling the opinions maps a run to
            # a run.  A window listener can accept one only when the clock
            # spread reaches D.
            junk = np.append((groups - 2 * pre < t) & (t <= groups - pre), False)[gid]
            junk[0] = t < pre
            main |= junk
        # activated agents discard stage-1 traffic
        listening = (inside & (code <= t1) & (opinion < 0)) | (code > t1)
        return np.flatnonzero(carries), np.flatnonzero(main & ~carries), listening

    coin = None     # the close that holds the earliest wrong coin of a tail draw
    last_change = -math.inf     # the last round that follows a close that changed an opinion
    tried = None    # last_change when the tail was last drawn

    def close(code_v, g):
        """Close window ``code_v`` for clock group ``g``; returns whether
        any opinion changed."""
        nonlocal coin
        members = np.flatnonzero(gid == g)
        if code_v <= t1:
            new = members[(opinion[members] < 0) & (cnt[members] > 0)]
            right = _stage1_pick(cnt[new], corr[new], gen)
            opinion[new] = np.where(right, correct, complement(correct))
            y_acc[code_v] += int(new.size)
            z_acc[code_v] += int(right.sum())
            cnt[new] = 0     # stage 2 counts its samples from zero
            corr[new] = 0
            return new.size > 0
        j = code_v - t1 - 1
        subset = lengths[j] // 2
        if start_frac[j] is None:
            start_frac[j] = _correct_fraction(opinion, correct)
        successful = members[cnt[members] >= subset]
        before = opinion[successful]
        if coin is None:
            _stage2_apply(opinion, correct, successful, cnt, corr, subset, gen)
        elif coin[:2] == (j, g):
            # the earliest wrong coin: its successful agents turn, and
            # the later coins are discarded
            opinion[np.intersect1d(successful, coin[2])] = complement(correct)
            coin = None
        # a close before that one keeps every successful agent correct
        succ_acc[j] += int(successful.size)
        end_frac[j] = _correct_fraction(opinion, correct)   # last group's close wins
        cnt[members] = 0
        corr[members] = 0
        return bool((opinion[successful] != before).any())

    messages = 0
    t = 0
    while t < groups[-1] + local_total:
        seg = np.searchsorted(edges, t - groups, "right")   # each group's segment at round t
        gcode = codes[seg]
        if (groups.size > 1 and t >= groups[-1] + open2 and tried != last_change and not uninformed
                and (opinion == correct).all()
                and (groups + edges[seg - 1] >= last_change)[gcode > t1].all()):
            # every agent is correct and every group is in stage 2, or past
            # it, in a window that opened after the last opinion change
            tried = last_change
            drawn = stage2_tail(t, groups + open2, lengths, gid, cnt, channel, gen)
            if drawn is not None:
                coin, successful = drawn
                if coin is None:
                    for j in range(int(gcode[-1]) - t1 - 1, n_st2):    # the latest group's phase on
                        if start_frac[j] is None:
                            start_frac[j] = 1.0
                        end_frac[j] = 1.0
                        succ_acc[j] += int(successful[j])
                    messages += int(np.maximum(groups + local_total - t, 0) @ np.bincount(gid))
                    t = int(groups[-1]) + local_total
                    break
        if (one_clock and gcode[0] > t1 and edges[seg[0] - 1] == t - groups[0]
                and (opinion >= 0).all()):
            # a stage-2 window opens now with every agent holding an opinion
            assert not (cnt.any() or corr.any())
            j = int(gcode[0]) - t1 - 1
            m = lengths[j]
            drawn = stage2_phase(n, m, opinion != correct, channel, gen)
            if drawn is not None:
                failed, wrong = drawn
                start_frac[j] = _correct_fraction(opinion, correct)
                opinion.fill(correct)
                opinion[wrong] = complement(correct)
                succ_acc[j] = n - failed.size
                end_frac[j] = _correct_fraction(opinion, correct)
                messages += n * m
                t += m
                continue
        carriers, others, listening = round_setup(t)
        sent = carriers.size + others.size
        if uninformed:
            end = t + 1     # an agent that hears now sends from the next round on
        else:
            ahead = groups + edges[np.minimum(seg, edges.size - 1)]    # each group's next edge
            if preamble:
                # the send windows end at pre (the source's) and at v - pre + 1
                ahead = np.concatenate((ahead, groups - pre + 1, [pre]))
            end = int(ahead[ahead > t].min())
        # every group's code is constant within a span
        assert (np.searchsorted(edges, end - 1 - groups, "right") == seg).all()
        fresh = None
        if sent:
            # stage-1 listeners read corr only through the close's pick, which
            # is linear in it, so a span without stage-2 listeners adds expected
            # matches
            heard, match = deliver_span_counts(carriers, others, end - t, n, channel, gen, buffers,
                                               bool((gcode <= t1).all()))
            messages += sent * (end - t)
            if uninformed:
                fresh = np.flatnonzero((heard > 0) & (gid < 0))
            # listeners count their accepted messages and the correct ones
            np.multiply(heard, listening, out=heard)
            np.multiply(match, listening, out=match)
            np.add(cnt, heard, out=cnt)
            np.add(corr, match, out=corr)
        shut = np.flatnonzero((gcode >= 0) & (np.searchsorted(edges, end - groups, "right") != seg))
        for code_v, g in sorted(zip(gcode[shut].tolist(), shut.tolist())):
            if close(code_v, g):
                last_change = end
        if fresh is not None and fresh.size:
            # the new group's windows all lie ahead, so it joins after the closes
            uninformed -= fresh.size
            if groups[-1] != t + 2 * pre:       # agents informed in round 0 join the source's group
                groups = np.append(groups, t + 2 * pre)
            gid[fresh] = groups.size - 1
        t = end

    per_phase = tuple(PhaseMetrics(p, x, y, z, z / y - 0.5 if y else None)
                      for p, (x, y, z) in enumerate(zip(accumulate(y_acc), y_acc, z_acc)))
    stage1 = Stage1Result(per_phase, bool((opinion >= 0).all()), schedule.stage1_rounds)
    stage2 = tuple(Stage2PhaseRecord(j + 1, succ_acc[j], end_frac[j], start_frac[j]) for j in range(n_st2))
    desync = DesyncInfo(d_bound=d, offset_spread=int(groups[-1] - groups[0]), local_total=local_total,
                        preamble_rounds=2 * pre if preamble else 0, stalled=uninformed > 0) if d else None
    return Outcome(opinion, _correct_fraction(opinion, correct), t, messages, stage1, stage2, desync=desync)


def _as_generator(rng, config: SimConfig, purpose: str) -> np.random.Generator:
    return derive_rng(config.master_seed, purpose) if rng is None else rng


def run_broadcast(config: SimConfig, rng=None) -> Outcome:
    """Full two-stage noisy broadcast: one clock group with shift 0 and no
    gap between windows.  The protocol is oblivious: the round count equals
    the schedule total no matter what happens."""
    gen = _as_generator(rng, config, "broadcast")
    schedule = derive_schedule(config.n, config.channel, config.constants)
    return _run_windows(_source_opinions(config), config, schedule, gen, np.zeros(config.n, np.int64))


def majority_bias(initial_opinions: np.ndarray, correct: int) -> float:
    """(A_correct - A_wrong) / (2 |A|) for the opinionated set A."""
    members = initial_opinions >= 0
    a = int(members.sum())
    if a == 0:
        raise ConfigurationError("initial set is empty")
    good = int((initial_opinions[members] == correct).sum())
    return 0.5 * (good - (a - good)) / a


def run_majority_consensus(config: SimConfig, initial_opinions: np.ndarray, rng=None) -> Outcome:
    """Majority consensus for an initial opinionated set A: stage-1 phases
    i_A .. T+1 with A as the already-active senders, then stage 2.

    One clock group whose local clock reads r_entry, the first round of
    phase i_A, at t = 0; rounds count from there.
    """
    gen = _as_generator(rng, config, "consensus")
    schedule = derive_schedule(config.n, config.channel, config.constants)
    initial_opinions = np.asarray(initial_opinions)
    if initial_opinions.shape != (config.n,):
        raise ConfigurationError("initial_opinions must have one entry per agent (-1 for none)")
    if not np.isin(initial_opinions, (-1, 0, 1)).all():
        raise ConfigurationError("initial_opinions must hold -1 (none), 0 or 1")
    opinion = initial_opinions.astype(np.int8)     # a copy: the engine updates it in place
    a_size = int((opinion >= 0).sum())
    entry = majority_entry_phase(a_size, config.n, config.channel, config.constants)
    bias = majority_bias(opinion, config.correct_opinion)
    r_entry = schedule.phase_bounds_stage1[entry][0]
    out = _run_windows(opinion, config, schedule, gen, np.full(config.n, -r_entry, np.int64))
    stage1 = Stage1Result(out.stage1.per_phase[entry:], out.stage1.all_activated,
                          schedule.stage1_rounds - r_entry)
    return replace(out, stage1=stage1, initial_majority_bias=bias)


def run_desynchronized(config: SimConfig, clocks: ClockConfiguration | None = None, rng=None) -> Outcome:
    """Broadcast without a shared clock.

    With supplied ``clocks``, each agent's clock starts at its offset and the
    agent executes stage-1 phase i during local rounds [r_i + iD, r_i + iD + x_i),
    staying silent (and deaf to protocol traffic) in between; stage 2 follows
    after one more D-gap and runs contiguously.  Without ``clocks``, an
    activation preamble runs first: every informed agent broadcasts a junk
    bit for 2*ceil(log2 n) rounds and resets its clock to zero exactly
    4*ceil(log2 n) rounds after its first received message.  That keeps all
    clock differences within D = 2*ceil(log2 n) only with high probability;
    ROADMAP item 3 gives the law of the realized ``DesyncInfo.offset_spread``.
    Either way the clock groups close their windows at different rounds, so
    the single-clock draw of a stage-2 phase never applies; the all-correct
    tail of stage 2 is drawn by :func:`stage2_tail` (see
    :func:`_run_windows`).
    """
    gen = _as_generator(rng, config, "desync")
    n = config.n
    schedule = derive_schedule(n, config.channel, config.constants)
    opinion = _source_opinions(config)
    if clocks is None:
        return _run_windows(opinion, config, schedule, gen, None, d=clock_bound(n))
    if clocks.offsets.shape != (n,):
        raise ConfigurationError("clock offsets must have one entry per agent")
    # clock value o at t=0 means local time t + o
    return _run_windows(opinion, config, schedule, gen, -clocks.offsets, d=clocks.d_bound)


# ---------------------------------------------------------------------------
# failing baselines


def _threshold_loop(config: SimConfig, threshold: int, max_rounds: int, gen):
    """Both failing baselines: every agent outside the source waits silently
    until it has accepted ``threshold`` messages, then adopts their majority
    (ties broken by a fair coin, drawn only at even thresholds, where ties
    can occur) and resends it every round.

    Returns ``(opinion, rounds, messages, depth, first_reach)``.  ``depth[i]``
    is 1 + the depth of the agent whose message i accepted in the round it
    reached the threshold, through diagnostics-only sender metadata that the
    protocol itself never reads; ``first_reach`` is the first round in which
    some agent reached the threshold (None if none did).
    """
    if not (_is_int(threshold) and _is_int(max_rounds) and threshold >= 1 and max_rounds >= 1):
        raise ConfigurationError(f"threshold and max_rounds must be integers >= 1, "
                                 f"got {threshold!r} and {max_rounds!r}")
    n = config.n
    opinion = _source_opinions(config)
    correct = config.correct_opinion
    cnt = np.zeros(n, np.int64)
    corr = np.zeros(n, np.int64)
    depth = np.full(n, -1, np.int64)
    depth[0] = 0
    first_reach = None
    messages = rounds = 0
    for t in range(max_rounds):
        senders = np.flatnonzero(opinion >= 0)
        recv, acc, src = deliver_round_arrays(senders, opinion[senders], n, config.channel, gen)
        messages += senders.size
        waiting = opinion[recv] < 0
        wr = recv[waiting]
        cnt[wr] += 1
        corr[wr] += acc[waiting] == correct
        hit = cnt[wr] >= threshold
        reached = wr[hit]
        if reached.size:
            if first_reach is None:
                first_reach = t + 1
            good = 2 * corr[reached] > threshold
            if threshold % 2 == 0:
                good |= (2 * corr[reached] == threshold) & (gen.random(reached.size) < 0.5)
            opinion[reached] = np.where(good, correct, complement(correct))
            depth[reached] = depth[src[waiting][hit]] + 1
        rounds = t + 1
        if (opinion >= 0).all():
            break
    return opinion, rounds, messages, depth, first_reach


def run_baseline_forward(config: SimConfig, max_rounds: int, rng=None) -> Outcome:
    """Immediate-forward strategy: every agent adopts the first accepted
    opinion and resends it every round afterwards; silent wait at threshold 1.

    Returns an Outcome whose ``depth_table`` tabulates correctness against
    hop depth (1 + depth of the agent whose message activated it).
    """
    gen = _as_generator(rng, config, "baseline-forward")
    opinion, rounds, messages, depth, _ = _threshold_loop(config, 1, max_rounds, gen)
    correct = config.correct_opinion
    table = []
    for dv in range(1, int(depth.max()) + 1):
        at = depth == dv
        agents = int(at.sum())
        if agents:
            table.append(DepthStat(dv, agents, int((opinion[at] == correct).sum())))
    return Outcome(opinion, _correct_fraction(opinion, correct), rounds, messages,
                   stage1=None, stage2=(), depth_table=tuple(table))


def run_baseline_silent_wait(config: SimConfig, threshold: int, max_rounds: int, rng=None) -> Outcome:
    """Silent-wait strategy: a non-source agent says nothing until it has
    accepted ``threshold`` messages, then adopts their majority (ties broken
    by a fair coin) and resends every round.

    ``first_threshold_round`` records when the first non-source agent
    reached the threshold (None on timeout).  With only the source talking
    initially, that wait is a birthday-paradox event of order sqrt(n).
    """
    gen = _as_generator(rng, config, "baseline-silent")
    opinion, rounds, messages, _, first_reach = _threshold_loop(config, threshold, max_rounds, gen)
    return Outcome(opinion, _correct_fraction(opinion, config.correct_opinion), rounds, messages,
                   stage1=None, stage2=(), first_threshold_round=first_reach)
