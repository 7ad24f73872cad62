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
* once every clock group is in stage 2, stage-2 closes are drawn from
  their exact law, without simulating their rounds, by one
  Karp-Luby-Madras union sampler over the events "an agent fails in a
  window, or ends it on a wrong majority" (:func:`stage2_draw`), unless
  its union bound is ``KLM_CUTOFF`` or more: under one clock each window
  that opens with every agent holding an opinion (its law is
  :func:`~flipsim.oracle.phase_law`), under staggered clocks the rest of
  the run from the latest group's first stage-2 close, or from right
  after a later opinion change once every agent is correct, up to the
  first close whose outcome differs from every member ending correct.

The permutation kernel (:func:`~flipsim.model.deliver_round_arrays`) runs
only in the two baselines.  Every draw of the windowed engine consumes
randomness in a pattern that depends on opinions only through "equals the
correct opinion", so a run is invariant under relabeling the opinions
0 <-> 1.  Tests that watch or replace the engine's draws patch its
bindings ``flipsim.protocols.deliver_span_counts``, through which every
simulated round passes, and ``flipsim.protocols.stage2_draw``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy.special import gammaln, rel_entr

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
from .oracle import binomial_tails, phase_class
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
    return float(np.count_nonzero(opinion == correct) / opinion.size)


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


# A drawn stage-2 path whose union bound pi is KLM_CUTOFF or more is refused
# and its rounds simulated.  Its conditioned branch, run with probability pi,
# costs more than those rounds: on 2 vCPUs (medians of 5) the conditioned
# rounds of one window at 20% wrong took 159 against the kernel's 105 us per
# round at n = 4096 and 2424 against 1637 us at n = 2^16 (ratios 0.660 and
# 0.675), and a desync draw at n = 4096 forced into it 0.304 against 0.221 s
# (0.727).  So a draw pays while pi is below the smallest ratio.  No stage-2
# draw of the golden grids or the benchmark workloads has pi in [0.56, 1).
# The first staggered draw of a desync-n12 input (n = 4096, eps 0.25, seeds
# 5, 4242 and 11) comes at the latest group's first stage-2 close, with 46-80
# agents still wrong under supplied clocks and 20-84 with the preamble; its
# pi is 0.00088-0.00089 and 0.00028.  A refused staggered try costs about
# 5 ms (n = 4096, eps 0.4, where the final phase alone has pi = 1.46).
KLM_CUTOFF = 0.66


def _truncated_binomial(m, q, s, gen):
    """One draw of Binomial(m, q) conditioned on being below ``s`` <= m + 1."""
    pmf = _binomial_pmf(m, q, s)
    return int(gen.choice(pmf.size, p=pmf / pmf.sum()))


def stage2_draw(t, opens, lengths, horizon, gid, cnt, corr, wrong, channel, gen):
    """The stage-2 closes from round ``t`` through round ``horizon``, drawn
    without simulating their rounds.  Clock group g's stage-2 phase j is the
    window of rounds before ``opens[g] + sum(lengths[:j+1])``; agent i, in
    group ``gid[i]``, holds ``cnt[i]`` samples in its current window,
    ``corr[i]`` of them correct, and its opinion is wrong where ``wrong`` is
    set; an agent sends while its group is in stage 2.

    The reference path runs the rounds with opinions fixed between closes,
    closes windows as the engine does, and at every close leaves each member
    of the closing group correct: the outcome without failures and wrong
    majorities, so its opinions are deterministic.  Let B_ij be "agent i
    fails in window j (fewer than s = m_j/2 samples), or ends it on a wrong
    majority".  Cut at every close, the rest of window j falls into runs of
    rounds with a fixed count of senders besides i and a fixed share w of
    wrong ones among them.  The rounds i hears are a Poisson-binomial sum
    (:func:`_heard_law`), and a sample from a run is correct with probability
    q = (1-p)(1-w) + p w, independently.  The bound law gives every new
    sample of the window the smallest q of its runs, which makes a wrong
    majority likelier.  In a window that opens at t or later, beta_ij = fail
    + (1-fail) coin, the coin the wrong majority of s samples under the
    bound law (:func:`oracle.phase_class`; with one share, as in one group's
    window, beta_ij = P(B_ij) and the law is :func:`oracle.phase_law`).  In
    a window that opened before t, beta_ij = fail + (1-fail) b, b from
    :func:`_wrong_bound`.

    The Karp-Luby-Madras sampler: with probability pi = sum of beta_ij pick
    (I, J) with probability beta_IJ/pi; draw I's rounds in window J under
    the bound law given its event (its count, its subset's composition
    (:func:`_wrong_weights`), a uniformly random round for each sample
    type, since there the samples are exchangeable), thin each wrong subset
    sample to its run's law (it turns correct with probability (q_run - q) /
    (1 - q)), and draw the class of each sender I picked.  Where B_IJ no
    longer holds, and in the slack of beta_IJ over the bound law's event, no
    B_ij happens; so B_IJ and I's rounds are drawn with probability
    P(B_IJ)/beta_IJ and with their law given B_IJ.  Then run the
    reference path given them (:func:`_occupancy_given` in window J, the
    kernel elsewhere), close every window, and keep the path with
    probability 1/|F|, F the pairs whose B holds.  In every other case no
    B_ij happens: every close succeeds and ends correct.  A path X with a
    nonempty F is drawn with probability sum over F of beta_ij P(B_ij) /
    beta_ij P(X | B_ij) / |F| = P(X), its own.

    The real path uses the same rounds as the reference one as long as no
    opinion differs, opinions change only at closes, and the closes of one
    round read the counters of the rounds before it.  The two first differ
    at a close where a wrong agent fails or ends on a wrong majority, or a
    correct one ends on a wrong majority.  So they agree through the first
    round e with such a close (a stopping time), and the real state there
    (opinions and counters) has the reference state's law; past it the
    engine simulates the rounds.  That prefix is what makes the draw exact.
    Returns ``(end, closes, cnt, corr)``: the round the engine resumes at, e
    or ``horizon``, the closes through it in the engine's order as ``(j, g,
    failed, turned)`` (the agents that fail and keep their opinions, and
    those whose majority is wrong; every other member ends correct), and
    every agent's counters there.  Returns None when pi >= KLM_CUTOFF,
    before drawing anything, or at n = 2, where each agent hears in every
    round and no sender can aim past I; the caller then simulates the
    rounds.
    """
    n = gid.size
    if n < 3:
        return None
    p = channel.flip_probability
    ends = opens[:, None] + np.cumsum(lengths)      # each group's closes
    leave = ends[:, -1]                             # a group sends before this round, ascending
    members = [np.flatnonzero(gid == g) for g in range(opens.size)]
    steps, gone = leave.tolist(), [0, *accumulate(m.size for m in members)]     # who left by each
    g_at, j_at = np.nonzero((ends > t) & (ends <= horizon))
    shut = sorted(zip(ends[g_at, j_at].tolist(), j_at.tolist(), g_at.tolist()))     # the engine's close order
    # the rounds at which a run of fixed wrong share starts, and that share
    # for a correct listener and for a wrong one: the reference turns a
    # wrong agent correct at its group's first close after t, and a group
    # that left by t sends nothing
    bounds = sorted({t, *(e for e, _, _ in shut)})
    after = ends > t
    turns = np.sort(np.where(after.any(1), ends[np.arange(opens.size), after.argmax(1)], t)[gid[wrong]])
    senders = n - 1 - np.array([gone[bisect_right(steps, u)] for u in bounds])
    left = turns.size - np.searchsorted(turns, bounds, "right")
    shares = [left / np.maximum(senders, 1), (left - 1) / np.maximum(senders, 1)]

    def heard_law(a, b):
        """The runs of rounds [a, b) with a fixed count of senders besides a
        listener, and :func:`_heard_law` over them."""
        cuts = [a, *(v for v in steps if a < v < b)]
        runs = tuple((v - u, n - 1 - gone[bisect_right(steps, u)]) for u, v in zip(cuts, [*cuts[1:], b]))
        return (runs, *_heard_law(runs, n))

    blocks = []     # (close, agents, P(B) or beta per agent, q, listener wrong)
    for k, (e, j, g) in enumerate(shut):
        s = lengths[j] // 2
        a = max(t, e - lengths[j])
        below = heard_law(a, e)[3]     # below[y] = P(heard < y)
        fresh = e - lengths[j] >= t
        mem = members[g]
        # a window open at t holds the agents wrong at t until its close
        classes = (mem[~wrong[mem]], mem[wrong[mem]]) if e - lengths[j] <= t else (mem,)
        span = slice(bisect_left(bounds, a), bisect_left(bounds, e))     # the window's runs
        for c, agents in enumerate(classes):
            if agents.size:
                fail = below[min(s, below.size - 1) if fresh else np.clip(s - cnt[agents], 0, below.size - 1)]
                law = phase_class(fail, s, shares[c][span].max(), p)
                event = law.event if fresh else \
                    fail + (1.0 - fail) * _wrong_bound(s, cnt[agents], cnt[agents] - corr[agents], 1.0 - law.q)
                blocks.append((k, agents, event, law.q, c))
    weights = np.cumsum([event.sum() if np.ndim(event) else agents.size * event for _, agents, event, _, _ in blocks])
    pi = float(weights[-1])
    if pi >= KLM_CUTOFF:
        return None
    none = np.empty(0, np.int64)
    zero = np.zeros(n)
    quiet = horizon, [(j, g, none, none) for _, j, g in shut], zero, zero
    if gen.random() >= pi:
        return quiet
    k, agents, event, q, c = blocks[min(int(np.searchsorted(weights, gen.random() * pi, "right")), len(blocks) - 1)]
    if np.ndim(event):
        x = min(int(np.searchsorted(np.cumsum(event), gen.random() * event.sum(), "right")), agents.size - 1)
        i, event = int(agents[x]), event[x]
    else:
        i = int(agents[gen.integers(agents.size)])
    e, j, g = shut[k]
    s = lengths[j] // 2
    a = max(t, e - lengths[j])
    runs, per, suffix, below = heard_law(a, e)
    held, good = (int(cnt[i]), int(corr[i])) if a > e - lengths[j] else (0, 0)
    need = min(max(s - held, 0), below.size - 1)    # I fails hearing fewer rounds
    fail = below[need]
    u = gen.random() * event
    lost = u >= fail        # I succeeds, on a wrong majority
    x = v = 0
    if not lost:
        law = suffix[0][:need]
        h = int(gen.choice(need, p=law / law.sum()))
        sub = z = 0
    else:
        hx, xv = _wrong_weights(held, good, suffix[0], s, q)
        if held and u >= fail + hx.sum():
            return quiet        # the slack of beta_IJ over the bound law's P(B_IJ)
        by_h = hx.sum(1)[need:][::-1]       # by rounds missed, ascending
        h = hx.shape[0] - 1 - int(gen.choice(by_h.size, p=by_h / by_h.sum()))
        if held:
            x = int(gen.choice(hx.shape[1], p=hx[h] / hx[h].sum()))
            v = int(gen.choice(xv.shape[1], p=xv[x] / xv[x].sum()))
        sub = s - x     # new samples in the subset, of which z are correct
        z = _truncated_binomial(sub, q, s // 2 - x + v + 1, gen)
    # I's samples by index: z correct ones in its subset, sub - z wrong ones
    # there, h - sub outside it; a picked sender is wrong-class with its
    # run's share w, which the subset samples update on the sample they gave
    flags = gen.random(h)
    counts, rest = [], h    # I's heard rounds per run, given their sum
    for law, tail in zip(per[:-1], suffix[1:]):
        y = rest - np.arange(min(law.size, rest + 1))
        w = law[:y.size] * np.where(y < tail.size, tail[np.minimum(y, tail.size - 1)], 0.0)
        counts.append(int(gen.choice(y.size, p=w / w.sum())))
        rest -= counts[-1]
    counts.append(rest)
    starts = np.cumsum([0, *(r for r, _ in runs)])
    at = np.concatenate([o + gen.permutation(r)[:m] for (r, _), o, m in zip(runs, starts, counts)])   # by sample
    if len(runs) > 1:
        at = gen.permutation(at)    # each sample type at uniformly random rounds
    ws = shares[c][np.searchsorted(bounds, a + at, "right") - 1]     # each sample's run's wrong share
    qs = (1.0 - p) * (1.0 - ws) + p * ws
    right = np.arange(sub) < z      # I's subset samples that are correct
    thin = np.flatnonzero(qs[z:sub] > q) + z    # wrong ones from runs likelier correct than the bound's
    if thin.size:
        right[thin] = gen.random(thin.size) < _turn_correct(qs[thin], q)
        if right.sum() + x - v > s // 2:
            return quiet        # B_IJ no longer holds
    with np.errstate(divide="ignore", invalid="ignore"):      # 0/0 where no sender is wrong
        cell = np.concatenate((np.where(right, ws[:sub] * p / qs[:sub], ws[:sub] * (1.0 - p) / (1.0 - qs[:sub])),
                               ws[sub:]))
    classes = flags < np.where(ws > 0.0, cell, 0.0)
    pick = np.full(e - a, -1, np.int8)      # per round: -1 I hears nothing, else its pick is wrong-class
    pick[at] = classes

    cnt = cnt.astype(np.int64)      # the reference path's counters
    corr = corr.astype(np.float64)
    wrong = wrong.copy()            # ... and its wrong agents
    vote = np.empty(n, np.int8)
    buffers = None
    closes, found, stop, pos = [], 0, None, 0
    for u, v in zip(bounds, bounds[1:]):
        sending = leave[gid] > u
        if a <= u < e:
            heard, match = _occupancy_given(i, pick[u - a:v - a], wrong, channel, gen, sending)
        else:
            # these rounds belong to the draw, not to the run: the model's
            # binding, which tests that patch the engine's kernel do not see
            buffers = buffers or delivery_buffers(n)
            heard, match = model.deliver_span_counts(np.flatnonzero(sending & ~wrong), np.flatnonzero(sending & wrong),
                                                     v - u, n, channel, gen, buffers)
        cnt += heard * sending
        corr += match * sending
        differs = False
        while pos < len(shut) and shut[pos][0] == v:
            _, jv, gv = shut[pos]
            pos += 1
            mem = members[gv]
            ok = cnt[mem] >= lengths[jv] // 2
            mine = (jv, gv) == (j, g)
            if mine:
                ok[mem == i] = lost
            successful = mem[ok]
            others = successful[successful != i] if mine else successful
            _stage2_apply(vote, 1, others, cnt, corr, lengths[jv] // 2, gen)
            turned = others[vote[others] == 0]
            if mine and lost:
                turned = np.sort(np.append(turned, i))
            failed = mem[~ok]
            closes.append((jv, gv, failed, turned))
            found += failed.size + turned.size
            differs |= turned.size > 0 or wrong[failed].any()
            wrong[mem] = False
            cnt[mem] = 0
            corr[mem] = 0
        if stop is None and differs:
            stop = v, len(closes), cnt.copy(), corr.copy()
    if gen.random() * found >= 1.0:
        return quiet
    if stop is None:
        return horizon, closes, zero, zero
    v, upto, cnt, corr = stop
    if a < v < e:
        # I's window J is still open at v: the samples it heard before v,
        # and the correct ones among them (an outside sample is correct
        # with probability 1-p from a correct-class sender, p from a wrong one)
        early = at < v - a
        outside = classes[sub:][early[sub:]]
        cnt[i] += early.sum()
        corr[i] += (right & early[:sub]).sum() + (gen.random(outside.size) < np.where(outside, p, 1.0 - p)).sum()
    return v, closes[:upto], cnt, corr


def _turn_correct(qs, q):
    """The thinning of a wrong sample drawn under the bound law, correct
    with probability q, to its run's law, correct with probability qs >= q:
    it turns correct with probability (qs - q) / (1 - q), so that it ends
    correct with probability q + (1 - q)(qs - q)/(1 - q) = qs."""
    return (qs - q) / (1.0 - q)


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
    windows of a staggered draw share most of their runs of rounds."""
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


@lru_cache(maxsize=256)
def _heard_law(runs, n):
    """For rounds in ``runs`` of ``(rounds, m)``, m the senders besides a
    listener in each of them: the law of the rounds it hears in each run,
    Binomial(rounds, 1-(1-1/(n-1))^m), the law of the sum over the runs from
    each one on, and ``below[y]`` = P(the whole sum is below y), read-only:
    the windows of a layout recur from draw to draw."""
    laws = tuple(_binomial_pmf(r, 1.0 - ((n - 2) / (n - 1)) ** m, r + 1) for r, m in runs)
    suffix = [np.ones(1)]
    for law in reversed(laws):
        suffix.insert(0, np.convolve(law, suffix[0]))
    below = np.concatenate(([0.0], np.cumsum(suffix[0])))
    for a in (*suffix, below):
        a.flags.writeable = False
    return laws, tuple(suffix), below


def _log_comb(a, b):
    """log C(a, b), elementwise; -inf unless 0 <= b <= a."""
    ok = (b >= 0) & (b <= a)
    b = np.where(ok, b, 0)
    return np.where(ok, gammaln(a + 1) - gammaln(b + 1) - gammaln(np.where(ok, a - b, 0) + 1), -np.inf)


def _wrong_bound(s, held, bad, r):
    """An upper bound on P(a uniform subset of s samples has a wrong
    majority) for listeners that hold ``held`` samples, ``bad`` of them
    wrong, and take any number of new ones, each wrong with probability r.
    The subset's wrong samples are at most ``bad`` plus Binomial(s, r); and
    since drawing without replacement is dominated in convex order by
    drawing with it (Hoeffding, 1963), their Chernoff bound is that of
    Binomial(s, max(bad/held, r))."""
    k = (s + 1) // 2
    f = np.maximum(bad / np.maximum(held, 1), r)
    chernoff = np.exp(-s * (rel_entr(k / s, f) + rel_entr(1.0 - k / s, 1.0 - f)))
    return np.minimum(binomial_tails(s, k - bad, r)[1], np.where(f < k / s, chernoff, 1.0))


def _wrong_weights(held, good, law, s, q):
    """For a listener that holds ``held`` samples, ``good`` of them
    correct, hears h more (pmf ``law``), each correct with probability q,
    and takes a uniform subset of s samples: ``hx[h, x]`` = P(h, x of the
    held samples in the subset, and a wrong majority), and ``xv[x, v]`` =
    P(v of those x wrong, and a wrong majority | x): at least (s+1)/2 - v
    of the s - x new samples in the subset are wrong."""
    h = np.arange(law.size)[:, None]
    x = np.arange(min(held, s) + 1)[:, None]
    v = np.arange(held - good + 1)
    xv = (np.exp(_log_comb(held - good, v) + _log_comb(good, x - v) - _log_comb(held, x))
          * binomial_tails(s - x, (s + 1) // 2 - v, 1.0 - q)[1])
    with np.errstate(invalid="ignore"):
        mix = _log_comb(held, x.T) + _log_comb(h, s - x.T) - _log_comb(held + h, s)
    return law[:, None] * np.exp(np.where(held + h >= s, mix, -np.inf)) * xv.sum(1), xv


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
    next round.  Once every group is in stage 2, one branch hands rounds to
    :func:`stage2_draw`: with one group, every window that opens with every
    agent holding an opinion; with several, the rest of the run, once at
    the first span start at which every group has closed its first stage-2
    window (with the agents still wrong there), and after that at the
    first span start at which every agent is correct after each opinion
    change (any close's), so a refused draw is not retried at every close.
    A draw returns the closes it covers, which ``close`` applies, and the
    round and counters the loop resumes from; None leaves the rounds
    simulated.  The run ends when the last window of the latest group has
    closed.
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

    last_change = -math.inf     # the last round that follows a close that changed an opinion
    tried = None    # last_change when a staggered draw was last tried
    settled = False     # whether one was tried once every group had closed its first stage-2 window

    def close(code_v, g, drawn=None):
        """Close window ``code_v`` for clock group ``g``, drawing its subset
        majorities, or with ``drawn = (failed, turned)`` from a drawn path:
        its failed agents, and the successful ones whose majority is wrong.
        Returns whether any opinion changed."""
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
        if drawn is None:
            successful = members[cnt[members] >= subset]
            before = opinion[successful]
            _stage2_apply(opinion, correct, successful, cnt, corr, subset, gen)
        else:
            successful = np.setdiff1d(members, drawn[0], assume_unique=True) if drawn[0].size else members
            before = opinion[successful]
            opinion[successful] = correct
            opinion[drawn[1]] = complement(correct)
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
        horizon = None
        if not uninformed and t >= groups[-1] + open2:
            if groups.size == 1:
                if (opinion >= 0).all():    # a window opens now: spans end at window edges
                    horizon = t + lengths[int(gcode[0]) - t1 - 1]
            else:
                late = t >= groups[-1] + open2 + lengths[0]
                if (late and not settled and (opinion >= 0).all()
                        or tried != last_change and (opinion == correct).all()):
                    tried, settled = last_change, late
                    horizon = int(groups[-1]) + local_total
        if horizon is not None:
            drawn = stage2_draw(t, groups + open2, lengths, horizon, gid, cnt, corr, opinion != correct, channel, gen)
            if drawn is not None:
                end, shut, held, good = drawn
                messages += int((np.clip(groups + local_total, t, end) - t) @ np.bincount(gid))
                for j, g, failed, turned in shut:
                    if close(t1 + 1 + j, g, (failed, turned)):
                        last_change = end
                cnt[:] = held
                corr[:] = good
                t = end
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
    the realized ``DesyncInfo.offset_spread`` has the law of push rumor
    spreading's completion time (A13 in ``tests/test_acceptance.py``).
    Either way the clock groups close their windows at different rounds, and
    the rest of stage 2 from the latest group's first stage-2 close on is
    drawn by :func:`stage2_draw` (see :func:`_run_windows`).
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
