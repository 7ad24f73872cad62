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
messages and correct ones among them.  Four equivalences keep the hot path
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
  ``correct / accepted``;
* the majority of a uniformly random fixed-size subset of samples is
  realized by drawing the subset's correct-sample count from the matching
  hypergeometric law;
* when every agent shares one clock (broadcast, consensus, desync with
  identical clocks), a stage-2 phase that opens with every agent correct
  is drawn from its exact law instead of simulated
  (:func:`unanimous_phase`): every accepted sample is then correct with
  probability 1-p, so each successful agent turns wrong independently with
  probability ``majority_wrong_prob(m/2, 1-p)``, and the agents with fewer
  than m/2 samples come from the Karp-Luby-Madras union sampler, which
  simulates the phase's occupancy only with probability pi, the union bound
  of the failure events.  When pi >= 1 the rounds are simulated.

The permutation kernel (:func:`~flipsim.model.deliver_round_arrays`) runs
only in the two baselines.  Every draw of the windowed engine consumes
randomness in a pattern that depends on opinions only through "equals the
correct opinion", so a run is invariant under relabeling the opinions
0 <-> 1.  Tests that watch or replace the engine's draws patch its
bindings ``flipsim.protocols.deliver_span_counts``, through which every
simulated round passes, and ``flipsim.protocols.unanimous_phase``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
from scipy.special import gammaln

from .model import (
    ConfigurationError,
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
    successful_count: int
    correct_fraction: float          # measured after the phase
    start_correct_fraction: float    # measured before the phase


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
    """Initial clock values for the desynchronized variant, one per agent,
    each in [0, d_bound)."""

    offsets: np.ndarray
    d_bound: int

    def __post_init__(self):
        off = np.asarray(self.offsets)
        if self.d_bound < 1:
            raise ConfigurationError("d_bound must be >= 1")
        if off.size and (off.min() < 0 or off.max() >= self.d_bound):
            raise ConfigurationError("every clock offset must lie in [0, d_bound)")


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


def _failure_set(n, m, gen):
    """Agents that hear in fewer than s = m/2 rounds of an m-round phase in
    which all n agents send, drawn with its exact law; None when the union
    bound below is 1 or more.

    Each agent hears in a round with probability h = 1-(1-1/(n-1))^(n-1),
    so its count is Binomial(m, h) and the failure events E_i share one
    probability; pi = n P(Bin(m, h) < s) is their union bound.  The
    Karp-Luby-Madras sampler: with probability pi pick a uniform agent I,
    simulate the phase's occupancy conditioned on E_I, and keep its failure
    set F with probability 1/|F|; in every other case F is empty.  A given
    nonempty F is reached through each of its |F| agents with probability
    P(F)/|F|, so F is drawn with probability P(F).
    """
    s = m // 2
    miss = ((n - 2) / (n - 1)) ** (n - 1)       # P(an agent hears nothing in a round)
    pi = n * binomial_tail_geq(m, m - s + 1, miss)    # P(Bin(m, h) < s), as its own tail
    if pi >= 1.0:
        return None
    if gen.random() >= pi:
        return np.empty(0, np.int64)
    i = int(gen.integers(n))
    hears = gen.permutation(m) < _truncated_binomial(m, 1.0 - miss, s, gen)   # I's rounds
    failed = np.flatnonzero(_occupancy_given(i, hears, n, gen) < s)
    return failed if gen.random() * failed.size < 1.0 else np.empty(0, np.int64)


def _occupancy_given(i, hears, n, gen):
    """How many rounds each agent hears in, over rounds in which all n
    agents send, conditioned on agent i hearing in exactly the rounds where
    ``hears`` is true."""
    others = np.delete(np.arange(n), i)
    lo = np.minimum(others, i)
    hi = np.maximum(others, i)
    heard = np.empty(n, bool)
    cnt = np.zeros(n, np.int64)
    for hit in hears:
        # every other sender aims uniformly at the n-2 agents that are
        # neither itself nor I ...
        t = gen.integers(0, n - 2, size=n - 1)
        t += t >= lo
        t += t >= hi
        if hit:
            # ... except, in a round where I hears, K >= 1 of them, where K
            # is Binomial(n-1, 1/(n-1)) conditioned on K >= 1
            k = 0
            while not k:
                k = gen.binomial(n - 1, 1.0 / (n - 1))
            t[gen.choice(n - 1, k, replace=False)] = i
        heard.fill(False)
        heard[t] = True
        own = gen.integers(n - 1)
        heard[own + (own >= i)] = True      # I's own message
        cnt += heard
    return cnt


def unanimous_phase(n, m, channel, gen):
    """Outcome of an m-round stage-2 phase that starts with all n agents
    correct and every counter at zero, drawn without simulating its rounds.

    Returns ``(failed, wrong)``: the agents with fewer than m/2 samples, and
    the successful agents whose subset majority comes out wrong.  Under
    unanimity every accepted sample is correct with probability 1-p,
    whatever the targets, so a successful agent turns wrong with probability
    w = ``majority_wrong_prob(m/2, 1-p)``, independently of the rest:
    K ~ Binomial(n - |failed|, w) of them, at uniform positions.  Returns
    None when :func:`_failure_set` cannot draw the failures; the caller then
    simulates the rounds.
    """
    failed = _failure_set(n, m, gen)
    if failed is None:
        return None
    k = gen.binomial(n - failed.size, majority_wrong_prob(m // 2, 1.0 - channel.flip_probability))
    wrong = np.empty(0, np.int64)
    if k:
        successful = np.setdiff1d(np.arange(n), failed, assume_unique=True)
        wrong = gen.choice(successful, k, replace=False)
    return failed, wrong


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
    work buffers allocated once per run.  The groups whose code changes at
    a span's end close their windows there, in (code, shift) order.  While
    the preamble is still informing agents a span is one round, because an
    agent that hears starts sending in the next round.  With one clock
    group and no preamble, a stage-2 window that opens with every agent
    correct is drawn whole by :func:`unanimous_phase`, and its rounds are
    skipped.  The run ends when the last window of the latest group has
    closed.
    """
    n = config.n
    channel = config.channel
    correct = config.correct_opinion
    t1 = schedule.t_phases + 1                 # code of the last stage-1 window
    edges, codes = _local_windows(schedule, d)
    local_total = int(edges[-1])
    cnt = np.zeros(n, np.int32)     # messages accepted in the current window
    corr = np.zeros(n, np.int32)    # ... of them carrying the correct opinion after the channel
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
    one_clock = groups.size == 1 and not preamble   # see unanimous_phase

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

    def close(code_v, g):
        """Close window ``code_v`` for clock group ``g``."""
        members = np.flatnonzero(gid == g)
        if code_v <= t1:
            new = members[(opinion[members] < 0) & (cnt[members] > 0)]
            right = _stage1_pick(cnt[new], corr[new], gen)
            opinion[new] = np.where(right, correct, complement(correct))
            y_acc[code_v] += int(new.size)
            z_acc[code_v] += int(right.sum())
            cnt[new] = 0     # stage 2 counts its samples from zero
            corr[new] = 0
        else:
            j = code_v - t1 - 1
            subset = lengths[j] // 2
            if start_frac[j] is None:
                start_frac[j] = _correct_fraction(opinion, correct)
            successful = members[cnt[members] >= subset]
            _stage2_apply(opinion, correct, successful, cnt, corr, subset, gen)
            succ_acc[j] += int(successful.size)
            end_frac[j] = _correct_fraction(opinion, correct)   # last group's close wins
            cnt[members] = 0
            corr[members] = 0

    messages = 0
    t = 0
    while t < groups[-1] + local_total:
        seg = np.searchsorted(edges, t - groups, "right")   # each group's segment at round t
        gcode = codes[seg]
        if (one_clock and gcode[0] > t1 and edges[seg[0] - 1] == t - groups[0]
                and (opinion == correct).all()):
            # a stage-2 window opens now with every agent correct
            assert not (cnt.any() or corr.any())
            j = int(gcode[0]) - t1 - 1
            m = lengths[j]
            drawn = unanimous_phase(n, m, channel, gen)
            if drawn is not None:
                failed, wrong = drawn
                start_frac[j] = 1.0
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
            heard, match = deliver_span_counts(carriers, others, end - t, n, channel, gen, buffers)
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
            close(code_v, g)
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
    """
    gen = _as_generator(rng, config, "desync")
    n = config.n
    schedule = derive_schedule(n, config.channel, config.constants)
    opinion = _source_opinions(config)
    if clocks is None:
        return _run_windows(opinion, config, schedule, gen, None, d=clock_bound(n))
    off = np.asarray(clocks.offsets, dtype=np.int64)
    if off.shape != (n,):
        raise ConfigurationError("clock offsets must have one entry per agent")
    ClockConfiguration(off, clocks.d_bound)    # revalidate against the n-sized array
    # clock value o at t=0 means local time t + o
    return _run_windows(opinion, config, schedule, gen, -off, d=clocks.d_bound)


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
    if threshold < 1:
        raise ConfigurationError(f"threshold must be >= 1, got {threshold}")
    gen = _as_generator(rng, config, "baseline-silent")
    opinion, rounds, messages, _, first_reach = _threshold_loop(config, threshold, max_rounds, gen)
    return Outcome(opinion, _correct_fraction(opinion, config.correct_opinion), rounds, messages,
                   stage1=None, stage2=(), first_threshold_round=first_reach)
