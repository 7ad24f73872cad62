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

Engines are array-based for speed.  Per-agent state lives in a
struct-of-arrays :class:`World`; the spec-level ``AgentState`` record is an
inspection view over it.  An agent only ever uses how many of the messages
it accepted carry each opinion, so the engine keeps two counters per agent,
accepted messages and correct ones among them, and four equivalences keep
the hot path fast without changing any distribution:

* the uniform accept among a round's arrivals is drawn from the arrival
  counts (:func:`~flipsim.model.deliver_round_counts`): an agent with ``a``
  arrivals, ``c`` of them correct, keeps a correct bit with probability
  ``(c (1 - p) + (a - c) p) / a``, and no arrival order is drawn;
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
bindings ``flipsim.protocols.deliver_round_counts`` and
``flipsim.protocols.unanimous_phase``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .model import (
    ConfigurationError,
    complement,
    deliver_round_arrays,
    deliver_round_counts,
    delivery_buffers,
    derive_rng,
)
from .oracle import binomial_tail_geq, majority_wrong_prob
from .params import ScheduleParams, SimConfig, _ceil_log2, derive_schedule, majority_entry_phase

_NEVER = np.int32(2 ** 31 - 1)   # send_from sentinel: dormant, never sends
_UNSET = np.int64(2 ** 62)       # shift of an agent the preamble has not reached


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
class AgentState:
    """Inspection view of one agent."""

    id: int
    activated: bool
    level: int | None
    activation_round: int | None
    local_clock: int
    current_opinion: int | None


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


class World:
    """Struct-of-arrays per-agent state for one run."""

    __slots__ = ("n", "correct", "opinion", "level", "send_from", "activation_round", "clock")

    def __init__(self, n: int, correct_opinion: int):
        self.n = n
        self.correct = int(correct_opinion)
        self.opinion = np.full(n, -1, np.int8)
        self.level = np.full(n, -1, np.int32)
        self.send_from = np.full(n, _NEVER, np.int32)
        self.activation_round = np.full(n, -1, np.int64)
        self.clock = 0

    def agent_state(self, i: int) -> AgentState:
        activated = self.send_from[i] != _NEVER
        return AgentState(
            id=i,
            activated=bool(activated),
            level=int(self.level[i]) if self.level[i] >= 0 else None,
            activation_round=int(self.activation_round[i]) if self.activation_round[i] >= 0 else None,
            local_clock=self.clock,
            current_opinion=int(self.opinion[i]) if self.opinion[i] >= 0 else None,
        )

    def correct_fraction(self) -> float:
        return float((self.opinion == self.correct).mean())


def make_broadcast_world(config: SimConfig, source: int = 0) -> World:
    world = World(config.n, config.correct_opinion)
    world.opinion[source] = config.correct_opinion
    world.level[source] = 0
    world.send_from[source] = 0
    world.activation_round[source] = 0
    return world


def make_consensus_world(config: SimConfig, initial_opinions: np.ndarray, entry_phase: int) -> World:
    """World for a majority-consensus run: ``initial_opinions`` holds -1 for
    agents outside the initial set.  Members already hold opinions and send
    in every executed phase (entry_phase .. T+1)."""
    world = World(config.n, config.correct_opinion)
    members = np.flatnonzero(initial_opinions >= 0)
    if members.size == 0:
        raise ConfigurationError("initial set is empty")
    world.opinion[members] = initial_opinions[members]
    world.level[members] = max(entry_phase - 1, 0)
    world.send_from[members] = entry_phase
    return world


# ---------------------------------------------------------------------------
# the windowed engine


def _stage1_pick(cnt, corr, gen):
    """Whether each activating agent's uniform pick among the ``cnt``
    messages it accepted in its window, ``corr`` of them correct, is a
    correct one: true with probability ``corr / cnt``."""
    return gen.random(cnt.size) * cnt < corr


def _stage2_apply(world, successful, cnt, corr, subset, gen):
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
    correct = world.correct
    world.opinion[successful] = np.where(2 * h > subset, correct, complement(correct)).astype(np.int8)


def _truncated_binomial(m, q, s, gen):
    """One draw of Binomial(m, q) conditioned on being below ``s``."""
    k = np.arange(s)
    logp = k * math.log(q) + (m - k) * math.log1p(-q) - gammaln(k + 1) - gammaln(m - k + 1)
    w = np.exp(logp - logp.max())
    return int(gen.choice(s, p=w / w.sum()))


def _failure_set(n, m, gen, buffers):
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
    failed = np.flatnonzero(_occupancy_given(i, hears, n, gen, buffers) < s)
    return failed if gen.random() * failed.size < 1.0 else np.empty(0, np.int64)


def _occupancy_given(i, hears, n, gen, buffers):
    """How many rounds each agent hears in, over rounds in which all n
    agents send, conditioned on agent i hearing in exactly the rounds where
    ``hears`` is true.  The counts are a view of ``buffers``."""
    heard, _, _, cnt, _ = buffers
    others = np.delete(np.arange(n), i)
    lo = np.minimum(others, i)
    hi = np.maximum(others, i)
    cnt.fill(0)
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


def unanimous_phase(n, m, channel, gen, buffers):
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
    failed = _failure_set(n, m, gen, buffers)
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
    -1 between windows.  Returns the code of every local round.
    """
    t = schedule.t_phases
    st2 = schedule.stage1_rounds + (t + 2) * d
    wcode = np.full(st2 + schedule.stage2_rounds, -1, np.int32)
    for i, (start, length) in enumerate(schedule.phase_bounds_stage1):
        wcode[start + i * d:start + i * d + length] = i
    off = st2
    for j, m in enumerate(schedule.stage2_phase_lengths, start=1):
        wcode[off:off + m] = t + 1 + j
        off += m
    return wcode


def _run_windows(world, config, schedule, gen, shift, d=0):
    """Run the stage-1 and stage-2 windows of ``schedule`` on each agent's
    local clock; returns ``(Outcome, DesyncInfo)``.

    ``shift[i]`` is the global round at which agent i's local clock reads 0,
    and ``d`` is the gap between windows.  Agents that share a shift form a
    clock group, and a window closes (phase activation, or subset-majority
    update) one group at a time.  With ``shift=None`` an activation preamble
    sets the shifts: every informed agent broadcasts a junk bit for
    2*ceil(log2 n) rounds and its clock reads 0 exactly 4*ceil(log2 n)
    rounds after its first received message.

    Senders and listener masks change only at rounds where some group's
    window opens or closes or a preamble send window starts or ends; they
    are rebuilt there.  Every round draws per-agent accept outcomes from the
    arrival counts and adds them to each listener's counters in place, with
    work buffers allocated once per run.  With one clock group and no
    preamble, a stage-2 window that opens with every agent correct is drawn
    whole by :func:`unanimous_phase`, and its rounds are skipped.  The run
    ends when the last window of the latest group has closed.
    """
    n = world.n
    channel = config.channel
    correct = world.correct
    t1 = schedule.t_phases + 1                 # code of the last stage-1 window
    log2n = _ceil_log2(n)
    wcode = _local_windows(schedule, d)
    local_total = wcode.size
    edges = np.flatnonzero(np.diff(wcode, prepend=-2, append=-2))   # local rounds where the code changes
    closes = [(e, int(wcode[e - 1])) for e in edges.tolist() if e and wcode[e - 1] >= 0]
    wpad = np.concatenate(([-1], wcode, [-1]))     # codes of local rounds -1 .. local_total
    cnt = np.zeros(n, np.int32)     # messages accepted in the current window
    corr = np.zeros(n, np.int32)    # ... of them carrying the correct opinion after the channel
    buffers = delivery_buffers(n)

    groups = set()  # shift values of the clock groups
    events = {}     # global round -> [(window code, shift value)] closing at its end
    rebuild = {0}   # global rounds at which senders or listeners may change

    def register(v):
        if v in groups:
            return
        groups.add(v)
        rebuild.update((v + edges).tolist())
        for close_local, code in closes:
            et = v + close_local - 1
            if et >= 0:     # a window fully before t=0 saw no traffic; skipping == empty finalize
                events.setdefault(et, []).append((code, v))

    preamble = shift is None
    pre_rounds = 2 * log2n
    uninformed = 0      # agents the preamble has not reached
    if preamble:
        shift = np.full(n, _UNSET, np.int64)
        send_start = np.full(n, _UNSET, np.int64)   # preamble broadcast window start
        shift[0] = 4 * log2n                        # source: informed at start, resets at 4*log2n
        send_start[0] = 0
        rebuild.add(pre_rounds)
        register(4 * log2n)
        uninformed = n - 1
    else:
        for v in np.unique(shift):
            register(int(v))
    horizon = max(groups) + local_total
    # global round -> index of the stage-2 phase whose window opens there,
    # when every agent shares one clock (see unanimous_phase)
    stage2_opens = {}
    if len(groups) == 1 and not preamble:
        (v,) = groups
        stage2_opens = {v + e: int(wcode[e]) - t1 - 1
                        for e in edges.tolist() if e < local_total and wcode[e] > t1}

    y_acc = [0] * (t1 + 1)
    z_acc = [0] * (t1 + 1)
    lengths = schedule.stage2_phase_lengths
    n_st2 = len(lengths)
    succ_acc = [0] * n_st2
    end_frac = [None] * n_st2
    start_frac = [None] * n_st2

    def round_setup(t):
        """Senders carrying the correct opinion, the other senders, and the
        listener masks of round t: stage-1 listeners and all listeners."""
        code = wpad[np.clip(t - shift, -1, local_total) + 1]
        in1 = (code >= 0) & (code <= t1)
        in2 = code > t1
        main = (in1 & (world.send_from <= code)) | (in2 & (world.opinion >= 0))
        carries = main & (world.opinion == correct)
        if preamble:
            # preamble broadcasts carry a junk bit: the complement of the
            # correct opinion, so that relabeling the opinions maps a run to
            # a run.  A window listener can accept one only when the clock
            # spread reaches D.
            main |= (send_start <= t) & (t < send_start + pre_rounds)
        listen1 = in1 & (world.send_from == _NEVER)    # activated agents discard stage-1 traffic
        return np.flatnonzero(carries), np.flatnonzero(main & ~carries), listen1, listen1 | in2

    def listen(heard, match, t):
        """Listeners count their accepted messages and the correct ones
        among them.  Reads the masks of the latest rebuild."""
        np.logical_and(heard, listening, out=heard)
        np.logical_and(match, listening, out=match)
        np.add(cnt, heard, out=cnt)
        np.add(corr, match, out=corr)
        if any1:
            # a stage-1 listener activates at the close of the window in
            # which it first hears; record that round
            np.logical_and(heard, fresh1, out=heard)
            if heard.any():
                world.activation_round[heard] = t
                np.greater(fresh1, heard, out=fresh1)

    def close(code_v, v):
        """Close window ``code_v`` for the clock group with shift ``v``."""
        members = np.flatnonzero(shift == v)
        if code_v <= t1:
            new = members[(world.send_from[members] == _NEVER) & (cnt[members] > 0)]
            right = _stage1_pick(cnt[new], corr[new], gen)
            world.level[new] = code_v
            world.send_from[new] = code_v + 1
            world.opinion[new] = np.where(right, correct, complement(correct))
            y_acc[code_v] += int(new.size)
            z_acc[code_v] += int(right.sum())
            cnt[new] = 0     # stage 2 counts its samples from zero
            corr[new] = 0
        else:
            j = code_v - t1 - 1
            subset = lengths[j] // 2
            if start_frac[j] is None:
                start_frac[j] = world.correct_fraction()
            successful = members[cnt[members] >= subset]
            _stage2_apply(world, successful, cnt, corr, subset, gen)
            succ_acc[j] += int(successful.size)
            end_frac[j] = world.correct_fraction()   # last group's close wins
            cnt[members] = 0
            corr[members] = 0

    messages = 0
    t = 0
    while t < horizon:
        j = stage2_opens.get(t)
        if j is not None and (world.opinion == correct).all():
            assert not (cnt.any() or corr.any())
            m = lengths[j]
            drawn = unanimous_phase(n, m, channel, gen, buffers)
            if drawn is not None:
                failed, wrong = drawn
                start_frac[j] = world.correct_fraction()
                world.opinion[wrong] = complement(correct)
                succ_acc[j] = n - failed.size
                end_frac[j] = world.correct_fraction()
                messages += n * m
                del events[t + m - 1]       # the window's close, drawn above
                t += m
                continue
        if t in rebuild:
            carriers, others, listen1, listening = round_setup(t)
            sent = carriers.size + others.size
            any1 = bool(listen1.any())
            fresh1 = listen1 & (world.activation_round < 0)
        if sent:
            heard, match = deliver_round_counts(carriers, others, n, channel, gen, buffers)
            messages += sent
            if uninformed:
                fresh = np.flatnonzero(heard & (shift == _UNSET))
                if fresh.size:
                    uninformed -= fresh.size
                    send_start[fresh] = t + 1
                    shift[fresh] = t + 4 * log2n
                    rebuild.update((t + 1, t + 1 + pre_rounds))
                    register(t + 4 * log2n)
                    horizon = max(groups) + local_total
            listen(heard, match, t)
        for code_v, v in sorted(events.pop(t, ())):
            close(code_v, v)
        t += 1

    world.clock = t
    per_phase = []
    x = 0
    for p, (y, z) in enumerate(zip(y_acc, z_acc)):
        x += y
        per_phase.append(PhaseMetrics(p, x, y, z, z / y - 0.5 if y else None))
    stage1 = Stage1Result(tuple(per_phase), bool((world.send_from != _NEVER).all()), schedule.stage1_rounds)
    stage2 = tuple(Stage2PhaseRecord(j + 1, succ_acc[j], end_frac[j], start_frac[j]) for j in range(n_st2))
    info = DesyncInfo(
        d_bound=d,
        offset_spread=max(groups) - min(groups),
        preamble_rounds=4 * log2n if preamble else 0,
        local_total=local_total,
        stalled=uninformed > 0,
    )
    return Outcome(world.opinion.copy(), world.correct_fraction(), t, messages, stage1, stage2), info


def _as_generator(rng, config: SimConfig, purpose: str) -> np.random.Generator:
    return derive_rng(config.master_seed, purpose) if rng is None else rng


def run_broadcast(config: SimConfig, rng=None) -> Outcome:
    """Full two-stage noisy broadcast: one clock group with shift 0 and no
    gap between windows.  The protocol is oblivious: the round count equals
    the schedule total no matter what happens."""
    gen = _as_generator(rng, config, "broadcast")
    schedule = derive_schedule(config.n, config.channel, config.constants)
    world = make_broadcast_world(config)
    out, _ = _run_windows(world, config, schedule, gen, np.zeros(config.n, np.int64))
    return out


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
    phase i_A, at t = 0; rounds (and ``activation_round``) count from there.
    """
    gen = _as_generator(rng, config, "consensus")
    schedule = derive_schedule(config.n, config.channel, config.constants)
    initial_opinions = np.asarray(initial_opinions, dtype=np.int8)
    if initial_opinions.shape != (config.n,):
        raise ConfigurationError("initial_opinions must have one entry per agent (-1 for none)")
    a_size = int((initial_opinions >= 0).sum())
    entry = majority_entry_phase(a_size, config.n, config.channel, config.constants)
    bias = majority_bias(initial_opinions, config.correct_opinion)
    world = make_consensus_world(config, initial_opinions, entry)
    r_entry = schedule.phase_bounds_stage1[entry][0]
    out, _ = _run_windows(world, config, schedule, gen, np.full(config.n, -r_entry, np.int64))
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
    4*ceil(log2 n) rounds after its first received message, which bounds all
    clock differences by D = 2*ceil(log2 n).
    """
    gen = _as_generator(rng, config, "desync")
    n = config.n
    schedule = derive_schedule(n, config.channel, config.constants)
    world = make_broadcast_world(config)
    if clocks is None:
        out, info = _run_windows(world, config, schedule, gen, None, d=2 * _ceil_log2(n))
    else:
        off = np.asarray(clocks.offsets, dtype=np.int64)
        if off.shape != (n,):
            raise ConfigurationError("clock offsets must have one entry per agent")
        ClockConfiguration(off, clocks.d_bound)    # revalidate against the n-sized array
        # clock value o at t=0 means local time t + o
        out, info = _run_windows(world, config, schedule, gen, -off, d=clocks.d_bound)
    return replace(out, desync=info)


# ---------------------------------------------------------------------------
# failing baselines


def run_baseline_forward(config: SimConfig, max_rounds: int, rng=None) -> Outcome:
    """Immediate-forward strategy: every agent adopts the first accepted
    opinion and resends it every round afterwards.

    Each agent's hop depth (1 + depth of the agent whose message activated
    it) is tracked through diagnostics-only sender metadata; the protocol
    itself never reads sender identities.  Returns an Outcome whose
    ``depth_table`` tabulates correctness against depth.
    """
    gen = _as_generator(rng, config, "baseline-forward")
    n = config.n
    channel = config.channel
    world = make_broadcast_world(config)
    depth = np.full(n, -1, np.int64)
    depth[0] = 0
    messages = 0
    rounds = 0
    for t in range(max_rounds):
        senders = np.flatnonzero(world.opinion >= 0)
        payloads = world.opinion[senders]
        recv, acc, src = deliver_round_arrays(senders, payloads, n, channel, gen)
        messages += senders.size
        fresh = world.opinion[recv] < 0
        fr = recv[fresh]
        world.opinion[fr] = acc[fresh]
        world.send_from[fr] = 0
        world.activation_round[fr] = t
        depth[fr] = depth[src[fresh]] + 1
        rounds = t + 1
        world.clock = rounds
        if (world.opinion >= 0).all():
            break
    table = []
    if (depth > 0).any():
        for dv in range(1, int(depth.max()) + 1):
            at = depth == dv
            agents = int(at.sum())
            if agents == 0:
                continue
            table.append(DepthStat(dv, agents, int((world.opinion[at] == world.correct).sum())))
    return Outcome(
        final_opinions=world.opinion.copy(),
        correct_fraction=world.correct_fraction(),
        rounds_used=rounds,
        messages_sent=messages,
        stage1=None,
        stage2=(),
        depth_table=tuple(table),
    )


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
    n = config.n
    channel = config.channel
    world = make_broadcast_world(config)
    cnt = np.zeros(n, np.int64)
    corr = np.zeros(n, np.int64)
    first_reach = None
    messages = 0
    rounds = 0
    for t in range(max_rounds):
        senders = np.flatnonzero(world.opinion >= 0)
        payloads = world.opinion[senders]
        recv, acc, _ = deliver_round_arrays(senders, payloads, n, channel, gen)
        messages += senders.size
        waiting = world.opinion[recv] < 0
        wr = recv[waiting]
        cnt[wr] += 1
        corr[wr] += acc[waiting] == world.correct
        reached = wr[cnt[wr] >= threshold]
        if reached.size:
            if first_reach is None:
                first_reach = t + 1
            good = 2 * corr[reached] > threshold
            tie = 2 * corr[reached] == threshold
            coin = gen.random(reached.size) < 0.5
            pick = np.where(good | (tie & coin), world.correct, complement(world.correct))
            world.opinion[reached] = pick.astype(np.int8)
            world.send_from[reached] = 0
            world.activation_round[reached] = t
        rounds = t + 1
        world.clock = rounds
        if (world.opinion >= 0).all():
            break
    return Outcome(
        final_opinions=world.opinion.copy(),
        correct_fraction=world.correct_fraction(),
        rounds_used=rounds,
        messages_sent=messages,
        stage1=None,
        stage2=(),
        first_threshold_round=first_reach,
    )
