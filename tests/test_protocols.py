import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from flipsim import (
    ClockConfiguration,
    ConfigurationError,
    InitialSetTooSmallError,
    NoiseChannel,
    ProtocolConstants,
    SimConfig,
    derive_rng,
    derive_schedule,
    majority_bias,
    run_baseline_forward,
    run_baseline_silent_wait,
    run_broadcast,
    run_desynchronized,
    run_majority_consensus,
)
from flipsim.model import deliver_span_counts
from flipsim.oracle import phase_law
from flipsim.params import _ceil_log2, clock_bound
from flipsim.protocols import (
    _local_windows,
    _occupancy_given,
    _run_windows,
    _stage1_pick,
    _stage2_apply,
    _truncated_binomial,
    stage2_phase,
    stage2_tail,
)
from reference import (
    ProtocolInvariantError,
    majority_update,
    permutation_counts,
    push_spread,
    run_recorded,
    select_initial_opinion,
    window_codes,
)
from test_golden import GRIDS, _desync_overlap

# Scaled-down constants: a 44-round schedule with a growth phase (T=1) at
# n=64, for tests that need thousands of cheap runs
SMALL = ProtocolConstants(c_s=1 / 16, c_beta=1 / 8, c_f=3 / 16, c_final_stage2=1 / 16, r_scale=1 / 16)


def cfg(n, eps, seed=0, correct=1):
    return SimConfig(n=n, channel=NoiseChannel.from_epsilon(eps), master_seed=seed,
                     correct_opinion=correct)


def run_stage2(opinion, config, schedule, gen):
    """Run only the stage-2 windows on ``opinion``, in place: a clock shifted
    past the end of stage 1 skips every stage-1 window."""
    shift = np.full(config.n, -schedule.stage1_rounds, np.int64)
    return _run_windows(opinion, config, schedule, gen, shift).stage2


# ---------------------------------------------------------------------------
# contract operations


def test_select_initial_opinion_trivial():
    gen = derive_rng(0, "sel")
    assert select_initial_opinion([1], gen) == 1
    assert select_initial_opinion([0, 0, 0], gen) == 0


def test_select_initial_opinion_uniform():
    gen = derive_rng(1, "sel")
    draws = sum(select_initial_opinion([1, 0, 1], gen) for _ in range(100_000))
    assert abs(draws / 100_000 - 2 / 3) < 0.02


def test_select_initial_opinion_empty_inbox():
    with pytest.raises(ProtocolInvariantError):
        select_initial_opinion([], derive_rng(2, "sel"))


def test_majority_update_trivial():
    gen = derive_rng(3, "maj")
    assert majority_update([1, 1, 0], 3, gen) == 1
    for sub in (1, 3, 5):
        assert majority_update([1] * 5, sub, gen) == 1
        assert majority_update([0] * 5, sub, gen) == 0


def test_majority_update_subset_enumeration():
    # samples [1,1,1,0,0], subset 3: P(majority 1) = 7/10
    gen = derive_rng(4, "maj")
    trials = 50_000
    wins = sum(majority_update([1, 1, 1, 0, 0], 3, gen) for _ in range(trials))
    assert abs(wins / trials - 0.7) < 0.02


def test_majority_update_contract_violations():
    gen = derive_rng(5, "maj")
    with pytest.raises(ProtocolInvariantError):
        majority_update([1, 0], 3, gen)
    with pytest.raises(ConfigurationError):
        majority_update([1, 0, 1, 1], 2, gen)


# ---------------------------------------------------------------------------
# stage 1


@pytest.mark.filterwarnings("ignore:epsilon")  # n=2 sits outside the regime by design
def test_stage1_two_agents_noiseless():
    config = cfg(2, 0.5)
    out = run_broadcast(config, rng=derive_rng(6, "s1"))
    result = out.stage1
    assert result.all_activated
    phase0 = result.per_phase[0]
    assert phase0.y == 1 and phase0.z == 1 and phase0.epsilon == 0.5
    assert out.final_opinions.tolist() == [1, 1]


@pytest.mark.filterwarnings("ignore:epsilon")  # n=2 sits outside the regime by design
def test_two_agents_noisy_broadcast_runs():
    # at n=2 each agent hears the other in every round, so the drawn
    # stage-2 phase cannot condition on an agent missing a round and
    # leaves those phases to the simulated rounds
    config = cfg(2, 0.25)
    assert stage2_phase(2, 38, np.zeros(2, bool), config.channel, derive_rng(0, "two")) is None
    total = derive_schedule(2, config.channel).total_rounds
    for seed in range(20):
        out = run_broadcast(config, rng=derive_rng(seed, "two"))
        assert out.rounds_used == total and (out.final_opinions >= 0).all()


def test_stage1_invariants_and_sandwich():
    # eps=1/2 at n=4096 gives T=1, exercising the growth phase cheaply
    config = cfg(4096, 0.5, seed=9)
    schedule = derive_schedule(config.n, config.channel)
    assert schedule.t_phases == 1
    for seed in range(3):
        res = run_broadcast(config, rng=derive_rng(seed, "s1inv")).stage1
        xs = [m.x for m in res.per_phase]
        ys = [m.y for m in res.per_phase]
        zs = [m.z for m in res.per_phase]
        assert xs == list(np.cumsum(ys))
        assert all(z <= y for z, y in zip(zs, ys))
        x0 = xs[0]
        # deterministic upper bound, with the +1 accounting for the source
        for i in range(1, schedule.t_phases + 1):
            assert xs[i] + 1 <= (schedule.beta + 1) ** i * (x0 + 1)
        assert res.all_activated


def test_stage1_pick_exact_law():
    # an activating agent that accepted k messages, j of them correct,
    # adopts the correct opinion with probability exactly j/k; j may be a
    # fraction, the expected correct count that stage-1 spans add up
    agents = 40_000
    gen = derive_rng(12, "pick")
    for k in range(1, 5):
        fractions = (0.3, 1.7) if k > 1 else ()
        for j in (*range(k + 1), *fractions):
            right = _stage1_pick(np.full(agents, k, np.int32), np.full(agents, j, np.float64), gen)
            share = right.mean()
            if j in (0, k):
                assert share == j / k
            else:
                q = j / k
                assert abs(share - q) < 4 * math.sqrt(q * (1 - q) / agents), (k, j)


def test_count_path_matches_permutation_path(monkeypatch):
    # The count kernel and stage-1 pick must give the law of the permutation
    # kernel, installed here in the engine through an adapter, at the SMALL
    # constants; mean per-phase y and z and the first stage-2 start fraction
    # must agree within 4 sigma.  Every round the engine simulates must
    # reach the adapter: with the rounds of the phases drawn by the
    # drawn stage-2 phase, they make up the whole run.
    runs = 1500
    config = SimConfig(n=64, channel=NoiseChannel.from_epsilon(0.25), constants=SMALL)
    assert derive_schedule(64, config.channel, SMALL).t_phases == 1
    seen = [0, 0]     # rounds through the adapter, rounds drawn by the shortcut

    def adapter(carriers, others, rounds, *args):
        seen[0] += rounds
        return permutation_counts(carriers, others, rounds, *args)

    def shortcut(n, m, *args):
        drawn = stage2_phase(n, m, *args)
        seen[1] += m if drawn is not None else 0
        return drawn

    samples = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr("flipsim.protocols.deliver_span_counts", adapter)
            monkeypatch.setattr("flipsim.protocols.stage2_phase", shortcut)
        rows = []
        for seed in range(runs):
            seen[:] = [0, 0]
            out = run_broadcast(config, rng=derive_rng(seed, "paths", reference))
            if reference:
                assert seen[0] > 0 and sum(seen) == out.rounds_used, (seen, out.rounds_used)
            row = [v for m in out.stage1.per_phase for v in (m.y, m.z)]
            rows.append(row + [out.stage2[0].start_correct_fraction])
        samples.append(np.array(rows, float))
    count, perm = samples
    sigma = np.sqrt(count.var(0, ddof=1) / runs + perm.var(0, ddof=1) / runs)
    assert (np.abs(count.mean(0) - perm.mean(0)) < 4 * sigma).all(), (count.mean(0), perm.mean(0))


# ---------------------------------------------------------------------------
# stage 2


def test_stage2_preserves_unanimity():
    config = cfg(128, 0.25, seed=3)
    schedule = derive_schedule(config.n, config.channel)
    opinion = np.full(config.n, config.correct_opinion, np.int8)
    records = run_stage2(opinion, config, schedule, derive_rng(10, "s2"))
    for rec in records:
        assert rec.correct_fraction == 1.0
    assert (opinion == config.correct_opinion).mean() == 1.0


def test_stage2_boost_regression():
    # start fraction 1/2 + 0.05: stage 2 should finish fully correct
    wins = 0
    for seed in range(10):
        config = cfg(1024, 0.25, seed=seed)
        schedule = derive_schedule(config.n, config.channel)
        gen = derive_rng(seed, "s2boost")
        opinions = np.zeros(config.n, np.int8)
        opinions[: round(1024 * 0.55)] = 1
        gen.shuffle(opinions)
        run_stage2(opinions, config, schedule, gen)
        wins += (opinions == config.correct_opinion).mean() == 1.0
    assert wins >= 9


def test_stage2_subset_majority_exact_law():
    # every agent holds 5 samples, 3 of them correct, and takes the majority
    # of a subset of 3: over all C(5,3) subsets, 7/10 have a correct majority
    exact = Fraction(sum(2 * sum(sub) > 3 for sub in combinations([1, 1, 1, 0, 0], 3)), math.comb(5, 3))
    assert exact == Fraction(7, 10)
    agents = 200_000
    opinion = np.full(agents, -1, np.int8)
    cnt = np.full(agents, 5, np.int32)
    corr = np.full(agents, 3, np.int32)
    _stage2_apply(opinion, 1, np.arange(agents), cnt, corr, 3, derive_rng(15, "hyper"))
    sigma = math.sqrt(0.7 * 0.3 / agents)
    assert abs((opinion == 1).mean() - 0.7) < 4 * sigma


def test_stage2_relabeling_symmetry():
    # exactly balanced start; complementing every opinion and the correct
    # opinion yields the identical trajectory under the same stream
    n = 256
    base = np.zeros(n, np.int8)
    base[: n // 2] = 1
    trajs = []
    for correct in (1, 0):
        config = cfg(n, 0.25, correct=correct)
        schedule = derive_schedule(n, config.channel)
        opinion = base.copy() if correct == 1 else base ^ 1
        records = run_stage2(opinion, config, schedule, derive_rng(11, "sym"))
        trajs.append([r.correct_fraction for r in records])
    assert trajs[0] == trajs[1]


# ---------------------------------------------------------------------------
# stage 2: phases drawn from their law


def _union_bound(n, m, wrong=0, p=0.0):
    """pi = sum over agents of P(B_i), B_i = "i fails or ends on a wrong
    majority" in an m-round phase that opens with ``wrong`` agents wrong."""
    return sum(agents * cls.event for agents, cls in zip((n - wrong, wrong), phase_law(n, m, wrong, p)))


def _unanimous_opinions(config):
    return np.full(config.n, config.correct_opinion, np.int8)


def _one_phase_run(config, schedule, gen, wrong):
    """One stage-2 phase from a start with the first ``wrong`` agents wrong:
    (successful count, start-correct agents ending wrong, start-wrong agents
    ending wrong)."""
    opinion = _unanimous_opinions(config)
    opinion[:wrong] ^= 1
    (record,) = run_stage2(opinion, config, schedule, gen)
    assert record.start_correct_fraction == (config.n - wrong) / config.n
    ends_wrong = opinion != config.correct_opinion
    return record.successful_count, int(ends_wrong[wrong:].sum()), int(ends_wrong[:wrong].sum())


@pytest.mark.filterwarnings("ignore:epsilon")  # n=20 at eps=0.35 sits outside the regime by design
def test_unanimous_phase_matches_simulated_rounds(monkeypatch):
    # One 54-round phase at n=20 and eps=0.35 that opens with W in {0, 2, 5}
    # agents wrong: pi = 0.23, 0.24 and 0.84, with failures and wrong
    # majorities both in it.  The joint law of (successful count, wrong
    # among start-correct, wrong among start-wrong) drawn by stage2_phase
    # must match the simulated rounds (the draw patched out) cell by cell,
    # 4 sigma, and the Karp-Luby-Madras branch must run in over 10% of the
    # drawn phases.  On both paths the mean number of agents ending wrong
    # must match its exact law, and on the drawn path E|F| = pi, F the
    # agents that fail or end on a wrong majority.
    n, m, runs = 20, 54, 4000
    config = cfg(n, 0.35)
    p = config.channel.flip_probability
    schedule = replace(derive_schedule(n, config.channel), k=0, stage2_phase_lengths=(m,))
    for wrong in (0, 2, 5):
        pi = _union_bound(n, m, wrong, p)
        assert 0.2 < pi < 0.9
        expected = sum(agents * (1 - cls.correct)
                       for agents, cls in zip((n - wrong, wrong), phase_law(n, m, wrong, p)))
        tables = []
        for simulated in (False, True):
            events = []     # |F| of each drawn phase
            branches = [0]  # phases that ran the Karp-Luby-Madras branch

            def drawn_phase(n, m, wrong_at_open, *args):
                out = stage2_phase(n, m, wrong_at_open, *args)
                events.append(np.union1d(*out).size)
                return out

            def occupancy(*args):
                branches[0] += 1
                return _occupancy_given(*args)

            with monkeypatch.context() as patch:
                patch.setattr("flipsim.protocols.stage2_phase",
                              (lambda *args: None) if simulated else drawn_phase)
                patch.setattr("flipsim.protocols._occupancy_given", occupancy)
                gen = derive_rng(16, "unanimous", wrong, simulated)
                keys = [_one_phase_run(config, schedule, gen, wrong) for _ in range(runs)]
            tables.append(Counter(keys))
            ends = np.array([a + b for _, a, b in keys], float)
            sigma = max(ends.std(), math.sqrt(expected)) / math.sqrt(runs)
            assert abs(ends.mean() - expected) < 4 * sigma, (wrong, ends.mean(), expected)
            if not simulated:
                assert len(events) == runs and branches[0] > 0.1 * runs, (wrong, branches)
                events = np.array(events, float)
                assert abs(events.mean() - pi) < 4 * events.std() / math.sqrt(runs), (wrong, events.mean(), pi)
        drawn, simulated = tables
        for key in set(drawn) | set(simulated):
            a, b = drawn.get(key, 0) / runs, simulated.get(key, 0) / runs
            pooled = (a + b) / 2
            assert abs(a - b) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / runs), (wrong, key, a, b)


def _history_law(n, m, others_wrong, p):
    """Exact law of (rounds heard, wrong senders picked) over an m-round
    phase in which all n agents send, for an agent with ``others_wrong``
    wrong agents among the n-1 others, given that it hears in fewer than
    s = m/2 rounds or its majority of s heard samples is wrong.  Built
    forward from the rounds: a heard round picks a wrong sender with
    probability w and keeps its sample's class with probability 1-p."""
    s = m // 2
    h = 1 - (1 - 1 / (n - 1)) ** (n - 1)
    w = others_wrong / (n - 1)

    def binom(k, x):
        return np.array([math.comb(k, j) * x ** j * (1 - x) ** (k - j) for j in range(k + 1)])

    # (correct samples, wrong picks) over the s subset cells
    cells = np.zeros((s + 1, s + 1))
    cells[0, 0] = 1.0
    for _ in range(s):
        step = cells * (1 - w) * p
        step[1:] += cells[:-1] * (1 - w) * (1 - p)
        step[:, 1:] += cells[:, :-1] * w * (1 - p)
        step[1:, 1:] += cells[:-1, :-1] * w * p
        cells = step
    wrong_majority = cells[:(s + 1) // 2].sum(0)
    law = np.zeros((m + 1, m + 1))
    for c, pc in enumerate(binom(m, h)):
        picks = binom(c, w) if c < s else np.convolve(wrong_majority, binom(c - s, w))
        law[c, :c + 1] = pc * picks
    return law


@pytest.mark.filterwarnings("ignore:epsilon")
def test_drawn_phase_history_exact_law(monkeypatch):
    # The Karp-Luby-Madras branch of stage2_phase at n=20, eps=0.35, W=5
    # (pi = 0.84): the agent I it conditions on, and the rounds it hears and
    # the wrong senders it picks, which the conditioned rounds of everyone
    # else depend on.  P(I starts wrong) and, for each start, the law of
    # I's heard count and of its wrong picks must match the exact law built
    # forward from the rounds, value by value within 4 sigma.
    n, m, wrong, draws = 20, 54, 5, 20_000
    channel = NoiseChannel.from_epsilon(0.35)
    p = channel.flip_probability
    start = np.arange(n) < wrong
    seen = []

    def occupancy(i, pick, *args):
        seen.append((bool(start[i]), int((pick >= 0).sum()), int((pick == 1).sum())))
        return np.zeros(n, np.int64), np.zeros(n, np.int64)     # everyone else: no samples

    monkeypatch.setattr("flipsim.protocols._occupancy_given", occupancy)
    gen = derive_rng(21, "history")
    for _ in range(draws):
        stage2_phase(n, m, start, channel, gen)
    laws = {False: (n - wrong) * _history_law(n, m, wrong, p), True: wrong * _history_law(n, m, wrong - 1, p)}
    pi = sum(law.sum() for law in laws.values())
    for (starts, law), agents, cls in zip(laws.items(), (n - wrong, wrong), phase_law(n, m, wrong, p)):
        assert abs(law.sum() - agents * cls.event) < 1e-12, (starts, law.sum(), agents * cls.event)
        assert abs(law[:m // 2].sum() - agents * cls.fail) < 1e-12, (starts, law[:m // 2].sum(), agents * cls.fail)
    share = sum(cls for cls, _, _ in seen) / len(seen)
    expect = laws[True].sum() / pi
    assert abs(share - expect) < 4 * math.sqrt(expect * (1 - expect) / len(seen)), (share, expect)
    for cls, law in laws.items():
        rows = np.array([(c, k) for starts, c, k in seen if starts == cls])
        for axis, values in ((1, rows[:, 0]), (0, rows[:, 1])):
            exact = law.sum(axis) / law.sum()
            freq = np.bincount(values, minlength=m + 1) / values.size
            sigma = np.sqrt(exact * (1 - exact) / values.size)
            assert (np.abs(freq - exact) <= 4 * sigma + 1e-12).all(), (cls, axis, freq, exact)


def test_truncated_binomial_exact_law():
    # Binomial(38, 0.645) conditioned below 19: every value within 4 sigma
    # of the exact conditional pmf
    m, q, s, draws = 38, 0.645, 19, 20_000
    gen = derive_rng(19, "truncated")
    counts = np.bincount([_truncated_binomial(m, q, s, gen) for _ in range(draws)], minlength=s)
    assert counts.size == s
    pmf = np.array([math.comb(m, k) * q ** k * (1 - q) ** (m - k) for k in range(s)])
    pmf /= pmf.sum()
    sigma = np.sqrt(pmf * (1 - pmf) / draws)
    assert (np.abs(counts / draws - pmf) <= 4 * sigma + 1e-12).all(), (counts / draws, pmf)


@pytest.mark.parametrize("n,m", [(16, 30), (8, 26)])
def test_failure_set_matches_direct_occupancy(n, m):
    # The Karp-Luby-Madras draw of the failure set against the plain
    # occupancy of m rounds in which all n agents send: the law of |F|
    # within 4 sigma size by size, and E|F| = pi.  A noiseless channel and
    # a unanimous start leave failure as the only event.
    runs = 10_000
    s = m // 2
    pi = _union_bound(n, m)
    assert 0.2 < pi < 0.6
    gen = derive_rng(17, "klm", n, m)
    channel = NoiseChannel(0.0)
    klm = np.array([stage2_phase(n, m, np.zeros(n, bool), channel, gen)[0].size for _ in range(runs)])
    t = gen.integers(0, n - 1, size=(runs, m, n))
    t += t >= np.arange(n)
    heard = np.zeros((runs * m, n), bool)
    heard[np.arange(runs * m)[:, None], t.reshape(runs * m, n)] = True
    direct = (heard.reshape(runs, m, n).sum(1) < s).sum(1)
    for size in range(max(klm.max(), direct.max()) + 1):
        a, b = (klm == size).mean(), (direct == size).mean()
        pooled = (a + b) / 2
        assert abs(a - b) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / runs), (size, a, b)
    for sizes in (klm, direct):
        assert abs(sizes.mean() - pi) < 4 * sizes.std() / math.sqrt(runs), (sizes.mean(), pi)


def _check_conditioned_round(sending, wrong, pick, gen):
    """One round at n=6 in which the agents of the bool mask ``sending``
    send, ``wrong`` marking the wrong ones, conditioned on agent I = 2
    accepting from a correct sender (``pick`` 0), a wrong one (1) or hearing
    nothing (-1): the law of every other agent's (heard, sample correct)
    drawn by :func:`_occupancy_given` must match unconditioned rounds of the
    kernel's rule (uniform targets, a uniform accept, the channel), kept
    when I's arrivals match, pattern by pattern within 4 sigma.  Patterns
    expected fewer than 10 times in the draws are pooled into one, where
    the normal approximation behind 4 sigma holds."""
    n, i, draws = 6, 2, 30_000
    channel = NoiseChannel(0.2)
    rest = np.delete(np.arange(n), i)
    weights = 3 ** np.arange(n - 1)
    drawn = np.zeros(3 ** (n - 1))
    for _ in range(draws):
        cnt, corr = _occupancy_given(i, np.array([pick], np.int8), wrong, channel, gen, sending)
        assert cnt[i] == corr[i] == 0
        drawn[int((cnt + corr)[rest] @ weights)] += 1
    drawn /= draws
    rounds = 10 * draws
    t = gen.integers(0, n - 1, size=(rounds, n))
    t += t >= np.arange(n)
    t[:, ~sending] = -1                  # the silent agents send nothing
    order = gen.random((rounds, n))      # the earliest arrival is accepted
    chosen = np.stack([np.where(t == r, order, 2.0).argmin(1) for r in range(n)], 1)
    heard = np.stack([(t == r).any(1) for r in range(n)], 1)
    sample = ~wrong[chosen] ^ (gen.random((rounds, n)) < channel.flip_probability)
    keep = heard[:, i] & (wrong[chosen[:, i]] == pick) if pick >= 0 else ~heard[:, i]
    codes = (heard * (1 + sample))[keep][:, rest] @ weights
    reference = np.bincount(codes, minlength=drawn.size) / codes.size
    pooled = (drawn * draws + reference * codes.size) / (draws + codes.size)
    rare = pooled * draws < 10
    drawn, reference, pooled = (np.append(x[~rare], x[rare].sum()) for x in (drawn, reference, pooled))
    sigma = np.sqrt(pooled * (1 - pooled) * (1 / draws + 1 / codes.size))
    assert (np.abs(drawn - reference) <= 4 * sigma).all(), (drawn, reference)


@pytest.mark.parametrize("pick", [0, -1, 1], ids=["hit", "missed", "hit-wrong-pick"])
def test_conditioned_round_exact_law(pick):
    # all n=6 agents send, agents 1, 2 and 4 the wrong opinion
    _check_conditioned_round(np.ones(6, bool), np.isin(np.arange(6), (1, 2, 4)), pick,
                             derive_rng(20, "round", pick + 1))


def test_unanimous_phase_falls_back_when_union_bound_exceeds_one(monkeypatch):
    # n=4096, eps=0.4: pi = 0.20 for the 202-round phases but 1.46 for the
    # final 150-round one, which must run its rounds.  From a unanimous
    # start the kernel delivers exactly those 150 rounds.
    config = cfg(4096, 0.4)
    schedule = derive_schedule(config.n, config.channel)
    *boosts, final = schedule.stage2_phase_lengths
    assert final == 150 and all(_union_bound(config.n, m) < 1 for m in boosts)
    assert _union_bound(config.n, final) > 1.4
    gen = derive_rng(18, "fallback")
    assert stage2_phase(config.n, final, np.zeros(config.n, bool), config.channel, gen) is None
    rounds = []

    def counting(carriers, others, span, *args):
        rounds.append(span)
        return deliver_span_counts(carriers, others, span, *args)

    monkeypatch.setattr("flipsim.protocols.deliver_span_counts", counting)
    records = run_stage2(_unanimous_opinions(config), config, schedule, gen)
    assert sum(rounds) == final
    assert [r.start_correct_fraction for r in records] == [1.0] * len(records)


@pytest.mark.parametrize("preamble", [False, True], ids=["clocks", "preamble"])
def test_staggered_clocks_bypass_the_shortcut(monkeypatch, preamble):
    # desync with staggered clocks (supplied or set by the preamble) never
    # calls the single-clock shortcut; its stage-2 tail is drawn by
    # stage2_tail instead, and its rounds still outnumber the schedule's
    def refuse(*args):
        raise AssertionError("the drawn stage-2 phase was called")

    monkeypatch.setattr("flipsim.protocols.stage2_phase", refuse)
    config = cfg(512, 0.25, seed=6)
    d = clock_bound(512)
    clocks = None if preamble else ClockConfiguration(derive_rng(0, "off").integers(0, d, 512), d)
    out = run_desynchronized(config, clocks=clocks, rng=derive_rng(0, "bypass"))
    assert out.rounds_used > derive_schedule(512, config.channel).total_rounds
    assert out.messages_sent > 0


# ---------------------------------------------------------------------------
# stage 2 under staggered clocks: the drawn tail


def _tail_union_bound(t, opens, lengths, gid, cnt):
    """pi = the sum of P(F_ij) over every (agent, phase-j window) still to
    close after round t, F_ij = "agent i ends its window with fewer than
    s_j = m_j/2 samples", built round by round: agent i hears in round u
    with probability 1-(1-1/(n-1))^(m_u-1), m_u the agents of the groups
    still in stage 2, and starts from ``cnt[i]`` in a window that opened
    before t."""
    n = gid.size
    ends = opens[:, None] + np.cumsum(lengths)
    pi = 0.0
    for g, j in zip(*np.nonzero(ends > t)):
        m = lengths[j]
        law = np.zeros(m + 1)
        law[0] = 1.0
        for u in range(max(t, ends[g, j] - m), ends[g, j]):
            h = 1 - (1 - 1 / (n - 1)) ** ((ends[gid, -1] > u).sum() - 1)
            law[1:] = law[1:] * (1 - h) + law[:-1] * h
            law[0] *= 1 - h
        for i in np.flatnonzero(gid == g):
            start = cnt[i] if ends[g, j] - m < t else 0
            pi += law[:max(m // 2 - start, 0)].sum()
    return pi


def _staggered_stage2(config, schedule, gen, opens, wrong):
    """Stage 2 alone under clock groups: agent i's group opens stage 2 in
    round ``opens[i]`` (until then it sends in the last stage-1 window), and
    the first ``wrong`` agents start wrong, the rest correct.  Returns the
    per-phase successful counts and, per phase, the number of agents wrong
    after its last close."""
    opinion = _unanimous_opinions(config)
    opinion[:wrong] ^= 1
    out = _run_windows(opinion, config, schedule, gen, opens - schedule.stage1_rounds)
    assert round(config.n * out.correct_fraction) == (opinion == config.correct_opinion).sum()
    return (*(r.successful_count for r in out.stage2),
            *(round(config.n * (1 - r.correct_fraction)) for r in out.stage2))


@pytest.mark.filterwarnings("ignore:epsilon")  # tiny n sits outside the regime by design
@pytest.mark.parametrize("n,eps,sizes,offsets,wrong,runs", [
    (16, 0.2, (8, 8), (0, 6), 0, 4000),
    (18, 0.2, (6, 6, 6), (0, 3, 7), 0, 4000),
    # every agent of the early group starts wrong; the late group's window
    # holds their samples until its own close, after the early group's
    # close turned them
    (16, 0.25, (4, 12), (0, 4), 4, 1500),
], ids=["two-groups", "three-groups", "wrong-early-group"])
def test_staggered_tail_matches_simulated_rounds(monkeypatch, n, eps, sizes, offsets, wrong, runs):
    # Three 54-round stage-2 phases under staggered clocks.  The joint law of
    # the per-phase successful counts and agents wrong after each phase,
    # with the tail drawn by stage2_tail, must match the simulated rounds
    # (the draw patched to None) cell by cell within 4 sigma, and so must
    # the mean count wrong after each phase.  From an all-correct start the
    # draw runs in every run, the median of the reference union bound at
    # each run's first draw is in [0.2, 0.9], and the wrong-coin and failure
    # branches each run in over 10% of the runs.
    config = cfg(n, eps)
    schedule = replace(derive_schedule(n, config.channel), stage2_phase_lengths=(54, 54, 54))
    opens = np.repeat(offsets, sizes)
    tables, wrong_after = [], []     # per path: the key table, the wrong counts per run and phase
    for simulated in (False, True):
        firsts = []             # the inputs of the first tail draw of each run, up to 200
        seen = set()            # what the current run drew
        branches = Counter()    # runs that drew each

        def tail(*args):
            if not seen and len(firsts) < 200:
                firsts.append(tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args[:5]))
            out = stage2_tail(*args)
            seen.add("tail")
            if out is not None and out[0] is not None:
                seen.add("coin")
            return out

        def occupancy(*args):
            seen.add("failure")
            return _occupancy_given(*args)

        keys = []
        with monkeypatch.context() as patch:
            patch.setattr("flipsim.protocols.stage2_tail", (lambda *args: None) if simulated else tail)
            patch.setattr("flipsim.protocols._occupancy_given", occupancy)
            gen = derive_rng(22, "staggered", n, wrong, simulated)
            for _ in range(runs):
                seen.clear()
                keys.append(_staggered_stage2(config, schedule, gen, opens, wrong))
                branches.update(seen)
        tables.append(Counter(keys))
        wrong_after.append(np.array([k[3:] for k in keys], float))
        if simulated:
            continue
        if wrong:
            assert branches["tail"] > 0.1 * runs, branches
        else:
            assert branches["tail"] == runs, branches
            assert branches["coin"] > 0.1 * runs and branches["failure"] > 0.1 * runs, branches
            pi = np.median([_tail_union_bound(*first) for first in firsts])
            assert 0.2 <= pi <= 0.9, pi
    drawn, simulated = tables
    for key in set(drawn) | set(simulated):
        a, b = drawn.get(key, 0) / runs, simulated.get(key, 0) / runs
        pooled = (a + b) / 2
        assert abs(a - b) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / runs), (key, a, b)
    a, b = wrong_after
    assert (abs(a.mean(0) - b.mean(0)) <= 4 * np.sqrt((a.var(0) + b.var(0)) / runs)).all(), (a.mean(0), b.mean(0))


def test_tail_failures_match_direct_occupancy():
    # stage2_tail at n=12 from round 5, with three clock groups that opened
    # stage 2 in rounds 0, 2 and 5, mid-window counts and a sender tail that
    # shrinks as the groups leave: the law of |F| over its two phases must
    # match the plain occupancy of the same rounds within 4 sigma size by
    # size, and E|F| = pi.  A noiseless channel leaves no wrong coin.
    n, runs, t = 12, 10_000, 5
    lengths = (38, 46)
    gid = np.repeat(np.arange(3), 4)
    opens = np.array([0, 2, 5])
    cnt = np.array([3, 4, 2, 5, 1, 2, 0, 2, 0, 0, 0, 0], np.int32)
    pi = _tail_union_bound(t, opens, lengths, gid, cnt)
    assert 0.2 < pi < 0.6
    gen = derive_rng(23, "tail-klm")
    klm = []
    for _ in range(runs):
        coin, successful = stage2_tail(t, opens, lengths, gid, cnt, NoiseChannel(0.0), gen)
        assert coin is None
        klm.append(2 * n - successful.sum())
    klm = np.array(klm)
    ends = opens[gid][:, None] + np.cumsum(lengths)     # each agent's closes
    heard = np.zeros((runs, n, len(lengths)), np.int64)
    heard[:, np.arange(n), (ends <= t).sum(1)] = cnt
    for u in range(t, ends.max()):
        senders = np.flatnonzero(ends[:, -1] > u)
        aim = gen.integers(0, n - 1, size=(runs, senders.size))
        aim += aim >= senders
        hit = np.zeros((runs, n), bool)
        hit[np.arange(runs)[:, None], aim] = True
        heard[:, senders, (ends[senders] <= u).sum(1)] += hit[:, senders]
    direct = (heard < np.array(lengths) // 2).sum((1, 2))
    for size in range(max(klm.max(), direct.max()) + 1):
        a, b = (klm == size).mean(), (direct == size).mean()
        pooled = (a + b) / 2
        assert abs(a - b) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / runs), (size, a, b)
    for sizes in (klm, direct):
        assert abs(sizes.mean() - pi) < 4 * sizes.std() / math.sqrt(runs), (sizes.mean(), pi)


@pytest.mark.parametrize("pick", [0, -1], ids=["hit", "missed"])
@pytest.mark.parametrize("i_sends", [True, False], ids=["i-sends", "i-silent"])
def test_conditioned_round_with_sender_subset(i_sends, pick):
    # agents 0, 3, 4 and 5 send, and agent I = 2 too unless silent; agent 4
    # is wrong
    sending = np.isin(np.arange(6), (0, 3, 4, 5) + ((2,) if i_sends else ()))
    _check_conditioned_round(sending, np.arange(6) == 4, pick, derive_rng(24, "subset-round", i_sends, pick + 1))


def test_tail_falls_back_when_union_bound_exceeds_one(monkeypatch):
    # desync at n=4096, eps=0.4 with supplied clocks: the final 150-round
    # phase alone has pi = 1.46, so the one tail draw returns None and the
    # kernel delivers every round from there to the end of the run, the
    # whole final phase among them
    n = 4096
    config = cfg(n, 0.4)
    d = clock_bound(n)
    offsets = derive_rng(0, "fallback-clocks").integers(0, d, n)
    calls, rounds = [], [0]

    def tail(t, *args):
        calls.append((t, stage2_tail(t, *args)))
        return calls[-1][1]

    def counting(carriers, others, span, *args):
        rounds[0] += span if calls else 0
        return deliver_span_counts(carriers, others, span, *args)

    monkeypatch.setattr("flipsim.protocols.stage2_tail", tail)
    monkeypatch.setattr("flipsim.protocols.deliver_span_counts", counting)
    out = run_desynchronized(config, clocks=ClockConfiguration(offsets, d), rng=derive_rng(0, "fallback"))
    assert [drawn for _, drawn in calls] == [None], calls
    t = calls[0][0]
    assert rounds[0] == out.rounds_used - t
    final_open = out.desync.local_total - int(offsets.max()) - derive_schedule(n, config.channel).stage2_phase_lengths[-1]
    assert t <= final_open, (t, final_open)


# ---------------------------------------------------------------------------
# full protocols


def test_broadcast_noiseless_exact():
    out = run_broadcast(cfg(256, 0.5, seed=1))
    assert out.correct_fraction == 1.0
    assert out.rounds_used == derive_schedule(256, NoiseChannel.from_epsilon(0.5)).total_rounds


def test_broadcast_regression_small():
    ok = 0
    for seed in range(10):
        out = run_broadcast(cfg(1024, 0.25, seed=seed))
        ok += out.correct_fraction == 1.0
    assert ok == 10


def test_broadcast_rounds_oblivious():
    # same schedule length regardless of seed
    rounds = {run_broadcast(cfg(256, 0.25, seed=s)).rounds_used for s in range(3)}
    assert len(rounds) == 1


def test_broadcast_bit_identical_replay():
    config = cfg(256, 0.25, seed=14)
    a = run_broadcast(config, rng=derive_rng(5, "replay"))
    b = run_broadcast(config, rng=derive_rng(5, "replay"))
    assert np.array_equal(a.final_opinions, b.final_opinions)
    assert a.messages_sent == b.messages_sent
    assert [m.epsilon for m in a.stage1.per_phase] == [m.epsilon for m in b.stage1.per_phase]


def test_consensus_unanimous_trivial():
    config = cfg(256, 0.25, seed=2)
    initial = np.ones(256, np.int8)
    out = run_majority_consensus(config, initial)
    assert out.correct_fraction == 1.0
    assert out.initial_majority_bias == 0.5


def test_consensus_regression():
    ok = 0
    for seed in range(10):
        config = cfg(1024, 0.25, seed=seed)
        gen = derive_rng(seed, "cons-init")
        initial = np.full(1024, -1, np.int8)
        members = gen.choice(1024, 256, replace=False)
        n_correct = round(256 * 0.6)
        initial[members[:n_correct]] = 1
        initial[members[n_correct:]] = 0
        out = run_majority_consensus(config, initial)
        expected_bias = 0.5 * (2 * n_correct - 256) / 256
        assert out.initial_majority_bias == pytest.approx(expected_bias, abs=1e-12)
        ok += out.correct_fraction == 1.0
    assert ok >= 9


def test_consensus_rejects_small_set():
    config = cfg(2 ** 14, 0.25)
    initial = np.full(2 ** 14, -1, np.int8)
    initial[:8] = 1
    with pytest.raises(InitialSetTooSmallError):
        run_majority_consensus(config, initial)


def test_consensus_rejects_opinions_outside_range():
    # unchecked, a 7 would count as a wrong member (192 ones and 64 sevens
    # give bias 0.25) and a -5 as no opinion
    config = cfg(256, 0.25)
    for bad in (7, -5):
        initial = np.ones(256, np.int8)
        initial[192:] = bad
        with pytest.raises(ConfigurationError, match="initial_opinions"):
            run_majority_consensus(config, initial)
    with pytest.raises(ConfigurationError, match="one entry per agent"):
        run_majority_consensus(config, np.ones(255, np.int8))


def test_consensus_leaves_callers_opinions_unchanged():
    config = cfg(256, 0.25, seed=3)
    initial = np.full(256, -1, np.int8)
    initial[:128] = 1
    initial[128:192] = 0
    before = initial.copy()
    out = run_majority_consensus(config, initial)
    assert np.array_equal(initial, before)
    assert not np.array_equal(out.final_opinions, before)    # the run did update its own copy


def test_majority_bias_definition():
    initial = np.full(10, -1, np.int8)
    initial[:4] = 1
    initial[4:6] = 0
    assert majority_bias(initial, 1) == pytest.approx(0.5 * (4 - 2) / 6)


# ---------------------------------------------------------------------------
# desynchronized variant


def test_desync_degenerate_equals_sync():
    config = cfg(512, 0.25, seed=4)
    sync = run_broadcast(config, rng=derive_rng(77, "shared"))
    clocks = ClockConfiguration(np.zeros(512, np.int64), 1)
    desync = run_desynchronized(config, clocks=clocks, rng=derive_rng(77, "shared"))
    assert np.array_equal(sync.final_opinions, desync.final_opinions)


def test_desync_random_offsets_success_and_round_bound():
    config = cfg(512, 0.25, seed=6)
    schedule = derive_schedule(512, config.channel)
    d = clock_bound(512)
    sync_rounds = schedule.total_rounds
    ok = 0
    for seed in range(5):
        clocks = ClockConfiguration(derive_rng(seed, "off").integers(0, d, 512), d)
        out = run_desynchronized(config, clocks=clocks, rng=derive_rng(seed, "dr"))
        ok += out.correct_fraction == 1.0
        bound = (schedule.t_phases + 2) * d + 6 * _ceil_log2(512)
        assert out.rounds_used - sync_rounds <= bound
        assert out.desync.d_bound == d
    assert ok >= 4


def test_desync_preamble_reduction():
    config = cfg(512, 0.25, seed=8)
    out = run_desynchronized(config, rng=derive_rng(1, "pre"))
    assert out.desync.d_bound == clock_bound(512)
    assert out.desync.preamble_rounds == 4 * _ceil_log2(512)
    assert not out.desync.stalled
    assert out.correct_fraction == 1.0


@pytest.mark.parametrize("n,eps,constants,t_phases", [
    (1024, 0.25, None, 0), (4096, 0.5, None, 1), (64, 0.25, SMALL, 1)])
@pytest.mark.parametrize("gapped", [False, True])
def test_window_edges_match_per_round_codes(n, eps, constants, t_phases, gapped):
    # the engine keeps only the rounds where the window code changes; they
    # must give the code of every local round, and a different code on each
    # side of every edge
    schedule = derive_schedule(n, NoiseChannel.from_epsilon(eps), constants)
    assert schedule.t_phases == t_phases
    d = clock_bound(n) if gapped else 0
    edges, codes = _local_windows(schedule, d)
    expect = np.pad(window_codes(schedule, d), 3, constant_values=-1)
    local = np.arange(-3, expect.size - 3)
    assert np.array_equal(codes[np.searchsorted(edges, local, "right")], expect)
    assert (codes[1:] != codes[:-1]).all()


def test_preamble_spread_is_push_spreading_time():
    # the preamble's realized clock spread is the round in which push rumor
    # spreading (D sends per agent) informs its last agent; at the SMALL
    # constants the engine's spread CDF must match the reference sampler's
    # within 4 pooled sigma at every value, and so must the rate of spread > D
    n = 256
    d = clock_bound(n)
    config = SimConfig(n=n, channel=NoiseChannel.from_epsilon(0.25), constants=SMALL)
    engine = np.array([run_desynchronized(config, rng=derive_rng(seed, "spread-law")).desync.offset_spread
                       for seed in range(300)])
    gen = derive_rng(0, "push-spread")
    ref = np.array([push_spread(n, d, gen) for _ in range(3000)])
    assert (ref > d).any()
    values = range(min(engine.min(), ref.min()), max(engine.max(), ref.max()) + 1)
    for a, b in [(engine <= v, ref <= v) for v in values] + [(engine > d, ref > d)]:
        p = (a.sum() + b.sum()) / (a.size + b.size)
        sigma = math.sqrt(p * (1 - p) * (1 / a.size + 1 / b.size))
        assert abs(a.mean() - b.mean()) <= 4 * sigma, (a.mean(), b.mean())


def test_desync_offset_validation():
    with pytest.raises(ConfigurationError):
        ClockConfiguration(np.array([0, 5]), 4)
    config = cfg(64, 0.25)
    with pytest.raises(ConfigurationError):
        run_desynchronized(config, clocks=ClockConfiguration(np.zeros(32, np.int64), 2))
    # a float offset would be truncated to an integer, a float d_bound echoed
    # in DesyncInfo, True read as d = 1, and NaN passes the range check
    zeros = np.zeros(64, np.int64)
    for offsets, d_bound in ((np.full(64, 0.7), 2), (np.full(64, np.nan), 2), (np.zeros(64, bool), 2),
                             (zeros, 2.5), (zeros, True), (zeros, 0), (zeros, -1)):
        with pytest.raises(ConfigurationError, match="integer"):
            ClockConfiguration(offsets, d_bound)
    # the offsets are a read-only int64 copy
    raw = np.array([0, 1, 1], np.int32)
    clocks = ClockConfiguration(raw, 2)
    raw[0] = 1
    assert clocks.offsets.dtype == np.int64 and clocks.offsets.tolist() == [0, 1, 1]
    with pytest.raises(ValueError):
        clocks.offsets[0] = 1


# ---------------------------------------------------------------------------
# baselines


def test_forward_noiseless_all_depths_correct():
    out = run_baseline_forward(cfg(1024, 0.5, seed=3), max_rounds=200)
    assert out.correct_fraction == 1.0
    for stat in out.depth_table:
        assert stat.correct == stat.agents


def test_forward_depth1_single_channel_use():
    # depth-1 agents heard the source directly: correct w.p. exactly 1/2+eps
    agents = correct = 0
    for seed in range(40):
        out = run_baseline_forward(cfg(512, 0.25, seed=seed), max_rounds=200)
        d1 = out.depth_table[0]
        assert d1.depth == 1
        agents += d1.agents
        correct += d1.correct
    rate = correct / agents
    sigma = math.sqrt(0.75 * 0.25 / agents)
    assert abs(rate - 0.75) < 4 * sigma


def test_silent_wait_threshold_one_degenerates():
    out = run_baseline_silent_wait(cfg(256, 0.25, seed=4), threshold=1, max_rounds=100)
    assert out.first_threshold_round == 1
    # forwarding is silent wait at threshold 1: same draws, same run
    for seed in range(3):
        config = cfg(256, 0.25, seed=seed)
        fwd = run_baseline_forward(config, max_rounds=100, rng=derive_rng(seed, "threshold-one"))
        silent = run_baseline_silent_wait(config, threshold=1, max_rounds=100,
                                          rng=derive_rng(seed, "threshold-one"))
        assert np.array_equal(fwd.final_opinions, silent.final_opinions)
        assert fwd.rounds_used == silent.rounds_used
        assert fwd.messages_sent == silent.messages_sent


def test_silent_wait_birthday_scaling_small_n():
    rounds = []
    for seed in range(30):
        out = run_baseline_silent_wait(cfg(100, 0.25, seed=seed), threshold=2, max_rounds=400)
        assert out.first_threshold_round is not None
        rounds.append(out.first_threshold_round)
    med = float(np.median(rounds))
    assert 0.5 * 10 <= med <= 5 * 10


def test_silent_wait_validation():
    with pytest.raises(ConfigurationError):
        run_baseline_silent_wait(cfg(64, 0.25), threshold=0, max_rounds=10)
    # the thresholds and round caps that ExperimentSpec rejects: a cap below 1
    # would return an Outcome of a run that never ran
    for threshold, max_rounds in ((2.5, 10), (True, 10), (2, 0), (2, -5), (2, 2.5), (2, True)):
        with pytest.raises(ConfigurationError, match="integers >= 1"):
            run_baseline_silent_wait(cfg(64, 0.25), threshold=threshold, max_rounds=max_rounds)
    for max_rounds in (0, -5):
        with pytest.raises(ConfigurationError, match="integers >= 1"):
            run_baseline_forward(cfg(64, 0.25), max_rounds=max_rounds)


# ---------------------------------------------------------------------------
# obliviousness


def _consensus_from(config, correct):
    initial = np.full(config.n, -1, np.int8)
    initial[: config.n // 2] = correct
    initial[config.n // 2: 3 * config.n // 4] = correct ^ 1
    return run_majority_consensus(config, initial, rng=derive_rng(5, "relabel"))


def _desync_clocks_from(config, correct):
    d = clock_bound(config.n)
    clocks = ClockConfiguration(derive_rng(5, "relabel-clocks").integers(0, d, config.n), d)
    return run_desynchronized(config, clocks=clocks, rng=derive_rng(5, "relabel"))


@pytest.mark.parametrize("engine,shortcut", [
    pytest.param(lambda config, correct: run_broadcast(config, rng=derive_rng(5, "relabel")),
                 True, id="broadcast"),
    pytest.param(_consensus_from, True, id="consensus"),
    pytest.param(_desync_clocks_from, True, id="desync-clocks"),
    pytest.param(lambda config, correct: run_desynchronized(config, rng=derive_rng(5, "relabel")),
                 True, id="desync-preamble"),
])
def test_relabeling_symmetry_without_log(monkeypatch, engine, shortcut):
    # the count path, the drawn stage-2 phase and the drawn stage-2 tail
    # read payloads only through "carries the correct opinion", so
    # relabeling complements the outcome and leaves every kernel call and
    # every drawn phase or tail, and so the recorded digest, unchanged
    runs = [run_recorded(monkeypatch, engine, cfg(256, 0.25, seed=3, correct=correct), correct)
            for correct in (1, 0)]
    (a, rec_a), (b, rec_b) = runs
    assert np.array_equal(a.final_opinions ^ 1, b.final_opinions)
    assert [(m.y, m.z) for m in a.stage1.per_phase] == [(m.y, m.z) for m in b.stage1.per_phase]
    assert a.stage2 == b.stage2
    assert rec_a.digest() == rec_b.digest()
    for out, rec in runs:
        assert rec.messages > 0 and out.messages_sent == rec.messages
        assert (rec.shortcuts > 0) == shortcut


def _overlap_runs(config, correct):
    # the golden entry's preamble runs whose clock spread exceeds D, so that
    # spans hold stage-1 and stage-2 listeners at once
    for n, eps, seed in GRIDS["desync-preamble-overlap"]:
        _desync_overlap(cfg(n, eps, seed=seed, correct=correct))


@pytest.mark.parametrize("engine", [
    pytest.param(lambda config, correct: run_broadcast(config), id="broadcast"),
    pytest.param(_consensus_from, id="consensus"),
    pytest.param(_desync_clocks_from, id="desync-clocks"),
    pytest.param(_overlap_runs, id="desync-preamble-overlap"),
])
def test_stage2_closes_read_drawn_counts(monkeypatch, engine):
    # stage-1 spans add expected, fractional correct counts; every span with
    # a stage-2 listener must draw integer ones, since the subset majority's
    # int64 cast would truncate a fraction without a word
    closes = [0, 0]     # stage-2 closes with successful agents, stage-1 closes reading a fraction

    def stage2(opinion, correct, successful, cnt, corr, subset, gen):
        assert (corr[successful] == np.floor(corr[successful])).all()
        closes[0] += successful.size > 0
        return _stage2_apply(opinion, correct, successful, cnt, corr, subset, gen)

    def pick(cnt, corr, gen):
        closes[1] += bool((corr != np.floor(corr)).any())
        return _stage1_pick(cnt, corr, gen)

    monkeypatch.setattr("flipsim.protocols._stage2_apply", stage2)
    monkeypatch.setattr("flipsim.protocols._stage1_pick", pick)
    engine(cfg(256, 0.25, seed=3), 1)
    assert closes[0] > 0 and closes[1] > 0, closes
