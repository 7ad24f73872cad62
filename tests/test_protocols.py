import math
import multiprocessing
import sys
import traceback
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from unittest import mock

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
    model,
    protocols,
    run_baseline_forward,
    run_baseline_silent_wait,
    run_broadcast,
    run_desynchronized,
    run_majority_consensus,
)
from flipsim.model import deliver_span_counts
from flipsim.oracle import phase_class, phase_law
from flipsim.params import _ceil_log2, clock_bound
from flipsim.protocols import (
    KLM_CUTOFF,
    _heard_law,
    _local_windows,
    _occupancy_given,
    _run_windows,
    _stage1_pick,
    _stage2_apply,
    _threshold_loop,
    _truncated_binomial,
    _turn_correct,
    _wrong_bound,
    _wrong_weights,
    stage2_draw,
)
from reference import (
    ProtocolInvariantError,
    clean_horizon,
    clone,
    majority_update,
    permutation_counts,
    phase_draw,
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
    # stage-2 path cannot condition on an agent missing a round and
    # leaves those phases to the simulated rounds
    config = cfg(2, 0.25)
    assert phase_draw(2, 38, np.zeros(2, bool), config.channel, derive_rng(0, "two")) is None
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


def _count_path(config, runs, reference):
    """``runs`` broadcasts on one path, the count kernel or, when
    ``reference``, the permutation kernel through an adapter: per run, the
    per-phase stage-1 y and z and the first stage-2 start fraction.  Every
    round the engine simulates must reach the kernel: with the rounds
    covered by the drawn stage-2 path, they make up the whole run."""
    seen = [0, 0]     # rounds through the kernel, rounds drawn by the shortcut
    kernel = permutation_counts if reference else deliver_span_counts

    def adapter(carriers, others, rounds, *args):
        seen[0] += rounds
        return kernel(carriers, others, rounds, *args)

    def shortcut(t, *args):
        drawn = stage2_draw(t, *args)
        seen[1] += drawn[0] - t if drawn is not None else 0
        return drawn

    rows = []
    with mock.patch("flipsim.protocols.deliver_span_counts", adapter), \
            mock.patch("flipsim.protocols.stage2_draw", shortcut):
        for seed in range(runs):
            seen[:] = [0, 0]
            out = run_broadcast(config, rng=derive_rng(seed, "paths", reference))
            assert seen[0] > 0 and sum(seen) == out.rounds_used, (seen, out.rounds_used)
            row = [v for m in out.stage1.per_phase for v in (m.y, m.z)]
            rows.append(row + [out.stage2[0].start_correct_fraction])
    return np.array(rows, float)


def test_count_path_matches_permutation_path():
    # The count kernel and stage-1 pick must give the law of the permutation
    # kernel, installed in the engine through an adapter (_count_path), at
    # the SMALL constants; mean per-phase y and z and the first stage-2
    # start fraction must agree within 4 sigma.  The two paths run in two
    # forked processes.
    runs = 1500
    config = SimConfig(n=64, channel=NoiseChannel.from_epsilon(0.25), constants=SMALL)
    assert derive_schedule(64, config.channel, SMALL).t_phases == 1
    count, perm = _forked(*((_count_path, config, runs, reference) for reference in (False, True)))
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


def _unanimous_path(config, schedule, wrong, runs, simulated):
    """``runs`` one-phase runs from a start with ``wrong`` agents wrong on
    one path, the drawn stage-2 path patched out when ``simulated``, the
    cutoff lifted to 1: the keys of :func:`_one_phase_run`, |F| of each
    drawn phase, and how many phases ran the Karp-Luby-Madras branch."""
    events = []     # |F| of each drawn phase
    branches = [0]  # phases that ran the Karp-Luby-Madras branch

    def drawn_phase(*args):
        out = stage2_draw(*args)
        ((_, _, failed, turned),) = out[1]
        events.append(failed.size + turned.size)
        return out

    def occupancy(*args):
        branches[0] += 1
        return _occupancy_given(*args)

    with mock.patch("flipsim.protocols.stage2_draw", (lambda *args: None) if simulated else drawn_phase), \
            mock.patch("flipsim.protocols._occupancy_given", occupancy), \
            mock.patch("flipsim.protocols.KLM_CUTOFF", 1.0):
        gen = derive_rng(16, "unanimous", wrong, simulated)
        keys = [_one_phase_run(config, schedule, gen, wrong) for _ in range(runs)]
    return keys, events, branches[0]


@pytest.mark.filterwarnings("ignore:epsilon")  # n=20 at eps=0.35 sits outside the regime by design
def test_unanimous_phase_matches_simulated_rounds():
    # One 54-round phase at n=20 and eps=0.35 that opens with W in {0, 2, 5}
    # agents wrong: pi = 0.23, 0.24 and 0.84, with failures and wrong
    # majorities both in it; the cutoff is lifted to 1 so that the draw
    # also runs at pi = 0.84, where it is exact but dearer than the rounds.
    # The joint law of (successful count, wrong among start-correct, wrong
    # among start-wrong) drawn by stage2_draw must match the simulated
    # rounds (the draw patched out) cell by cell,
    # 4 sigma, and the Karp-Luby-Madras branch must run in over 10% of the
    # drawn phases.  On both paths the mean number of agents ending wrong
    # must match its exact law, and on the drawn path E|F| = pi, F the
    # agents that fail or end on a wrong majority.  The two paths run in
    # two forked processes.
    n, m, runs = 20, 54, 4000
    config = cfg(n, 0.35)
    p = config.channel.flip_probability
    schedule = replace(derive_schedule(n, config.channel), k=0, stage2_phase_lengths=(m,))
    for wrong in (0, 2, 5):
        pi = _union_bound(n, m, wrong, p)
        assert 0.2 < pi < 0.9
        expected = sum(agents * (1 - cls.correct)
                       for agents, cls in zip((n - wrong, wrong), phase_law(n, m, wrong, p)))
        paths = _forked(*((_unanimous_path, config, schedule, wrong, runs, simulated) for simulated in (False, True)))
        for simulated, (keys, events, branches) in zip((False, True), paths):
            ends = np.array([a + b for _, a, b in keys], float)
            sigma = max(ends.std(), math.sqrt(expected)) / math.sqrt(runs)
            assert abs(ends.mean() - expected) < 4 * sigma, (wrong, ends.mean(), expected)
            if not simulated:
                assert len(events) == runs and branches > 0.1 * runs, (wrong, branches)
                events = np.array(events, float)
                assert abs(events.mean() - pi) < 4 * events.std() / math.sqrt(runs), (wrong, events.mean(), pi)
        drawn, simulated = (Counter(keys) for keys, _, _ in paths)
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
    # The Karp-Luby-Madras branch of stage2_draw for one window at n=20,
    # eps=0.35, W=5 (pi = 0.84, the cutoff lifted to 1 as in the test
    # above): the agent I it conditions on, and the rounds it hears and
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
    monkeypatch.setattr("flipsim.protocols.KLM_CUTOFF", 1.0)
    gen = derive_rng(21, "history")
    for _ in range(draws):
        phase_draw(n, m, start, channel, gen)
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
    klm = np.array([phase_draw(n, m, np.zeros(n, bool), channel, gen)[0].size for _ in range(runs)])
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
    assert phase_draw(config.n, final, np.zeros(config.n, bool), config.channel, gen) is None
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
    # under staggered clocks (supplied or set by the preamble) the drawn
    # stage-2 path never draws one window of one clock: every draw comes
    # once the latest group has opened stage 2, and its clean horizon is the
    # end of the run; the rounds still outnumber the schedule's
    calls = []

    def draw(t, opens, lengths, gid, cnt, corr, wrong, *args):
        assert opens.size > 1 and clean_horizon(t, opens, lengths) == opens.max() + sum(lengths)
        assert t >= opens.max(), (t, opens.max())
        calls.append(t)
        return stage2_draw(t, opens, lengths, gid, cnt, corr, wrong, *args)

    monkeypatch.setattr("flipsim.protocols.stage2_draw", draw)
    config = cfg(512, 0.25, seed=6)
    d = clock_bound(512)
    clocks = None if preamble else ClockConfiguration(derive_rng(0, "off").integers(0, d, 512), d)
    out = run_desynchronized(config, clocks=clocks, rng=derive_rng(0, "bypass"))
    assert calls and out.rounds_used > derive_schedule(512, config.channel).total_rounds
    assert out.messages_sent > 0


# ---------------------------------------------------------------------------
# stage 2 under staggered clocks: the drawn path to the end of the run


def _staggered_union_bound(t, opens, lengths, gid, cnt, corr, wrong, channel):
    """pi = the sum of beta_ij over every (agent, phase-j window) that closes
    after round t and by its :func:`~reference.clean_horizon`: beta_ij = f +
    (1-f) b, f = P(agent i ends its window with fewer than s_j = m_j/2
    samples), built round by round (agent i hears in round u with probability
    1-(1-1/(n-1))^(m_u-1), m_u the agents of the groups still in stage 2, and
    starts from ``cnt[i]`` in a window that opened before t), and b the chance
    of a wrong majority when each sample is wrong with the largest probability
    r = 1 - q over the window's rounds (q = (1-p)(1-w) + p w, w the share of
    wrong agents among the other senders, an agent wrong at t counting as
    wrong until its group's first close after t): P(Binomial(s_j, r) > s_j/2),
    or its bound :func:`_wrong_bound` in a window that opened before t."""
    n, p = gid.size, channel.flip_probability
    ends = opens[:, None] + np.cumsum(lengths)
    turn = np.array([min([e for e in row if e > t], default=t) for row in ends])[gid]
    pi = 0.0
    for g, j in zip(*np.nonzero((ends > t) & (ends <= clean_horizon(t, opens, lengths)))):
        m = lengths[j]
        law = np.zeros(m + 1)
        law[0] = 1.0
        rounds = np.arange(max(t, ends[g, j] - m), ends[g, j])
        for u in rounds:
            h = 1 - (1 - 1 / (n - 1)) ** ((ends[gid, -1] > u).sum() - 1)
            law[1:] = law[1:] * (1 - h) + law[:-1] * h
            law[0] *= 1 - h
        sending = ends[gid, -1] > rounds[:, None]       # a row per round
        bad = sending & wrong & (turn > rounds[:, None])
        for i in np.flatnonzero(gid == g):
            held = cnt[i] if ends[g, j] - m < t else 0
            f = law[:max(m // 2 - held, 0)].sum()
            s = m // 2
            w = (bad.sum(1) - bad[:, i]) / np.maximum(sending.sum(1) - 1, 1)     # i sends in its window
            r = (1 - ((1 - p) * (1 - w) + p * w)).max()
            b = (_wrong_bound(s, held, held - corr[i], r) if held
                 else sum(math.comb(s, k) * r ** k * (1 - r) ** (s - k) for k in range(s // 2 + 1, s + 1)))
            pi += f + (1 - f) * b
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


def _staggered_path(config, schedule, opens, wrong, runs, simulated):
    """``runs`` stage-2 runs under staggered clocks on one path, the drawn
    stage-2 path patched out when ``simulated``: the key table, the agents
    wrong after each phase per run, the inputs of the first draw taken in
    each run, or of its first call when it took none (up to 200 runs), and
    how many runs called the draw ("called"), took one ("taken"), took the
    first one taken with some agent wrong ("wrong-start"), ran its
    conditioned branch ("branch") and resumed the simulated rounds before
    the draw's clean horizon ("handoff")."""
    firsts, seen, branches, keys = [], set(), Counter(), []
    first = []      # the inputs this run's entry of firsts takes

    def draw(*args):
        out = stage2_draw(*args)
        if not first or out is not None and "taken" not in seen:
            first[:] = [tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args[:8])]
            if out is not None and args[6].any():
                seen.add("wrong-start")
        seen.add("called")
        seen.update(() if out is None else
                    ("taken", "handoff") if out[0] < clean_horizon(*args[:3]) else ("taken",))
        return out

    def occupancy(*args):
        seen.add("branch")
        return _occupancy_given(*args)

    with mock.patch("flipsim.protocols.stage2_draw", (lambda *args: None) if simulated else draw), \
            mock.patch("flipsim.protocols._occupancy_given", occupancy):
        gen = derive_rng(22, "staggered", config.n, wrong, simulated)
        for _ in range(runs):
            seen.clear()
            first.clear()
            keys.append(_staggered_stage2(config, schedule, gen, opens, wrong))
            branches.update(seen)
            if first and len(firsts) < 200:
                firsts.append(first[0])
    return Counter(keys), np.array([k[3:] for k in keys], float), firsts, branches


def _forked(*calls):
    """``[fn(*args) for fn, *args in calls]``, each call run at once in its
    own forked process where the platform forks."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(*args) for fn, *args in calls]
    ctx = multiprocessing.get_context("fork")

    def child(fn, args, send):
        try:
            send.send((True, fn(*args)))
        except BaseException:
            send.send((False, traceback.format_exc()))

    procs = []
    for fn, *args in calls:
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=child, args=(fn, args, send))
        proc.start()
        send.close()
        procs.append((proc, recv))
    try:
        results = [recv.recv() for _, recv in procs]
    finally:        # a child that failed or died leaves no other blocked
        for proc, _ in procs:
            proc.terminate()
            proc.join()
    for ok, value in results:
        assert ok, value
    return [value for _, value in results]


@pytest.mark.filterwarnings("ignore:epsilon")  # tiny n sits outside the regime by design
@pytest.mark.parametrize("n,eps,sizes,offsets,wrong,m,runs", [
    (16, 0.2, (8, 8), (0, 6), 0, 78, 4000),
    (18, 0.2, (6, 6, 6), (0, 3, 7), 0, 86, 4000),
    # every agent of the early group starts wrong; the late group's window
    # holds their samples until its own close, after the early group's
    # close turned them
    (16, 0.25, (4, 12), (0, 4), 4, 54, 1500),
    # one wrong agent in the early group: the first draw comes right after
    # the early group's close turns it, while the late group's window,
    # which holds samples from it, is still open
    (16, 0.35, (2, 14), (0, 4), 1, 70, 1500),
], ids=["two-groups", "three-groups", "wrong-early-group", "open-window"])
def test_staggered_tail_matches_simulated_rounds(n, eps, sizes, offsets, wrong, m, runs):
    # Three m-round stage-2 phases under staggered clocks.  The joint law
    # of the per-phase successful counts and agents wrong after each phase,
    # with the rest of the run drawn by stage2_draw, must match the
    # simulated rounds (the draw patched to None) cell by cell within 4
    # sigma, and so must the mean count wrong after each phase.  The two
    # paths run in two forked processes.  From an all-correct start the
    # draw is called in every run and taken in over 90% of them, the median
    # of the reference union bound at each run's first draw is in
    # [0.2, KLM_CUTOFF), and the conditioned branch and the hand-off to the
    # simulated rounds each run in over 10% of the runs.  From a start with
    # wrong agents the draw is taken in over 10% of the runs, and each run's
    # first draw taken comes where the one trigger tries before any draw is
    # taken: at the late group's stage-2 open or at one of its closes.
    config = cfg(n, eps)
    schedule = replace(derive_schedule(n, config.channel), stage2_phase_lengths=(m, m, m))
    opens = np.repeat(offsets, sizes)
    (drawn, a, firsts, branches), (simulated, b, _, _) = _forked(
        *((_staggered_path, config, schedule, opens, wrong, runs, path) for path in (False, True)))
    if wrong:
        assert branches["taken"] > 0.1 * runs, branches
        assert all((t - offsets[-1]) % m == 0 for t, *_ in firsts), [f[0] for f in firsts]
    else:
        assert branches["called"] == runs and branches["taken"] > 0.9 * runs, branches
        assert branches["branch"] > 0.1 * runs and branches["handoff"] > 0.1 * runs, branches
        pi = np.median([_staggered_union_bound(*first) for first in firsts])
        assert 0.2 <= pi < KLM_CUTOFF, pi
    _assert_paths_agree(drawn, simulated, a, b, runs)


def _assert_paths_agree(drawn, simulated, a, b, runs):
    """The key tables of two paths of ``runs`` runs agree cell by cell
    within 4 sigma, and so do the mean counts wrong after each phase."""
    for key in set(drawn) | set(simulated):
        x, y = drawn.get(key, 0) / runs, simulated.get(key, 0) / runs
        pooled = (x + y) / 2
        assert abs(x - y) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / runs), (key, x, y)
    assert (abs(a.mean(0) - b.mean(0)) <= 4 * np.sqrt((a.var(0) + b.var(0)) / runs)).all(), (a.mean(0), b.mean(0))


@pytest.mark.filterwarnings("ignore:epsilon")  # tiny n sits outside the regime by design
def test_staggered_draw_from_wrong_agents_matches_simulated_rounds():
    # Three 102-round stage-2 phases at n=24, eps=0.2, with groups of 12
    # that open stage 2 in rounds 2 and 0, and 6 agents of the late group
    # wrong at the start.  Phase 1 leaves a few agents wrong; the reference
    # path turns wrong agents correct at their next close.  Before any draw
    # is taken the draw is tried at the late group's stage-2 open (round 2)
    # and then at its closes (round 104 first), so each run's first draw
    # taken comes at one of them; in over half of the runs it must start
    # with W > 0 wrong agents, and the conditioned branch and the hand-off
    # to the simulated rounds must each run in over 10% of them.  The key
    # tables of the drawn and the simulated paths, run in two forked
    # processes, must agree as in the test above.
    n, m, runs = 24, 102, 4000
    config = cfg(n, 0.2)
    schedule = replace(derive_schedule(n, config.channel), stage2_phase_lengths=(m, m, m))
    (drawn, a, firsts, branches), (simulated, b, _, _) = _forked(
        *((_staggered_path, config, schedule, np.repeat((2, 0), 12), 6, runs, path) for path in (False, True)))
    assert all(first[0] in (2, 2 + m, 2 + 2 * m) for first in firsts), [first[0] for first in firsts]
    assert branches["wrong-start"] > 0.5 * runs, branches
    assert branches["branch"] > 0.1 * runs and branches["handoff"] > 0.1 * runs, branches
    _assert_paths_agree(drawn, simulated, a, b, runs)


@pytest.mark.filterwarnings("ignore:epsilon")  # tiny n sits outside the regime by design
@pytest.mark.parametrize("n,sizes,offsets", [(16, (8, 8), (0, 6)), (18, (6, 6, 6), (0, 3, 7))],
                         ids=["two-groups", "three-groups"])
def test_staggered_draw_refused_with_short_phases(n, sizes, offsets):
    # The two-groups and three-groups settings above with 54-round phases,
    # where the union bound counts failures and wrong majorities alike: at
    # every run's first draw it is KLM_CUTOFF or more (about 1.6 and 1.9),
    # so the draw refuses every call before drawing anything and the
    # rounds are simulated.
    config = cfg(n, 0.2)
    schedule = replace(derive_schedule(n, config.channel), stage2_phase_lengths=(54, 54, 54))
    keys, _, firsts, branches = _staggered_path(config, schedule, np.repeat(offsets, sizes), 0, 20, False)
    assert sum(keys.values()) == 20 and branches["called"] == 20 and not branches["taken"], branches
    assert min(_staggered_union_bound(*first) for first in firsts) >= KLM_CUTOFF


def test_wrong_weights_exact_enumeration():
    # a listener that holds 7 samples, 4 of them correct, and hears up to 5
    # more (h ~ Binomial(5, 0.6)), each correct with probability 0.7, takes
    # a subset of 9: P(h, x held in the subset, and a wrong majority) from
    # _wrong_weights must match the sum over every new correct count and
    # subset composition to 1e-12, and so must P(v wrong | x, wrong
    # majority); _wrong_bound must bound P(wrong majority | h) at every h
    held, good, s, q = 7, 4, 9, 0.7
    law = np.array([math.comb(5, h) * 0.6 ** h * 0.4 ** (5 - h) for h in range(6)])
    hx, xv = _wrong_weights(held, good, law, s, q)
    exact_hx = np.zeros_like(hx)
    exact_xv = np.zeros_like(xv)
    for h in range(6):
        for new in range(h + 1):       # correct new samples
            pf = math.comb(h, new) * q ** new * (1 - q) ** (h - new)
            for x in range(min(held, s) + 1):
                for v in range(held - good + 1):
                    for y in range(h + 1):      # correct new samples in the subset
                        ways = (math.comb(held - good, v) * math.comb(good, x - v) if 0 <= x - v <= good else 0) \
                            * math.comb(new, y) * math.comb(h - new, s - x - y) if 0 <= s - x - y <= h - new else 0
                        if ways and (x - v) + y <= s // 2 and held + h >= s:
                            w = law[h] * pf * ways / math.comb(held + h, s)
                            exact_hx[h, x] += w
    for x in range(min(held, s) + 1):
        for v in range(held - good + 1):
            if 0 <= x - v <= good:
                pv = math.comb(held - good, v) * math.comb(good, x - v) / math.comb(held, x)
                k = (s + 1) // 2 - v        # wrong new samples the subset needs
                exact_xv[x, v] = pv * sum(math.comb(s - x, j) * (1 - q) ** j * q ** (s - x - j)
                                          for j in range(max(k, 0), s - x + 1))
    assert np.allclose(hx, exact_hx, rtol=1e-12, atol=1e-15), (hx, exact_hx)
    assert np.allclose(xv, exact_xv, rtol=1e-12, atol=1e-15), (xv, exact_xv)
    wrong_given_h = exact_hx.sum(1)[2:] / law[2:]
    assert (wrong_given_h <= _wrong_bound(s, held, held - good, 1 - q) + 1e-15).all()


def test_run_bound_and_thinning_exact_enumeration():
    # A listener's window in two runs of 3 and 4 rounds at n=6, with 5 and
    # then 4 senders besides it, whose samples are from wrong senders with
    # share 1/4 in the first run and 0 in the second (a close between them
    # turned a wrong agent), p=0.2, a subset of s=3.  B = "fewer than s
    # samples, or a wrong majority".  beta, the event of the bound law that
    # gives every sample the first run's smaller q (oracle.phase_class at
    # the larger share), must be at least P(B) summed over every heard
    # count, subset split and correct count per run.  And the bound law
    # given a wrong majority, its correct subset samples z spread over the
    # runs like a uniform subset, each wrong one thinned by _turn_correct,
    # kept where the majority stays wrong, must give every (heard counts,
    # subset split, correct count per run) its direct probability, to 1e-12.
    n, p, s = 6, 0.2, 3
    shares = (0.25, 0.0)
    qa, qb = ((1 - p) * (1 - w) + p * w for w in shares)
    runs = ((3, 5), (4, 4))
    (law_a, law_b), _, below = _heard_law(runs, n)
    fail = below[s]
    bound = phase_class(fail, s, max(shares), p)
    q = bound.q
    assert q == min(qa, qb)

    def binom(k, j, r):
        return math.comb(k, j) * r ** j * (1 - r) ** (k - j) if 0 <= j <= k else 0.0

    direct, drawn = {}, {}
    for ca, pa in enumerate(law_a):
        for cb, pb in enumerate(law_b):
            if ca + cb < s:
                continue
            for ya in range(s + 1):     # subset samples from the first run
                yb = s - ya
                split = pa * pb * math.comb(ca, ya) * math.comb(cb, yb) / math.comb(ca + cb, s)
                if not split:
                    continue
                for za in range(ya + 1):
                    for zb in range(yb + 1):
                        if za + zb <= s // 2:
                            direct[ca, cb, ya, za, zb] = split * binom(ya, za, qa) * binom(yb, zb, qb)
                # the bound law: z correct of s, za0 of them among the
                # first run's ya subset samples, then thinned
                for z in range(s // 2 + 1):
                    for za0 in range(min(z, ya) + 1):
                        w0 = split * binom(s, z, q) * math.comb(ya, za0) * math.comb(yb, z - za0) / math.comb(s, z)
                        for za in range(za0, ya + 1):
                            for zb in range(z - za0, yb + 1):
                                if za + zb <= s // 2:
                                    key = ca, cb, ya, za, zb
                                    drawn[key] = drawn.get(key, 0.0) + w0 \
                                        * binom(ya - za0, za - za0, _turn_correct(qa, q)) \
                                        * binom(yb - z + za0, zb - z + za0, _turn_correct(qb, q))
    assert set(direct) == set(drawn)
    for key, value in direct.items():
        assert abs(drawn[key] - value) < 1e-12, (key, drawn[key], value)
    assert bound.event > fail + sum(direct.values()), (bound.event, fail + sum(direct.values()))


def test_stage2_rounds_end_at_the_last_opinion_change(monkeypatch):
    # A supplied-clock desync run at n=1024 whose stage-2 phase 2 ends all
    # correct: the drawn stage-2 path takes over right after the last
    # opinion change, so no round that draws its counts (a stage-2 round)
    # reaches the kernel after that change.
    config = cfg(1024, 0.25)
    d = clock_bound(1024)
    clocks = ClockConfiguration(derive_rng(0, "phase-3-clocks").integers(0, d, 1024), d)
    log = []

    def counting(carriers, others, rounds, n, channel, rng, out, expected=False):
        log.append(("stage 2", rounds) if not expected else ("stage 1", rounds))
        return deliver_span_counts(carriers, others, rounds, n, channel, rng, out, expected)

    def stage2(opinion, *args):
        before = opinion.copy()
        _stage2_apply(opinion, *args)
        if (opinion != before).any():
            log.append(("change", 0))

    monkeypatch.setattr("flipsim.protocols.deliver_span_counts", counting)
    monkeypatch.setattr("flipsim.protocols._stage2_apply", stage2)
    out = run_desynchronized(config, clocks=clocks, rng=derive_rng(0, "phase-3"))
    assert out.stage2[1].correct_fraction == 1.0 and out.correct_fraction == 1.0
    last = max(k for k, (what, _) in enumerate(log) if what == "change")
    simulated = sum(r for what, r in log if what == "stage 2")
    assert not [r for what, r in log[last:] if what == "stage 2"], log[last:]
    assert 0 < simulated < out.rounds_used - sum(derive_schedule(1024, config.channel).stage2_phase_lengths[2:])


def test_stage2_rounds_end_at_the_latest_first_close(monkeypatch):
    # A supplied-clock desync run at n=1024: the drawn stage-2 path is tried
    # first at the latest group's stage-2 open, where it is refused, and
    # next at the first round at which every clock group has closed its
    # first stage-2 window, with agents still wrong there.  It is taken
    # there up to the end of the run, so no round that draws its counts (a
    # stage-2 round) reaches the kernel at or after that round.
    n = 1024
    config = cfg(n, 0.25)
    d = clock_bound(n)
    offsets = derive_rng(0, "first-close-clocks").integers(0, d, n)
    lengths = derive_schedule(n, config.channel).stage2_phase_lengths
    first_close = int(_local_windows(derive_schedule(n, config.channel), d)[0][-1]) - sum(lengths[1:]) \
        - int(offsets.min())
    log = []

    def counting(carriers, others, rounds, n, channel, rng, out, expected=False):
        log.append("stage 1" if expected else "stage 2")
        return deliver_span_counts(carriers, others, rounds, n, channel, rng, out, expected)

    def draw(t, opens, lengths, gid, cnt, corr, wrong, *args):
        drawn = stage2_draw(t, opens, lengths, gid, cnt, corr, wrong, *args)
        log.append((t, int(wrong.sum()), drawn and drawn[0] == clean_horizon(t, opens, lengths)))
        return drawn

    monkeypatch.setattr("flipsim.protocols.deliver_span_counts", counting)
    monkeypatch.setattr("flipsim.protocols.stage2_draw", draw)
    out = run_desynchronized(config, clocks=ClockConfiguration(offsets, d), rng=derive_rng(0, "first-close"))
    draws = [k for k, entry in enumerate(log) if isinstance(entry, tuple)]
    assert len(draws) == 2, [log[k] for k in draws]
    (opened, _, refused), (t, wrong, whole) = (log[k] for k in draws)
    assert opened == first_close - lengths[0] and refused is None, log[draws[0]]
    assert t == first_close and wrong > 0 and whole, log[draws[1]]
    assert "stage 2" not in log[draws[1]:], log[draws[1]:]
    assert "stage 2" in log[draws[0]:draws[1]] and out.correct_fraction == 1.0


def test_staggered_draw_retried_after_a_quiet_handoff(monkeypatch):
    # A noiseless supplied-clock desync run at n=256, every agent correct
    # once stage 1 ends: the first draw is replaced by one that ends at the
    # first stage-2 close, where only a correct member fails, so no opinion
    # changes there.  No draw was refused, so the loop must try the next
    # draw at that very round, not leave the rest of the run simulated.
    n = 256
    config = cfg(n, 0.5)
    d = clock_bound(n)
    offsets = derive_rng(0, "retry-clocks").integers(0, d, n)
    calls = []

    def draw(t, opens, lengths, gid, cnt, corr, wrong, *args):
        calls.append(t)     # each try's round, and the first one's end
        if len(calls) > 1:
            return stage2_draw(t, opens, lengths, gid, cnt, corr, wrong, *args)
        assert not wrong.any()
        ends = opens[:, None] + np.cumsum(lengths)
        e = int(ends[ends > t].min())
        none = np.empty(0, np.int64)
        closes = [(j, g, none, none) for j, g in sorted(zip(*np.nonzero(ends.T == e)))]
        j, g, _, _ = closes[0]
        closes[0] = j, g, np.flatnonzero(gid == g)[:1], none
        calls.append(e)
        return e, closes, np.zeros(gid.size), np.zeros(gid.size)

    monkeypatch.setattr("flipsim.protocols.stage2_draw", draw)
    out = run_desynchronized(config, clocks=ClockConfiguration(offsets, d), rng=derive_rng(0, "retry"))
    assert len(calls) >= 3 and calls[2] == calls[1], calls
    assert out.correct_fraction == 1.0


def test_tail_failures_match_direct_occupancy():
    # stage2_draw at n=12 from round 5 to the end of the run, with three
    # clock groups that opened stage 2 in rounds 0, 2 and 5, mid-window
    # counts and a sender tail that shrinks as the groups leave: the law of
    # the first close with a failure, where the draw ends, and of the
    # failures there must match the plain occupancy of the same rounds
    # within 4 sigma cell by cell, and there E|F| = pi.  A noiseless channel
    # and an all-correct start leave failure as the only event.
    n, runs, t = 12, 10_000, 5
    lengths = (38, 46)
    gid = np.repeat(np.arange(3), 4)
    opens = np.array([0, 2, 5])
    cnt = np.array([3, 4, 2, 5, 1, 2, 0, 2, 0, 0, 0, 0], np.int32)
    channel, horizon = NoiseChannel(0.0), int(opens.max()) + sum(lengths)
    assert clean_horizon(t, opens, lengths) == horizon
    args = (t, opens, lengths, gid, cnt, cnt.astype(float), np.zeros(n, bool), channel)
    pi = _staggered_union_bound(*args)
    assert 0.2 < pi < 0.6
    gen = derive_rng(23, "tail-klm")
    klm = Counter()
    for _ in range(runs):
        end, closes, _, _ = stage2_draw(*args, gen)
        assert not any(turned.size for *_, turned in closes)
        klm[end, next((failed.size for _, _, failed, _ in closes if failed.size), 0)] += 1
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
    failed = heard < np.array(lengths) // 2
    shut = sorted((e, j, g) for g, row in enumerate((opens[:, None] + np.cumsum(lengths)).tolist())
                  for j, e in enumerate(row))
    per_close = np.stack([failed[:, gid == g, j].sum(1) for _, j, g in shut], 1)
    first = (per_close > 0).argmax(1)
    some = per_close.any(1)
    direct = Counter(zip(np.where(some, np.array([e for e, _, _ in shut])[first], horizon).tolist(),
                         per_close[np.arange(runs), first].tolist()))
    for key in set(klm) | set(direct):
        a, b = klm[key] / runs, direct[key] / runs
        pooled = (a + b) / 2
        assert abs(a - b) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / runs), (key, a, b)
    sizes = failed.sum((1, 2))
    assert abs(sizes.mean() - pi) < 4 * sizes.std() / math.sqrt(runs), (sizes.mean(), pi)


def test_handoff_inside_the_conditioned_window(monkeypatch):
    # stage2_draw at n=3 from round 13 with two clock groups and 10-round
    # windows: agent 0 (group 0) is 3 rounds from the close of its last
    # window, holding 6 wrong samples, so its close at round 16 often turns
    # it; agents 1 and 2 (group 1) opened a window at 13 that runs on past
    # 16, with two senders besides each of them before 16 and one after.
    # With the cutoff lifted (pi > 1) a returned path has the frozen path's
    # law given some event, so a hand-off at 16 must hand back group 1's
    # counters with their law given that agent 0 turns at 16.  Against
    # rounds 13-15 simulated directly (each agent aims at a uniform other
    # one, and agent 0 takes 5 of its 6 + new samples), the joint law of
    # (count, correct) must match cell by cell within 4 sigma; given the
    # count the correct samples are Binomial(count, 1-p), cell by cell and
    # in the mean.
    n, p, draws, t, v = 3, 0.4, 3000, 13, 16
    lengths = (6, 10)
    opens = np.array([0, 7])
    gid = np.array([0, 1, 1], np.intp)
    cnt = np.array([6, 0, 0], np.int32)
    monkeypatch.setattr("flipsim.protocols.KLM_CUTOFF", math.inf)
    gen = derive_rng(25, "handoff")
    seen = Counter()
    for _ in range(draws):
        end, _, held, good = stage2_draw(t, opens, lengths, gid, cnt, np.zeros(n), np.zeros(n, bool),
                                         NoiseChannel(p), gen)
        if end == v:
            seen.update(zip(held[1:].astype(int).tolist(), good[1:].astype(int).tolist()))
    handoffs = sum(seen.values()) // 2
    assert handoffs > 0.3 * draws, handoffs
    sims = 20 * draws
    aim = gen.integers(0, n - 1, size=(sims, v - t, n))
    aim += aim >= np.arange(n)
    heard = (aim[..., None] == np.arange(n)).any(2).sum(1)     # rounds each agent hears in
    right = gen.binomial(heard, 1 - p)
    kept = gen.hypergeometric(right[:, 0], cnt[0] + heard[:, 0] - right[:, 0], 5)
    turned = kept < 3
    ref = Counter(zip(heard[turned, 1:].ravel().tolist(), right[turned, 1:].ravel().tolist()))
    scale = sum(seen.values()) / sum(ref.values())
    for key in set(seen) | set(ref):
        x, y = seen[key], ref[key] * scale
        assert abs(x - y) <= 4 * math.sqrt(x + y * scale + 1), (key, x, y)
    total = Counter()
    for (c, _), k in seen.items():
        total[c] += k
    for c, size in total.items():
        for x in range(c + 1):
            expected = size * math.comb(c, x) * (1 - p) ** x * p ** (c - x)
            if expected >= 10:
                assert abs(seen[c, x] - expected) <= 4 * math.sqrt(expected), (c, x, seen[c, x], expected)
    excess = sum(k * (x - (1 - p) * c) for (c, x), k in seen.items())
    assert abs(excess) <= 4 * math.sqrt(sum(k * c * p * (1 - p) for (c, _), k in seen.items())), excess


def _reference_paths(t, opens, lengths, gid, cnt, corr, wrong, p, sims, gen):
    """``sims`` direct simulations of :func:`stage2_draw`'s reference path
    from round t to the last close: each sender aims at a uniform other
    agent, each listener accepts a uniform arrival through the channel, and
    a close leaves every member of its group correct.  For each path with
    some event (a failure or a wrong majority): the round of its first close
    with one, and ``(j, g, failures, wrong majorities)`` for its closes
    through that round."""
    n = gid.size
    ends = opens[:, None] + np.cumsum(lengths)
    shut = sorted((e, j, g) for g, row in enumerate(ends.tolist()) for j, e in enumerate(row) if e > t)
    horizon = shut[-1][0]
    cnt, corr, ref = (np.tile(x, (sims, 1)) for x in (cnt.astype(np.int64), corr.astype(np.int64), wrong))
    rows = np.arange(sims)[:, None]
    stop = np.full(sims, horizon)
    events = np.zeros(sims, np.int64)
    logs = [[] for _ in range(sims)]
    for u in range(t, horizon):
        senders = np.flatnonzero(ends[gid, -1] > u)
        aim = gen.integers(0, n - 1, size=(sims, senders.size))
        aim += aim >= senders
        arrivals, right = np.zeros((sims, n)), np.zeros((sims, n))
        np.add.at(arrivals, (rows, aim), 1.0)
        np.add.at(right, (rows, aim), ~ref[:, senders])
        sample = gen.random((sims, n)) * arrivals < right * (1 - p) + (arrivals - right) * p
        listening = ends[gid, -1] > u
        cnt += (arrivals > 0) & listening
        corr += sample & listening
        for e, j, g in (c for c in shut if c[0] == u + 1):
            mem = gid == g
            s = lengths[j] // 2
            ok = cnt[:, mem] >= s
            good = gen.hypergeometric(corr[:, mem], cnt[:, mem] - corr[:, mem], np.minimum(s, cnt[:, mem]))
            turned = ok & (good <= s // 2)
            failed = ~ok
            for k in np.flatnonzero(stop >= e):
                logs[k].append((j, g, int(failed[k].sum()), int(turned[k].sum())))
            found = (turned | failed).any(1)
            stop = np.where((events == 0) & found, e, stop)
            events += failed.sum(1) + turned.sum(1)
            ref[:, mem] = False
            cnt[:, mem] = 0
            corr[:, mem] = 0
    return [(int(stop[k]), tuple(logs[k])) for k in np.flatnonzero(events)]


@pytest.mark.filterwarnings("ignore:epsilon")  # tiny n sits outside the regime by design
def test_reference_path_matches_direct_simulation(monkeypatch):
    # stage2_draw at n=4 from round 3, with groups {0, 1} and {2, 3} that
    # opened stage 2 in rounds 0 and 3 (windows of 6 and 10 rounds), p=0.1:
    # agent 0 is wrong and holds 3 samples, 1 of them correct, and its
    # group's close at round 6 turns it correct in the reference path, so
    # from then on it sends correct samples to the other windows; group 1's
    # first window spans that close, so a conditioned agent there holds
    # samples of two runs with wrong shares 1/3 and 0, thinned.  With the
    # cutoff lifted, a returned path other than the quiet one has the
    # reference path's law given some event, up to the round of its first
    # event's close: it ends there, every earlier close is empty, and the
    # law of that round and of the failures and wrong majorities of its
    # closes must match 60,000 direct simulations of the reference path,
    # cell by cell within 4 sigma, with the cells expected fewer than 10
    # times in the draws pooled.
    n, p, draws = 4, 0.1, 3000
    lengths = (6, 10)
    opens = np.array([0, 3])
    gid = np.array([0, 0, 1, 1], np.intp)
    cnt = np.array([3, 3, 0, 0], np.int32)
    corr = np.array([1.0, 3.0, 0.0, 0.0])
    wrong = np.arange(n) == 0
    monkeypatch.setattr("flipsim.protocols.KLM_CUTOFF", math.inf)
    gen = derive_rng(26, "reference-turn")
    drawn = Counter()
    for _ in range(draws):
        end, closes, _, _ = stage2_draw(3, opens, lengths, gid, cnt, corr, wrong, NoiseChannel(p), gen)
        if any(failed.size + turned.size for *_, failed, turned in closes):
            at = [int(opens[g]) + sum(lengths[:j + 1]) for j, g, _, _ in closes]     # each close's round
            busy = [e for (*_, failed, turned), e in zip(closes, at) if failed.size + turned.size]
            assert at[-1] == end == busy[0], (end, at, busy)
            drawn[end, tuple((j, g, failed.size, turned.size) for j, g, failed, turned in closes)] += 1
    direct = Counter(_reference_paths(3, opens, lengths, gid, cnt, corr, wrong, p, 20 * draws, gen))
    keys = sorted(set(drawn) | set(direct))
    x, y = (np.array([table[key] for key in keys], float) for table in (drawn, direct))
    pooled = (x + y) / (x.sum() + y.sum())
    rare = pooled * x.sum() < 10
    x, y, pooled = (np.append(v[~rare], v[rare].sum()) for v in (x, y, pooled))
    assert x.sum() > 0.3 * draws and rare.sum() < rare.size, (x.sum(), rare.sum())
    sigma = np.sqrt(pooled * (1 - pooled) * (1 / x.sum() + 1 / y.sum()))
    assert (np.abs(x / x.sum() - y / y.sum()) <= 4 * sigma).all(), (x / x.sum(), y / y.sum())


@pytest.mark.parametrize("pick", [0, -1], ids=["hit", "missed"])
@pytest.mark.parametrize("i_sends", [True, False], ids=["i-sends", "i-silent"])
def test_conditioned_round_with_sender_subset(i_sends, pick):
    # agents 0, 3, 4 and 5 send, and agent I = 2 too unless silent; agent 4
    # is wrong
    sending = np.isin(np.arange(6), (0, 3, 4, 5) + ((2,) if i_sends else ()))
    _check_conditioned_round(sending, np.arange(6) == 4, pick, derive_rng(24, "subset-round", i_sends, pick + 1))


def test_tail_falls_back_when_union_bound_exceeds_one(monkeypatch):
    # desync at n=4096, eps=0.4 with supplied clocks: the final 150-round
    # phase alone has pi = 1.46, so every draw returns None: the one at the
    # latest group's stage-2 open and the retry at each of its closes before
    # the end of the run.  The kernel delivers every round from the first
    # try to the end of the run, the whole final phase among them.
    n = 4096
    config = cfg(n, 0.4)
    d = clock_bound(n)
    offsets = derive_rng(0, "fallback-clocks").integers(0, d, n)
    calls, rounds = [], [0]

    def draw(t, *args):
        calls.append((t, stage2_draw(t, *args)))
        return calls[-1][1]

    def counting(carriers, others, span, *args):
        rounds[0] += span if calls else 0
        return deliver_span_counts(carriers, others, span, *args)

    monkeypatch.setattr("flipsim.protocols.stage2_draw", draw)
    monkeypatch.setattr("flipsim.protocols.deliver_span_counts", counting)
    out = run_desynchronized(config, clocks=ClockConfiguration(offsets, d), rng=derive_rng(0, "fallback"))
    lengths = derive_schedule(n, config.channel).stage2_phase_lengths
    opened = out.rounds_used - sum(lengths)     # the latest group's stage-2 open
    assert calls == [(u, None) for u in opened + np.cumsum([0, *lengths[:-1]])], calls
    t = calls[0][0]
    assert rounds[0] == out.rounds_used - t
    final_open = out.desync.local_total - int(offsets.max()) - lengths[-1]
    assert t <= final_open, (t, final_open)


@pytest.mark.parametrize("accept", [False, True], ids=["refused", "accepted"])
@pytest.mark.parametrize("staggered", [False, True], ids=["one-clock", "staggered"])
def test_one_draw_trigger_for_every_clock_layout(monkeypatch, staggered, accept):
    # The one trigger: once every clock group is in stage 2 and every agent
    # holds an opinion, the drawn stage-2 path is tried at every span start,
    # except that after a refusal none is tried before the latest group's
    # next close.  With a draw that refuses everything, a broadcast tries at
    # every stage-2 window start and a supplied-clock desync run at the
    # latest group's stage-2 open and then at each of that group's closes
    # before the end of the run.  With the first try accepted instead,
    # ending at the first close after it of any group, the next try comes
    # at that close.
    n = 256
    config = cfg(n, 0.25, seed=4)
    lengths = derive_schedule(n, config.channel).stage2_phase_lengths
    calls, ends = [], []

    def draw(t, opens, phases, gid, *args):
        calls.append(t)
        if not accept or len(calls) > 1:
            return None
        closes = opens[:, None] + np.cumsum(phases)
        e = int(closes[closes > t].min())
        none = np.empty(0, np.int64)
        ends.append(e)
        return e, [(j, g, none, none) for j, g in sorted(zip(*np.nonzero(closes.T == e)))], \
            np.zeros(gid.size), np.zeros(gid.size)

    monkeypatch.setattr("flipsim.protocols.stage2_draw", draw)
    if staggered:
        d = clock_bound(n)
        clocks = ClockConfiguration(derive_rng(0, "trigger-clocks").integers(0, d, n), d)
        out = run_desynchronized(config, clocks=clocks, rng=derive_rng(0, "trigger"))
    else:
        out = run_broadcast(config, rng=derive_rng(0, "trigger"))
    assert out.stage1.all_activated
    opened = out.rounds_used - sum(lengths)     # the latest group's stage-2 open
    tries = sorted({*(opened + np.cumsum([0, *lengths[:-1]])).tolist(), *ends})
    assert calls == tries, (calls, tries)
    assert len(ends) == accept


def _block_bounds(draw):
    """``draw()`` with a spy on :func:`stage2_draw`'s blocks: its result,
    and the running union bound before each block whose law it computes,
    read from the draw's frame."""
    bounds = []

    def spy(*args):
        bounds.append(float(sys._getframe(1).f_locals["pi"]))
        return phase_class(*args)

    with mock.patch("flipsim.protocols.phase_class", spy):
        return draw(), bounds


@pytest.mark.parametrize("where", ["staggered-open", "final-phase"])
def test_refused_draw_draws_nothing_past_the_cutoff(where):
    # A refused draw leaves the generator untouched, which the retry rule
    # relies on to keep streams stable, and computes no block after the one
    # whose term brings its running union bound to KLM_CUTOFF: at the
    # latest group's stage-2 open of a supplied-clock desync run at n=4096,
    # eps=0.25, and in the final 150-round phase at n=4096, eps=0.4
    # (pi = 1.46), opening with 20 agents wrong, whose correct agents alone
    # bring the bound past the cutoff.  With the cutoff lifted the same
    # inputs have more blocks, and the bound reaches the cutoff exactly
    # after the last block the refused draw computed.
    n = 4096
    if where == "staggered-open":
        config = cfg(n, 0.25)
        d = clock_bound(n)
        clocks = ClockConfiguration(derive_rng(0, "cutoff-clocks").integers(0, d, n), d)
        first = []      # the first try's inputs but the generator, copied

        def refuse(*args):
            if not first:
                first.extend(a.copy() if isinstance(a, np.ndarray) else a for a in args[:8])

        with mock.patch("flipsim.protocols.stage2_draw", refuse):
            run_desynchronized(config, clocks=clocks, rng=derive_rng(0, "cutoff"))
        assert first[0] == first[1].max()       # the latest group's stage-2 open

        def draw(gen):
            return stage2_draw(*first, gen)
    else:
        config = cfg(n, 0.4)
        final = derive_schedule(n, config.channel).stage2_phase_lengths[-1]
        assert final == 150

        def draw(gen):
            return phase_draw(n, final, np.arange(n) < 20, config.channel, gen)

    gen = derive_rng(27, "cutoff", where)
    state = gen.bit_generator.state
    drawn, bounds = _block_bounds(lambda: draw(gen))
    assert drawn is None and gen.bit_generator.state == state
    assert bounds and max(bounds) < KLM_CUTOFF, bounds
    with mock.patch("flipsim.protocols.KLM_CUTOFF", math.inf):
        _, every = _block_bounds(lambda: draw(clone(gen)))
    assert len(every) > len(bounds) and every[:len(bounds)] == bounds, (len(every), len(bounds))
    assert every[len(bounds)] >= KLM_CUTOFF, every[len(bounds)]


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


def test_desync_preamble_with_split_spans(monkeypatch):
    # with the kernel splitting at n = 512, the preamble hands it one-round
    # spans while agents are uninformed and longer spans later, so a run
    # goes through both the split and the unsplit delivery
    monkeypatch.setattr(model, "SPLIT_AGENTS", 512)
    spans = []

    def counting(carriers, others, span, *args):
        spans.append(span)
        return deliver_span_counts(carriers, others, span, *args)

    monkeypatch.setattr("flipsim.protocols.deliver_span_counts", counting)
    out = run_desynchronized(cfg(512, 0.25, seed=8), rng=derive_rng(1, "pre"))
    assert 1 in spans and max(spans) >= 2
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


def _silent_path(n, threshold, runs, one_round):
    """(first-threshold round, rounds used, correct count, largest depth) of
    ``runs`` silent-wait runs, with one-round steps forced when ``one_round``."""
    rows = []
    with mock.patch.object(protocols, "STEP_MESSAGES", 1 if one_round else protocols.STEP_MESSAGES):
        for seed in range(runs):
            config = cfg(n, 0.25, seed=seed)
            gen = derive_rng(seed, "silent-steps", threshold, int(one_round))
            opinion, rounds, _, depth, first = _threshold_loop(config, threshold, 10 * math.isqrt(n) + 10, gen)
            rows.append((first or 0, rounds, int((opinion == config.correct_opinion).sum()), int(depth.max())))
    return np.array(rows)


@pytest.mark.parametrize("threshold", [2, 3])
def test_silent_wait_block_steps_match_one_round_steps(threshold):
    # block steps cut at the first crossing against the loop's one-round
    # steps: the first-threshold round, rounds used, correct count and
    # largest depth agree in mean within 4 sigma and in each value's share
    # within 4 sigma of the pooled share
    n, runs = 150, 3000
    block, single = _forked(*((_silent_path, n, threshold, runs, one_round) for one_round in (False, True)))
    sigma = np.sqrt(block.var(0, ddof=1) / runs + single.var(0, ddof=1) / runs)
    assert (np.abs(block.mean(0) - single.mean(0)) < 4 * sigma).all(), (block.mean(0), single.mean(0))
    for col in range(block.shape[1]):
        a, b = Counter(block[:, col]), Counter(single[:, col])
        for key in set(a) | set(b):
            x, y = a[key] / runs, b[key] / runs
            pooled = (x + y) / 2
            assert abs(x - y) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / runs), (col, key, x, y)


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
    # the count path and the drawn stage-2 path read payloads only
    # through "carries the correct opinion", so relabeling complements the
    # outcome and leaves every kernel call and every drawn path, and so
    # the recorded digest, unchanged
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
