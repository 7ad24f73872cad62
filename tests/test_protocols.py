import math
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
from flipsim.oracle import binomial_tail_geq, majority_wrong_prob
from flipsim.params import _ceil_log2, clock_bound
from flipsim.protocols import (
    _failure_set,
    _local_windows,
    _occupancy_given,
    _run_windows,
    _stage1_pick,
    _stage2_apply,
    _truncated_binomial,
    unanimous_phase,
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
    # adopts the correct opinion with probability exactly j/k
    agents = 40_000
    gen = derive_rng(12, "pick")
    for k in range(1, 5):
        for j in range(k + 1):
            right = _stage1_pick(np.full(agents, k, np.int32), np.full(agents, j, np.int32), gen)
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
    # unanimous-phase shortcut, they make up the whole run.
    runs = 1500
    config = SimConfig(n=64, channel=NoiseChannel.from_epsilon(0.25), constants=SMALL)
    assert derive_schedule(64, config.channel, SMALL).t_phases == 1
    seen = [0, 0]     # rounds through the adapter, rounds drawn by the shortcut

    def adapter(carriers, others, rounds, *args):
        seen[0] += rounds
        return permutation_counts(carriers, others, rounds, *args)

    def shortcut(n, m, *args):
        drawn = unanimous_phase(n, m, *args)
        seen[1] += m if drawn is not None else 0
        return drawn

    samples = []
    for reference in (False, True):
        if reference:
            monkeypatch.setattr("flipsim.protocols.deliver_span_counts", adapter)
            monkeypatch.setattr("flipsim.protocols.unanimous_phase", shortcut)
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
# stage 2: phases that start unanimous


def _union_bound(n, m):
    """pi = n P(Binomial(m, h) < m/2), h = 1-(1-1/(n-1))^(n-1)."""
    miss = (1 - 1 / (n - 1)) ** (n - 1)
    return n * binomial_tail_geq(m, m - m // 2 + 1, miss)


def _unanimous_opinions(config):
    return np.full(config.n, config.correct_opinion, np.int8)


def _unanimous_phase_run(config, schedule, gen):
    """One stage-2 phase from an all-correct start: (successful count,
    agents turned wrong)."""
    opinion = _unanimous_opinions(config)
    (record,) = run_stage2(opinion, config, schedule, gen)
    assert record.start_correct_fraction == 1.0
    return record.successful_count, int((opinion != config.correct_opinion).sum())


@pytest.mark.filterwarnings("ignore:epsilon")  # n=16 at eps=0.1 sits outside the regime by design
def test_unanimous_phase_matches_simulated_rounds(monkeypatch):
    # One 38-round phase at n=16 and eps=0.1: pi = 0.37 and w = 0.19, so
    # failures and wrong turns both happen often.  The joint law of
    # (successful count, agents turned wrong) drawn by the shortcut must
    # match the simulated rounds (shortcut patched out) cell by cell, 4 sigma.
    n, m, runs = 16, 38, 4000
    config = cfg(n, 0.1)
    p = config.channel.flip_probability
    assert 0.05 < _union_bound(n, m) < 0.5
    assert 0.05 < majority_wrong_prob(m // 2, 1 - p) < 0.5
    schedule = replace(derive_schedule(n, config.channel), k=0, stage2_phase_lengths=(m,))
    tables = []
    for simulated in (False, True):
        if simulated:
            monkeypatch.setattr("flipsim.protocols.unanimous_phase", lambda *args: None)
        gen = derive_rng(16, "unanimous", simulated)
        cells = {}
        for _ in range(runs):
            key = _unanimous_phase_run(config, schedule, gen)
            cells[key] = cells.get(key, 0) + 1
        tables.append(cells)
    drawn, simulated = tables
    assert sum(v for (succ, _), v in drawn.items() if succ < n) > 0.1 * runs
    for key in set(drawn) | set(simulated):
        a, b = drawn.get(key, 0) / runs, simulated.get(key, 0) / runs
        pooled = (a + b) / 2
        assert abs(a - b) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / runs), (key, a, b)
    # and on both paths a successful agent turns wrong with probability w
    w = majority_wrong_prob(m // 2, 1 - p)
    for cells in tables:
        successful = sum(succ * v for (succ, _), v in cells.items())
        share = sum(wrong * v for (_, wrong), v in cells.items()) / successful
        assert abs(share - w) < 4 * math.sqrt(w * (1 - w) / successful), (share, w)


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
    # within 4 sigma size by size, and E|F| = pi.
    runs = 10_000
    s = m // 2
    pi = _union_bound(n, m)
    assert 0.2 < pi < 0.6
    gen = derive_rng(17, "klm", n, m)
    klm = np.array([_failure_set(n, m, gen).size for _ in range(runs)])
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


@pytest.mark.parametrize("hit", [True, False], ids=["hit", "missed"])
def test_conditioned_round_exact_law(hit):
    # one round in which all n=6 agents send, conditioned on agent 2 hearing
    # (or not): the law of the whole heard pattern must match unconditioned
    # rounds of the kernel's target rule, kept when agent 2's fate matches,
    # pattern by pattern within 4 sigma
    n, i, draws = 6, 2, 30_000
    gen = derive_rng(20, "round", hit)
    weights = 1 << np.arange(n)
    drawn = np.bincount([int(_occupancy_given(i, np.array([hit]), n, gen) @ weights)
                         for _ in range(draws)], minlength=1 << n) / draws
    t = gen.integers(0, n - 1, size=(10 * draws, n))
    t += t >= np.arange(n)
    heard = np.zeros(t.shape, bool)
    heard[np.arange(t.shape[0])[:, None], t] = True
    kept = heard[heard[:, i] == hit]
    reference = np.bincount(kept @ weights, minlength=1 << n) / kept.shape[0]
    assert drawn[[(p >> i) & 1 != hit for p in range(1 << n)]].sum() == 0
    pooled = (drawn * draws + reference * kept.shape[0]) / (draws + kept.shape[0])
    sigma = np.sqrt(pooled * (1 - pooled) * (1 / draws + 1 / kept.shape[0]))
    assert (np.abs(drawn - reference) <= 4 * sigma).all()


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
    assert unanimous_phase(config.n, final, config.channel, gen) is None
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
    # calls the shortcut, so its runs are those of the full simulation
    def refuse(*args):
        raise AssertionError("the unanimous-phase shortcut was called")

    monkeypatch.setattr("flipsim.protocols.unanimous_phase", refuse)
    config = cfg(512, 0.25, seed=6)
    d = clock_bound(512)
    clocks = None if preamble else ClockConfiguration(derive_rng(0, "off").integers(0, d, 512), d)
    out = run_desynchronized(config, clocks=clocks, rng=derive_rng(0, "bypass"))
    assert out.rounds_used > derive_schedule(512, config.channel).total_rounds
    assert out.messages_sent > 0


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
    pytest.param(_desync_clocks_from, False, id="desync-clocks"),
    pytest.param(lambda config, correct: run_desynchronized(config, rng=derive_rng(5, "relabel")),
                 False, id="desync-preamble"),
])
def test_relabeling_symmetry_without_log(monkeypatch, engine, shortcut):
    # the count path and the unanimous-phase shortcut read payloads only
    # through "carries the correct opinion", so relabeling complements the
    # outcome and leaves every kernel call and every shortcut draw, and so
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
