"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

The heavy Monte Carlo batches (200 seeds at n=4096) are computed once in
module-scoped fixtures and shared across criteria; runs execute in the
harness's process pool (``FLIPSIM_THREADS`` workers) with per-run derived
streams, so results are independent of scheduling.
"""

import math
from unittest import mock

import numpy as np
import pytest

from flipsim import (
    ClockConfiguration,
    NoiseChannel,
    SimConfig,
    derive_rng,
    derive_schedule,
    run_baseline_forward,
    run_baseline_silent_wait,
    run_broadcast,
    run_desynchronized,
    run_majority_consensus,
)
from flipsim.harness import _consensus_initial, pool_map, wilson_interval
from flipsim.oracle import (
    lemma_second_bound_check,
    majority_correct_prob,
    phase_law,
    stirling_claim_grid,
)
from flipsim.params import clock_bound
from flipsim.protocols import stage2_draw
from reference import push_spread, run_recorded

SEED = 61803
BATCH = 200
N_MAIN = 4096
EPS_MAIN = 0.25
EPS_GROWTH = 0.4    # T=1 at N_MAIN: a growth phase, so A7's X sandwich is not empty
CONSENSUS_SET = N_MAIN // 4     # the initial opinionated set |A| of A12
CONSENSUS_BIAS = 0.1


def _report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def _broadcast_run(seed: int):
    config = SimConfig(n=N_MAIN, channel=NoiseChannel.from_epsilon(EPS_MAIN), master_seed=SEED)
    return run_broadcast(config, rng=derive_rng(SEED, "a-broadcast", seed))


def _growth_run(seed: int):
    config = SimConfig(n=N_MAIN, channel=NoiseChannel.from_epsilon(EPS_GROWTH), master_seed=SEED)
    return run_broadcast(config, rng=derive_rng(SEED, "a-growth", seed))


def _desync_run(seed: int):
    """One supplied-clock desync run, whether the rest of its stage 2 was
    drawn (``stage2_draw`` returned something other than None), and whether
    a draw was taken by the round at which the latest clock group closes its
    first stage-2 window."""
    config = SimConfig(n=N_MAIN, channel=NoiseChannel.from_epsilon(EPS_MAIN), master_seed=SEED)
    d = clock_bound(N_MAIN)
    offsets = derive_rng(SEED, "a-clocks", seed).integers(0, d, size=N_MAIN)
    schedule = derive_schedule(N_MAIN, config.channel)
    first_close = schedule.total_rounds + (schedule.t_phases + 2) * d - sum(schedule.stage2_phase_lengths[1:]) \
        - int(offsets.min())
    drawn = []

    def draw(t, *args):
        drawn.append((t, stage2_draw(t, *args)))
        return drawn[-1][1]

    with mock.patch("flipsim.protocols.stage2_draw", draw):
        out = run_desynchronized(config, clocks=ClockConfiguration(offsets, d),
                                 rng=derive_rng(SEED, "a-desync", seed))
    return out, any(x is not None for _, x in drawn), any(x is not None and t <= first_close for t, x in drawn)


def _preamble_run(seed: int):
    """One desync run with the activation preamble: (all correct, realized
    clock spread, stalled)."""
    config = SimConfig(n=N_MAIN, channel=NoiseChannel.from_epsilon(EPS_MAIN), master_seed=SEED)
    out = run_desynchronized(config, rng=derive_rng(SEED, "a-preamble", seed))
    return out.correct_fraction == 1.0, out.desync.offset_spread, out.desync.stalled


def _consensus_run(seed: int):
    config = SimConfig(n=N_MAIN, channel=NoiseChannel.from_epsilon(EPS_MAIN), master_seed=SEED)
    initial = _consensus_initial(N_MAIN, CONSENSUS_SET, CONSENSUS_BIAS, config.correct_opinion,
                                 derive_rng(SEED, "a-consensus-init", seed))
    return run_majority_consensus(config, initial, rng=derive_rng(SEED, "a-consensus", seed))


def _noiseless_run(args) -> bool:
    n, seed = args
    config = SimConfig(n=n, channel=NoiseChannel.from_epsilon(0.5), master_seed=SEED)
    out = run_broadcast(config, rng=derive_rng(SEED, "a-noiseless", n, seed))
    return out.correct_fraction == 1.0


def _scaling_run(args):
    n, seed = args
    config = SimConfig(n=n, channel=NoiseChannel.from_epsilon(EPS_MAIN), master_seed=SEED)
    out = run_broadcast(config, rng=derive_rng(SEED, "a-scaling", n, seed))
    return n, out.rounds_used, out.messages_sent


def _forward_run(seed: int):
    config = SimConfig(n=2 ** 14, channel=NoiseChannel.from_epsilon(0.1), master_seed=SEED)
    out = run_baseline_forward(config, max_rounds=400, rng=derive_rng(SEED, "a-fwd", seed))
    return tuple((d.depth, d.agents, d.correct) for d in out.depth_table)


def _silent_run(seed: int):
    config = SimConfig(n=10 ** 4, channel=NoiseChannel.from_epsilon(0.25), master_seed=SEED)
    out = run_baseline_silent_wait(config, threshold=2, max_rounds=1000,
                                   rng=derive_rng(SEED, "a-silent", seed))
    return out.first_threshold_round


@pytest.fixture(scope="module")
def broadcast_batch():
    return pool_map(_broadcast_run, list(range(BATCH)))


@pytest.fixture(scope="module")
def growth_batch():
    return pool_map(_growth_run, list(range(BATCH)))


@pytest.fixture(scope="module")
def consensus_batch():
    return pool_map(_consensus_run, list(range(BATCH)))


@pytest.fixture(scope="module")
def desync_batch():
    return pool_map(_desync_run, list(range(BATCH)))


# ---------------------------------------------------------------------------


def test_a1_sample_majority_bound_grid():
    slack = 1e-9
    worst = None
    for eps in (0.05, 0.1, 0.25, 0.4):
        for delta in (1e-8, 1e-6, 1e-4, 1e-2, 0.05, 0.1, 0.25, 0.4):
            res = lemma_second_bound_check(eps, delta)
            margin = res.probability - res.bound
            if worst is None or margin < worst[0]:
                worst = (margin, eps, delta)
            assert res.probability >= res.bound - slack, (eps, delta, res)
    _report("A1", True,
            f"majority bound holds on the 4x8 grid at r=ceil(2^22/eps^2); "
            f"tightest margin {worst[0]:.3e} at eps={worst[1]}, delta={worst[2]}")


def test_a2_central_binomial_bound():
    grid = stirling_claim_grid(10 ** 4)
    ok = bool(grid.all())
    _report("A2", ok, f"P(r+i) > 1/(10 sqrt(r)) for all i <= floor(sqrt(r)), r in 1..10^4 "
                      f"({int(grid.sum())}/{grid.size} r-values)")


def test_a3_small_case_enumeration():
    worst = 0.0
    for gamma in range(1, 16, 2):
        masks = np.arange(2 ** gamma, dtype=np.uint32)
        ones = np.bitwise_count(masks).astype(np.int64)
        k = (gamma + 1) // 2
        for q in (0.5, 0.55, 0.6, 0.75, 0.9, 1.0):
            weights = (q ** ones) * ((1.0 - q) ** (gamma - ones))
            brute = float(weights[ones >= k].sum())
            diff = abs(majority_correct_prob(gamma, q) - brute)
            worst = max(worst, diff)
    ok = worst <= 1e-12
    _report("A3", ok, f"brute-force enumeration over all 2^gamma outcomes, gamma<=15: "
                      f"max |diff| = {worst:.2e} <= 1e-12")


def test_a4_noiseless_end_to_end():
    tasks = [(n, s) for n in (2 ** 8, 2 ** 10) for s in range(100)]
    results = pool_map(_noiseless_run, tasks)
    successes = sum(results)
    ok = successes == len(tasks)
    _report("A4", ok, f"eps=1/2 broadcast all-correct in {successes}/{len(tasks)} runs "
                      f"(n in {{2^8, 2^10}}, 100 seeds each)")


def test_a5_desk_scale_success(broadcast_batch):
    successes = sum(out.correct_fraction == 1.0 for out in broadcast_batch)
    activated = sum(out.stage1.all_activated for out in broadcast_batch)
    rate = successes / BATCH
    lo, hi = wilson_interval(successes, BATCH)
    ok = rate >= 0.99 and lo >= 0.96 and activated >= 0.99 * BATCH
    _report("A5", ok, f"broadcast n=4096 eps=0.25: success {successes}/{BATCH} "
                      f"(rate {rate:.4f}, wilson [{lo:.4f}, {hi:.4f}]); "
                      f"all-activated in {activated}/{BATCH}")


def test_a6_round_and_message_scaling():
    c_messages = 24.0   # fixed constant; reference build measures ~16 on every cell
    tasks = [(n, s) for n in (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14) for s in range(5)]
    results = pool_map(_scaling_run, tasks)
    by_n = {}
    for n, rounds, messages in results:
        by_n.setdefault(n, []).append((rounds, messages))
        assert messages <= c_messages * n * math.log2(n) / EPS_MAIN ** 2, (n, messages)
    ratios = {}
    for n, rows in by_n.items():
        rounds = {r for r, _ in rows}
        assert len(rounds) == 1      # oblivious: round count is schedule-fixed
        ratios[n] = rounds.pop() / (math.log2(n) / EPS_MAIN ** 2)
    spread = max(ratios.values()) / min(ratios.values())
    ok = spread <= 2.0
    _report("A6", ok, f"rounds/((1/eps^2) log2 n) in "
                      f"[{min(ratios.values()):.2f}, {max(ratios.values()):.2f}] "
                      f"(spread {spread:.3f} <= 2) and messages <= {c_messages} n log2(n)/eps^2")


def _stage1_structure(batch, eps):
    """A7's checks on one batch: ``(ok, detail)``."""
    schedule = derive_schedule(N_MAIN, NoiseChannel.from_epsilon(eps))
    t = schedule.t_phases
    beta = schedule.beta
    log2n = math.log2(N_MAIN)
    upper_ok = sandwich_ok = growth_ok = bias_ok = 0
    for out in batch:
        phases = {m.phase: (m.x, m.y, m.z, m.epsilon) for m in out.stage1.per_phase}
        x0 = phases[0][0]
        upper = all(phases[i][0] <= (beta + 1) ** i * x0 for i in range(1, t + 1))
        lower = all(phases[i][0] >= (beta + 1) ** i * x0 / 16 for i in range(1, t + 1))
        growth = all(phases[i][1] >= beta ** (i - 1) * log2n for i in range(1, t + 2))
        bias = all(phases[i][3] is not None and phases[i][3] >= eps ** (i + 1) / 2
                   for i in range(0, t + 2))
        upper_ok += upper
        sandwich_ok += lower
        growth_ok += growth
        bias_ok += bias
    note = " (X-sandwich range 1..T empty at T=0)" if t == 0 else ""
    ok = (upper_ok == BATCH and sandwich_ok >= 0.95 * BATCH
          and growth_ok >= 0.95 * BATCH and bias_ok >= 0.95 * BATCH)
    return ok, (f"eps={eps} T={t}{note}: X upper {upper_ok}/{BATCH} (every run), "
                f"X lower {sandwich_ok}, Y growth {growth_ok}, "
                f"bias {bias_ok} (each >= {int(0.95 * BATCH)})")


def test_a7_stage1_structure(broadcast_batch, growth_batch):
    assert derive_schedule(N_MAIN, NoiseChannel.from_epsilon(EPS_GROWTH)).t_phases >= 1
    results = [_stage1_structure(broadcast_batch, EPS_MAIN), _stage1_structure(growth_batch, EPS_GROWTH)]
    _report("A7", all(ok for ok, _ in results), "; ".join(detail for _, detail in results))


def test_a8_stage2_boost(broadcast_batch):
    gate = 4.0 * math.sqrt(math.log2(N_MAIN) / N_MAIN)
    boosted = observed = 0
    succ_half = phases_total = 0
    for out in broadcast_batch:
        for rec in out.stage2:
            phases_total += 1
            succ_half += rec.successful_count >= N_MAIN / 2
            delta = rec.start_correct_fraction - 0.5
            if delta >= gate:
                observed += 1
                bound = min(0.5 + 1.7 * delta, 0.5 + 1.0 / 800.0)
                boosted += rec.correct_fraction >= bound
    ok = observed > 0 and boosted >= 0.95 * observed and succ_half >= 0.99 * phases_total
    _report("A8", ok, f"boost bound met in {boosted}/{observed} gated phase observations "
                      f"(gate delta>={gate:.4f}); successful>=n/2 in "
                      f"{succ_half}/{phases_total} phases")


def _phase_law_z(batch, eps):
    """z-scores of the stage-2 phases' end-correct counts against the exact
    one-phase law (``oracle.phase_law``), for the phases whose
    independent-agent variance is at least 1; also returns the number of
    runs skipped because stage 1 left an agent without an opinion (it would
    not send in stage 2).  Agents of one phase are slightly negatively
    correlated (two cannot accept the same message), so the sum of the
    agents' Bernoulli variances bounds the variance of the count from above.
    """
    n = N_MAIN
    channel = NoiseChannel.from_epsilon(eps)
    lengths = derive_schedule(n, channel).stage2_phase_lengths
    zs = []
    skipped = 0
    for out in batch:
        if not out.stage1.all_activated:
            skipped += 1
            continue
        for rec, m in zip(out.stage2, lengths):
            wrong = n - round(rec.start_correct_fraction * n)
            law = phase_law(n, m, wrong, channel.flip_probability)
            mean = var = 0.0
            for agents, cls in zip((n - wrong, wrong), law):
                mean += agents * cls.correct
                var += agents * cls.correct * (1 - cls.correct)
            if var >= 1.0:
                zs.append((round(rec.correct_fraction * n) - mean) / math.sqrt(var))
    return zs, skipped


def _failure_z(batch, eps, phases):
    """z-score of the stage-2 failures (agents with fewer than s samples,
    n - ``successful_count``) pooled over the all-activated runs' phases at
    the indexes ``phases``, against the sum of n ``fail`` from
    ``oracle.phase_law``.  Failure indicators are negatively associated, so
    the summed Bernoulli variance n fail (1 - fail) bounds the variance."""
    n = N_MAIN
    channel = NoiseChannel.from_epsilon(eps)
    fail = [phase_law(n, m, 0, channel.flip_probability)[0].fail
            for m in derive_schedule(n, channel).stage2_phase_lengths]
    runs = [out for out in batch if out.stage1.all_activated]
    observed = sum(n - out.stage2[j].successful_count for out in runs for j in phases)
    mean = len(runs) * sum(n * fail[j] for j in phases)
    var = len(runs) * sum(n * fail[j] * (1 - fail[j]) for j in phases)
    return (observed - mean) / math.sqrt(var), observed, mean


def _law_detail(zs, skipped):
    """``(ok, detail)`` of the exact one-phase law gate: the mean z of N
    phases within 4/sqrt(N) of 0."""
    count = len(zs)
    mean = sum(zs) / count if count else float("nan")
    ok = count > 0 and abs(mean) <= 4.0 / math.sqrt(count)
    return ok, (f"exact one-phase law: mean z {mean:+.3f} over N={count} phases "
                f"(bound {4.0 / math.sqrt(max(count, 1)):.3f}; {skipped} runs not all activated)")


def test_a8_stage2_exact_phase_law(broadcast_batch, growth_batch):
    ok, detail = _law_detail(*_phase_law_z(broadcast_batch, EPS_MAIN))
    # pooled failures at eps=0.4: phases 2..k open unanimous and are drawn
    # by stage2_draw (union bound 0.20 each); the final one (union bound
    # 1.46) is simulated
    k = derive_schedule(N_MAIN, NoiseChannel.from_epsilon(EPS_GROWTH)).k
    fails = []
    for name, phases in (("phases 2..k", range(1, k)), ("all phases", range(k + 1))):
        z, observed, mean = _failure_z(growth_batch, EPS_GROWTH, phases)
        ok &= abs(z) <= 4.0
        fails.append(f"{name} {observed:.0f} against {mean:.1f} (z {z:+.2f})")
    _report("A8-law", ok, f"broadcast n={N_MAIN} eps={EPS_MAIN}: {detail}; eps={EPS_GROWTH} stage-2 failures "
                          f"{', '.join(fails)}, each |z| <= 4")


def test_a9_desynchronization(broadcast_batch, desync_batch):
    sync_successes = sum(out.correct_fraction == 1.0 for out in broadcast_batch)
    lo, hi = wilson_interval(sync_successes, BATCH)
    desync_rate = sum(out.correct_fraction == 1.0 for out, _, _ in desync_batch) / BATCH
    schedule = derive_schedule(N_MAIN, NoiseChannel.from_epsilon(EPS_MAIN))
    d = clock_bound(N_MAIN)
    bound = (schedule.t_phases + 2) * d + 6 * math.ceil(math.log2(N_MAIN))
    slack_ok = all(out.rounds_used - schedule.total_rounds <= bound for out, _, _ in desync_batch)
    in_ci = lo <= desync_rate <= hi
    drawn = sum(rest for _, rest, _ in desync_batch)
    early = sum(by_first_close for _, _, by_first_close in desync_batch)
    ok = in_ci and slack_ok and drawn >= 0.95 * BATCH and early >= 0.95 * BATCH
    _report("A9", ok, f"desync success {desync_rate:.4f} within sync CI [{lo:.4f}, {hi:.4f}]; "
                      f"round increase <= (T+2)D + 6 ceil(log2 n) = {bound} in every run; "
                      f"rest of stage 2 drawn in {drawn}/{BATCH} runs, from the latest group's first "
                      f"stage-2 close on in {early}/{BATCH} (each >= {math.ceil(0.95 * BATCH)})")


def test_a10_baselines():
    # immediate-forward degradation by hop depth
    pooled = {}
    for table in pool_map(_forward_run, list(range(20))):
        for depth, agents, correct in table:
            a, c = pooled.get(depth, (0, 0))
            pooled[depth] = (a + agents, c + correct)
    eps = 0.1
    depth_ok = True
    details = []
    for c_depth in range(1, 6):
        agents, correct = pooled[c_depth]
        bound_p = 0.5 + (2 * eps) ** c_depth
        sigma = math.sqrt(bound_p * (1 - bound_p) / agents)
        rate = correct / agents
        depth_ok &= rate <= bound_p + 3 * sigma
        details.append(f"c={c_depth}: {rate:.4f}<={bound_p + 3 * sigma:.4f}")
    # silent-wait birthday stall
    rounds = [r for r in pool_map(_silent_run, list(range(100))) if r is not None]
    med = float(np.median(rounds))
    sqrt_n = math.sqrt(10 ** 4)
    silent_ok = len(rounds) == 100 and 0.5 * sqrt_n <= med <= 5 * sqrt_n
    ok = depth_ok and silent_ok
    _report("A10", ok, "forward depth decay [" + ", ".join(details) + "]; "
                       f"silent-wait median first-threshold {med:.0f} in "
                       f"[{0.5 * sqrt_n:.0f}, {5 * sqrt_n:.0f}]")


def test_a11_symmetry_obliviousness(monkeypatch):
    all_ok = True
    for seed in range(20):
        runs = []
        for correct in (0, 1):
            config = SimConfig(n=256, channel=NoiseChannel.from_epsilon(EPS_MAIN),
                               master_seed=SEED, correct_opinion=correct)
            runs.append(run_recorded(monkeypatch, run_broadcast, config,
                                     rng=derive_rng(SEED, "a11", seed)))
        (out0, rec0), (out1, rec1) = runs
        all_ok &= rec0.digest() == rec1.digest() and rec0.shortcuts > 0
        all_ok &= bool(np.array_equal(out0.final_opinions ^ 1, out1.final_opinions))
    _report("A11", all_ok, "20 seeds at n=256: flipping the correct opinion leaves every "
                           "delivery round's senders, accepts and matches and every "
                           "drawn stage-2 phase identical and complements the final "
                           "opinions")


def test_a12_majority_consensus(consensus_batch):
    successes = sum(out.correct_fraction == 1.0 for out in consensus_batch)
    rate = successes / BATCH
    lo, hi = wilson_interval(successes, BATCH)
    law_ok, law = _law_detail(*_phase_law_z(consensus_batch, EPS_MAIN))
    ok = rate >= 0.99 and lo >= 0.96 and law_ok
    _report("A12", ok, f"consensus n={N_MAIN} eps={EPS_MAIN} |A|={CONSENSUS_SET} bias={CONSENSUS_BIAS}: "
                       f"success {successes}/{BATCH} (rate {rate:.4f}, wilson [{lo:.4f}, {hi:.4f}]); {law}")


def test_a13_preamble_at_scale(broadcast_batch):
    # the clock-free variant with the activation preamble at acceptance
    # scale: success within the broadcast batch's Wilson interval, no stall,
    # and a realized clock spread with the law of push rumor spreading's
    # completion time: the CDF and the rate of spread > D
    # within 4 pooled sigma of 2000 reference samples at every value
    rows = pool_map(_preamble_run, list(range(BATCH)))
    sync_successes = sum(out.correct_fraction == 1.0 for out in broadcast_batch)
    lo, hi = wilson_interval(sync_successes, BATCH)
    successes = sum(ok for ok, _, _ in rows)
    stalled = sum(stall for _, _, stall in rows)
    d = clock_bound(N_MAIN)
    spread = np.array([s for _, s, _ in rows])
    gen = derive_rng(SEED, "a13-push-spread")
    ref = np.array([push_spread(N_MAIN, d, gen) for _ in range(2000)])
    worst = 0.0
    values = range(min(spread.min(), ref.min()), max(spread.max(), ref.max()) + 1)
    for a, b in [(spread <= v, ref <= v) for v in values] + [(spread > d, ref > d)]:
        p = (a.sum() + b.sum()) / (a.size + b.size)
        sigma = math.sqrt(p * (1 - p) * (1 / a.size + 1 / b.size))
        worst = max(worst, abs(a.mean() - b.mean()) / sigma if sigma else 0.0)
    over = spread > d
    over_ok = sum(ok for (ok, _, _), late in zip(rows, over) if late)
    ok = lo <= successes / BATCH <= hi and stalled == 0 and worst <= 4.0
    _report("A13", ok, f"preamble n={N_MAIN} eps={EPS_MAIN}: success {successes}/{BATCH} within sync CI "
                       f"[{lo:.4f}, {hi:.4f}]; stalled in {stalled}; spread CDF and P(spread > D={d}) "
                       f"{over.mean():.4f} (reference {(ref > d).mean():.4f}) within {worst:.2f} <= 4 pooled "
                       f"sigma of {ref.size} push-spreading samples; success {over_ok}/{int(over.sum())} "
                       f"among runs with spread > D")
