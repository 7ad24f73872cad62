"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

The heavy Monte Carlo batches (200 seeds at n=4096) are computed once in
module-scoped fixtures and shared across criteria; runs execute in a small
process pool with per-run derived streams, so results are independent of
scheduling.
"""

import math
import multiprocessing as mp
import os
from dataclasses import dataclass

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
)
from flipsim.harness import wilson_interval
from flipsim.oracle import (
    lemma_second_bound_check,
    majority_correct_prob,
    stirling_claim_grid,
)
from reference import run_recorded

SEED = 61803
BATCH = 200
N_MAIN = 4096
EPS_MAIN = 0.25
EPS_GROWTH = 0.4    # T=1 at N_MAIN: a growth phase, so A7's X sandwich is not empty


def _report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


@dataclass(frozen=True)
class RunRecord:
    success: bool
    rounds: int
    messages: int
    stage1: tuple    # (phase, x, y, z, epsilon)
    stage2: tuple    # (index, successful, end_frac, start_frac)
    all_activated: bool


def _record(out) -> RunRecord:
    return RunRecord(
        success=out.correct_fraction == 1.0,
        rounds=out.rounds_used,
        messages=out.messages_sent,
        stage1=tuple((m.phase, m.x, m.y, m.z, m.epsilon) for m in out.stage1.per_phase),
        stage2=tuple((r.phase_index, r.successful_count, r.correct_fraction,
                      r.start_correct_fraction) for r in out.stage2),
        all_activated=out.stage1.all_activated,
    )


def _broadcast_run(seed: int) -> RunRecord:
    config = SimConfig(n=N_MAIN, channel=NoiseChannel.from_epsilon(EPS_MAIN), master_seed=SEED)
    return _record(run_broadcast(config, rng=derive_rng(SEED, "a-broadcast", seed)))


def _growth_run(seed: int) -> RunRecord:
    config = SimConfig(n=N_MAIN, channel=NoiseChannel.from_epsilon(EPS_GROWTH), master_seed=SEED)
    return _record(run_broadcast(config, rng=derive_rng(SEED, "a-growth", seed)))


def _desync_run(seed: int) -> RunRecord:
    config = SimConfig(n=N_MAIN, channel=NoiseChannel.from_epsilon(EPS_MAIN), master_seed=SEED)
    d = 2 * math.ceil(math.log2(N_MAIN))
    offsets = derive_rng(SEED, "a-clocks", seed).integers(0, d, size=N_MAIN)
    out = run_desynchronized(config, clocks=ClockConfiguration(offsets, d),
                             rng=derive_rng(SEED, "a-desync", seed))
    return _record(out)


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


def _pool_map(fn, items):
    workers = min(os.cpu_count() or 1, 8, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    with mp.get_context("fork").Pool(workers) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers)))


@pytest.fixture(scope="module")
def broadcast_batch():
    return _pool_map(_broadcast_run, list(range(BATCH)))


@pytest.fixture(scope="module")
def growth_batch():
    return _pool_map(_growth_run, list(range(BATCH)))


@pytest.fixture(scope="module")
def desync_batch():
    return _pool_map(_desync_run, list(range(BATCH)))


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
    results = _pool_map(_noiseless_run, tasks)
    successes = sum(results)
    ok = successes == len(tasks)
    _report("A4", ok, f"eps=1/2 broadcast all-correct in {successes}/{len(tasks)} runs "
                      f"(n in {{2^8, 2^10}}, 100 seeds each)")


def test_a5_desk_scale_success(broadcast_batch):
    successes = sum(r.success for r in broadcast_batch)
    activated = sum(r.all_activated for r in broadcast_batch)
    rate = successes / BATCH
    lo, hi = wilson_interval(successes, BATCH)
    ok = rate >= 0.99 and lo >= 0.96 and activated >= 0.99 * BATCH
    _report("A5", ok, f"broadcast n=4096 eps=0.25: success {successes}/{BATCH} "
                      f"(rate {rate:.4f}, wilson [{lo:.4f}, {hi:.4f}]); "
                      f"all-activated in {activated}/{BATCH}")


def test_a6_round_and_message_scaling():
    c_messages = 24.0   # fixed constant; reference build measures ~16 on every cell
    tasks = [(n, s) for n in (2 ** 8, 2 ** 10, 2 ** 12, 2 ** 14) for s in range(5)]
    results = _pool_map(_scaling_run, tasks)
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
    for rec in batch:
        phases = {p: (x, y, z, eps) for p, x, y, z, eps in rec.stage1}
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
    for rec in broadcast_batch:
        for _, successful, end_frac, start_frac in rec.stage2:
            phases_total += 1
            succ_half += successful >= N_MAIN / 2
            delta = start_frac - 0.5
            if delta >= gate:
                observed += 1
                bound = min(0.5 + 1.7 * delta, 0.5 + 1.0 / 800.0)
                boosted += end_frac >= bound
    ok = observed > 0 and boosted >= 0.95 * observed and succ_half >= 0.99 * phases_total
    _report("A8", ok, f"boost bound met in {boosted}/{observed} gated phase observations "
                      f"(gate delta>={gate:.4f}); successful>=n/2 in "
                      f"{succ_half}/{phases_total} phases")


def test_a9_desynchronization(broadcast_batch, desync_batch):
    sync_successes = sum(r.success for r in broadcast_batch)
    lo, hi = wilson_interval(sync_successes, BATCH)
    desync_rate = sum(r.success for r in desync_batch) / BATCH
    schedule = derive_schedule(N_MAIN, NoiseChannel.from_epsilon(EPS_MAIN))
    d = 2 * math.ceil(math.log2(N_MAIN))
    bound = (schedule.t_phases + 2) * d + 6 * math.ceil(math.log2(N_MAIN))
    slack_ok = all(r.rounds - schedule.total_rounds <= bound for r in desync_batch)
    in_ci = lo <= desync_rate <= hi
    ok = in_ci and slack_ok
    _report("A9", ok, f"desync success {desync_rate:.4f} within sync CI [{lo:.4f}, {hi:.4f}]; "
                      f"round increase <= (T+2)D + 6 ceil(log2 n) = {bound} in every run")


def test_a10_baselines():
    # immediate-forward degradation by hop depth
    pooled = {}
    for table in _pool_map(_forward_run, list(range(20))):
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
    rounds = [r for r in _pool_map(_silent_run, list(range(100))) if r is not None]
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
                           "unanimous-phase draw identical and complements the final "
                           "opinions")
