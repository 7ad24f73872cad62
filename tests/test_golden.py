"""Golden fingerprints: every engine on a small fixed seed grid.

Each digest hashes the final opinions, rounds and messages, the stage-1
X/Y/Z per phase, the stage-2 records, the desync info, the depth table and
the first-threshold round of every run in the grid; the preamble's
overlap entry runs its own two seeds.  A change that moves any
RNG stream or any simulated outcome changes a digest; such a change must
update the digest here and say so in CHANGES.md.

Outcomes can hide a moved stream: a drawn stage-2 path that ends all
correct looks the same whatever it drew.  So the two-stage engines also
pin the streams themselves: ``RECORDED`` hashes the
:class:`~reference.KernelRecorder` digest of every run in the grid, which
covers every kernel call and every drawn stage-2 path.
"""

import hashlib
import math

import numpy as np
import pytest

from flipsim import (
    ClockConfiguration,
    NoiseChannel,
    SimConfig,
    derive_rng,
    run_baseline_forward,
    run_baseline_silent_wait,
    run_broadcast,
    run_desynchronized,
    run_majority_consensus,
)
from flipsim.params import InitialSetTooSmallError, _ceil_log2, clock_bound
from reference import run_recorded

GRID = [(n, eps, seed) for n in (64, 512) for eps in (0.25, 0.5) for seed in (0, 1)]
# preamble runs whose realized clock spread exceeds D (19 and 20 against
# D = 16), so that window traffic of neighbouring phases overlaps
GRIDS = {"desync-preamble-overlap": [(256, 0.25, 42), (256, 0.25, 133)]}


def _consensus(config):
    n = config.n
    gen = derive_rng(config.master_seed, "golden-init")
    members = gen.choice(n, n // 2, replace=False)
    initial = np.full(n, -1, np.int8)
    initial[members[: round(0.6 * members.size)]] = config.correct_opinion
    initial[members[round(0.6 * members.size):]] = config.correct_opinion ^ 1
    try:
        return run_majority_consensus(config, initial)
    except InitialSetTooSmallError:
        return None     # n=64 at eps=0.25 admits no initial set of n/2 agents


def _desync_clocks(config):
    d = clock_bound(config.n)
    offsets = derive_rng(config.master_seed, "golden-clocks").integers(0, d, config.n)
    return run_desynchronized(config, clocks=ClockConfiguration(offsets, d))


def _desync_overlap(config):
    out = run_desynchronized(config)
    assert out.desync.offset_spread > out.desync.d_bound     # the regime this entry pins
    return out


ENGINES = {
    "broadcast": run_broadcast,
    "consensus": _consensus,
    "desync-clocks": _desync_clocks,
    "desync-preamble": run_desynchronized,
    "desync-preamble-overlap": _desync_overlap,
    "baseline-forward": lambda config: run_baseline_forward(
        config, max_rounds=8 * _ceil_log2(config.n) + 64),
    "baseline-silent": lambda config: run_baseline_silent_wait(
        config, threshold=2, max_rounds=int(10 * math.sqrt(config.n)) + 10),
}

GOLDEN = {
    "broadcast": "cadb6064b06fc9cd",
    "consensus": "b1dba40b60f7dc6a",
    "desync-clocks": "a59ffa45c6243020",
    "desync-preamble": "c82ab8877ce2ff68",
    "desync-preamble-overlap": "f9211faa9c49d471",
    "baseline-forward": "d0dc5c27eca2d018",
    "baseline-silent": "71ed5148a0b3dc8c",
}

RECORDED = {
    "broadcast": "d62ccb793679b5b2",
    "consensus": "673df4c674e2e090",
    "desync-clocks": "79b0e50f65f2cc7b",
    "desync-preamble": "d20e962204585a50",
}


def _fields(out):
    """Every observable of an Outcome, as plain Python values."""
    if out is None:
        return None
    fields = [int(out.rounds_used), int(out.messages_sent), out.initial_majority_bias]
    if out.stage1 is not None:
        fields.append([(int(m.phase), int(m.x), int(m.y), int(m.z)) for m in out.stage1.per_phase])
        fields.append((bool(out.stage1.all_activated), int(out.stage1.rounds_used)))
    fields.append([(int(r.phase_index), int(r.successful_count), float(r.correct_fraction).hex(),
                    float(r.start_correct_fraction).hex()) for r in out.stage2])
    if out.desync is not None:
        info = out.desync
        fields.append((int(info.d_bound), int(info.offset_spread), int(info.preamble_rounds),
                       int(info.local_total), bool(info.stalled)))
    if out.depth_table is not None:
        fields.append([(int(s.depth), int(s.agents), int(s.correct)) for s in out.depth_table])
    fields.append(out.first_threshold_round)
    return fields


def _configs(engine):
    for n, eps, seed in GRIDS.get(engine, GRID):
        yield SimConfig(n=n, channel=NoiseChannel.from_epsilon(eps), master_seed=seed)


def fingerprint(engine) -> str:
    h = hashlib.sha256()
    for config in _configs(engine):
        out = ENGINES[engine](config)
        if out is not None:
            h.update(np.asarray(out.final_opinions, np.int8).tobytes())
        h.update(repr(_fields(out)).encode())
    return h.hexdigest()[:16]


def recorded(monkeypatch, engine) -> str:
    h = hashlib.sha256()
    for config in _configs(engine):
        h.update(run_recorded(monkeypatch, ENGINES[engine], config)[1].digest().encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_golden_fingerprint(engine):
    assert fingerprint(engine) == GOLDEN[engine]


@pytest.mark.parametrize("engine", sorted(RECORDED))
def test_recorded_stream(monkeypatch, engine):
    assert recorded(monkeypatch, engine) == RECORDED[engine]
