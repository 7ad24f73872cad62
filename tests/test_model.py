import math

import numpy as np
import pytest

from flipsim import (
    ConfigurationError,
    NoiseChannel,
    RngStream,
    complement,
    derive_rng,
)
from flipsim.model import deliver_round_arrays, deliver_round_counts, delivery_buffers
from reference import deliver_round, flip, replay_targets


def test_complement_is_involution():
    assert complement(0) == 1
    assert complement(1) == 0
    assert complement(complement(0)) == 0
    assert complement(complement(1)) == 1


def test_channel_validation():
    NoiseChannel(0.0)
    NoiseChannel(0.49)
    with pytest.raises(ConfigurationError):
        NoiseChannel(0.5)
    with pytest.raises(ConfigurationError):
        NoiseChannel(-0.01)
    with pytest.raises(ConfigurationError):
        NoiseChannel.from_epsilon(0.0)
    with pytest.raises(ConfigurationError):
        NoiseChannel.from_epsilon(0.6)
    ch = NoiseChannel.from_epsilon(0.25)
    assert ch.flip_probability == 0.25
    assert ch.epsilon_bias == 0.25


def test_flip_zero_noise_identity():
    ch = NoiseChannel.from_epsilon(0.5)
    gen = derive_rng(0, "flip")
    for _ in range(100):
        assert flip(1, ch, gen) == 1
        assert flip(0, ch, gen) == 0


def test_flip_monte_carlo_frequency():
    # flipProbability 0.25: empirical flip rate 0.25 +- 0.01 over 1e6 draws
    ch = NoiseChannel.from_epsilon(0.25)
    gen = derive_rng(1, "flip-mc")
    bits = np.zeros(10 ** 6, np.int8)
    out = flip(bits, ch, gen)
    rate = out.mean()
    assert abs(rate - 0.25) < 0.01


def test_flip_symmetric_under_relabeling():
    # identical draws flip both inputs in the same positions
    ch = NoiseChannel.from_epsilon(0.1)
    zeros = flip(np.zeros(1000, np.int8), ch, derive_rng(2, "sym"))
    ones = flip(np.ones(1000, np.int8), ch, derive_rng(2, "sym"))
    assert np.array_equal(zeros, ones ^ 1)


def test_channel_marginal_four_sigma():
    ch = NoiseChannel(0.37)
    gen = derive_rng(3, "marginal")
    trials = 200_000
    out = flip(np.zeros(trials, np.int8), ch, gen)
    flips = int(out.sum())
    sigma = (trials * 0.37 * 0.63) ** 0.5
    assert abs(flips - trials * 0.37) < 4 * sigma


def test_deliver_two_agents_trivial():
    ch = NoiseChannel(0.0)
    out = deliver_round({(0, 1)}, 2, ch, derive_rng(4, "d"))
    assert out == {1: 1}


def test_deliver_empty_senders():
    ch = NoiseChannel(0.0)
    assert deliver_round(set(), 2, ch, derive_rng(5, "d")) == {}


def test_deliver_occupancy():
    # all 1000 agents send, zero noise: accepted fraction ~ 1-(1-1/(n-1))^n
    n = 1000
    ch = NoiseChannel(0.0)
    gen = derive_rng(6, "occ")
    ids = np.arange(n)
    pay = np.ones(n, np.int8)
    fractions = []
    for _ in range(50):
        recv, _, _ = deliver_round_arrays(ids, pay, n, ch, gen)
        fractions.append(recv.size / n)
    expected = 1.0 - (1.0 - 1.0 / (n - 1)) ** n
    assert abs(np.mean(fractions) - expected) < 0.03


def test_deliver_deterministic():
    ch = NoiseChannel.from_epsilon(0.2)
    senders = {(i, i % 2) for i in range(50)}
    a = [deliver_round(senders, 100, ch, derive_rng(7, "det")) for _ in range(1)]
    b = [deliver_round(senders, 100, ch, derive_rng(7, "det")) for _ in range(1)]
    assert a == b


def test_deliver_conservation_and_anonymity():
    n = 300
    ch = NoiseChannel.from_epsilon(0.3)
    gen = derive_rng(8, "cons")
    ids = np.arange(0, n, 2)
    pay = (ids % 3 == 0).astype(np.int8)
    targets = replay_targets(ids, n, gen)
    recv, acc, src = deliver_round_arrays(ids, pay, n, ch, gen)
    assert targets.size == ids.size                  # every sender's message arrives somewhere
    assert recv.size <= ids.size                     # accept-one can only drop
    assert recv.size == np.unique(targets).size      # one accept per targeted receiver
    # protocol-facing map exposes payloads only
    out = deliver_round({(0, 1), (5, 0)}, 10, ch, derive_rng(9, "anon"))
    assert all(isinstance(k, int) and v in (0, 1) for k, v in out.items())


def test_deliver_never_targets_self():
    ch = NoiseChannel(0.0)
    gen = derive_rng(10, "self")
    ids = np.arange(5)
    pay = np.ones(5, np.int8)
    for _ in range(200):
        targets = replay_targets(ids, 5, gen)
        recv, _, _ = deliver_round_arrays(ids, pay, 5, ch, gen)
        assert np.array_equal(recv, np.unique(targets))     # the replay is the kernel's draw
        assert not np.any(targets == ids)
    # n=2: the only possible target is the other agent
    for _ in range(50):
        out = deliver_round({(0, 1)}, 2, ch, derive_rng(11, "self2"))
        assert out == {1: 1}


def test_deliver_accept_choice_is_uniform():
    # n=3, senders 1 and 2: receiver 0 hears each with probability 1/2, and
    # on a collision must keep either with probability 1/2.  Unconditionally
    # P(accept from s) = 1/2 * (1/2 + 1/4) = 0.375 for both senders; any
    # arrival-order bias would split them 0.5 / 0.25 instead.
    ch = NoiseChannel(0.0)
    gen = derive_rng(14, "uniform-accept")
    ids = np.array([1, 2])
    pay = np.array([0, 1], np.int8)
    from_sender = {1: 0, 2: 0}
    rounds = 40_000
    for _ in range(rounds):
        recv, _, src = deliver_round_arrays(ids, pay, 3, ch, gen)
        hit = np.flatnonzero(recv == 0)
        if hit.size:
            from_sender[int(src[hit[0]])] += 1
    f1 = from_sender[1] / rounds
    f2 = from_sender[2] / rounds
    assert abs(f1 - 0.375) < 0.015
    assert abs(f2 - 0.375) < 0.015


def test_count_kernel_exact_law():
    # n=6: agents 0..2 send the reference bit, 3 and 4 its complement, 5 is
    # silent.  Replaying the target draw gives every agent's arrivals a and
    # reference-bit arrivals c; in every (a, c) cell the share of agents whose
    # accepted bit matches must be (c(1-p) + (a-c)p)/a, and every agent hears
    # with the occupancy probability 1-(1-1/(n-1))^m of the m messages that
    # can reach it.
    n, p, rounds = 6, 0.2, 30_000
    ch = NoiseChannel(p)
    carriers = np.array([0, 1, 2])
    others = np.array([3, 4])
    senders = np.concatenate([carriers, others])
    gen = derive_rng(15, "count-law")
    buffers = delivery_buffers(n)
    tally = {}          # (a, c) -> [agents, matches]
    heard_count = np.zeros(n)
    for _ in range(rounds):
        targets = replay_targets(senders, n, gen)
        a = np.bincount(targets, minlength=n)
        c = np.bincount(targets[:carriers.size], minlength=n)
        heard, match = deliver_round_counts(carriers, others, n, ch, gen, buffers)
        assert np.array_equal(heard, a > 0)
        assert not (match & ~heard).any()
        heard_count += heard
        for i in np.flatnonzero(heard):
            cell = tally.setdefault((int(a[i]), int(c[i])), [0, 0])
            cell[0] += 1
            cell[1] += bool(match[i])
    for (a, c), (agents, matches) in tally.items():
        q = (c * (1 - p) + (a - c) * p) / a
        sigma = math.sqrt(q * (1 - q) / agents)
        assert abs(matches / agents - q) <= 4 * sigma + 1e-12, (a, c, agents, matches)
    assert {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)} <= set(tally)
    for i in range(n):
        m = senders.size - (i in senders)
        q = 1 - (1 - 1 / (n - 1)) ** m
        sigma = math.sqrt(q * (1 - q) / rounds)
        assert abs(heard_count[i] / rounds - q) < 4 * sigma, i


def test_deliver_sender_validation():
    ch = NoiseChannel(0.0)
    with pytest.raises(ConfigurationError):
        deliver_round({(7, 1)}, 4, ch, derive_rng(12, "v"))
    with pytest.raises(ConfigurationError):
        deliver_round([(1, 1), (1, 0)], 4, ch, derive_rng(13, "v"))


def test_rng_stream_reproducible():
    a = RngStream(123, ("run", 4)).generator().random(8)
    b = RngStream(123, ("run", 4)).generator().random(8)
    c = RngStream(123, ("run", 5)).generator().random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    d = derive_rng(123, "run", 4).random(8)
    assert np.array_equal(a, d)
