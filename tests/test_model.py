import itertools
import math

import numpy as np
import pytest

from flipsim import (
    ConfigurationError,
    NoiseChannel,
    complement,
    derive_rng,
)
from flipsim import model
from flipsim.model import deliver_round_arrays, deliver_span_counts, delivery_buffers
from reference import clone, deliver_round, flip, replay_targets


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
    with pytest.raises(ConfigurationError, match="epsilon"):
        NoiseChannel.from_epsilon(1e-200)     # 1/2 - 1e-200 rounds to 1/2
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
    targets = replay_targets(ids, n, clone(gen))
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
        targets = replay_targets(ids, 5, clone(gen))
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


def _cell_law(n, carriers, others):
    """Per-round law of one agent's (arrivals a, reference-bit arrivals c)
    when ``carriers`` and ``others`` each send one message to a uniform other
    agent: ``{agent: {(a, c): probability}}``, by enumerating all targets."""
    senders = list(carriers) + list(others)
    choices = [[j for j in range(n) if j != s] for s in senders]
    law = {i: {} for i in range(n)}
    weight = 1.0 / math.prod(len(ch) for ch in choices)
    for targets in itertools.product(*choices):
        for i in range(n):
            a = sum(t == i for t in targets)
            c = sum(t == i for t in targets[:len(carriers)])
            law[i][(a, c)] = law[i].get((a, c), 0.0) + weight
    return law


def _count_law(step, n, p, carriers, others):
    """The exact-law checks of :func:`test_count_kernel_exact_law` for the
    kernel's current step on the given senders."""
    ch = NoiseChannel(p)
    senders = np.concatenate([carriers, others])
    gen = derive_rng(15, "count-law", step)
    buffers = delivery_buffers(n)

    def q(a, c):
        return (c * (1 - p) + (a - c) * p) / a

    # Calls of 4 rounds, one block each, with replayed targets: every
    # (round, agent) cell's arrivals a and reference-bit arrivals c are
    # known.  An agent's heard count is its number of cells with a > 0.
    # Given the targets its matches are independent with probability
    # q(a, c) per heard cell, so agents whose heard cells share one (a, c)
    # pool into that cell's tally, and all matches together have mean and
    # variance summed over the heard cells.
    calls, rounds = 6000, 4
    tally = {}          # (a, c) -> [heard cells, matches]
    matches = mean = var = 0.0
    for _ in range(calls):
        targets = replay_targets(senders, n, clone(gen), rounds)
        a = np.stack([np.bincount(row, minlength=n) for row in targets])
        c = np.stack([np.bincount(row[:carriers.size], minlength=n) for row in targets])
        heard, match = deliver_span_counts(carriers, others, rounds, n, ch, gen, buffers)
        assert np.array_equal(heard, (a > 0).sum(0)), step
        assert ((0 <= match) & (match <= heard) & (heard <= rounds)).all(), step
        for i in range(n):
            cells = {(int(x), int(y)) for x, y in zip(a[:, i], c[:, i]) if x}
            if len(cells) == 1:
                cell = tally.setdefault(cells.pop(), [0, 0])
                cell[0] += int(heard[i])
                cell[1] += int(match[i])
            qs = np.array([q(x, y) for x, y in zip(a[:, i], c[:, i]) if x])
            matches += match[i]
            mean += qs.sum()
            var += (qs * (1 - qs)).sum()
    assert {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1)} <= set(tally), step
    for (a, c), (cells, hits) in tally.items():
        share = q(a, c)
        sigma = math.sqrt(share * (1 - share) / cells)
        assert abs(hits / cells - share) <= 4 * sigma + 1e-12, (step, a, c, cells, hits)
    assert abs(matches - mean) < 4 * math.sqrt(var), (step, matches, mean)

    # One call over several blocks: each agent hears in a round with
    # probability 1-(1-1/(n-1))^m for the m messages that can reach it, and
    # matches with probability E q(a, c) under its exact per-round law.
    long = 3 * model._block_rounds(n) + 5
    heard, match = deliver_span_counts(carriers, others, long, n, ch, gen, buffers)
    assert ((0 <= match) & (match <= heard) & (heard <= long)).all(), step
    for i, law in _cell_law(n, carriers, others).items():
        m = senders.size - (i in senders)
        hear = 1 - (1 - 1 / (n - 1)) ** m
        assert abs(sum(w for (a, _), w in law.items() if a) - hear) < 1e-12
        hit = sum(w * q(a, c) for (a, c), w in law.items() if a)
        for share, count in ((hear, heard[i]), (hit, match[i])):
            assert abs(count / long - share) < 4 * math.sqrt(share * (1 - share) / long), (step, i, count)

    # The expected mode draws nothing after the targets, so a clone that
    # draws the targets alone ends in the call's state, and the replayed
    # targets give every cell's (a, c): heard counts the cells with a > 0
    # and match is the sum of q(a, c) over them, in calls of one block and
    # in one call over several.
    for rounds in [4] * 300 + [long]:
        twin = clone(gen)
        targets = replay_targets(senders, n, twin, rounds)
        heard, match = deliver_span_counts(carriers, others, rounds, n, ch, gen, buffers, True)
        assert gen.bit_generator.state == twin.bit_generator.state, step
        cell = np.arange(rounds)[:, None]
        a = np.zeros((rounds, n))
        c = np.zeros((rounds, n))
        np.add.at(a, (cell, targets), 1)
        np.add.at(c, (cell, targets[:, :carriers.size]), 1)
        hit = a > 0
        qsum = np.array([q(a[hit[:, i], i], c[hit[:, i], i]).sum() for i in range(n)])
        assert np.array_equal(heard, hit.sum(0)), step
        assert ((0 <= match) & (match <= heard)).all(), step
        assert (np.abs(match - qsum) <= 1e-12 * np.maximum(qsum, 1)).all(), (step, rounds, match - qsum)


def test_count_kernel_exact_law(monkeypatch):
    # n=6: agents 0..2 send the reference bit, 3 and 4 its complement, 5 is
    # silent.  Five senders among six agents take the dense step; lowering
    # SPARSE_FACTOR sends the same calls through the sparse step.
    n, p = 6, 0.2
    carriers = np.array([0, 1, 2])
    others = np.array([3, 4])
    assert model.SPARSE_FACTOR * 5 > n
    _count_law("dense", n, p, carriers, others)
    monkeypatch.setattr(model, "SPARSE_FACTOR", 1)
    _count_law("sparse", n, p, carriers, others)


def test_deliver_sender_validation():
    ch = NoiseChannel(0.0)
    with pytest.raises(ConfigurationError):
        deliver_round({(7, 1)}, 4, ch, derive_rng(12, "v"))
    with pytest.raises(ConfigurationError):
        deliver_round([(1, 1), (1, 0)], 4, ch, derive_rng(13, "v"))


def test_rng_stream_reproducible():
    a = derive_rng(123, "run", 4).random(8)
    b = derive_rng(123, "run", 4).random(8)
    c = derive_rng(123, "run", 5).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
