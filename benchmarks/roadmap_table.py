"""Reproduce the baseline table of ROADMAP item 1: one broadcast at eps=0.25
for n = 2^12, 2^14 and 2^16, and one desync run at n = 2^12.  Each run is
timed untraced (median of ``REPEATS``) for its wall time per message and
per round, then repeated once with hooks for the kernel's share of the
engine span and its time per call and per message.

    python3 benchmarks/roadmap_table.py [--seed N]
"""

from __future__ import annotations

import argparse
import statistics
import time

import run

REPEATS = 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spans, _ = run._load()
    from flipsim import protocols
    from flipsim.model import NoiseChannel, derive_rng
    from flipsim.params import SimConfig

    print("| run | wall s | rounds | wall ns/msg | wall us/round | kernel share | kernel ns/msg | kernel us/call |")
    print("|---|---|---|---|---|---|---|---|")
    for label, engine, n in [
        ("broadcast n=2^12", "run_broadcast", 2 ** 12),
        ("broadcast n=2^14", "run_broadcast", 2 ** 14),
        ("broadcast n=2^16", "run_broadcast", 2 ** 16),
        ("desync n=2^12", "run_desynchronized", 2 ** 12),
    ]:
        config = SimConfig(n=n, channel=NoiseChannel.from_epsilon(0.25), master_seed=args.seed)
        walls = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            out = getattr(protocols, engine)(config, rng=derive_rng(args.seed, "table"))
            walls.append(time.perf_counter() - t0)
        tracer = spans.Tracer()
        with spans.hooks_installed(tracer):
            getattr(protocols, engine)(config, rng=derive_rng(args.seed, "table"))
        kernel = tracer.total["model.deliver"]
        calls = tracer.calls["model.deliver"]
        share = kernel / sum(tracer.total[name] for name in spans.ENGINE_SPANS)
        wall = statistics.median(walls)
        print(f"| {label} | {wall:.2f} | {out.rounds_used} | {wall / out.messages_sent * 1e9:.0f} "
              f"| {wall / out.rounds_used * 1e6:.0f} | {share:.0%} "
              f"| {kernel / out.messages_sent * 1e9:.0f} | {kernel / calls * 1e6:.0f} |")


if __name__ == "__main__":
    main()
