"""Command line interface.

Exit codes: 0 success, 2 validation error or out of memory, 3 oracle check failed.
"""

from __future__ import annotations

import argparse
import sys

from .model import ConfigurationError
from .params import PAPER_R_SCALE, ProtocolConstants
from . import harness, oracle


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flipsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment grid from flags")
    run_p.add_argument("--protocol", required=True, choices=harness.PROTOCOLS)
    run_p.add_argument("--n", type=int, nargs="+", required=True, help="agent count(s)")
    run_p.add_argument("--eps", type=float, nargs="+", required=True, help="channel bias(es) epsilon")
    run_p.add_argument("--runs", type=int, default=100, help="runs per cell")
    run_p.add_argument("--seed", type=int, default=0, help="master seed")
    run_p.add_argument("--out", help="write JSON report here")
    run_p.add_argument("--csv", help="write per-cell CSV here")
    run_p.add_argument("--initial-bias", type=float, help="consensus: majority bias of the initial set")
    run_p.add_argument("--initial-set-size", type=int, help="consensus: size of the initial set")
    run_p.add_argument("--threshold", type=int, default=2, help="baseline-silent: messages to wait for")
    run_p.add_argument("--max-rounds", type=int, help="baselines: round cap")

    sweep_p = sub.add_parser("sweep", help="run an experiment described by a JSON spec file")
    sweep_p.add_argument("--spec", required=True)
    sweep_p.add_argument("--out", required=True)
    sweep_p.add_argument("--csv")

    oracle_p = sub.add_parser("oracle", help="numerical checks, no simulation")
    osub = oracle_p.add_subparsers(dest="check", required=True)

    lemma_p = osub.add_parser("lemma2", help="sample-majority boost bound")
    lemma_p.add_argument("--eps", type=float, required=True)
    lemma_p.add_argument("--delta", type=float, required=True)
    lemma_p.add_argument("--r-scale", type=float, default=PAPER_R_SCALE,
                         help="override the sample-radius scale (default: the literal 2**22)")

    stir_p = osub.add_parser("stirling", help="central binomial lower bound over an r grid")
    stir_p.add_argument("--r-max", type=int, default=10000)

    direct_p = osub.add_parser("direct", help="direct-sampling round requirement")
    direct_p.add_argument("--eps", type=float, required=True)
    direct_p.add_argument("--n", type=int, required=True)
    direct_p.add_argument("--exponent", type=float, default=2.0)

    return parser


def _cmd_run(args) -> int:
    spec = harness.ExperimentSpec(
        protocol=args.protocol,
        n_grid=tuple(args.n),
        epsilon_grid=tuple(args.eps),
        runs_per_cell=args.runs,
        master_seed=args.seed,
        constants=ProtocolConstants(),
        initial_bias=args.initial_bias,
        initial_set_size=args.initial_set_size,
        threshold=args.threshold,
        max_rounds=args.max_rounds,
    )
    report = harness.run_experiment(spec)
    for c in report.per_cell:
        rate = "n/a" if c.success_rate is None else f"{c.success_rate:.4f}"
        lo = "" if c.wilson_lo is None else f" wilson=[{c.wilson_lo:.4f},{c.wilson_hi:.4f}]"
        sym = "" if c.symmetric_outcome_rate is None else f" symmetricOutcomeRate={c.symmetric_outcome_rate:.4f}"
        print(
            f"n={c.n} eps={c.epsilon} runs={c.runs} successRate={rate}{lo}"
            f" meanRounds={c.mean_rounds:.1f} meanMessages={c.mean_messages:.1f}{sym}"
        )
        if c.depth_table:
            for depth, agents, correct in c.depth_table:
                print(f"  depth {depth}: {correct}/{agents} correct ({correct/agents:.4f})")
        if c.median_first_threshold is not None:
            print(f"  median first-threshold round: {c.median_first_threshold:.1f}")
    if report.scaling_fit:
        f = report.scaling_fit
        print(f"scaling fit: rounds ~ {f.slope:.3f} * log2(n)/eps^2 + {f.intercept:.1f}"
              f" (max residual {f.max_residual_rel:.3f})")
    return _write(report, args)


def _cmd_sweep(args) -> int:
    return _write(harness.run_experiment(harness.load_spec(args.spec)), args)


def _write(report, args) -> int:
    """Save the report to ``--out`` and the CSV to ``--csv``, where given."""
    if args.out:
        harness.save_report(report, args.out)
        print(f"report written to {args.out}")
    if args.csv:
        harness.report_to_csv(report, args.csv)
        print(f"csv written to {args.csv}")
    return 0


def _cmd_oracle(args) -> int:
    if args.check == "lemma2":
        res = oracle.lemma_second_bound_check(args.eps, args.delta, r_scale=args.r_scale)
        print(
            f"eps={args.eps} delta={args.delta} r={res.r} gamma={res.gamma} "
            f"q={res.q:.12g} probability={res.probability:.12g} bound={res.bound:.12g} "
            f"holds={res.holds}"
        )
        return 0 if res.holds else 3
    if args.check == "stirling":
        grid = oracle.stirling_claim_grid(args.r_max)
        ok = bool(grid.all())
        if ok:
            print(f"P(r+i) > 1/(10 sqrt(r)) for all 1 <= i <= floor(sqrt(r)), r in 1..{args.r_max}")
            return 0
        first = int(grid.argmin()) + 1
        print(f"violated at r={first}")
        return 3
    if args.check == "direct":
        m = oracle.direct_sample_requirement(args.eps, args.n, args.exponent)
        print(f"eps={args.eps} n={args.n} exponent={args.exponent}: m={m}")
        return 0
    raise AssertionError(args.check)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return {"run": _cmd_run, "sweep": _cmd_sweep, "oracle": _cmd_oracle}[args.command](args)
    except ConfigurationError as e:     # every input error, the harness's included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:            # a grid too large for this host
        print(f"error: not enough memory: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
