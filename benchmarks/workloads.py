"""The benchmark's four workloads.

A workload turns a seed into inputs (``build``) and runs one pass over them
(``run_pass``).  Every pass over the same inputs must give the same output
digest, whatever the worker count and whether hooks are installed.  Each pass
also checks the simulated law (see ``Pass.check``); a failed check counts its
runs as failed.

Engines and harness entry points are looked up on their modules at call
time, so hooks installed by ``spans.hooks_installed`` see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from flipsim import cli, harness, params, protocols
from flipsim.model import NoiseChannel, derive_rng

SUCCESS_FLOOR = 0.2     # lowest admissible Wilson lower bound on a cell's success rate


class Pass:
    """Outcome of one pass: work done, checks, and the output digest."""

    def __init__(self):
        self.runs = 0           # simulation runs
        self.items = 0          # runs plus oracle checks
        self.failed = 0
        self.messages = 0
        self.problems = []
        self.raised = False
        self._digest = hashlib.sha256()

    def feed(self, *parts):
        for part in parts:
            self._digest.update(part if isinstance(part, bytes) else repr(part).encode())

    def check(self, ok, items, what):
        """Count ``items`` as failed unless ``ok``; never more than attempted."""
        if not ok:
            self.failed = min(self.items, self.failed + items)
            self.problems.append(what)

    @property
    def digest(self):
        return self._digest.hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    name: str
    pooled: bool                            # runs harness batches through the worker pool
    build: Callable[[int, bool], dict]      # (seed, tiny) -> inputs
    run_pass: Callable[[dict, object], Pass]  # (inputs, tracer) -> Pass
    warm_up: Callable[[], None]

    def run(self, inputs, tracer):
        """One pass; a pass that raises comes back as one failed item."""
        try:
            return self.run_pass(inputs, tracer)
        except Exception as e:      # report a broken program instead of crashing on it
            p = Pass()
            p.items = p.failed = 1
            p.raised = True
            p.problems.append(f"pass raised {type(e).__name__}: {e}")
            return p


def _config(n, eps, seed):
    return params.SimConfig(n=n, channel=NoiseChannel.from_epsilon(eps), master_seed=seed)


def _wilson_ok(successes, runs):
    return harness.wilson_interval(successes, runs)[0] >= SUCCESS_FLOOR


def _feed_outcome(p, out):
    p.feed(out.final_opinions.tobytes(), out.rounds_used, out.messages_sent)
    if out.stage1 is not None:
        p.feed([(m.phase, m.x, m.y, m.z) for m in out.stage1.per_phase])
    p.feed(out.stage2, out.desync)


def _opinions_ok(out):
    return bool(np.isin(out.final_opinions, (0, 1)).all())


def _experiment(p, tracer, spec):
    """One harness batch: digest the report, count its runs and messages."""
    with tracer.span("harness.run_experiment"):
        report = harness.run_experiment(spec)
    p.feed(json.dumps(harness.report_to_dict(report), sort_keys=True))
    for c in report.per_cell:
        p.runs += c.runs
        p.items += c.runs
        p.messages += round(c.mean_messages * c.runs)
    return report


def _oracle(p, tracer, argv):
    out = io.StringIO()
    with tracer.span(f"oracle.{argv[1]}"), contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as e:     # argparse rejected the arguments
            code = e.code or 0
    p.items += 1
    p.feed(code, out.getvalue())
    p.check(code == 0, 1, f"oracle {argv[1]} exited {code}")


# ---------------------------------------------------------------------------
# broadcast-n16


def _broadcast_build(seed, tiny):
    n = 2 ** 8 if tiny else 2 ** 16
    config = _config(n, 0.25, seed)
    schedule = params.derive_schedule(n, config.channel, config.constants)
    return {"config": config, "schedule": schedule, "seed": seed}


def _broadcast_pass(inp, tracer):
    p = Pass()
    gen = derive_rng(inp["seed"], "bench", "broadcast")
    out = protocols.run_broadcast(inp["config"], rng=gen)
    p.runs = p.items = 1
    p.messages = out.messages_sent
    _feed_outcome(p, out)
    p.check(out.rounds_used == inp["schedule"].total_rounds, 1, "broadcast rounds != schedule total")
    p.check(_opinions_ok(out), 1, "broadcast opinions outside {0,1}")
    p.check(_wilson_ok(int(out.correct_fraction == 1.0), 1), 1, "broadcast success below floor")
    return p


def _broadcast_warm_up():
    protocols.run_broadcast(_config(64, 0.25, 0), rng=derive_rng(0, "warm-up"))


# ---------------------------------------------------------------------------
# sweep-n12


def _sweep_build(seed, tiny):
    n = 2 ** 10 if tiny else 2 ** 12
    runs = 2 if tiny else 4
    set_size = n // 4
    broadcast = harness.ExperimentSpec(
        protocol="broadcast", n_grid=(n,), epsilon_grid=(0.25, 0.4),
        runs_per_cell=runs, master_seed=seed,
    )
    consensus = harness.ExperimentSpec(
        protocol="consensus", n_grid=(n,), epsilon_grid=(0.25,), runs_per_cell=runs,
        master_seed=seed, initial_set_size=set_size, initial_bias=0.1,
    )
    return {"broadcast": broadcast, "consensus": consensus}


def _expected_rounds(spec, n, eps):
    """Round count of an oblivious run: the schedule total, less the stage-1
    phases a consensus run skips before its entry phase."""
    channel = NoiseChannel.from_epsilon(eps)
    schedule = params.derive_schedule(n, channel, spec.constants)
    if spec.protocol != "consensus":
        return schedule.total_rounds
    entry = params.majority_entry_phase(spec.initial_set_size, n, channel, spec.constants)
    skipped = sum(length for _, length in schedule.phase_bounds_stage1[:entry])
    return schedule.total_rounds - skipped


def _sweep_pass(inp, tracer):
    p = Pass()
    for spec in (inp["broadcast"], inp["consensus"]):
        report = _experiment(p, tracer, spec)
        for c in report.per_cell:
            where = f"{spec.protocol} n={c.n} eps={c.epsilon}"
            p.check(c.mean_rounds == _expected_rounds(spec, c.n, c.epsilon), c.runs,
                    f"{where}: rounds differ from the schedule")
            p.check(_wilson_ok(round(c.success_rate * c.runs), c.runs), c.runs,
                    f"{where}: success below floor")
    return p


def _harness_warm_up(protocol, **extra):
    def warm_up():
        spec = harness.ExperimentSpec(protocol=protocol, n_grid=(64,), epsilon_grid=(0.25,),
                                      runs_per_cell=1, master_seed=0, **extra)
        harness.run_experiment(spec)     # one task: runs serially, no pool
    return warm_up


# ---------------------------------------------------------------------------
# desync-n12


def _desync_build(seed, tiny):
    n = 2 ** 8 if tiny else 2 ** 12
    d = 2 * math.ceil(math.log2(n))
    offsets = derive_rng(seed, "bench", "clocks").integers(0, d, size=n)
    return {
        "config": _config(n, 0.25, seed),
        "clocks": protocols.ClockConfiguration(offsets, d),
        "seed": seed,
    }


def _desync_pass(inp, tracer):
    p = Pass()
    clocks = inp["clocks"]
    successes = 0
    for label, supplied in (("clocks", clocks), ("preamble", None)):
        gen = derive_rng(inp["seed"], "bench", "desync", label)
        out = protocols.run_desynchronized(inp["config"], clocks=supplied, rng=gen)
        p.runs += 1
        p.items += 1
        p.messages += out.messages_sent
        _feed_outcome(p, out)
        info = out.desync
        if supplied is None:
            rounds_ok = not info.stalled and info.offset_spread <= info.d_bound
        else:
            rounds_ok = out.rounds_used == info.local_total - int(clocks.offsets.min())
        p.check(rounds_ok, 1, f"desync ({label}): clock or round law violated")
        p.check(_opinions_ok(out), 1, f"desync ({label}): opinions outside {{0,1}}")
        successes += out.correct_fraction == 1.0
    p.check(_wilson_ok(successes, 2), 2, "desync success below floor")
    return p


def _desync_warm_up():
    config = _config(64, 0.25, 0)
    protocols.run_desynchronized(config, rng=derive_rng(0, "warm-up"))


# ---------------------------------------------------------------------------
# baselines-oracle


def _baselines_build(seed, tiny):
    runs = 4 if tiny else 24
    forward = harness.ExperimentSpec(
        protocol="baseline-forward", n_grid=(2 ** 10 if tiny else 2 ** 14,),
        epsilon_grid=(0.1,), runs_per_cell=runs, master_seed=seed,
    )
    silent = harness.ExperimentSpec(
        protocol="baseline-silent", n_grid=(2 ** 8 if tiny else 10 ** 4,),
        epsilon_grid=(0.25,), runs_per_cell=runs, master_seed=seed,
    )
    oracle = [
        ["oracle", "stirling", "--r-max", str(10 ** 3 if tiny else 10 ** 4)],
        ["oracle", "lemma2", "--eps", "0.25", "--delta", "1e-6"],
        ["oracle", "direct", "--eps", "0.25", "--n", "1024", "--exponent", "2"],
    ]
    return {"forward": forward, "silent": silent, "oracle": oracle}


def _forward_decays(cell):
    """Immediate forwarding loses the signal with hop depth c: the correct
    share at depth c stays within three sigma of 1/2 + (2 eps)^c.  That bound
    doubles the expected bias (2 eps)^c / 2.  From c = 4 on, that slack is a
    quarter of sigma or less at this size, so the check would raise false
    alarms there."""
    for depth, agents, correct in cell.depth_table or ():
        if 1 <= depth <= 3 and agents:
            bound = 0.5 + (2 * cell.epsilon) ** depth
            if correct / agents > bound + 3 * math.sqrt(bound * (1 - bound) / agents):
                return False
    return True


def _baselines_pass(inp, tracer):
    p = Pass()
    fwd = _experiment(p, tracer, inp["forward"]).per_cell[0]
    p.check(fwd.success_rate == 0.0 and _forward_decays(fwd), fwd.runs,
            "baseline-forward no longer fails as it should")
    silent = _experiment(p, tracer, inp["silent"]).per_cell[0]
    root_n = math.sqrt(silent.n)
    waits = silent.median_first_threshold
    p.check(silent.success_rate == 0.0 and waits is not None and 0.5 * root_n <= waits <= 5 * root_n,
            silent.runs, "baseline-silent no longer stalls as it should")
    for argv in inp["oracle"]:
        _oracle(p, tracer, argv)
    return p


def _baselines_warm_up():
    _harness_warm_up("baseline-forward")()
    _harness_warm_up("baseline-silent")()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["oracle", "direct", "--eps", "0.25", "--n", "64"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("broadcast-n16", False, _broadcast_build, _broadcast_pass, _broadcast_warm_up),
        Workload("sweep-n12", True, _sweep_build, _sweep_pass, _harness_warm_up("broadcast")),
        Workload("desync-n12", False, _desync_build, _desync_pass, _desync_warm_up),
        Workload("baselines-oracle", True, _baselines_build, _baselines_pass, _baselines_warm_up),
    )
}
