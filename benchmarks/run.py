"""Run one flipsim benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up (import, inputs, one warm-up call) five times, then repeats
passes of the workload over the same seed-derived inputs for about S
seconds; with ``--trace 0`` it runs at least two passes, so that a workload
whose pass takes half the budget always reports the median of two.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates an untraced pass, an untraced serial pass (pooled
workloads only) and a traced serial pass, and reports the per-layer metrics.
Every pass must reproduce the first pass's output digest and pass the law
checks in ``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the digest and the environment, goes to ``benchmarks/out/``.
Bad arguments exit 2; a checkout without ``src/flipsim`` exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Read from BENCHMARK.json, not from workloads.py, so that argument errors
# exit 2 before flipsim is imported.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
POOL_WORKERS = 2        # FLIPSIM_THREADS for pooled workloads when untraced
SETUP_REPEATS = 5
MIN_PASSES = 2          # untraced passes in a --trace 0 run, whatever the budget

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, scipy.special, flipsim\n"
    "print(time.perf_counter() - t)\n"
)


def _seed(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2 ** 63:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**63), got {value}")
    return value


def _seconds(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seconds must be an integer, got {text!r}") from None
    if not 1 <= value <= 600:
        raise argparse.ArgumentTypeError(f"seconds must lie in [1, 600], got {value}")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="benchmarks/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)     # exits 2 with a message on bad input


def _load():
    """Import the program from this checkout and the benchmark's own modules."""
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spans
    import workloads
    return spans, workloads


# ---------------------------------------------------------------------------
# environment


def _getconf(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return int(out.stdout) if out.stdout.strip().isdigit() else None


def _git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(workload, seed, traced, pooled):
    import numpy
    import scipy
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "flipsim_threads": {"untraced": POOL_WORKERS if pooled else 1, "traced": 1},
        "git_revision": _git_revision(),
    }


# ---------------------------------------------------------------------------
# measurement


def _import_seconds():
    """Import time of numpy, scipy.special and flipsim in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def _setup(workload, seed, tiny):
    """Median of SETUP_REPEATS set-ups; returns (seconds, inputs)."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        t0 = time.perf_counter()
        inputs = workload.build(seed, tiny)
        workload.warm_up()
        times.append(imported + time.perf_counter() - t0)
    return statistics.median(times), inputs


class _Phase:
    """Passes of one kind (untraced, serial, traced) and their totals."""

    def __init__(self):
        self.walls = []
        self.passes = []

    def add(self, wall, p):
        self.walls.append(wall)
        self.passes.append(p)

    @property
    def wall(self):
        return sum(self.walls)

    @property
    def messages(self):
        return sum(p.messages for p in self.passes)


def _run_pass(workload, inputs, tracer, threads, phase):
    """Run one pass into ``phase``; returns False when it raised."""
    os.environ["FLIPSIM_THREADS"] = str(threads)
    t0 = time.perf_counter()
    p = workload.run(inputs, tracer)
    phase.add(time.perf_counter() - t0, p)
    return not p.raised


def _peak_rss_mb():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _ratio(a, b):
    return a / b if b else 0.0


def _per_layer(tr, engine_spans, untraced_spans, untraced, base, traced):
    """Per-layer figures, per traced pass; zero for a layer the workload never calls."""
    k = len(traced.passes) or 1
    kern = "model.deliver"
    engine_s = sum(tr.total[name] for name in engine_spans)
    harness_untraced = untraced_spans.total["harness.run_experiment"] / len(untraced.passes)
    baseline_self = tr.self_time["protocols.baseline_forward"] + tr.self_time["protocols.baseline_silent"]
    accepted = 0 if tr.counts["accepted.unknown"] else tr.counts["accepted"]
    values = {
        "model.deliver.calls": tr.calls[kern] / k,
        "model.deliver.s": tr.total[kern] / k,
        "model.deliver.us_per_call": _ratio(tr.total[kern], tr.calls[kern]) * 1e6,
        "model.deliver.ns_per_msg": _ratio(tr.total[kern], traced.messages) * 1e9,
        "model.deliver.accept_ratio": _ratio(accepted, traced.messages),
        "protocols.stage1.self_s": tr.self_time["protocols.stage1"] / k,
        "protocols.stage1.self_us_per_round":
            _ratio(tr.self_time["protocols.stage1"], tr.counts["rounds.stage1"]) * 1e6,
        "protocols.stage2.self_s": tr.self_time["protocols.stage2"] / k,
        "protocols.stage2.self_us_per_round":
            _ratio(tr.self_time["protocols.stage2"], tr.counts["rounds.stage2"]) * 1e6,
        "protocols.desync.self_s": tr.self_time["protocols.desync"] / k,
        "protocols.desync.self_us_per_round":
            _ratio(tr.self_time["protocols.desync"], tr.counts["rounds.desync"]) * 1e6,
        "protocols.baseline.self_s": baseline_self / k,
        "harness.self_s": tr.self_time["harness.run_experiment"] / k,
        "harness.pool_efficiency": _ratio(engine_s / k, POOL_WORKERS * harness_untraced),
        "oracle.stirling_s": tr.total["oracle.stirling"] / k,
        "oracle.lemma2_s": tr.total["oracle.lemma2"] / k,
        "oracle.direct_s": tr.total["oracle.direct"] / k,
        "trace.overhead_frac": _ratio(traced.wall / k, base.wall / (len(base.passes) or 1)) - 1.0,
    }
    return values


def measure(name, seed, seconds, traced, tiny=False):
    """Set up and run one workload; returns the full result as a dict."""
    spans, workloads = _load()
    workload = workloads.WORKLOADS[name]
    saved_threads = os.environ.get("FLIPSIM_THREADS")
    try:
        setup_s, inputs = _setup(workload, seed, tiny)
        threads = POOL_WORKERS if workload.pooled else 1
        untraced, serial, traced_phase = _Phase(), _Phase(), _Phase()
        untraced_spans, tr = spans.Tracer(), spans.Tracer()
        absent = []
        start = time.perf_counter()
        while True:
            ok = _run_pass(workload, inputs, untraced_spans, threads, untraced)
            if ok and traced and workload.pooled:
                ok = _run_pass(workload, inputs, spans.Tracer(), 1, serial)
            if ok and traced:
                with spans.hooks_installed(tr) as absent:
                    ok = _run_pass(workload, inputs, tr, 1, traced_phase)
            elapsed = time.perf_counter() - start
            done = len(untraced.passes) >= (1 if traced else MIN_PASSES)
            if not ok or done and elapsed + elapsed / len(untraced.passes) > seconds:
                break
    finally:
        if saved_threads is None:
            os.environ.pop("FLIPSIM_THREADS", None)
        else:
            os.environ["FLIPSIM_THREADS"] = saved_threads

    everything = untraced.passes + serial.passes + traced_phase.passes
    digest = untraced.passes[0].digest
    problems = sorted({msg for p in everything for msg in p.problems})
    failed = sum(p.failed for p in everything)
    for p in everything:
        if p.digest != digest:
            failed += p.items - p.failed
            problems.append(f"output digest {p.digest} differs from the first pass's {digest}")
    attempted = sum(p.items for p in everything)

    if traced:
        base = serial if workload.pooled else untraced
        values = _per_layer(tr, spans.ENGINE_SPANS, untraced_spans, untraced, base, traced_phase)
        units = PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(untraced.walls),
            "runs_per_s": statistics.median(p.runs / w for p, w in zip(untraced.passes, untraced.walls)),
            "msgs_per_s": statistics.median(p.messages / w for p, w in zip(untraced.passes, untraced.walls)),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "digest": digest,
        "failed_frac": failed / attempted,
        "problems": problems,
        "absent_layers": absent,
        "passes": len(untraced.passes),
        "pass_walls_s": untraced.walls,
        "environment": environment(name, seed, traced, workload.pooled),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "flipsim" / "__init__.py").is_file():
        print(f"error: no flipsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 1
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"workload={args.workload} seed={args.seed} passes={result['passes']} "
          f"digest={result['digest']} failed_frac={result['failed_frac']:.4f}")
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    if result["absent_layers"]:
        print("absent layers (hook target missing): " + ", ".join(result["absent_layers"]))
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
