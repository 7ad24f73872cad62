"""Experiment orchestration: Monte Carlo batches over (n, epsilon) grids,
Wilson intervals, scaling fits, JSON/CSV persistence, and deterministic
parallel execution.

File format (schema v1): every JSON key is the camelCase of a record field
name (``c_final_stage2`` -> ``cFinalStage2``), written by one rule,
:func:`_record`, which leaves out a field that holds its plain default;
:meth:`ExperimentSpec.from_dict` reads the spec keys by the same rule.  The
CSV columns are a subset of the per-cell keys, each cell rendered with
``repr`` so it matches the JSON digit for digit.

Reproducibility contract: run r of cell c uses the protocol stream
``(master_seed, "run", c, r)`` and the instrumentation stream
``(master_seed, "init", c, r)`` (initial sets, clock offsets), so reports
are identical regardless of worker count or completion order.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing as mp
import os
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import __version__
from .model import ConfigurationError, NoiseChannel, _is_int, derive_rng
from .params import ProtocolConstants, SimConfig, _ceil_log2, clock_bound, derive_schedule, min_initial_set_size
from .protocols import (
    ClockConfiguration,
    Outcome,
    run_baseline_forward,
    run_baseline_silent_wait,
    run_broadcast,
    run_desynchronized,
    run_majority_consensus,
)

SCHEMA_VERSION = 1
PROTOCOLS = ("broadcast", "consensus", "desync", "baseline-forward", "baseline-silent")
TWO_STAGE = PROTOCOLS[:3]       # the protocols that run the derived schedule
RELAXED_SUCCESS = 0.99


class SpecValidationError(ConfigurationError):
    """Invalid experiment spec; ``problems`` lists every violated field."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid experiment spec: " + "; ".join(self.problems))


class SpecParseError(ConfigurationError):
    pass


class SchemaVersionError(ConfigurationError):
    pass


class ReportError(ConfigurationError):
    pass


_RETIRED_CONSTANTS = ("cDirect",)   # read from v1 specs and checked, but nothing uses them


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_epsilon(e) -> bool:
    # NoiseChannel.from_epsilon's bound: below 2^-55, 1/2 - e rounds to 1/2
    return _is_real(e) and 0.0 < e <= 0.5 and 0.5 - e < 0.5


@dataclass(frozen=True)
class ExperimentSpec:
    protocol: str
    n_grid: tuple
    epsilon_grid: tuple
    runs_per_cell: int
    master_seed: int
    constants: ProtocolConstants = field(default_factory=ProtocolConstants)
    initial_bias: float | None = None
    initial_set_size: int | None = None
    threshold: int = 2
    max_rounds: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        object.__setattr__(self, "epsilon_grid", tuple(self.epsilon_grid))

    def problems(self):
        out = []
        if self.protocol not in PROTOCOLS:
            out.append(f"protocol: {self.protocol!r} not one of {PROTOCOLS}")
        if not self.n_grid:
            out.append("nGrid: must be nonempty")
        elif any(not _is_int(n) or n < 2 for n in self.n_grid):
            out.append("nGrid: entries must be integers >= 2")
        if not self.epsilon_grid:
            out.append("epsilonGrid: must be nonempty")
        elif not all(_is_epsilon(e) for e in self.epsilon_grid):
            out.append("epsilonGrid: entries must be numbers in (2^-55, 1/2]")
        if not _is_int(self.runs_per_cell) or self.runs_per_cell < 1:
            out.append("runsPerCell: must be an integer >= 1")
        if not _is_int(self.master_seed) or not 0 <= self.master_seed < 2 ** 64:
            out.append("masterSeed: must be a 64-bit unsigned integer")
        ns = [n for n in self.n_grid if _is_int(n) and n >= 2]    # the rest is reported above
        epss = [e for e in self.epsilon_grid if _is_epsilon(e)]
        if self.protocol == "consensus":
            size = self.initial_set_size
            if size is None:
                out.append("initialSetSize: required for consensus")
            elif not _is_int(size):
                out.append("initialSetSize: must be an integer")
            elif any(size > n for n in ns):
                out.append("initialSetSize: exceeds some grid n")
            else:
                for n in ns:
                    for eps in epss:
                        minimum = min_initial_set_size(n, eps, self.constants.c_entry)
                        if size < minimum:
                            out.append(
                                f"initialSetSize: {size} below the "
                                f"admissible minimum {minimum} at (n={n}, eps={eps})"
                            )
            if self.initial_bias is None:
                out.append("initialBias: required for consensus")
            elif not _is_real(self.initial_bias) or not (0.0 <= self.initial_bias <= 0.5):
                out.append("initialBias: must be a number in [0, 1/2]")
        if self.protocol in TWO_STAGE:
            try:
                for n in ns:
                    for eps in epss:
                        derive_schedule(n, NoiseChannel.from_epsilon(eps), self.constants)
            except ConfigurationError as e:
                out.append(f"constants: {e} at (n={n}, eps={eps})")
        if not _is_int(self.threshold):
            out.append("threshold: must be an integer")
        elif self.protocol == "baseline-silent" and self.threshold < 1:
            out.append("threshold: must be >= 1")
        if self.max_rounds is not None and (not _is_int(self.max_rounds) or self.max_rounds < 1):
            out.append("maxRounds: must be an integer >= 1")
        return out

    def validate(self):
        problems = self.problems()
        if problems:
            raise SpecValidationError(problems)

    def to_dict(self) -> dict:
        return {"schemaVersion": SCHEMA_VERSION, **_record(self)}

    @classmethod
    def from_dict(cls, d: dict, source: str = "<spec>") -> "ExperimentSpec":
        if not isinstance(d, dict):
            raise SpecParseError(f"{source}: a spec must be a JSON object")
        d = dict(d)
        version = d.pop("schemaVersion", None)
        if version is None:
            raise SpecParseError(f"{source}: missing schemaVersion")
        if not _is_int(version) or version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"{source}: schemaVersion {version} not supported (current: {SCHEMA_VERSION})"
            )
        spec_fields = {_key(f.name): f for f in fields(cls)}
        unknown = set(d) - set(spec_fields) - {"outputPath"}
        if unknown:
            raise SpecParseError(f"{source}: unknown fields {sorted(unknown)}")
        const_in = d.get("constants", {})
        if not isinstance(const_in, dict):
            raise SpecParseError(f"{source}: constants must be a JSON object")
        constant_names = {_key(f.name): f.name for f in fields(ProtocolConstants)}
        bad = set(const_in) - set(constant_names) - set(_RETIRED_CONSTANTS)
        if bad:
            raise SpecParseError(f"{source}: unknown constants fields {sorted(bad)}")
        not_numbers = [f"constants.{k}: must be a number" for k, v in const_in.items() if not _is_real(v)]
        if not_numbers:
            raise SpecValidationError(not_numbers)
        retired = [f"constants.{k}: must be positive and finite" for k in _RETIRED_CONSTANTS
                   if k in const_in and not 0 < const_in[k] < math.inf]
        if retired:
            raise SpecValidationError(retired)
        try:
            constants = ProtocolConstants(**{constant_names[k]: v for k, v in const_in.items()
                                             if k in constant_names})
        except ConfigurationError as e:
            raise SpecValidationError([f"constants: {e}"]) from None
        # v1 specs may carry outputPath: checked, then dropped (`sweep --out` names the report)
        if "outputPath" in d and not isinstance(d["outputPath"], str):
            raise SpecValidationError(["outputPath: must be a string"])
        for key in ("nGrid", "epsilonGrid"):
            if key in d and not isinstance(d[key], list):
                raise SpecParseError(f"{source}: {key} must be a list")
        for key, f in spec_fields.items():
            if key not in d and f.default is MISSING and f.default_factory is MISSING:
                raise SpecParseError(f"{source}: missing required field {key!r}")
        d["constants"] = constants
        return cls(**{f.name: d[key] for key, f in spec_fields.items() if key in d})


@dataclass(frozen=True)
class CellReport:
    n: int
    epsilon: float
    runs: int
    success_rate: float | None
    wilson_lo: float | None
    wilson_hi: float | None
    relaxed_success_rate: float
    mean_rounds: float
    mean_messages: float
    mean_final_correct: float
    all_activated_rate: float | None
    symmetric_outcome_rate: float | None
    depth_table: tuple | None = None
    median_first_threshold: float | None = None


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    log2sq_coeff: float | None
    max_residual_rel: float


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    per_cell: tuple
    scaling_fit: ScalingFit | None


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    z = 1.959963984540054      # the standard normal's 0.975 quantile
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    margin = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - margin)
    hi = 1.0 if successes == trials else min(1.0, center + margin)
    return lo, hi


def _consensus_initial(n, size, bias, correct, gen) -> np.ndarray:
    members = gen.choice(n, size=size, replace=False)
    n_correct = round(size * (0.5 + bias))
    initial = np.full(n, -1, np.int8)
    initial[members[:n_correct]] = correct
    initial[members[n_correct:]] = correct ^ 1
    return initial


def _execute_run(task) -> Outcome:
    spec, cell_index, run_index, n, eps = task
    channel = NoiseChannel.from_epsilon(eps)
    config = SimConfig(n=n, channel=channel, master_seed=spec.master_seed, constants=spec.constants)
    gen = derive_rng(spec.master_seed, "run", cell_index, run_index)
    init_gen = derive_rng(spec.master_seed, "init", cell_index, run_index)
    log2n = _ceil_log2(n)
    if spec.protocol == "broadcast":
        out = run_broadcast(config, rng=gen)
    elif spec.protocol == "consensus":
        initial = _consensus_initial(n, spec.initial_set_size, spec.initial_bias,
                                     config.correct_opinion, init_gen)
        out = run_majority_consensus(config, initial, rng=gen)
    elif spec.protocol == "desync":
        d = clock_bound(n)
        clocks = ClockConfiguration(init_gen.integers(0, d, size=n), d)
        out = run_desynchronized(config, clocks=clocks, rng=gen)
    elif spec.protocol == "baseline-forward":
        max_rounds = spec.max_rounds if spec.max_rounds is not None else 8 * log2n + 64
        out = run_baseline_forward(config, max_rounds=max_rounds, rng=gen)
    else:   # baseline-silent; run_experiment has validated the protocol
        max_rounds = spec.max_rounds if spec.max_rounds is not None else int(10 * math.sqrt(n)) + 10
        out = run_baseline_silent_wait(config, threshold=spec.threshold, max_rounds=max_rounds, rng=gen)
    return replace(out, final_opinions=None)    # the pool moves no per-agent arrays


def _aggregate_cell(spec, n, eps, outs) -> CellReport:
    runs = len(outs)
    successes = sum(o.correct_fraction == 1.0 for o in outs)
    bias_zero_consensus = spec.protocol == "consensus" and spec.initial_bias == 0.0
    if bias_zero_consensus:
        success_rate = wilson_lo = wilson_hi = None
        symmetric = successes / runs
    else:
        success_rate = successes / runs
        wilson_lo, wilson_hi = wilson_interval(successes, runs)
        symmetric = None
    activated = [o.stage1.all_activated for o in outs if o.stage1 is not None]
    depth_table = None
    if spec.protocol == "baseline-forward":
        pooled: dict = {}
        for o in outs:
            for d in o.depth_table or ():
                agents, correct = pooled.get(d.depth, (0, 0))
                pooled[d.depth] = (agents + d.agents, correct + d.correct)
        depth_table = tuple((d, a, c) for d, (a, c) in sorted(pooled.items()))
    median_first = None
    if spec.protocol == "baseline-silent":
        rounds = [o.first_threshold_round for o in outs if o.first_threshold_round is not None]
        if rounds:
            median_first = float(np.median(rounds))
    return CellReport(
        n=n,
        epsilon=eps,
        runs=runs,
        success_rate=success_rate,
        wilson_lo=wilson_lo,
        wilson_hi=wilson_hi,
        relaxed_success_rate=sum(o.correct_fraction >= RELAXED_SUCCESS for o in outs) / runs,
        mean_rounds=float(np.mean([o.rounds_used for o in outs])),
        mean_messages=float(np.mean([o.messages_sent for o in outs])),
        mean_final_correct=float(np.mean([o.correct_fraction for o in outs])),
        all_activated_rate=(sum(activated) / len(activated)) if activated else None,
        symmetric_outcome_rate=symmetric,
        depth_table=depth_table,
        median_first_threshold=median_first,
    )


def _fit_scaling(spec, per_cell) -> ScalingFit | None:
    xs, ys, ns = [], [], []
    for c in per_cell:
        xs.append(math.log2(c.n) / (c.epsilon ** 2))
        ys.append(c.mean_rounds)
        ns.append(c.n)
    if len(set(xs)) < 2:     # no fit; returning early also skips loading LAPACK (1.5 MB of RSS)
        return None
    x = np.asarray(xs)
    y = np.asarray(ys)
    cols = [x, np.ones_like(x)]
    if spec.protocol == "desync":
        cols.insert(1, np.log2(np.asarray(ns, dtype=float)) ** 2)
    a = np.column_stack(cols)
    coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < a.shape[1]:    # the cells cannot pin every coefficient
        return None
    fitted = a @ coef
    resid = float(np.max(np.abs(fitted - y) / np.maximum(y, 1e-12)))
    if spec.protocol == "desync":
        return ScalingFit(float(coef[0]), float(coef[2]), float(coef[1]), resid)
    return ScalingFit(float(coef[0]), float(coef[1]), None, resid)


def pool_map(fn, items: list) -> list:
    """``[fn(x) for x in items]`` in ``items`` order, over a process pool of
    ``FLIPSIM_THREADS`` workers (default: one per CPU).  Each task carries
    its own RNG stream, so results do not depend on the worker count."""
    env = os.environ.get("FLIPSIM_THREADS")
    try:
        workers = int(env) if env else os.cpu_count() or 1
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigurationError(f"FLIPSIM_THREADS must be a positive integer, got {env!r}")
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    with mp.get_context(method).Pool(workers) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers)))


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Execute every (n, epsilon) cell of the spec.

    Results are merged in (cell, run) index order, so the report does not
    depend on worker scheduling.
    """
    spec.validate()
    cells = [(n, e) for n in spec.n_grid for e in spec.epsilon_grid]
    tasks = [
        (spec, ci, ri, n, e)
        for ci, (n, e) in enumerate(cells)
        for ri in range(spec.runs_per_cell)
    ]
    flat = pool_map(_execute_run, tasks)
    per_cell = []
    for ci, (n, e) in enumerate(cells):
        outs = flat[ci * spec.runs_per_cell:(ci + 1) * spec.runs_per_cell]
        per_cell.append(_aggregate_cell(spec, n, e, outs))
    return ExperimentReport(spec=spec, per_cell=tuple(per_cell), scaling_fit=_fit_scaling(spec, per_cell))


# ---------------------------------------------------------------------------
# persistence


def _key(name: str) -> str:
    """The JSON key of a record field: its name in camelCase."""
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _value(v):
    if isinstance(v, ExperimentSpec):
        return v.to_dict()
    if isinstance(v, ProtocolConstants):
        return {_key(f.name): getattr(v, f.name) for f in fields(v)}     # always in full
    if is_dataclass(v):
        return _record(v)
    return [_value(x) for x in v] if isinstance(v, tuple) else v


def _record(obj) -> dict:
    """The fields of a spec, cell, fit or report under their JSON keys; a
    field that holds its plain default (None for the optional ones, 2 for
    ``threshold``) is left out."""
    return {_key(f.name): _value(getattr(obj, f.name)) for f in fields(obj)
            if getattr(obj, f.name) != f.default}


def report_to_dict(report: ExperimentReport) -> dict:
    return {"schemaVersion": SCHEMA_VERSION, "toolVersion": __version__,
            "constantsUsed": _value(report.spec.constants), **_record(report)}


def save_report(report: ExperimentReport, path) -> None:
    if not report.per_cell:
        raise ReportError("refusing to save a report with zero cells")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise ReportError(f"cannot write report to {path}: {e}") from e


CSV_COLUMNS = (
    "n", "epsilon", "runs", "successRate", "wilsonLo", "wilsonHi",
    "meanRounds", "meanMessages", "symmetricOutcomeRate",
)


def report_to_csv(report: ExperimentReport, path) -> None:
    """Per-cell CSV; numbers are rendered with repr so the CSV and JSON
    encodings agree digit-for-digit."""
    if not report.per_cell:
        raise ReportError("refusing to save a report with zero cells")

    def render(v):
        return "" if v is None else repr(v) if isinstance(v, float) else str(v)

    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for cell in map(_record, report.per_cell):
                writer.writerow([render(cell[k]) for k in CSV_COLUMNS])
    except OSError as e:
        raise ReportError(f"cannot write CSV to {path}: {e}") from e


def load_spec(path) -> ExperimentSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise SpecParseError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise SpecParseError(f"{path}: not UTF-8 text (byte {e.start})") from e
    except json.JSONDecodeError as e:
        raise SpecParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError:
        raise SpecParseError(f"{path}: JSON nested too deeply") from None
    spec = ExperimentSpec.from_dict(raw, source=str(path))
    spec.validate()
    return spec
