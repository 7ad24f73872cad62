"""In-memory spans and the hooks that record them around flipsim's entry points.

A span covers one call into a layer.  Spans nest: a span's self time is its
duration minus the time its child spans cover.  Hooks replace a module
attribute with a ``*args, **kwargs`` wrapper, in every loaded ``flipsim``
module that binds the same object (``harness`` imports the engines by name),
and restore the originals on exit.  A hooked name that no longer exists is
reported as an absent layer instead of an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self._stack = []                    # [name, start, child_time]
        self.total = defaultdict(float)     # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> summed self time
        self.calls = Counter()
        self.counts = Counter()             # counters recorded at span boundaries

    @contextlib.contextmanager
    def span(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            if self._stack:
                self._stack[-1][2] += duration
            self.total[name] += duration
            self.self_time[name] += duration - frame[2]
            self.calls[name] += 1


def _engine_counts(tracer, outcome):
    """Round counters read from an engine's ``Outcome``."""
    rounds = getattr(outcome, "rounds_used", None)
    stage1 = getattr(getattr(outcome, "stage1", None), "rounds_used", None)
    if rounds is None:
        return
    if getattr(outcome, "desync", None) is not None:
        tracer.counts["rounds.desync"] += int(rounds)
    elif stage1 is not None:
        tracer.counts["rounds.stage1"] += int(stage1)
        tracer.counts["rounds.stage2"] += int(rounds) - int(stage1)


def _kernel_counts(tracer, result):
    """Accepted messages: the kernel returns receivers first."""
    try:
        tracer.counts["accepted"] += len(result[0])
    except (TypeError, IndexError, KeyError):
        tracer.counts["accepted.unknown"] += 1


# span name -> (module, attribute, counter callback or None)
HOOKS = {
    "model.deliver": ("flipsim.protocols", "deliver_round_arrays", _kernel_counts),
    "protocols.stage1": ("flipsim.protocols", "_run_stage1", None),
    "protocols.stage2": ("flipsim.protocols", "_run_stage2", None),
    "protocols.broadcast": ("flipsim.protocols", "run_broadcast", _engine_counts),
    "protocols.consensus": ("flipsim.protocols", "run_majority_consensus", _engine_counts),
    "protocols.desync": ("flipsim.protocols", "run_desynchronized", _engine_counts),
    "protocols.baseline_forward": ("flipsim.protocols", "run_baseline_forward", _engine_counts),
    "protocols.baseline_silent": ("flipsim.protocols", "run_baseline_silent_wait", _engine_counts),
}
ENGINE_SPANS = tuple(name for name, (_, attr, _cb) in HOOKS.items() if attr.startswith("run_"))


def _wrap(tracer, name, fn, on_return):
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if on_return is not None:
            on_return(tracer, result)
        return result
    return hooked


@contextlib.contextmanager
def hooks_installed(tracer):
    """Install every hook in ``HOOKS``; yields the names of absent layers."""
    patched = []
    absent = []
    try:
        for name, (module_name, attr, on_return) in HOOKS.items():
            original = getattr(importlib.import_module(module_name), attr, None)
            if not callable(original):
                absent.append(name)
                continue
            hooked = _wrap(tracer, name, original, on_return)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "flipsim" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, hooked)
                    patched.append((mod, attr, original))
        yield absent
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)
