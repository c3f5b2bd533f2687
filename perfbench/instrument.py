"""Wrap fluctlab's public functions for the traced run, and turn the
recorded spans and counts into per-layer metrics.

Each public function is replaced at every attribute its callers look up
(the defining module and every fluctlab module that imported it by name),
so the spans come from the benchmark alone and the program is unchanged.
numpy.fft.fft and json.load get count-only wrappers: their time stays in
the calling layer's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import os
import statistics

import numpy as np

from spans import Tracer, totals

LAYER_MODULES = ("cli", "io", "states", "_kernels", "density", "audit", "scenarios")
KERNELS = ("hermite_basis", "gauss_scan", "reduced_scan")


def layer_name(module_short: str) -> str:
    """Metric prefix of a module; metric names may not start with '_'."""
    return module_short.lstrip("_")


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install span and count wrappers for the duration of the block."""
    import fluctlab

    modules = {short: importlib.import_module(f"fluctlab.{short}") for short in LAYER_MODULES}
    states = modules["states"]
    counts = tracer.counts
    levels = set()

    def count_cells(name):
        def after(args, kwargs, result):
            counts[f"kernels.{name}.cells"] += np.size(result)
        return after

    def count_written(args, kwargs, result):
        counts["io.bytes_written"] += os.path.getsize(kwargs.get("path", args[0] if args else None))

    eigen_signature = inspect.signature(states.oscillator_eigenstates)

    def count_levels(args, kwargs, result):
        bound = eigen_signature.bind(*args, **kwargs).arguments
        key = (bound["grid"], bound["mass"], bound["omega"], bound["units"].h)
        levels.update((*key, n) for n in range(int(bound["n_max"]) + 1))

    def count_state(args, kwargs, result):
        if not tracer.in_span("states.oscillator_eigenstates"):
            counts["states.states_outside_levels"] += 1

    def count_fft(args, kwargs, result):
        counts["states.fft_calls"] += 1
        counts["states.fft_points"] += np.size(args[0])

    def count_json(args, kwargs, result):
        counts["io.json_load_calls"] += 1
        counts["io.bytes_read"] += os.fstat(args[0].fileno()).st_size

    hooks = {
        **{f"kernels.{k}": count_cells(k) for k in KERNELS},
        "io.atomic_write_text": count_written,
        "states.oscillator_eigenstates": count_levels,
    }
    wrappers = {}
    for short, module in modules.items():
        for name, fn in _public_functions(module):
            qualified = f"{layer_name(short)}.{name}"
            wrappers.setdefault(id(fn), tracer.wrap(qualified, fn, hooks.get(qualified)))

    patches = []

    def patch(owner, name, new):
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    try:
        for namespace in (fluctlab, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    patch(namespace, name, wrappers[id(obj)])
        patch(states.PureState, "__post_init__",
              tracer.wrap("states.PureState", states.PureState.__post_init__, count_state))
        patch(states.MixedEnsemble, "__post_init__",
              tracer.wrap("states.MixedEnsemble", states.MixedEnsemble.__post_init__))
        patch(np.fft, "fft", tracer.counter(np.fft.fft, count_fft))
        patch(json, "load", tracer.counter(json.load, count_json))
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        counts["states.distinct_states"] = len(levels) + counts["states.states_outside_levels"]


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def pass_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass: calls, self times and counts."""
    metrics = {}
    layer_self = {layer_name(short): 0.0 for short in LAYER_MODULES}
    spans = totals(tracer.spans)
    for name in tracer.names:
        calls, own = spans.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = own
        layer_self[name.split(".", 1)[0]] += own
    metrics.update({f"{layer}.self_s": own for layer, own in layer_self.items()})
    counts = tracer.counts
    for kernel in KERNELS:
        cells = counts[f"kernels.{kernel}.cells"]
        metrics[f"kernels.{kernel}.cells"] = cells
        metrics[f"kernels.{kernel}.bytes_out"] = 8 * cells
    built = metrics.get("states.PureState.calls", 0)
    metrics.update({
        "io.bytes_written": counts["io.bytes_written"],
        "io.bytes_read": counts["io.bytes_read"],
        "io.json_parses_per_load": _ratio(counts["io.json_load_calls"], metrics.get("io.load_target.calls", 0)),
        "states.pure_states_built": built,
        "states.distinct_states": counts["states.distinct_states"],
        "states.builds_per_distinct_state": _ratio(built, counts["states.distinct_states"]),
        "states.fft_calls": counts["states.fft_calls"],
        "states.fft_points": counts["states.fft_points"],
    })
    return metrics


def combine(passes: list) -> tuple:
    """Median of each metric over traced passes, and whether every count
    (any metric not ending in _s) repeated exactly."""
    names = sorted(set().union(*passes))
    merged = {name: statistics.median(p.get(name, 0) for p in passes) for name in names}
    exact = all(
        len({p.get(name, 0) for p in passes}) == 1 for name in names if not name.endswith("_s")
    )
    return merged, exact
