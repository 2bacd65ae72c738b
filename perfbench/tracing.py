"""Spans and counters recorded from outside the program.

The tracer wraps public functions of crdbounds: every module attribute that
is the original function object is replaced by a wrapper, so calls made
through any module namespace (``crdbounds.cli``, ``crdbounds.cosmology``, the
package root, ...) are seen. ``restore`` puts the originals back.

Boundary calls (CLI verbs, table builds, quadrature, figure I/O, requests) are
kept as spans ``[name, start, end, parent, request, child_s]`` in memory and
written out at the end. Hot leaf calls (spline lookups, scenario power laws)
run millions of times in a dense figure, so they are folded: only their call
count and time are kept, and their time is still charged to the enclosing
span's ``child_s`` so that self time stays exact.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (qualified name, kept as a span)
TRACED = [
    ("crdbounds.config.load_config", True),
    ("crdbounds.cosmology.build_tables", True),
    ("crdbounds.quadrature.build_cumulative", True),
    ("crdbounds.quadrature.integrate", True),
    ("crdbounds.thresholds.classify_machine", True),
    ("crdbounds.figure.build_figure", True),
    ("crdbounds.figure.write_series", True),
    ("crdbounds.figure.planck_crossing", True),
    ("crdbounds.quadrature.interpolate", False),
    ("crdbounds.cosmology.v4", False),
    ("crdbounds.cosmology.v4_rate", False),
    ("crdbounds.cosmology.comoving_distance", False),
    ("crdbounds.thresholds.planck_threshold", False),
    ("crdbounds.bounds.n_ops_for_scenario", False),
    ("crdbounds.bounds.length_for_scenario", False),
    ("crdbounds.bounds.energy_from_length", False),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.nested = defaultdict(int)  # (parent name, child name) -> calls
        self.counters = defaultdict(float)
        self.request = None
        self._stack = []  # open frames: [name, child_s, span index or None]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name, keep):
        stack = self._stack
        if stack:
            self.nested[(stack[-1][0], name)] += 1
        index = None
        if keep:
            parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.request, 0.0])
        frame = [name, 0.0, index]
        stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self._stack.pop()
        name, child_s, index = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        if index is not None:
            span = self.spans[index]
            span[1], span[2], span[5] = start, end, child_s

    @contextmanager
    def span(self, name):
        frame = self._enter(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter())

    def _wrap(self, name, fn, keep):
        on_call = _HOOKS.get(name)
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if on_call is not None:
                label, args, kwargs = on_call(self, name, args, kwargs)
            frame = self._enter(label, keep)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start, time.perf_counter())
            if after is not None:
                after(self, args, kwargs)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        for qualname, keep in TRACED:
            modname, attr = qualname.rsplit(".", 1)
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(qualname.removeprefix("crdbounds."), original, keep)
            for mname, module in list(sys.modules.items()):
                if mname != "crdbounds" and not mname.startswith("crdbounds."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def restore(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def snapshot(self):
        """Copy of the counts, so a later pass can be isolated by difference."""
        return {
            "calls": dict(self.calls),
            "nested": dict(self.nested),
            "counters": dict(self.counters),
        }

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, child_s in self.spans:
                fh.write(json.dumps([name, start, end, parent, request, child_s]) + "\n")


def _count_integrand(tracer, name, args, kwargs):
    """Count integrand points by wrapping the integrand argument once."""
    args = list(args)
    f = kwargs["f"] if "f" in kwargs else args[0]
    if not getattr(f, "_perfbench_counted", False):
        inner = f

        def f(x):
            tracer.counters["quadrature.integrand_points"] += np.size(x)
            return inner(x)

        f._perfbench_counted = True
    if "f" in kwargs:
        kwargs["f"] = f
    else:
        args[0] = f
    if name == "quadrature.build_cumulative":
        grid = kwargs["grid"] if "grid" in kwargs else args[1]
        tracer.counters["quadrature.grid_panels"] += np.size(grid) - 1
    return name, tuple(args), kwargs


def _count_points(tracer, name, args, kwargs):
    x = kwargs["x"] if "x" in kwargs else args[1]
    tracer.counters["quadrature.interpolate.points"] += np.size(x)
    return name, args, kwargs


def _series_format(tracer, name, args, kwargs):
    fmt = kwargs.get("fmt", args[3] if len(args) > 3 else "csv")
    return f"{name}.{fmt}", args, kwargs


def _series_bytes(tracer, args, kwargs):
    path = Path(kwargs["path"] if "path" in kwargs else args[2])
    largest = tracer.counters["figure.write_series.max_bytes"]
    tracer.counters["figure.write_series.max_bytes"] = max(largest, path.stat().st_size)


_HOOKS = {
    "quadrature.build_cumulative": _count_integrand,
    "quadrature.integrate": _count_integrand,
    "quadrature.interpolate": _count_points,
    "figure.write_series": _series_format,
}

_AFTER = {"figure.write_series": _series_bytes}


def _mean(total, calls):
    return total / calls if calls else 0.0


def layer_metrics(tracer: Tracer, ref: dict) -> dict:
    """Per-layer metrics: counts from the reference pass (``ref`` is the
    difference of two snapshots, so they repeat exactly), times as the mean
    per call over the whole traced worker."""
    calls, nested, counters = ref["calls"], ref["nested"], ref["counters"]
    t = tracer
    m = {}
    for verb in ("constants", "threshold", "kfactors", "scale", "scale-machine", "figure"):
        name = f"cli.{verb}"
        m[f"{name}.self_s"] = _mean(t.self_s[name], t.calls[name])
    for verb in ("threshold", "kfactors", "scale", "figure"):
        m[f"cli.{verb}.build_tables_calls"] = _mean(
            nested.get((f"cli.{verb}", "cosmology.build_tables"), 0), calls.get(f"cli.{verb}", 0)
        )
    m["config.load_config_s"] = _mean(t.total_s["config.load_config"], t.calls["config.load_config"])

    for name in ("quadrature.build_cumulative", "quadrature.integrate"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = _mean(t.total_s[name], t.calls[name])
    m["quadrature.integrand_points"] = counters.get("quadrature.integrand_points", 0)
    m["quadrature.fallback_ratio"] = _mean(
        nested.get(("quadrature.build_cumulative", "quadrature.integrate"), 0),
        counters.get("quadrature.grid_panels", 0),
    )

    m.update(_build_phases(tracer))

    m["quadrature.interpolate.calls"] = calls.get("quadrature.interpolate", 0)
    m["quadrature.interpolate.points"] = counters.get("quadrature.interpolate.points", 0)
    m["quadrature.interpolate.s"] = _mean(t.total_s["quadrature.interpolate"], t.calls["quadrature.interpolate"])
    for name in ("cosmology.v4", "cosmology.v4_rate", "cosmology.comoving_distance"):
        m[f"{name}.us_per_call"] = 1e6 * _mean(t.total_s[name], t.calls[name])
    m["cosmology.v4_rate.interpolate_calls"] = _mean(
        nested.get(("cosmology.v4_rate", "quadrature.interpolate"), 0), calls.get("cosmology.v4_rate", 0)
    )

    m["thresholds.classify_machine.s"] = _mean(
        t.total_s["thresholds.classify_machine"], t.calls["thresholds.classify_machine"]
    )
    m["thresholds.planck_threshold.calls"] = calls.get("thresholds.planck_threshold", 0)
    for name in ("bounds.length_for_scenario", "bounds.n_ops_for_scenario", "bounds.energy_from_length"):
        m[f"{name}.calls"] = calls.get(name, 0)

    m["figure.build_figure.s"] = _mean(t.total_s["figure.build_figure"], t.calls["figure.build_figure"])
    for fmt in ("csv", "json"):
        name = f"figure.write_series.{fmt}"
        m[f"figure.write_series.{fmt}_s"] = _mean(t.total_s[name], t.calls[name])
    m["figure.write_series.bytes"] = t.counters.get("figure.write_series.max_bytes", 0)
    m["figure.planck_crossing.s"] = _mean(t.total_s["figure.planck_crossing"], t.calls["figure.planck_crossing"])
    return m


def _build_phases(tracer: Tracer) -> dict:
    """Split build_tables spans into phases by their child spans: the first
    cumulative table is eta, the next ones are the moments, and integrate
    calls made directly by build_tables are the k-integrals."""
    children = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        if span[3] is not None:
            children[span[3]].append(index)
    builds = [i for i, s in enumerate(tracer.spans) if s[0] == "cosmology.build_tables"]
    totals = {"s": 0.0, "eta_s": 0.0, "moments_s": 0.0, "kint_s": 0.0, "self_s": 0.0}
    for i in builds:
        name, start, end, _, _, child_s = tracer.spans[i]
        totals["s"] += end - start
        totals["self_s"] += end - start - child_s
        tables = [c for c in children[i] if tracer.spans[c][0] == "quadrature.build_cumulative"]
        for k, c in enumerate(tables):
            duration = tracer.spans[c][2] - tracer.spans[c][1]
            totals["eta_s" if k == 0 else "moments_s"] += duration
        for c in children[i]:
            if tracer.spans[c][0] == "quadrature.integrate":
                totals["kint_s"] += tracer.spans[c][2] - tracer.spans[c][1]
    return {f"cosmology.build_tables.{k}": _mean(v, len(builds)) for k, v in totals.items()}
