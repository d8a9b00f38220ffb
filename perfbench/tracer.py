"""Per-layer tracing of ``invreg`` from outside the package.

While a :class:`Tracer` is active, every public function (each function
named in an ``invreg`` module's ``__all__``) is rebound, in every
``invreg`` module that imported it, to a wrapper that records a span:
(name, start, end, parent span, run id, enclosing ``replicate_once``
index, probe).  A run is one call of ``cli.main``; calls outside a run,
such as the benchmark's own checks, are not recorded.  Spans are kept in
memory and written out by :meth:`Tracer.drain` when a run ends.

Self time is a span's duration minus its children's durations, so the self
times of one run add up to its root span.  The wrappers' own cost lands in
the caller's self time; ``trace.overhead_share`` reports it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (span names summed into it, statistics reported for it)
LAYERS = {
    "filters.filter_value": (("filters.filter_value",), ("calls", "self", "elements", "unique")),
    "filters.s_value": (("filters.s_value",), ("calls", "self", "elements", "unique")),
    "risk.direct_risk": (("risk.direct_risk",), ("calls", "self")),
    "risk.empirical_prediction_risk": (("risk.empirical_prediction_risk",), ("calls", "self")),
    "risk.lepskii_threshold": (("risk.lepskii_threshold",), ("calls", "self", "unique")),
    "selection.choose_oracle": (("selection.choose_oracle",), ("calls", "self")),
    "selection.choose_pred": (("selection.choose_pred",), ("calls", "self")),
    "selection.choose_lepskii": (("selection.choose_lepskii",), ("calls", "self")),
    "selection.build_grid": (("selection.build_grid",), ("calls",)),
    "model.sample_observations": (("model.sample_observations",), ("calls", "self")),
    "model.estimate_coefficients": (("model.estimate_coefficients",), ("calls", "self")),
    "problems.build": (("problems.make_green_problem", "problems.make_diagonal_problem"), ("calls", "self")),
    "montecarlo.run": (("montecarlo.run_rate_experiment", "montecarlo.run_efficiency_experiment"), ("self",)),
    "montecarlo.replicate_once": (("montecarlo.replicate_once",), ("calls", "self")),
    "tables.emit": (
        ("tables.emit_risk_table", "tables.emit_per_rep_errors", "tables.emit_efficiency_table",
         "tables.emit_score_curve"),
        ("self", "bytes"),
    ),
    "tables.parse": (
        ("tables.parse_risk_table", "tables.parse_per_rep_errors", "tables.parse_efficiency_table"),
        ("self",),
    ),
    "ratetest.rate_test": (("ratetest.rate_test",), ("self",)),
    "checks.run_filter_checks": (("checks.run_filter_checks",), ("self",)),
    "cli.main": (("cli.main",), ("self",)),
}

# statistic -> (metric suffix, unit, better)
STATS = {
    "calls": ("calls_per_unit", "calls/unit", "lower"),
    "self": ("self_ms_per_unit", "ms/unit", "lower"),
    "elements": ("elements_per_unit", "elements/unit", "lower"),
    "unique": ("unique_share", "share", "higher"),
    "bytes": ("bytes_per_unit", "bytes/unit", "lower"),
}

# metrics the traced run adds from its untraced calls
RUN_METRICS = [
    ("montecarlo.speedup_workers_nproc", "ratio", "higher"),
    ("montecarlo.workers_1_ms_per_unit", "ms/unit", "lower"),
    ("montecarlo.workers_nproc_ms_per_unit", "ms/unit", "lower"),
    ("trace.overhead_share", "share", "lower"),
]

PER_LAYER = [
    (f"{layer}.{STATS[stat][0]}", STATS[stat][1], STATS[stat][2])
    for layer, (_, stats) in LAYERS.items()
    for stat in stats
] + RUN_METRICS


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _digest(values) -> bytes:
    return hashlib.blake2b(np.asarray(values, dtype=float).tobytes(), digest_size=16).digest()


def _filter_probe(args, kwargs, digest):
    spec, alpha, lam = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "alpha"), _arg(args, kwargs, 2, "lam")
    return np.size(lam), (spec, float(alpha), digest(lam))


def _lepskii_probe(args, kwargs, digest):
    eig = _arg(args, kwargs, 0, "eigenvalues")
    sigma, spec = _arg(args, kwargs, 1, "sigma"), _arg(args, kwargs, 2, "spec")
    alpha = _arg(args, kwargs, 3, "alpha_tilde")
    return np.size(eig), (float(sigma), spec, float(alpha), digest(eig))


def _emit_probe(args, kwargs, digest):
    return os.path.getsize(_arg(args, kwargs, 1, "path")), None


# span name -> probe(args, kwargs, digest) -> (count, argument key); the count
# is elements for filters and lepskii_threshold, bytes written for emits
PROBES = {
    "filters.filter_value": _filter_probe,
    "filters.s_value": _filter_probe,
    "risk.lepskii_threshold": _lepskii_probe,
    **{name: _emit_probe for name in LAYERS["tables.emit"][0]},
}


def public_functions() -> dict:
    """Map ``module.name`` to each public function of the ``invreg`` modules."""
    import invreg

    found = {}
    for info in pkgutil.iter_modules(invreg.__path__):
        module = importlib.import_module(f"invreg.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


class Tracer:
    """Context manager that traces every call into ``invreg`` while active."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent, run, rep, count, key)
        self._stack: list = []  # (span index, replicate_once index)
        self._rebound: list = []  # (module, name, original)
        self._run = 0
        self._reps = 0
        self._digests: dict = {}  # id -> (array, digest) for the current run
        self.totals = defaultdict(lambda: {"calls": 0, "self": 0.0, "count": 0, "distinct": 0})

    def __enter__(self) -> "Tracer":
        for qualname, fn in public_functions().items():
            wrapper = self._wrap(qualname, fn)
            for module in list(sys.modules.values()):
                modname = getattr(module, "__name__", "")
                if modname != "invreg" and not modname.startswith("invreg."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._rebound):
            setattr(module, attr, fn)
        self._rebound.clear()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack
        is_replication = name == "montecarlo.replicate_once"
        is_root = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not is_root:
                return fn(*args, **kwargs)
            if stack:
                parent, rep = stack[-1]
            else:
                parent, rep = -1, None
                self._run += 1
                self._reps = 0
            if is_replication:
                rep = self._reps
                self._reps += 1
            index = len(spans)
            spans.append(None)
            stack.append((index, rep))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._run, rep, 0, None)
            if probe is not None:
                count, key = probe(args, kwargs, self._digest)
                spans[index] = (name, start, end, parent, self._run, rep, count, key)
            if not stack:
                self._digests.clear()
            return result

        return traced

    def _digest(self, values) -> bytes:
        # a read-only array that owns its data cannot change, so hash it once
        # per run; holding it keeps its id from being reused
        if isinstance(values, np.ndarray) and values.base is None and not values.flags.writeable:
            cached = self._digests.get(id(values))
            if cached is None:
                cached = self._digests[id(values)] = (values, _digest(values))
            return cached[1]
        return _digest(values)

    def drain(self, out_path) -> None:
        """Fold the finished runs' spans into the totals, append them to
        ``out_path`` as JSON lines, and drop them from memory."""
        if self._stack:
            raise RuntimeError("drain called inside a traced call")
        self_time = [end - start for _, start, end, *_ in self.spans]
        for (_, start, end, parent, *_) in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        keys = defaultdict(set)
        for span, own in zip(self.spans, self_time):
            name, _, _, _, run, _, count, key = span
            total = self.totals[name]
            total["calls"] += 1
            total["self"] += own
            total["count"] += count
            if key is not None:
                keys[name].add((run, key))
        for name, distinct in keys.items():
            self.totals[name]["distinct"] += len(distinct)
        with open(out_path, "a") as fh:
            for name, start, end, parent, run, rep, count, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, run, rep, count]) + "\n")
        self.spans.clear()

    def layer_metrics(self, units: int) -> dict:
        """Per-layer metrics from the drained totals, normalised per unit."""
        metrics = {}
        for layer, (names, stats) in LAYERS.items():
            parts = [self.totals[n] for n in names if n in self.totals]
            calls = sum(p["calls"] for p in parts)
            values = {
                "calls": calls / units,
                "self": 1000.0 * sum(p["self"] for p in parts) / units,
                "elements": sum(p["count"] for p in parts) / units,
                "bytes": sum(p["count"] for p in parts) / units,
                "unique": sum(p["distinct"] for p in parts) / calls if calls else 0.0,
            }
            for stat in stats:
                suffix, unit, _ = STATS[stat]
                metrics[f"{layer}.{suffix}"] = {"value": values[stat], "unit": unit}
        return metrics
