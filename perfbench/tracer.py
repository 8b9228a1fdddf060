"""Span tracer that wraps the workbench's public callables from outside.

Each layer callable is replaced, at every module attribute that binds it,
by a wrapper that records a span (name, start, end, parent) in memory.
Nothing under ``src/`` is edited: the wrappers are installed after the
workload has been set up and the originals are put back by ``restore``.
Self time of a span is its duration minus the durations of its direct
children; spans nest strictly because the workloads are single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from math import ceil, log2

# (span name, module, attribute path, stats beyond calls/self_s)
# The per-call percentiles ("pct") are kept for callables that reach 1000
# calls on at least one workload; elsewhere they rest on fewer calls.
# Inclusive time ("total") is kept where the ROADMAP quotes a cumulative
# share: the dipole collect callback and organize_and_check.
LAYERS = [
    ("numpy.fft.fft2", "numpy.fft", "fft2", ("pct", "fft")),
    ("numpy.fft.ifft2", "numpy.fft", "ifft2", ("pct", "fft")),
    ("stochastic.step_rng", "sinegordon.stochastic", "step_rng", ("pct",)),
    ("stochastic.white_spectral", "sinegordon.stochastic", "white_spectral",
     ("pct",)),
    ("stochastic.TorusLattice.mode_variances", "sinegordon.stochastic",
     "TorusLattice.mode_variances", ("distinct",)),
    ("stochastic.wick_exponential", "sinegordon.stochastic",
     "wick_exponential", ()),
    ("stochastic.sample_phi", "sinegordon.stochastic", "sample_phi", ()),
    ("stochastic.GaussianField.advance", "sinegordon.stochastic",
     "GaussianField.advance", ("pct",)),
    ("stochastic.GaussianField.real_space", "sinegordon.stochastic",
     "GaussianField.real_space", ("pct",)),
    ("stochastic.translation_correlation", "sinegordon.stochastic",
     "translation_correlation", ()),
    ("stochastic._HeatDriver.step", "sinegordon.stochastic",
     "_HeatDriver.step", ("pct",)),
    ("stochastic._HeatDriver.profile", "sinegordon.stochastic",
     "_HeatDriver.profile", ("pct",)),
    ("stochastic.chaos_mean", "sinegordon.stochastic", "chaos_mean", ()),
    ("stochastic.correlation_slopes", "sinegordon.stochastic",
     "correlation_slopes", ()),
    ("stochastic.dipole_moment", "sinegordon.stochastic", "dipole_moment", ()),
    ("stochastic._dipole_trajectory", "sinegordon.stochastic",
     "_dipole_trajectory", ("collect",)),
    ("stochastic.convergence_study", "sinegordon.stochastic",
     "convergence_study", ()),
    ("moment_diagrams.build_diagram", "sinegordon.moment_diagrams",
     "build_diagram", ()),
    ("moment_diagrams.MomentDiagram.enumerate_forests",
     "sinegordon.moment_diagrams", "MomentDiagram.enumerate_forests", ()),
    ("moment_diagrams.MomentDiagram.divergent_subtrees",
     "sinegordon.moment_diagrams", "MomentDiagram.divergent_subtrees", ()),
    ("moment_diagrams.derived_edge_sets", "sinegordon.moment_diagrams",
     "derived_edge_sets", ("pct", "distinct")),
    ("multiscale.organize_and_check", "sinegordon.multiscale",
     "organize_and_check", ("total",)),
    ("multiscale.safe_projection", "sinegordon.multiscale",
     "safe_projection", ("pct",)),
    ("multiscale.preimage_interval", "sinegordon.multiscale",
     "preimage_interval", ("pct",)),
    ("multiscale.harvest_cuts", "sinegordon.multiscale", "harvest_cuts", ()),
    ("power_counting.all_coalescence_trees", "sinegordon.power_counting",
     "all_coalescence_trees", ("hierarchies",)),
    ("power_counting.sign_audit_inner", "sinegordon.power_counting",
     "sign_audit_inner", ("clusters",)),
    ("power_counting.sign_audit_big_graph", "sinegordon.power_counting",
     "sign_audit_big_graph", ("clusters",)),
    ("power_counting.sign_audit_large_scale", "sinegordon.power_counting",
     "sign_audit_large_scale", ("clusters",)),
    ("power_counting.identity_audit", "sinegordon.power_counting",
     "identity_audit", ("clusters",)),
    ("cli.main", "sinegordon.cli", "main", ()),
]

COLLECT = "stochastic.collect"   # the callback handed to _dipole_trajectory
BENCH = "bench.call"             # one top-level span per timed workload call


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def timing(name, pct, total=False):
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if total:
            out.append((f"{name}.total_s", "s", "lower"))
        if pct:
            out.append((f"{name}.p50_ms", "ms", "lower"))
            out.append((f"{name}.p99_ms", "ms", "lower"))

    for name, _, _, extra in LAYERS:
        timing(name, "pct" in extra, "total" in extra)
        if "fft" in extra:
            out.append((f"{name}.flops_computed", "flop", "lower"))
            out.append((f"{name}.bytes_computed", "B", "lower"))
        if "distinct" in extra:
            out.append((f"{name}.distinct_ratio", "ratio", "higher"))
        if "hierarchies" in extra:
            out.append((f"{name}.hierarchies", "count", "lower"))
        if "collect" in extra:
            timing(COLLECT, True, True)
    out.append(("power_counting.audits.clusters_checked", "count", "lower"))
    timing(BENCH, False)
    out += [
        ("stochastic.chaos_mean.time_to_1pct_s", "s", "lower"),
        ("stochastic.dipole_moment.time_to_1pct_s", "s", "lower"),
        ("process.wall_s", "s", "lower"),
        ("process.cpu_s", "s", "lower"),
        ("process.traced_wall_s", "s", "lower"),
        ("process.tracing_overhead", "ratio", "lower"),
        ("process.host_speed", "ratio", "higher"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.durations: list[float] = []
        self.child_time: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.keys: dict[str, set] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.names)
        self.names.append(name)
        self.durations.append(0.0)
        self.child_time.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self.stack.pop()
            self.durations[idx] = dur
            if self.stack:
                self.child_time[self.stack[-1]] += dur

    def count(self, key: str, amount: float):
        self.counters[key] = self.counters.get(key, 0) + amount

    def note_key(self, name: str, key):
        self.keys.setdefault(name, set()).add(key)

    def wrap(self, name: str, fn, after=None, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # --- installation ----------------------------------------------------

    def _hooks(self, name: str, extra):
        after = before = None
        if "fft" in extra:
            def after(args, kwargs, result):
                a = args[0]
                size = a.size
                self.count(f"{name}.flops_computed", 5 * size * log2(size))
                self.count(f"{name}.bytes_computed",
                           a.nbytes + result.nbytes)
        elif name.endswith("mode_variances"):
            def before(args, kwargs):
                lat, eps = args[0], args[1]
                shape = args[2] if len(args) > 2 else kwargs.get("shape", "gauss")
                self.note_key(name, (lat.n, eps, shape))
                return args, kwargs
        elif name.endswith("derived_edge_sets"):
            def before(args, kwargs):
                d, forest = args[0], args[1]
                S = args[2] if len(args) > 2 else kwargs.get("S")
                key = (id(d), frozenset(frozenset(m) for m in forest), S)
                self.note_key(name, key)
                return args, kwargs
        elif "hierarchies" in extra:
            def after(args, kwargs, result):
                self.count(f"{name}.hierarchies", len(result))
        elif "clusters" in extra:
            def after(args, kwargs, result):
                self.count("power_counting.audits.clusters_checked",
                           result.checked)
        elif "collect" in extra:
            def before(args, kwargs):
                if "collect" in kwargs:
                    kwargs = dict(kwargs,
                                  collect=self.wrap(COLLECT, kwargs["collect"]))
                else:
                    args = args[:4] + (self.wrap(COLLECT, args[4]),) + args[5:]
                return args, kwargs
        return after, before

    def install(self):
        """Wrap every layer callable at each binding site."""
        for name, modname, path, extra in LAYERS:
            module = importlib.import_module(modname)
            after, before = self._hooks(name, extra)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(name, orig, after, before))
                continue
            orig = getattr(module, path)
            wrapped = self.wrap(name, orig, after, before)
            for site in self._binding_sites(module, path, orig):
                self._patch(site, path, wrapped)

    @staticmethod
    def _binding_sites(home, attr, orig):
        sites = [home]
        for modname, mod in list(sys.modules.items()):
            if mod is home or not modname.startswith("sinegordon"):
                continue
            if getattr(mod, attr, None) is orig:
                sites.append(mod)
        return sites

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        ok = all(owner.__dict__[attr] is orig
                 for owner, attr, orig in self._patches)
        self._patches.clear()
        return ok

    # --- aggregation -----------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metric values keyed like ``metric_names``."""
        by_name: dict[str, list[int]] = {}
        for i, name in enumerate(self.names):
            by_name.setdefault(name, []).append(i)
        out: dict[str, float] = {}
        for metric, _, _ in metric_names():
            name, stat = metric.rsplit(".", 1)
            idx = by_name.get(name, [])
            durs = [self.durations[i] for i in idx]
            if stat == "calls":
                out[metric] = len(idx)
            elif stat == "self_s":
                out[metric] = sum(self.durations[i] - self.child_time[i]
                                  for i in idx)
            elif stat == "total_s":
                out[metric] = sum(durs)
            elif stat in ("p50_ms", "p99_ms"):
                out[metric] = _percentile(durs, 0.5 if stat == "p50_ms"
                                          else 0.99) * 1e3
            elif stat == "distinct_ratio":
                out[metric] = (len(self.keys.get(name, ())) / len(idx)
                               if idx else 0.0)
            else:  # a counter; metrics filled in by run.py read 0 here
                out[metric] = self.counters.get(metric, 0)
        return out

    def self_total(self) -> float:
        return sum(d - c for d, c in zip(self.durations, self.child_time))

    def top_level_total(self) -> float:
        return sum(d for d, p in zip(self.durations, self.parents) if p < 0)


def _percentile(values: list[float], q: float) -> float:
    """Median, or nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, ceil(q * len(ordered))) - 1]
