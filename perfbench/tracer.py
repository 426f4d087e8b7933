"""Spans and counters around the program's layers, recorded from outside.

`Tracer.install` replaces selected functions of the markup_guarantee modules
with timing wrappers and `uninstall` puts the originals back.  A function is
replaced in every module that binds it, because `from .quadrature import
adaptive_quad` and similar imports copy the name into each importing module.
Spans are kept per thread, in memory, as [name, start, end, parent, points];
a span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import threading
import time

import numpy as np

_clock = time.perf_counter

# functions timed as spans named "<module>.<function>", replaced in every
# module that binds them
_SPANNED = {
    "functionals": ("full_report", "mechanism_profit", "consumer_surplus",
                    "efficient_surplus"),
    "screening": ("bayes_optimal_mechanism", "discrete_oracle"),
    "technology": ("_monotone_root",),
}

# span names each workload must reach; a name with no calls means a patch
# reached no caller, which would otherwise read as zero work
EXPECTED_SPANS = {
    "bayes_sweep": ("cli.command", "distributions.quantile",
                    "quadrature.adaptive_quad", "quadrature.integrand",
                    "functionals.full_report", "functionals.mechanism_profit",
                    "functionals.consumer_surplus",
                    "functionals.efficient_surplus", "screening.iron",
                    "screening.bayes_optimal_mechanism"),
    "markup_menus": ("cli.command", "quadrature.adaptive_quad",
                     "quadrature.integrand", "functionals.full_report",
                     "functionals.mechanism_profit",
                     "functionals.consumer_surplus",
                     "functionals.efficient_surplus",
                     "technology._monotone_root", "guarantees.verify"),
    "oracle_exhaustive": ("cli.command", "quadrature.adaptive_quad",
                          "quadrature.integrand",
                          "functionals.mechanism_profit",
                          "screening.bayes_optimal_mechanism",
                          "screening.discrete_oracle"),
}
EXPECTED_COUNTERS = {"bayes_sweep": ("phi_bar_calls",)}


class ThreadLog:
    """One thread's spans, open-span stack and counters."""

    def __init__(self, ident):
        self.ident = ident
        self.spans = []
        self.stack = []
        self.counters = {}
        self.depth = {}            # span name -> how many are open

    def open(self, name, points=0):
        idx = len(self.spans)
        self.spans.append([name, _clock(), 0.0,
                           self.stack[-1] if self.stack else -1, points])
        self.stack.append(idx)
        self.depth[name] = self.depth.get(name, 0) + 1
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = _clock()
        self.depth[span[0]] -= 1
        self.stack.pop()

    def inside(self, name):
        return self.depth.get(name, 0) > 0

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.logs = []
        self._patches = []         # (owner, attribute, original)

    def log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = ThreadLog(threading.get_ident())
            with self._lock:
                self.logs.append(log)
            self._local.log = log
        return log

    @contextlib.contextmanager
    def span(self, name):
        log = self.log()
        idx = log.open(name)
        try:
            yield
        finally:
            log.close(idx)

    # --- wrappers ----------------------------------------------------------
    def _spanned(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer.log()
            idx = log.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(idx)
        return wrapper

    def _integrand(self, f):
        tracer = self

        def integrand(x):
            log = tracer.log()
            n = int(np.size(x))
            name = ("quadrature.integrand.nested"
                    if log.inside("quadrature.integrand")
                    else "quadrature.integrand")
            if log.inside("functionals.full_report"):
                log.count("report_points", n)
            idx = log.open(name, n)
            try:
                return f(x)
            finally:
                log.close(idx)
        return integrand

    def _adaptive_quad(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            log = tracer.log()
            idx = log.open("quadrature.adaptive_quad")
            try:
                return fn(tracer._integrand(f), *args, **kwargs)
            finally:
                log.close(idx)
        return wrapper

    def _iron(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer.log()
            idx = log.open("screening.iron")
            try:
                curve = fn(*args, **kwargs)
            finally:
                log.close(idx)
            if curve.ironed_intervals:
                log.count("laws_ironed")
            return curve
        return wrapper

    def _quantile(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(dist, u):
            log = tracer.log()
            idx = log.open("distributions.quantile", int(np.size(u)))
            try:
                return fn(dist, u)
            finally:
                log.close(idx)
        return wrapper

    def _phi_bar(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(curve, v):
            log = tracer.log()
            log.count("phi_bar_calls")
            if log.inside("screening.bayes_optimal_mechanism"):
                log.count("cutoff_phi_bar_calls")
            return fn(curve, v)
        return wrapper

    # --- patching ------------------------------------------------------------
    def _replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "markup_guarantee" and not name.startswith(
                    "markup_guarantee."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _replace_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def install(self):
        """Wrap the program's layer functions; raises AttributeError if one
        of them no longer exists."""
        import markup_guarantee.cli  # noqa: F401  (loads every module)
        from markup_guarantee import (distributions, guarantees, quadrature,
                                      screening)
        for home, names in _SPANNED.items():
            module = sys.modules[f"markup_guarantee.{home}"]
            for name in names:
                fn = getattr(module, name)
                self._replace_everywhere(
                    fn, self._spanned(fn, f"{home}.{name}"))
        self._replace_everywhere(screening.iron, self._iron(screening.iron))
        self._replace_everywhere(quadrature.adaptive_quad,
                                 self._adaptive_quad(quadrature.adaptive_quad))
        for attr, fn in list(vars(guarantees).items()):
            if attr.startswith("verify_") and callable(fn):
                self._replace_everywhere(
                    fn, self._spanned(fn, "guarantees.verify"))
        for obj in list(vars(distributions).values()):
            if (isinstance(obj, type)
                    and issubclass(obj, distributions.ValueDistribution)
                    and obj is not distributions.ValueDistribution
                    and "quantile" in obj.__dict__):
                self._replace_method(obj, "quantile", self._quantile)
        self._replace_method(screening.VirtualValueCurve, "phi_bar",
                             self._phi_bar)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- results -------------------------------------------------------------
    def summary(self):
        """Per-name span totals and counters for this tracer's pass."""
        count, incl, self_s, points = {}, {}, {}, {}
        counters = {}
        for log in self.logs:
            child = [0.0] * len(log.spans)
            for name, t0, t1, parent, n in log.spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for i, (name, t0, t1, parent, n) in enumerate(log.spans):
                count[name] = count.get(name, 0) + 1
                incl[name] = incl.get(name, 0.0) + (t1 - t0)
                self_s[name] = self_s.get(name, 0.0) + (t1 - t0 - child[i])
                points[name] = points.get(name, 0) + n
            for k, v in log.counters.items():
                counters[k] = counters.get(k, 0) + v
        other, threads = self._command_coverage()
        return {"count": count, "incl": incl, "self": self_s,
                "points": points, "counters": counters,
                "cli_other_s": other, "cli_threads": threads}

    def _command_coverage(self):
        """Command time that no library span covers in any thread, and the
        most threads any command ran library spans on."""
        main = [log for log in self.logs
                if any(s[0] == "cli.command" for s in log.spans)]
        other = 0.0
        threads = 0
        for log in main:
            for ci, (name, c0, c1, _, _) in enumerate(log.spans):
                if name != "cli.command":
                    continue
                intervals = [(s[1], s[2]) for s in log.spans if s[3] == ci]
                used = {log.ident} if intervals else set()
                for w in self.logs:
                    if w is log:
                        continue
                    top = [(s[1], s[2]) for s in w.spans
                           if s[3] == -1 and c0 <= s[1] <= c1]
                    if top:
                        used.add(w.ident)
                        intervals += top
                covered, end = 0.0, c0
                for a, b in sorted(intervals):
                    a, b = max(a, end), min(b, c1)
                    if b > a:
                        covered += b - a
                        end = b
                other += (c1 - c0) - covered
                threads = max(threads, len(used))
        return other, threads

    def write_spans(self, path):
        t_ref = min((log.spans[0][1] for log in self.logs if log.spans),
                    default=0.0)
        with open(path, "w") as fh:
            for ti, log in enumerate(self.logs):
                for name, t0, t1, parent, n in log.spans:
                    fh.write(json.dumps(
                        {"thread": ti, "name": name, "start": t0 - t_ref,
                         "end": t1 - t_ref, "parent": parent, "points": n})
                        + "\n")


def _pass_metrics(s):
    c, inc, slf, pts, ctr = (s["count"], s["incl"], s["self"], s["points"],
                             s["counters"])
    g = lambda d, k: d.get(k, 0)
    reports = g(c, "functionals.full_report")
    return {
        "distributions.quantile_s": g(inc, "distributions.quantile"),
        "distributions.quantile_calls": g(c, "distributions.quantile"),
        "distributions.quantile_points": g(pts, "distributions.quantile"),
        "quadrature.calls": g(c, "quadrature.adaptive_quad"),
        "quadrature.evals": (g(pts, "quadrature.integrand")
                             + g(pts, "quadrature.integrand.nested")),
        "quadrature.self_s": g(slf, "quadrature.adaptive_quad"),
        "quadrature.integrand_s": g(inc, "quadrature.integrand"),
        "functionals.report_calls": reports,
        "functionals.report_s": g(inc, "functionals.full_report"),
        "functionals.profit_s": g(inc, "functionals.mechanism_profit"),
        "functionals.consumer_s": g(inc, "functionals.consumer_surplus"),
        "functionals.surplus_s": g(inc, "functionals.efficient_surplus"),
        "functionals.evals_per_report": (g(ctr, "report_points") / reports
                                         if reports else 0.0),
        "screening.iron_s": g(slf, "screening.iron"),
        "screening.cutoff_s": g(slf, "screening.bayes_optimal_mechanism"),
        "screening.cutoff_phi_bar_calls": g(ctr, "cutoff_phi_bar_calls"),
        "screening.laws_ironed": g(ctr, "laws_ironed"),
        "screening.oracle_s": g(inc, "screening.discrete_oracle"),
        "technology.root_calls": g(c, "technology._monotone_root"),
        "technology.root_s": g(inc, "technology._monotone_root"),
        "guarantees.verify_s": g(inc, "guarantees.verify"),
        "cli.command_s": g(inc, "cli.command"),
        "cli.other_s": s["cli_other_s"],
        "cli.threads": s["cli_threads"],
    }


def unit_of(name):
    return "s" if name.endswith("_s") else "count"


def layer_metrics(workload, tracers):
    """Median per-layer metrics over traced passes, and a list of problems
    (expected spans or counters that read zero)."""
    summaries = [t.summary() for t in tracers]
    per_pass = [_pass_metrics(s) for s in summaries]
    metrics = {name: {"value": statistics.median(p[name] for p in per_pass),
                      "unit": unit_of(name)}
               for name in per_pass[0]}
    problems = []
    for s in summaries:
        for name in EXPECTED_SPANS[workload]:
            if not s["count"].get(name):
                problems.append(f"no {name} span on {workload}")
        for name in EXPECTED_COUNTERS.get(workload, ()):
            if not s["counters"].get(name):
                problems.append(f"counter {name} is zero on {workload}")
    return metrics, sorted(set(problems))
