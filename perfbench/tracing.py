"""Per-layer spans and counters for a traced run, installed from outside.

Nothing under ``src/`` is edited: the tracer replaces public functions and
methods of the ``desing`` modules with timing or counting wrappers while a
traced pass runs, and restores them afterwards.  Modules import names
directly (``gnd`` binds ``find_desing_data`` from ``smooth``, ``cli`` binds
``desingularize`` from ``gnd``), so a function is replaced at every module
binding that refers to it, not only where it is defined.

A span records its calls, its inclusive time (outermost activation only, so
recursion is not counted twice) and its self time (inclusive time minus the
time of wrapped children).  A counter records calls only and costs less.
"""

import bisect
import sys
import time
from collections import Counter

ALL = frozenset({"certify", "lift", "groebner"})

# (span name, module, owner class or None, attribute, kind, must fire on)
TARGETS = [
    # linear-factor checks a * y' = b in series arithmetic, so the groebner
    # workload enters the series layer too
    ("series.mul", "series", "TruncatedSeries", "__mul__", "span", ALL),
    ("series.eval", "series", None, "series_eval", "span", ALL),
    ("series.divide_exact", "series", "TruncatedSeries", "divide_exact",
     "span", {"certify", "lift"}),
    ("series.weierstrass", "series", None, "weierstrass_prepare", "span",
     {"lift"}),
    ("groebner.buchberger", "groebner", None, "buchberger", "span", ALL),
    ("groebner.s_polynomial", "groebner", None, "s_polynomial", "span",
     {"certify", "groebner"}),
    ("groebner.division", "groebner", None, "division", "span", ALL),
    ("groebner.ideal_quotient", "groebner", None, "ideal_quotient", "span",
     ALL),
    ("groebner.module_groebner", "groebner", None, "module_groebner", "span",
     {"groebner"}),
    ("smooth.smoothing_ideal", "smooth", None, "smoothing_ideal", "span",
     {"certify"}),
    ("smooth.find_desing_data", "smooth", None, "find_desing_data", "span",
     {"certify"}),
    ("smooth.reduce_until_nonvanishing", "smooth", None,
     "reduce_until_nonvanishing", "span", {"certify"}),
    ("smooth.jacobian", "smooth", None, "jacobian", "count",
     {"certify", "lift"}),
    ("smooth.det", "smooth", None, "matrix_det", "count",
     {"certify", "lift"}),
    ("gnd.desingularize", "gnd", None, "desingularize", "span", {"certify"}),
    ("gnd.border_step", "gnd", None, "border_step", "span", {"certify"}),
    ("gnd.truncate_lift", "gnd", None, "truncate_lift", "span", {"certify"}),
    ("gnd.compute_s_b", "gnd", None, "compute_s_b", "span", {"certify"}),
    ("gnd.build_H_G", "gnd", None, "build_H_G", "span", {"certify"}),
    ("gnd.build_h_g", "gnd", None, "build_h_g", "span", {"certify"}),
    ("gnd.assemble", "gnd", None, "assemble_certificate", "span",
     {"certify"}),
    ("gnd.verify", "gnd", None, "verify_certificate", "span", {"certify"}),
    ("approx.newton_lift", "approx", None, "newton_lift", "span", {"lift"}),
    ("approx.linear_factor", "approx", None, "linear_factor", "span",
     {"groebner"}),
    ("approx.solve_linear", "approx", None, "solve_linear", "span",
     {"groebner"}),
    ("iofmt.parse_problem", "iofmt", None, "parse_problem", "span", ALL),
    ("iofmt.parse_certificate", "iofmt", None, "parse_certificate", "span",
     {"certify"}),
    ("iofmt.emit", "iofmt", None, "emit_certificate", "span", {"certify"}),
    ("iofmt.emit", "iofmt", None, "emit_ideal", "span", {"groebner"}),
    ("poly.parse", "poly", None, "parse_polynomial", "span", ALL),
    ("poly.mul", "poly", "Polynomial", "__mul__", "span", ALL),
    ("cli.main", "cli", None, "main", "span", ALL),
]
FIELD_CLASSES = ("RationalField", "PrimeField", "SimpleExtension")
FIELD_OPS = ("mul", "add", "invert")

# (metric, unit, statistic, span or counter): "calls", "total" (inclusive
# seconds) and "self" (seconds minus wrapped children) read a span;
# "count" reads a counter
METRICS = [
    ("series.mul_calls", "count", "calls", "series.mul"),
    ("series.mul_s", "s", "total", "series.mul"),
    ("series.mul_term_pairs", "count", "count", "term_pairs"),
    ("series.eval_calls", "count", "calls", "series.eval"),
    ("series.eval_s", "s", "total", "series.eval"),
    ("series.divide_exact_s", "s", "total", "series.divide_exact"),
    ("series.weierstrass_s", "s", "total", "series.weierstrass"),
    ("fields.mul_calls", "count", "count", "fields.mul"),
    ("fields.add_calls", "count", "count", "fields.add"),
    ("fields.invert_calls", "count", "count", "fields.invert"),
    ("groebner.buchberger_calls", "count", "calls", "groebner.buchberger"),
    ("groebner.buchberger_self_s", "s", "self", "groebner.buchberger"),
    ("groebner.spairs_reduced", "count", "calls", "groebner.s_polynomial"),
    ("groebner.zero_reduction_frac", "ratio", "share", "zero_reductions"),
    ("groebner.division_calls", "count", "calls", "groebner.division"),
    ("groebner.division_s", "s", "total", "groebner.division"),
    ("groebner.ideal_quotient_calls", "count", "calls",
     "groebner.ideal_quotient"),
    ("groebner.ideal_quotient_s", "s", "total", "groebner.ideal_quotient"),
    ("groebner.module_groebner_s", "s", "total", "groebner.module_groebner"),
    ("smooth.smoothing_ideal_calls", "count", "calls",
     "smooth.smoothing_ideal"),
    ("smooth.smoothing_ideal_s", "s", "total", "smooth.smoothing_ideal"),
    ("smooth.find_desing_data_s", "s", "total", "smooth.find_desing_data"),
    ("smooth.reduce_until_nonvanishing_s", "s", "total",
     "smooth.reduce_until_nonvanishing"),
    ("smooth.jacobian_calls", "count", "count", "smooth.jacobian"),
    ("smooth.det_calls", "count", "count", "smooth.det"),
    ("gnd.desingularize_self_s", "s", "self", "gnd.desingularize"),
    ("gnd.border_step_s", "s", "total", "gnd.border_step"),
    ("gnd.truncate_lift_s", "s", "total", "gnd.truncate_lift"),
    ("gnd.compute_s_b_s", "s", "total", "gnd.compute_s_b"),
    ("gnd.build_H_G_s", "s", "total", "gnd.build_H_G"),
    ("gnd.build_h_g_s", "s", "total", "gnd.build_h_g"),
    ("gnd.assemble_s", "s", "total", "gnd.assemble"),
    ("gnd.verify_calls", "count", "calls", "gnd.verify"),
    ("gnd.verify_s", "s", "total", "gnd.verify"),
    ("approx.newton_lift_self_s", "s", "self", "approx.newton_lift"),
    ("approx.newton_iterations", "count", "count", "newton_iterations"),
    ("approx.linear_factor_s", "s", "total", "approx.linear_factor"),
    ("approx.solve_linear_s", "s", "total", "approx.solve_linear"),
    ("iofmt.parse_problem_s", "s", "total", "iofmt.parse_problem"),
    ("iofmt.parse_certificate_s", "s", "total", "iofmt.parse_certificate"),
    ("iofmt.emit_s", "s", "total", "iofmt.emit"),
    ("iofmt.cert_bytes", "bytes", "count", "cert_bytes"),
    ("poly.parse_s", "s", "total", "poly.parse"),
    ("poly.mul_calls", "count", "calls", "poly.mul"),
    ("poly.mul_s", "s", "total", "poly.mul"),
    ("cli.main_self_s", "s", "self", "cli.main"),
]
UNIVERSAL = {name for name, *_, must in TARGETS if must == ALL}
# Per-layer metrics for the result line: every count, and the times of
# spans that every workload exercises.  The time of a layer that a
# workload never enters would read 0 on every run; it is printed only.
RECORDED = tuple(name for name, unit, _, key in METRICS
                 if unit != "s" or key in UNIVERSAL)
# counters that must repeat exactly between two traced passes
EXACT = ("series.mul_term_pairs", "fields.mul_calls", "fields.add_calls",
         "fields.invert_calls", "groebner.spairs_reduced",
         "smooth.jacobian_calls", "approx.newton_iterations",
         "iofmt.cert_bytes")


def _term_pairs(a, b):
    """Coefficient pairs of a*b whose degree lies below the precision."""
    prec = min(a.precision, b.precision)
    degs = sorted(sum(m) for m in b.terms)
    return sum(bisect.bisect_left(degs, prec - sum(m)) for m in a.terms)


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self._stack = []
        self._depth = Counter()
        self._patches = []
        self._last_spoly = None

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        calls, total, self_time = self.calls, self.total, self.self_time
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                calls[name] += 1
                self_time[name] += dt - frame[0]
                if not depth[name]:
                    total[name] += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks --------------------------------------------------------------

    def _hooks(self, name, attr):
        counts = self.counts
        if name == "series.mul":
            def before(args):
                counts["term_pairs"] += _term_pairs(args[0], args[1])
            return before, None
        if name == "groebner.s_polynomial":
            def after(args, result):
                self._last_spoly = result
            return None, after
        if name == "groebner.division":
            def after(args, result):
                if args[0] is self._last_spoly:
                    self._last_spoly = None
                    if not isinstance(result, tuple) and result.is_zero():
                        counts["zero_reductions"] += 1
            return None, after
        if name == "approx.newton_lift":
            def after(args, result):
                counts["newton_iterations"] += result.iterations
            return None, after
        if attr == "emit_certificate":
            def after(args, result):
                counts["cert_bytes"] += len(result.encode("utf-8"))
            return None, after
        return None, None

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "desing" or n.startswith("desing.")]
        for name, modname, owner, attr, kind, _ in TARGETS:
            module = sys.modules[f"desing.{modname}"]
            if owner is not None:
                cls = getattr(module, owner)
                self._replace(cls, attr, self._wrap(name, attr, kind,
                                                    cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, attr, kind, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        fields = sys.modules["desing.fields"]
        for clsname in FIELD_CLASSES:
            cls = getattr(fields, clsname)
            for op in FIELD_OPS:
                self._replace(cls, op, self._counter(f"fields.{op}",
                                                     cls.__dict__[op]))

    def _wrap(self, name, attr, kind, fn):
        if kind == "count":
            return self._counter(name, fn)
        before, after = self._hooks(name, attr)
        return self._span(name, fn, before, after)

    def _replace(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """{metric: (value, unit)} for every entry of ``METRICS``."""
        read = {"calls": self.calls, "total": self.total,
                "self": self.self_time, "count": self.counts}
        spairs = self.calls["groebner.s_polynomial"]
        out = {}
        for name, unit, stat, key in METRICS:
            if stat == "share":
                value = self.counts[key] / spairs if spairs else 0.0
            else:
                value = read[stat][key]
            out[name] = (value, unit)
        return out

    def silent_spans(self, workload):
        """Declared spans and counters that never fired on ``workload``."""
        fired = set(self.calls) | set(self.counts)
        names = {name for name, *_, must in TARGETS if workload in must}
        names |= {f"fields.{op}" for op in FIELD_OPS}
        return sorted(names - fired)
