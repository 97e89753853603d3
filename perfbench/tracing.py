"""Outside-in tracing of the hyperharm layers.

Each hook replaces one module (or class) attribute with a wrapper that
records a span (name, start, end, parent id) and counters, then restores the
original when the trace ends. Library code calls its collaborators through
module attributes (``sf.fl_deriv``, ``geo.cone_quadrature``, ...) or
module globals, so replacing the attribute is enough; no file under ``src/``
is touched.

A hook whose attribute no longer resolves is reported as missing, with the
reason, for every metric it feeds; it is never reported as zero.
"""

from __future__ import annotations

import threading
import time

import numpy as np


class Tracer:
    """Spans and counters kept in memory until the traced pass ends."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.counts = {}
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value=1):
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name, fn, args, kwargs):
        stack = self._stack()
        # pool threads start with an empty stack; their logical parent is
        # the span the main thread has open while it waits on the pool
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            sid = len(self.spans)
            rec = [sid, parent, name, time.perf_counter(), None]
            self.spans.append(rec)
        stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            stack.pop()

    def self_times(self) -> dict:
        """Per-name sums of self time (duration minus the union of the
        intervals covered by direct children) and of inclusive time."""
        children = {}
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        self_s, incl_s = {}, {}
        for sid, _, name, start, end in self.spans:
            covered = 0.0
            cursor = start
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, cursor), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    cursor = ce
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
            incl_s[name] = incl_s.get(name, 0.0) + (end - start)
        return self_s, incl_s

    def ancestors_named(self, sid, name) -> bool:
        parent = self.spans[sid][1]
        while parent is not None:
            if self.spans[parent][2] == name:
                return True
            parent = self.spans[parent][1]
        return False


def _size(x) -> int:
    return int(np.size(x))


def _fl_deriv_counts(tr, args, kwargs, out):
    x = args[2] if len(args) > 2 else kwargs["x"]
    tr.add("specfun.fl_deriv.points", _size(x))
    tr.add("specfun.fl_deriv.distinct_points", int(np.unique(x).size))


def _route_counts(route):
    def count(tr, args, kwargs, out):
        x = args[3] if len(args) > 3 else kwargs["x"]
        tr.add(f"specfun.route.{route}.points", _size(x))
    return count


def _cone_counts(tr, args, kwargs, out):
    tr.add("geometry.cone_quadrature.points", len(out.points))


def _eval_points_counts(tr, args, kwargs, out):
    pts = args[1] if len(args) > 1 else kwargs["pts"]
    tr.add("harmonic.eval_points.points", len(np.atleast_2d(pts)))


def _radial_counts(tr, args, kwargs, out):
    r = args[1] if len(args) > 1 else kwargs["r"]
    tr.add("harmonic.RadialPart.evaluate.points", _size(r))


def _area_counts(tr, args, kwargs, out):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    tr.add("functionals.area_integral.node_passes",
           len(grid.boundary.nodes))


def _series_rt_counts(tr, args, kwargs, out):
    r = args[1] if len(args) > 1 else kwargs["r"]
    t = args[2] if len(args) > 2 else kwargs["t"]
    tr.add("kernels.poisson_hyp_series_rt.points",
           int(np.broadcast(np.asarray(r), np.asarray(t)).size))


def _mp_counts(tr, args, kwargs, out):
    tr.add("kernels.mp_fallback.points")


# (span name, module, attribute path, counter hook or None). The span name
# is also the metric prefix; ".calls" counts every call.
HOOKS = (
    ("cli.main", "cli", "main", None),
    ("verify.run_suite", "verify", "run_suite", None),
    ("verify.write_reports", "verify", "write_reports", None),
    ("functionals.cone_max", "functionals", "cone_max", None),
    ("functionals.area_integral", "functionals", "area_integral",
     _area_counts),
    ("functionals.littlewood_paley_g", "functionals", "littlewood_paley_g",
     None),
    ("harmonic.eval_points", "harmonic", "HarmonicFunction.eval_points",
     _eval_points_counts),
    ("harmonic.eval_rt", "harmonic", "HarmonicFunction.eval_rt", None),
    ("harmonic.RadialPart.evaluate", "harmonic", "RadialPart.evaluate",
     _radial_counts),
    ("geometry.cone_quadrature", "geometry", "cone_quadrature", _cone_counts),
    ("geometry.cone_polar_cut", "geometry", "cone_polar_cut", None),
    ("kernels.poisson_hyp_series_rt", "kernels", "poisson_hyp_series_rt",
     _series_rt_counts),
    ("kernels.mp_fallback", "kernels", "_series_point_mp", _mp_counts),
    ("specfun.fl_deriv", "specfun", "fl_deriv", _fl_deriv_counts),
    ("specfun.route.series", "specfun", "_series_2f1",
     _route_counts("series")),
    ("specfun.route.euler", "specfun", "_euler_2f1", _route_counts("euler")),
)


def _resolve(owner, path):
    *head, last = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, last


def _wrap(tr, name, fn, count):
    def wrapper(*args, **kwargs):
        tr.add(f"{name}.calls")
        out = tr.span(name, fn, args, kwargs)
        if count is not None:
            # a span of its own, so counting (np.unique over millions of
            # points) is not charged to the caller's self time
            tr.span("trace.count", count, (tr, args, kwargs, out), {})
        return out
    wrapper.__wrapped__ = fn
    return wrapper


class Hooks:
    """Installs every resolvable hook; ``missing`` maps each span name that
    could not be hooked to the reason."""

    def __init__(self, package, tracer):
        self.missing = {}
        self._restore = []
        for name, module, path, count in HOOKS:
            where = f"hyperharm.{module}.{path}"
            try:
                owner, attr = _resolve(getattr(package, module), path)
                fn = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing[name] = f"{where} no longer resolves"
                continue
            if not callable(fn):
                self.missing[name] = f"{where} is not callable"
                continue
            setattr(owner, attr, _wrap(tracer, name, fn, count))
            self._restore.append((owner, attr, fn))
        # run_suite calls each suite through the SUITES dict
        self._suites = getattr(package.verify, "SUITES", None)
        self._saved = {}
        if isinstance(self._suites, dict):
            self._saved = dict(self._suites)
            for key, fn in self._saved.items():
                self._suites[key] = _wrap(tracer, f"verify.suite.{key}", fn,
                                          None)
        else:
            self.missing["verify.suite"] = \
                "hyperharm.verify.SUITES is no longer a dict"

    @property
    def suite_names(self):
        return list(self._saved)

    def close(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        if self._saved:
            self._suites.update(self._saved)


def _cone_builds_in_area(tr) -> int:
    return sum(1 for sid, _, name, _, _ in tr.spans
               if name == "geometry.cone_quadrature"
               and tr.ancestors_named(sid, "functionals.area_integral"))


def layer_values(tr, hooks, cache0, cache1) -> dict:
    """Every layer metric the trace can give, as name -> {"value": v} or
    {"value": None, "missing": reason}. Times are seconds, self time unless
    the name ends in ``_incl``."""
    missing = hooks.missing
    self_s, incl_s = tr.self_times()
    out = {}

    def put(name, sources, value):
        gone = [missing[s] for s in sources if s in missing]
        out[name] = ({"value": None, "missing": "; ".join(gone)} if gone
                     else {"value": value})

    def count(key):
        return tr.counts.get(key, 0)

    for name, *_ in HOOKS:
        put(f"{name}.calls", [name], count(f"{name}.calls"))
        put(f"{name}.s", [name], self_s.get(name, 0.0))
    for key in ("specfun.fl_deriv.points", "specfun.fl_deriv.distinct_points",
                "specfun.route.series.points", "specfun.route.euler.points",
                "geometry.cone_quadrature.points",
                "harmonic.eval_points.points",
                "harmonic.RadialPart.evaluate.points",
                "functionals.area_integral.node_passes",
                "kernels.poisson_hyp_series_rt.points",
                "kernels.mp_fallback.points"):
        put(key, [key.rsplit(".", 1)[0]], count(key))
    put("cli.main.s_incl", ["cli.main"], incl_s.get("cli.main", 0.0))
    for suite in hooks.suite_names:
        put(f"verify.suite_s_incl.{suite}", [],
            incl_s.get(f"verify.suite.{suite}", 0.0))
    put("functionals.area_integral.cone_builds",
        ["functionals.area_integral", "geometry.cone_quadrature"],
        _cone_builds_in_area(tr))
    fl = None
    if cache0 is None or cache1 is None:
        reason = "hyperharm.kernels._Fl_scalar has no cache_info"
        for key in ("hits", "misses", "hit_ratio"):
            out[f"kernels.Fl_scalar.{key}"] = {"value": None,
                                               "missing": reason}
    else:
        fl = (cache1.hits - cache0.hits, cache1.misses - cache0.misses)
        out["kernels.Fl_scalar.hits"] = {"value": fl[0]}
        out["kernels.Fl_scalar.misses"] = {"value": fl[1]}

    def ratio(name, num, den, why):
        a, b = out[num], out[den]
        if a["value"] is None or b["value"] is None:
            out[name] = {"value": None,
                         "missing": a.get("missing") or b.get("missing")}
        elif b["value"] == 0:
            out[name] = {"value": None, "missing": why}
        else:
            out[name] = {"value": a["value"] / b["value"]}

    ratio("specfun.fl_deriv.distinct_x_ratio",
          "specfun.fl_deriv.distinct_points", "specfun.fl_deriv.points",
          "no fl_deriv points on this workload")
    ratio("functionals.area_integral.cone_builds_per_node",
          "functionals.area_integral.cone_builds",
          "functionals.area_integral.node_passes",
          "no area_integral calls on this workload")
    if fl is not None:
        out["kernels.Fl_scalar.hit_ratio"] = (
            {"value": fl[0] / sum(fl)} if sum(fl) else
            {"value": None, "missing": "no F_l cache lookups on this workload"})
    return out
