"""The benchmark's tracing hooks (perfbench/tracing.py) against the library:
every hooked attribute still resolves to a callable, the F_l cache still
reports its hits, and traced kernel and extension calls give a finite
number for every per-layer metric that BENCHMARK.json names, with every
counter hook run. A hook that no longer resolves makes its metrics null,
which the benchmark's result line cannot carry. The kernel-series workload
also reads report-prop18.txt; its status and constants must still hold the
benchmark's reference values. Each workload's traced worker must end
with a result line that strict JSON can carry. A zonal extension's
evaluation makes one fl_deriv call per radial order, not one per degree,
and each kernel suite one series call per grid, not one per delta, with
no per-degree F_l call."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hyperharm.errors import TruncationWarning

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


def _package():
    names = ("cli", "verify", "functionals", "harmonic", "geometry",
             "kernels", "specfun")
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"hyperharm.{name}") for name in names})


@pytest.mark.parametrize("module,path",
                         [(module, path) for _, module, path, _ in
                          tracing.HOOKS])
def test_hook_resolves_to_callable(module, path):
    owner = importlib.import_module(f"hyperharm.{module}")
    *head, last = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    fn = owner.__dict__[last] if isinstance(owner, type) \
        else getattr(owner, last)
    assert callable(fn)


def test_fl_cache_info():
    from hyperharm import kernels as ker

    before = ker._Fl_scalar.cache_info()
    ker._Fl_scalar(3, 5, 0.25)
    ker._Fl_scalar(3, 5, 0.25)
    after = ker._Fl_scalar.cache_info()
    assert after.hits >= before.hits + 1


def _assert_layer_metrics_finite(layer):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # trace.overhead_s is the traced pass's wall time minus the untraced
    # one's, added by run.py
    for metric in spec["per_layer"]:
        if metric["name"] == "trace.overhead_s":
            continue
        value = layer[metric["name"]]["value"]
        assert isinstance(value, (int, float)), metric["name"]
        assert math.isfinite(value), metric["name"]


def test_traced_call_gives_every_layer_metric():
    hh = _package()
    tracer = tracing.Tracer()
    cache0 = hh.kernels._Fl_scalar.cache_info()
    pole = np.array([1.0, 0.0, 0.0])
    u = hh.harmonic.extend(hh.harmonic.ZonalExpansion(3, pole, [0.5, 1.0,
                                                                0.25]))
    t = np.linspace(-1, 1, 5)
    hooks = tracing.Hooks(hh, tracer)
    try:
        hh.kernels.poisson_hyp_series_rt(3, 0.5, t, 0.5)
        # f_l at delta^2 r^2 = 0.25 (series) and 0.9604 (Euler integral)
        u.eval_rt(np.array([0.5, 0.98]), t[:2])
        hh.harmonic.gradient_sq(u)(np.array([[0.3, 0.2, 0.1],
                                             [0.0, 0.97, 0.0]]))
    finally:
        hooks.close()
    cache1 = hh.kernels._Fl_scalar.cache_info()
    assert hooks.missing == {}
    layer = tracing.layer_values(tracer, hooks, cache0, cache1)
    _assert_layer_metrics_finite(layer)
    assert layer["kernels.poisson_hyp_series_rt.calls"]["value"] == 1
    for name in ("specfun.fl_deriv.points", "specfun.route.series.points",
                 "specfun.route.euler.points"):
        assert layer[name]["value"] > 0, name


def test_eval_rt_makes_one_fl_deriv_call_per_radial_order():
    # every degree of a degree-256 extension at one radius, on both routes
    hh = _package()
    rng = np.random.default_rng(0)
    u = hh.harmonic.extend(hh.harmonic.random_zonal(3, 256, rng, decay=1.5))
    t = np.linspace(-1.0, 1.0, 7)
    for v in (u, hh.harmonic.apply_N(u, 2)):
        orders = max(len(rad.polys) for rad, _ in v.modes)
        for r in (0.5, 0.98):
            tracer = tracing.Tracer()
            hooks = tracing.Hooks(hh, tracer)
            try:
                v.eval_rt(r, t)
            finally:
                hooks.close()
            assert hooks.missing == {}
            assert tracer.counts.get("specfun.fl_deriv.calls", 0) <= orders
            assert tracer.counts.get("harmonic.RadialPart.evaluate.calls",
                                     0) == 0


@pytest.mark.parametrize("suite,calls", [("suite_prop18", 2),
                                         ("suite_kernel_consistency", 8)])
def test_suite_makes_one_series_call_per_grid(suite, calls):
    # every delta of a grid goes into one kernel series call (prop18's fine
    # grid holds its base grid), and each block of a call takes its
    # normalisers F_l(delta^2) in its one F_l call: the per-degree cache is
    # left unused, and the 2F1 series makes far fewer calls than the
    # thousands of one call per degree
    from hyperharm.config import RunConfig
    hh = _package()
    hh.kernels._Fl_scalar.cache_clear()
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(hh, tracer)
    try:
        getattr(hh.verify, suite)(RunConfig(seed=42))
    finally:
        hooks.close()
    assert hooks.missing == {}
    assert tracer.counts["kernels.poisson_hyp_series_rt.calls"] == calls
    assert hh.kernels._Fl_scalar.cache_info().misses == 0
    assert tracer.counts["specfun.route.series.calls"] <= 150


def test_prop18_report_matches_benchmark_reference(tmp_path):
    from hyperharm import cli
    doc = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    ref = doc["values"]["kernel-series"]["42"]
    # at n = 4 the pair (r 0.95, t -1) stops at the series' degree cap
    with pytest.warns(TruncationWarning):
        code = cli.main(["verify", "prop18", "--n", "4", "--seed", "42",
                         "--out", str(tmp_path)])
    assert code == ref["prop18.exit_code"]
    with open(tmp_path / "report-prop18.txt") as fh:
        report = json.load(fh)
    assert report["status"] == ref["prop18.status"]
    consts = {k: v for k, v in ref.items() if k.startswith("prop18.")
              and k not in ("prop18.exit_code", "prop18.status")}
    assert consts
    for key, want in consts.items():
        got = report["constants"][key[len("prop18."):]]
        assert abs(got - want) <= doc["rtol"] * abs(want) + doc["atol"], key


def _refuse_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("workload",
                         ["kernel-series", "cone-functionals", "high-degree"])
def test_traced_worker_line_is_strict_json(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
         "0", str(tmp_path), "traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = proc.stdout.strip().splitlines()[-1]
    doc = json.loads(line, parse_constant=_refuse_constant)
    assert doc["hooks_missing"] == {}
    _assert_layer_metrics_finite(doc["trace"])
