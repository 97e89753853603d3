"""The three benchmark workloads.

Each workload has ``prepare(hh, seed, out_dir)``, which builds the inputs
from the seed (counted as set-up), and ``run(state)``, one timed pass that
returns the gated values: a flat dict of name -> float or status string.
``hh`` is a namespace holding the imported hyperharm modules.

Why these three: each stresses a different layer, and each is the "no
change" control for the others (see README.md for the layer map).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

# kernel-series: prop18 at an even dimension (terminating F_l, the long-
# double series at its 1024-term cap), then `hyperharm kernel --kind
# hyp-delta` calls. The KERNEL_FILL call at odd n fills the F_l cache by
# the plain series; its r stays below the range where odd n needs the (very
# slow) mpmath fallback. The KERNEL_MP call, at n = 6 and r = 0.9, sends
# about a fifth of its angles to the mpmath fallback. Each pass is a few
# seconds, so a run holds enough passes for a steady median.
KERNEL_PROP18_N = 4
KERNEL_FILL = (3, 0.82, 0.95, 200)
KERNEL_MP = (6, 0.9, 1.0, 30)

# cone-functionals: theorem-a's base cone and aperture on a coarser boundary
# grid (degree 8, five cones, not 16), so that a pass takes a few seconds
# and a run holds enough passes for a steady median. At theorem-a's
# refine_tol 0.05 some seeds refine the cone one step more than the rest;
# 0.15 gives every seed the same number of refinements.
CONE_GRIDS = ((8, (8, 3, 4, 4)),)
CONE_ALPHA = 0.5
CONE_PS = (0.8, 1.0, 1.5)
CONE_REFINE_TOL = 0.15

# high-degree: lipschitz's degree and ladder radii, on a quarter of its
# angle grid (HIGH_ANGLES uniform angles plus HIGH_T0_ANGLES around t0).
# Radii 1 - 2^-m for m = 2..4 take the series route, m = 5 the Euler route.
# The gradient, which costs most, is taken on the Euler route only.
HIGH_LMAX = 256
HIGH_T0 = 0.2
HIGH_LADDER = (2, 3, 4, 5)
HIGH_GRAD_LADDER = (5,)
HIGH_ANGLES = 201
HIGH_T0_ANGLES = 101


def _kernel_series_prepare(hh, seed, out_dir):
    rng = np.random.default_rng(seed)
    # the seed moves each call a little, so the work (degrees summed, F_l
    # arguments filled, mpmath points) stays about the same from seed to
    # seed. The last field is the stride of the gated values.
    n, r, delta, degree = KERNEL_FILL
    fill = (n, round(r + rng.uniform(-0.002, 0.002), 6),
            round(delta + rng.uniform(-0.005, 0.005), 6),
            degree + int(rng.integers(-4, 5)), 5)
    n, r, delta, degree = KERNEL_MP
    mp = (n, r, delta, degree + int(rng.integers(-4, 5)), 1)
    return {"hh": hh, "seed": seed, "out_dir": out_dir, "calls": (fill, mp)}


def _kernel_series_run(state):
    hh, out_dir = state["hh"], state["out_dir"]
    values = {}
    with contextlib.redirect_stdout(io.StringIO()):
        code = hh.cli.main(["verify", "prop18", "--n", str(KERNEL_PROP18_N),
                            "--seed", str(state["seed"]), "--out", out_dir])
    values["prop18.exit_code"] = float(code)
    with open(os.path.join(out_dir, "report-prop18.txt")) as fh:
        doc = json.load(fh)
    values["prop18.status"] = doc["status"]
    for key, val in doc["constants"].items():
        values[f"prop18.{key}"] = val
    for i, (n, r, delta, degree, every) in enumerate(state["calls"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hh.cli.main(["kernel", "--kind", "hyp-delta", "--n",
                                str(n), "--r", repr(r), "--delta",
                                repr(delta), "--grid-degree", str(degree)])
        values[f"kernel{i}.exit_code"] = float(code)
        rows = buf.getvalue().splitlines()[1:]
        tv = np.array([[float(x) for x in row.split(",")] for row in rows])
        # the kernel is positive and spans many decades, so its logarithm
        # is gated (NaN, a failed check, where it is not positive) and the
        # check is relative at every magnitude. Every value near t = -1,
        # where the series cancels (the mpmath fallback's region), and
        # every `every`-th one elsewhere.
        for j, (t, v) in enumerate(tv):
            if t <= -0.8 or j % every == 0:
                values[f"kernel{i}.log_v{j}"] = \
                    math.log(v) if v > 0 else math.nan
        values[f"kernel{i}.sum"] = float(np.sum(tv[:, 1]))
    return values


def _cone_prepare(hh, seed, out_dir):
    fn, hm = hh.functionals, hh.harmonic
    rng = np.random.default_rng(seed)
    cases = []
    for n in (3, 4):
        u = hm.extend(hm.random_zonal(n, 6, rng))
        for degree, spec in CONE_GRIDS:
            grid = fn.functional_grid(n, degree=degree, ladder_depth=12,
                                      cone=fn.ConeSpec(*spec))
            cases.append((f"n{n}.deg{degree}", u, grid))
    return {"fn": fn, "cases": cases}


def _cone_run(state):
    fn = state["fn"]
    values = {}
    for label, u, grid in state["cases"]:
        results = {
            "Malpha": fn.cone_max(u, CONE_ALPHA, grid),
            "S": fn.area_integral(u, CONE_ALPHA, grid,
                                  refine_tol=CONE_REFINE_TOL),
            "SN": fn.area_integral(u, CONE_ALPHA, grid, radial_only=True,
                                   refine_tol=CONE_REFINE_TOL),
            "g": fn.littlewood_paley_g(u, grid),
            "gN": fn.littlewood_paley_g(u, grid, radial_only=True),
        }
        for kind, res in results.items():
            for p in CONE_PS:
                values[f"{label}.{kind}.p{p}"] = res.quasinorm(p)
    return values


def _high_prepare(hh, seed, out_dir):
    hm = hh.harmonic
    rng = np.random.default_rng(seed)
    # coefficients decaying like a Hoelder-continuous profile's, so the
    # extension is rough at the boundary and every degree matters
    u = hm.extend(hm.random_zonal(3, HIGH_LMAX, rng, decay=1.5))
    tg = np.unique(np.clip(np.concatenate([
        np.linspace(-1.0, 1.0, HIGH_ANGLES),
        HIGH_T0 + np.linspace(-0.05, 0.05, HIGH_T0_ANGLES)]), -1.0, 1.0))
    radii = 1.0 - 0.5 ** np.array(HIGH_LADDER, dtype=float)
    return {"hm": hm, "u": u, "tg": tg, "radii": radii}


def _high_run(state):
    hm, u, tg, radii = state["hm"], state["u"], state["tg"], state["radii"]
    values = {}
    rim = np.append(radii, 1.0 - 0.5 * (1.0 - radii[-1]))
    vals = [u.eval_rt(r, tg) for r in rim]
    for m, a, b in zip(HIGH_LADDER, vals[:-1], vals[1:]):
        values[f"sup_dyadic_diff.m{m}"] = float(np.max(np.abs(b - a)))
    g2 = hm.gradient_sq(u)
    circle = np.column_stack([tg, np.sqrt(np.maximum(0.0, 1.0 - tg ** 2)),
                              np.zeros_like(tg)])
    for m in HIGH_GRAD_LADDER:
        r = 1.0 - 0.5 ** m
        values[f"scaled_grad_sup.m{m}"] = \
            (1.0 - r) * float(np.sqrt(np.max(g2(r * circle))))
    return values


WORKLOADS = {
    "kernel-series": (_kernel_series_prepare, _kernel_series_run),
    "cone-functionals": (_cone_prepare, _cone_run),
    "high-degree": (_high_prepare, _high_run),
}
