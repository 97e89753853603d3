"""Acceptance gate: the eleven headline checks, each timed against its
runtime budget and printing one pass/fail line."""

import math
import os
import subprocess
import sys
import time

import numpy as np

from hyperharm import harmonic as hm
from hyperharm import kernels as ker
from hyperharm import verify as vf
from hyperharm.config import RunConfig
from hyperharm.geometry import sphere_quadrature

RESULTS = []


def _criterion(num, name, ok, detail, elapsed, budget):
    in_budget = budget is None or elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    tail = f"{elapsed:.1f}s" + ("" if budget is None
                                else f" / budget {budget:.0f}s")
    line = f"[criterion {num:02d}] {name}: {status} ({detail}; {tail})"
    RESULTS.append(line)
    print(line)
    assert ok, line
    assert in_budget, line


def test_criterion_01_kernel_agreement():
    start = time.perf_counter()
    t = np.linspace(-1.0, 1.0, 101)
    worst = 0.0
    for n in (3, 4, 5, 6):
        for r in (0.3, 0.6, 0.9):
            s1 = ker.poisson_hyp_series_rt(n, r, t, 1.0)
            s0 = ker.poisson_hyp_series_rt(n, r, t, 0.0)
            h = ker.poisson_hyp_rt(n, r, t)
            e = ker.poisson_euclid_rt(n, r, t)
            worst = max(worst,
                        float(np.max(np.abs(s1 - h) / h)),
                        float(np.max(np.abs(s0 - e) / e)))
    elapsed = time.perf_counter() - start
    _criterion(1, "kernel series vs closed forms", worst <= 1e-8,
               f"max relative residual {worst:.2e} <= 1e-8", elapsed, 10.0)


def test_criterion_02_unit_mass():
    start = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 6):
        grid = sphere_quadrature(n, 300)
        t = grid.nodes @ grid.pole
        for delta in (0.0, 0.5, 1.0):
            for r in (0.3, 0.6, 0.9):
                v = ker.poisson_hyp_series_rt(n, r, t, delta, cap=1024,
                                              mp_amplification=np.inf)
                worst = max(worst, abs(grid.integrate(v) - 1.0))
    elapsed = time.perf_counter() - start
    _criterion(2, "interpolating-kernel unit mass", worst <= 1e-7,
               f"max mass error {worst:.2e} <= 1e-7", elapsed, 10.0)


def test_criterion_03_even_dimension_reconstruction():
    start = time.perf_counter()
    # radius capped where the kernel stays ~1e4: the identity is exact, and
    # beyond this the absolute tolerance drowns in double-precision roundoff
    # on kernel values that reach 1e8
    r = np.linspace(0.05, 0.78, 25)
    t = np.linspace(-1.0, 1.0, 40)
    rr, tt = np.meshgrid(r, t)
    worst = 0.0
    for n in (4, 6):
        dec = ker.lemma3_build(n)
        got = dec.reconstruct(rr, tt)
        want = ker.poisson_hyp_rt(n, rr, tt)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _criterion(3, "even-n kernel decomposition", worst <= 1e-9,
               f"max absolute residual {worst:.2e} <= 1e-9 on 1000 points",
               elapsed, 10.0)


def test_criterion_04_radial_transfer():
    start = time.perf_counter()
    worst = 0.0
    c_spread = 0.0
    for n in (3, 4, 5):
        cs = [ker.calibrate_eta_constant(n, r) for r in (0.1, 0.9)]
        c_spread = max(c_spread, abs(cs[0] - cs[1]) / abs(cs[0]))
        for r in (0.1, 0.3, 0.5, 0.7, 0.9):
            for t in (-0.8, -0.2, 0.4, 0.95):
                got = ker.transfer_integral(
                    lambda s: ker.poisson_hyp_rt(n, s * r, t), r, n)
                want = float(ker.poisson_euclid_rt(n, r, t))
                worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and c_spread <= 1e-6
    _criterion(4, "hyperbolic-to-Euclidean transfer", ok,
               f"max defect {worst:.2e} <= 1e-6, constant spread "
               f"{c_spread:.2e} <= 1e-6", elapsed, 30.0)


def test_criterion_05_fd_residual_order():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    orders = []
    for n in (3, 4):
        u = hm.extend(hm.random_zonal(n, 6, rng))

        def f(x, _u=u):
            return float(_u.eval_points(np.atleast_2d(x))[0])

        pts = rng.standard_normal((25, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(0.2, 0.7, (25, 1))
        orders.append(hm.fd_order(f, pts, n))
    elapsed = time.perf_counter() - start
    ok = all(abs(o - 2.0) <= 0.2 for o in orders)
    _criterion(5, "finite-difference residual order", ok,
               f"observed orders {[round(o, 3) for o in orders]} in "
               "2.0 +/- 0.2 at 50 points", elapsed, 20.0)


def test_criterion_06_green_formula():
    start = time.perf_counter()
    rep = vf.suite_green(RunConfig(seed=0))
    elapsed = time.perf_counter() - start
    worst = max(c.value for c in rep.checks)
    _criterion(6, "invariant Green formula", rep.status == "pass",
               f"max discrepancy {worst:.2e} <= 1e-5 on "
               "B(0,0.5) and B(0,0.7)", elapsed, 60.0)


def test_criterion_07_operator_identities():
    start = time.perf_counter()
    rep = vf.suite_operator_identities(RunConfig(seed=0))
    elapsed = time.perf_counter() - start
    gated = {c.name: c.value for c in rep.checks}
    inv = gated.pop("inversion_roundtrip_max")
    ident = max(gated.values())
    ok = rep.status == "pass" and ident <= 1e-8 and inv <= 1e-6
    _criterion(7, "operator identities", ok,
               f"identity residual {ident:.2e} <= 1e-8, "
               f"inversion roundtrip {inv:.2e} <= 1e-6", elapsed, 10.0)


def test_criterion_08_kernel_bounds():
    start = time.perf_counter()
    rep = vf.suite_prop18(RunConfig(seed=0))
    elapsed = time.perf_counter() - start
    ok = (rep.status == "pass"
          and rep.constants["upper_bound_drift"] <= 0.05
          and rep.constants["lower_bound_alpha_0.1"] > 0.0)
    _criterion(8, "kernel comparison bounds", ok,
               f"upper constant {rep.constants['upper_bound_constant']:.3f} "
               f"with drift {rep.constants['upper_bound_drift']:.3f} <= 0.05, "
               f"lower bound {rep.constants['lower_bound_alpha_0.1']:.3f} > 0",
               elapsed, 30.0)


def test_criterion_09_functional_norm_bands():
    start = time.perf_counter()
    rep = vf.suite_theoremA(RunConfig(seed=0))
    elapsed = time.perf_counter() - start
    ok = (rep.status == "pass"
          and rep.constants["max_band_spread"] <= 1e3
          and rep.constants["max_refinement_drift"] <= 0.10)
    _criterion(9, "functional norm-equivalence bands", ok,
               f"max spread {rep.constants['max_band_spread']:.2f} <= 1e3, "
               f"drift {rep.constants['max_refinement_drift']:.3f} <= 0.10",
               elapsed, 300.0)


def test_criterion_10_lipschitz_exponents():
    start = time.perf_counter()
    rep = vf.suite_lipschitz(RunConfig(seed=0))
    elapsed = time.perf_counter() - start
    slope_err = max(abs(rep.constants[f"gamma{g}-k{k}"] - g)
                    for g in (0.3, 0.5, 0.7) for k in (0, 1))
    kernel_err = abs(rep.constants["kernel-gradient"] + 3.0)
    ok = (rep.status == "pass" and slope_err <= 0.1
          and kernel_err <= 0.15)
    _criterion(10, "Lipschitz decay exponents", ok,
               f"max slope error {slope_err:.3f} <= 0.1, kernel-gradient "
               f"slope error {kernel_err:.3f} <= 0.15", elapsed, 120.0)


def test_criterion_11_verify_determinism(tmp_path):
    start = time.perf_counter()
    outs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "hyperharm.cli", "verify", "all",
             "--seed", "42", "--out", str(out_dir)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(out_dir)
    names = sorted(os.listdir(outs[0]))
    same = (names == sorted(os.listdir(outs[1]))
            and all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                    for f in names))
    elapsed = time.perf_counter() - start
    _criterion(11, "verify-all determinism", same,
               f"{len(names)} report files byte-identical across two runs",
               elapsed, None)
