"""Named verification suites: each one turns a proved identity, inequality,
or norm equivalence into measurable residuals, bands, or convergence orders
and produces a SuiteReport.

Each suite states every gate it applies once, as a Check, and its status is
derived from those checks: fail if any check fails, otherwise pass (or info
for the band suites, whose measured constants carry no gate of their own).
All randomness flows from the configured seed, and reports exclude
wall-clock data so that repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import functionals as fn
from . import geometry as geo
from . import harmonic as hm
from . import kernels as ker
from . import specfun as sf
from .config import RunConfig
from .geometry import ConeRegion

# every comparison is False for NaN, so a NaN value fails any check
_COMPARATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                "==": operator.eq,
                "finite": lambda value, _: math.isfinite(value)}


@dataclass(frozen=True)
class Check:
    """One gate: value comparator bound (bound None for "finite")."""

    name: str
    value: float
    comparator: str
    bound: float | None = None

    @property
    def passed(self) -> bool:
        return bool(_COMPARATORS[self.comparator](self.value, self.bound))


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    seed: int = 0
    notes: list = field(default_factory=list)
    informational: bool = False  # a band suite: info, not pass

    @property
    def status(self) -> str:  # pass | fail | info
        if not all(c.passed for c in self.checks):
            return "fail"
        return "info" if self.informational else "pass"

    def to_text(self) -> str:
        doc = {
            "suite": self.suite,
            "status": self.status,
            "seed": self.seed,
            "checks": [{**asdict(c), "passed": c.passed}
                       for c in self.checks],
            "constants": dict(sorted(self.constants.items())),
            "notes": list(self.notes),
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"

    def csv_rows(self) -> list:
        """One row per constant and per check, sorted by name; a check named
        after a constant shares its row and adds comparator, bound, outcome."""
        rows = {name: [f"{v:.17g}", "", "", ""]
                for name, v in self.constants.items()}
        for c in self.checks:
            rows[c.name] = [f"{c.value:.17g}", c.comparator,
                            "" if c.bound is None else repr(c.bound),
                            "true" if c.passed else "false"]
        return [[self.suite, self.status, name] + rows[name]
                for name in sorted(rows)]


def _rng(config: RunConfig, offset: int) -> np.random.Generator:
    return np.random.default_rng(config.seed * 1009 + offset)


def _random_u(n: int, lmax: int, rng) -> hm.HarmonicFunction:
    return hm.extend(hm.random_zonal(n, lmax, rng))


# ---------------------------------------------------------------------------
# suite: kernel consistency


def suite_kernel_consistency(config: RunConfig) -> SuiteReport:
    """Series form of the kernels against the closed forms, plus unit mass
    of the interpolating family."""
    rng = _rng(config, 1)
    radii = np.array([0.3, 0.6, 0.9])[:, None]
    residuals = []
    for n in (3, 4, 5, 6):
        t = rng.uniform(-1.0, 1.0, 50)
        s1, s0 = ker.poisson_hyp_series_rt(n, radii, t,
                                           np.array([1.0, 0.0])[:, None, None])
        h = ker.poisson_hyp_rt(n, radii, t)
        e = ker.poisson_euclid_rt(n, radii, t)
        residuals.extend(np.maximum(np.max(np.abs(s1 - h) / h, axis=1),
                                    np.max(np.abs(s0 - e) / e, axis=1)))
    # np.max, unlike max, keeps a NaN, so that the check fails on it
    worst = float(np.max(residuals))
    mass_errs = []
    for n in (3, 4, 5, 6):
        grid = geo.sphere_quadrature(n, 300)
        t = grid.nodes @ grid.pole
        v = ker.poisson_hyp_series_rt(n, radii, t,
                                      np.array([0.0, 0.5, 1.0])[:, None, None],
                                      mp_amplification=np.inf)
        mass_errs.extend(abs(grid.integrate(vr) - 1.0)
                         for vr in v.reshape(-1, t.size))
    mass_err = float(np.max(mass_errs))
    return SuiteReport(
        suite="kernel-consistency",
        checks=[Check("max_relative_residual", worst, "<=", 1e-8),
                Check("max_unit_mass_error", mass_err, "<=", 1e-7),
                Check("hyp_centre_value", ker.poisson_hyp_rt(3, 0.0, 0.5),
                      "==", 1.0),
                Check("euclid_centre_value",
                      ker.poisson_euclid_rt(3, 0.0, 0.5), "==", 1.0)],
        constants={"max_relative_residual": worst,
                   "max_unit_mass_error": mass_err,
                   "mean_relative_residual": float(np.mean(residuals))},
        seed=config.seed,
        notes=["series vs closed form at n in 3..6, r in {0.3,0.6,0.9}",
               "unit mass for delta in {0, 0.5, 1}"])


# ---------------------------------------------------------------------------
# suite: Green's formula


def _D_of_radial_sq(n, pts):
    """Invariant Laplacian applied to |x|^2, in closed form."""
    r2 = np.sum(pts ** 2, axis=1)
    return (2.0 * n * (1.0 - r2) ** 2
            + 4.0 * (n - 2.0) * (1.0 - r2) * r2)


def _D_of_linear(n, pts, pole):
    """Invariant Laplacian applied to <x, pole>: the Euclidean part drops."""
    r2 = np.sum(pts ** 2, axis=1)
    return 2.0 * (n - 2.0) * (1.0 - r2) * (pts @ pole)


def suite_green(config: RunConfig) -> SuiteReport:
    """Both sides of the invariant Green formula on centered balls, for
    harmonic/harmonic, harmonic/polynomial, and polynomial/polynomial
    pairs."""
    n = config.n
    rng = _rng(config, 2)
    u = _random_u(n, min(config.lmax, 6), rng)
    w = _random_u(n, min(config.lmax, 6), rng)
    pole = u.pole
    du_dr = u._map_radial(hm.RadialPart.diff_r)
    dw_dr = w._map_radial(hm.RadialPart.diff_r)
    sphere = geo.sphere_quadrature(n, 160, pole=pole)
    t = sphere.nodes @ pole
    area = geo.sphere_area(n - 1)
    residuals = {}
    for R in (0.5, 0.7):
        vol = geo.ball_quadrature(n, np.zeros(n), R, n_radial=32, n_psi=10,
                                  n_theta=20, axis1=pole)
        pts = vol.points
        r2 = np.sum(pts ** 2, axis=1)
        wgt = (1.0 - r2) ** (-float(n))
        bweight = area * R ** (n - 1) * (1.0 - R ** 2) ** (-n + 2)
        uS = u.eval_rt(R, t)
        wS = w.eval_rt(R, t)
        urS = du_dr.eval_rt(R, t)
        wrS = dw_dr.eval_rt(R, t)

        # harmonic / harmonic: the volume side vanishes identically
        bd = bweight * sphere.integrate(uS * wrS - wS * urS)
        residuals[f"harm-harm-R{R}"] = abs(bd)

        # harmonic / |x|^2
        Dv = _D_of_radial_sq(n, pts)
        lhs = vol.integrate(wgt * u.eval_points(pts) * Dv)
        rhs = bweight * sphere.integrate(uS * 2.0 * R - R * R * urS)
        residuals[f"harm-quad-R{R}"] = abs(lhs - rhs) / max(abs(rhs), 1.0)

        # |x|^2 / <x, pole>: both non-harmonic
        v1 = r2
        v2 = pts @ pole
        lhs = vol.integrate(wgt * (v1 * _D_of_linear(n, pts, pole)
                                   - v2 * _D_of_radial_sq(n, pts)))
        v1S = R * R
        v2S = R * t
        rhs = bweight * sphere.integrate(v1S * t - v2S * 2.0 * R)
        rhs_scale = bweight * abs(sphere.integrate(np.abs(v1S * t)
                                                   + np.abs(v2S * 2.0 * R)))
        residuals[f"poly-poly-R{R}"] = abs(lhs - rhs) / max(rhs_scale, 1.0)

    return SuiteReport(
        suite="green",
        checks=[Check(k, v, "<=", 1e-5) for k, v in residuals.items()],
        constants=residuals,
        seed=config.seed,
        notes=["volume weight (1-|x|^2)^-n, boundary weight "
               "(1-r^2)^(-n+2)"])


# ---------------------------------------------------------------------------
# suite: mean value inequality


def _mean_value_ratios(data, points: np.ndarray, eps: float, pole) -> list:
    """Per point a, the ratios |grad^d N^k u(a)| / ((1-|a|)^(-d-n/p) times
    the L^p mean of |N^k u| on B(a, 6(1-|a|^2) eps)) in (k, p, d) order, for
    the (N^k u, |grad N^k u|^2) pairs in data. Each N^k u is evaluated once,
    on every point's ball grid and the centres together."""
    n = points.shape[1]
    r_a = [float(np.linalg.norm(a)) for a in points]
    grids = [geo.ball_quadrature(n, a, 6.0 * (1.0 - r ** 2) * eps, n_radial=8,
                                 n_psi=6, n_theta=10, axis2=pole,
                                 axis1=a / r if r > 0 else pole)
             for a, r in zip(points, r_a)]
    ends = np.cumsum([len(vg.weights) for vg in grids])
    every = np.concatenate([vg.points for vg in grids] + [points])
    out = [[] for _ in grids]
    for Nk, g2 in data:
        vals, grad2 = Nk.eval_points(every), g2(points)
        ball_abs = np.split(np.abs(vals[:ends[-1]]), ends[:-1])
        for i, (vg, absv) in enumerate(zip(grids, ball_abs)):
            lhs = (abs(float(vals[ends[-1] + i])),
                   math.sqrt(max(float(grad2[i]), 0.0)))
            for p in (1.0, 2.0):
                avg = float(vg.integrate(absv ** p)) ** (1.0 / p)
                if avg < 1e-300:
                    continue
                for d in (0, 1):
                    bound = (1.0 - r_a[i]) ** (-d - n / p) * avg
                    out[i].append(lhs[d] / bound)
    return out


def suite_mean_value(config: RunConfig) -> SuiteReport:
    """Envelope of the mean-value ratio |grad^d N^k u(a)| over the scaled
    ball average of |N^k u|, across random points and a boundary-approaching
    ladder; boundedness and a flat ladder trend are the assertions."""
    n = config.n
    rng = _rng(config, 3)
    eps = 1.0 / 13.0
    funcs = [_random_u(n, min(config.lmax, 6), rng) for _ in range(20)]
    pole = funcs[0].pole

    def derivative_data(u):
        return [(Nk, hm.gradient_sq(Nk))
                for Nk in (u, hm.apply_N(u), hm.apply_N(u, 2))]

    datas = [derivative_data(u) for u in funcs]
    all_ratios = []
    for data in datas:
        pts = rng.standard_normal((10, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(0.1, 0.95, (10, 1))
        for ratios in _mean_value_ratios(data, pts, eps, pole):
            all_ratios.extend(ratios)

    # ladder trend toward the boundary; the regression covers the tail of
    # the ladder, past the interior transient where the gradient-order
    # ratios are still decaying toward their boundary limit
    zeta = rng.standard_normal(n)
    zeta /= np.linalg.norm(zeta)
    ms = np.arange(1, 11)
    ladder = np.array([(1.0 - 0.5 ** m) * zeta for m in ms])
    ladder_max = [float(np.max(ratios)) for ratios in
                  _mean_value_ratios(datas[0], ladder, eps, pole)]
    tail = ms >= 4
    slope = float(np.polyfit(ms[tail] * math.log(2.0),
                             np.log(np.asarray(ladder_max)[tail]), 1)[0])

    # refinement: halving epsilon keeps ratios finite
    half_eps_max = float(np.max(_mean_value_ratios(
        datas[0], (0.5 * zeta)[None], eps / 2.0, pole)[0]))

    # constant data: the ratio is the fixed normalization of the ball mean
    const_u = hm.extend(hm.ZonalExpansion(n, pole, [1.0]))
    const_ratio = _mean_value_ratios(derivative_data(const_u)[:1],
                                     (0.4 * zeta)[None], eps, pole)[0][0]

    constants = {"ratio_envelope": float(np.max(all_ratios + ladder_max)),
                 "ladder_log_slope": slope,
                 "half_epsilon_ratio": half_eps_max,
                 "constant_data_ratio": const_ratio}
    return SuiteReport(
        suite="mean-value",
        checks=[Check("|ladder_log_slope|", abs(slope), "<=", 0.1)]
        + [Check(k, constants[k], "finite") for k in
           ("ratio_envelope", "half_epsilon_ratio", "constant_data_ratio")],
        constants=constants,
        seed=config.seed,
        informational=True,
        notes=["ratio |grad^d N^k u(a)| / ((1-|a|)^(-d-n/p) ball L^p mean)",
               "200 points over 20 seeded functions; ladder slope fitted "
               "on the asymptotic tail m >= 4"])


# ---------------------------------------------------------------------------
# suite: operator identities


def _max_abs(u: hm.HarmonicFunction, pts) -> float:
    return float(np.max(np.abs(u.eval_points(pts))))


def _max_diff(lhs: hm.HarmonicFunction, rhs: hm.HarmonicFunction,
              pts) -> float:
    return float(np.max(np.abs(lhs.eval_points(pts) - rhs.eval_points(pts))))


def suite_operator_identities(config: RunConfig) -> SuiteReport:
    """Residuals of the commutator identity, the first and second
    derivative-recursion instances, and the ray-inversion roundtrip, all on
    exact mode forms."""
    rng = _rng(config, 4)
    one_minus = [1.0, 0.0, -1.0]
    res_comm = []
    res_rec1 = []
    res_rec2 = []
    res_inv = []
    dims = (3, 4, 5)
    for i in range(50):
        n = dims[i % 3]
        l = int(rng.integers(0, config.lmax + 1))
        c = float(rng.uniform(0.5, 2.0)) * (1.0 if rng.uniform() < 0.5
                                            else -1.0)
        pole = np.zeros(n)
        pole[0] = 1.0
        u = hm.extend(hm.ZonalExpansion(n, pole, [0.0] * l + [c]))
        pts = rng.standard_normal((6, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= rng.uniform(0.1, 0.9, (6, 1))
        scale = max(_max_abs(u, pts), 1.0)

        # commutator on the non-harmonic Nu
        w = hm.apply_N(u)
        lhs = hm.apply_L(hm.apply_N(w)).add(
            hm.apply_N(hm.apply_L(w)).scale(-1.0))
        rhs = hm.apply_L(w).scale(2.0).add(
            hm.apply_N(w, 2).add(hm.apply_lap_sigma(w)).scale(2.0)).add(
            hm.apply_N(w).scale(-2.0 * (n - 2)))
        res_comm.append(_max_diff(lhs, rhs, pts) / scale)

        # first recursion instance (harmonic input)
        lhs = hm._mul_poly(hm.apply_N(u, 2), one_minus).add(
            hm.apply_N(u).scale(2.0 * (n - 2)))
        rhs = hm._mul_poly(
            hm.apply_N(u).scale(n - 2.0).add(
                hm.apply_lap_sigma(u).scale(-1.0)), one_minus)
        res_rec1.append(_max_diff(lhs, rhs, pts) / scale)

        # second instance, from applying N and reusing the first
        lhs = hm._mul_poly(hm.apply_N(u, 3), one_minus).add(
            hm.apply_N(u, 2).scale(2.0 * (n - 3)))
        inner = hm.apply_N(u, 2).scale(n - 3.0).add(
            hm.apply_N(u).scale(n - 2.0)).add(
            hm.apply_lap_sigma(u).scale(-1.0)).add(
            hm.apply_N(hm.apply_lap_sigma(u)).scale(-1.0))
        rhs = hm.apply_lap_sigma(u).scale(2.0).add(
            hm._mul_poly(inner, one_minus))
        res_rec2.append(_max_diff(lhs, rhs, pts) / scale)

    # ray-inversion roundtrip
    for n, k in ((3, 1), (4, 1), (5, 2)):
        u = _random_u(n, min(config.lmax, 5), _rng(config, 40 + n + k))
        Nk = hm.apply_N(u, k)
        Nk1 = hm.apply_N(u, k + 1)

        def v_func(t, _a=Nk, _b=Nk1, _n=n, _k=k):
            t = np.asarray(t, dtype=float)
            return (2.0 * (_n - 1 - _k) * _a.eval_rt(t, 1.0)
                    + (1.0 - t ** 2) * _b.eval_rt(t, 1.0))

        for r in (0.4, 0.8):
            got = hm.invert_N_from_ray(v_func, r, n, k)
            want = Nk.eval_rt(r, 1.0)
            res_inv.append(abs(got - want) / max(abs(want), 1.0))

    constants = {"commutator_max": float(np.max(res_comm)),
                 "recursion1_max": float(np.max(res_rec1)),
                 "recursion2_max": float(np.max(res_rec2)),
                 "inversion_roundtrip_max": float(np.max(res_inv))}
    return SuiteReport(
        suite="operator-identities",
        checks=[Check(k, constants[k], "<=", 1e-8) for k in
                ("commutator_max", "recursion1_max", "recursion2_max")]
        + [Check("inversion_roundtrip_max",
                 constants["inversion_roundtrip_max"], "<=", 1e-6)],
        constants={**constants, "identity_residual_mean":
                   float(np.mean(res_comm + res_rec1 + res_rec2))},
        seed=config.seed,
        notes=["identities evaluated on exact mode forms"])


# ---------------------------------------------------------------------------
# suite: kernel comparison bounds


def _kernel_ratio(n: int, deltas, r_grid, t_grid) -> np.ndarray:
    """The ratio of the delta-kernel to the Euclidean kernel on the (delta,
    r_grid, t_grid) grid, all in one series call."""
    r = np.asarray(r_grid)[:, None]
    e = ker.poisson_euclid_rt(n, r, t_grid)
    vals = ker.poisson_hyp_series_rt(n, r, t_grid,
                                     np.asarray(deltas)[:, None, None],
                                     mp_amplification=np.inf)
    return vals / e


def suite_prop18(config: RunConfig) -> SuiteReport:
    """Bounds of the interpolating kernel family: upper-bound constant
    against the Euclidean kernel (stability-checked under grid doubling) and
    positivity of the normalized kernel inside approach regions. One series
    call for every delta takes both upper-bound grids, and one the cones."""
    n = config.n
    deltas = (0.0, 0.25, 0.5, 0.75, 1.0)
    r_grid = np.array([0.2, 0.5, 0.8, 0.95])
    r2_grid = np.sort(np.concatenate([r_grid, [0.35, 0.65, 0.875, 0.925]]))
    # the base grid, r_grid x 41 angles, is the fine grid's rows at r_grid
    # and its even columns: linspace(-1, 1, 41) is linspace(-1, 1, 81)[::2]
    fine = _kernel_ratio(n, deltas, r2_grid, np.linspace(-1.0, 1.0, 81))
    base = np.max(fine[:, np.isin(r2_grid, r_grid), ::2], axis=(1, 2))
    c_base, c_fine = float(np.max(base)), float(np.max(fine))
    drift = abs(c_fine - c_base) / c_base

    # delta = 0 gives ratio exactly 1; on the axis the ratio is (1+r)^(n-2)
    axis_err = float(np.max([
        abs(ker.poisson_hyp_rt(n, r, 1.0) / ker.poisson_euclid_rt(n, r, 1.0)
            - (1.0 + r) ** (n - 2)) for r in r_grid]))
    zero_err = abs(float(base[deltas.index(0.0)]) - 1.0)

    # in-cone lower bound: positivity of P_{h,delta} (1-|x|^2)^(n-1) on the
    # (radius, polar cosine) nodes of all four cones, which the kernel
    # depends on alone, and every delta in one series call
    xi = np.zeros(n)
    xi[0] = 1.0
    alphas = (0.1, 0.3, 0.5, 0.7)
    radii, angles = [], []
    for alpha in alphas:
        r, _, t, _ = geo.cone_slice(ConeRegion(alpha, xi), n, 0.95, shells=10,
                                    n_radial=3, n_polar=8)
        radii.append(np.repeat(r, t.shape[1]))
        angles.append(t.ravel())
    cone_of = np.repeat(np.arange(len(alphas)), [a.size for a in angles])
    radii, angles = np.concatenate(radii), np.concatenate(angles)
    weight = np.array([(1 - ri ** 2) ** (n - 1) for ri in radii])
    vals = ker.poisson_hyp_series_rt(n, radii, angles,
                                     np.asarray(deltas)[:, None],
                                     mp_amplification=np.inf)
    best = np.full(len(alphas), np.inf)
    np.minimum.at(best, cone_of, np.min(vals * weight, axis=0))
    lower = dict(zip(alphas, best.tolist()))

    return SuiteReport(
        suite="prop18",
        checks=[Check("upper_bound_drift", drift, "<=", 0.05),
                Check("lower_bound_alpha_0.1", lower[0.1], ">", 0.0),
                Check("axis_ratio_error", axis_err, "<", 1e-10),
                Check("delta0_ratio_error", zero_err, "<", 1e-8)],
        constants={"upper_bound_constant": c_fine,
                   "upper_bound_drift": drift,
                   **{f"lower_bound_alpha_{a}": v for a, v in lower.items()},
                   "axis_ratio_error": axis_err},
        seed=config.seed,
        notes=["upper constant: sup over delta grid x (r,t) samples of the "
               "kernel ratio; lower constant: min over cone nodes of the "
               "(1-|x|^2)^(n-1)-normalized kernel"])


# ---------------------------------------------------------------------------
# suites: norm-equivalence bands


def _norm_set(u, grid: fn.FunctionalGrid, alpha: float, ps) -> dict:
    out = {}
    m = fn.cone_max(u, alpha, grid)
    s = fn.area_integral(u, alpha, grid, refine_tol=0.05)
    sN = fn.area_integral(u, alpha, grid, radial_only=True, refine_tol=0.05)
    g = fn.littlewood_paley_g(u, grid)
    gN = fn.littlewood_paley_g(u, grid, radial_only=True)
    for p in ps:
        out[p] = {"Malpha": m.quasinorm(p), "S": s.quasinorm(p),
                  "SN": sN.quasinorm(p), "g": g.quasinorm(p),
                  "gN": gN.quasinorm(p)}
    return out


def _band_spread(norms, a, b) -> float:
    """max/min of the ratio of norms a to b over the functions, one dict of
    norms each; NaN when no function has both above 1e-12."""
    ratios = [nm[a] / nm[b] for nm in norms
              if nm[b] > 1e-12 and nm[a] > 1e-12]
    return max(ratios) / min(ratios) if ratios else float("nan")


def _theoremA_pass(config: RunConfig, degree: int, cone: fn.ConeSpec,
                   families) -> dict:
    bands = {}
    for n, funcs in families.items():
        grid = fn.functional_grid(n, degree=degree, ladder_depth=12,
                                  cone=cone)
        norms = [_norm_set(u, grid, config.alpha, config.ps) for u in funcs]
        keys = ("Malpha", "S", "SN", "g", "gN")
        for p in config.ps:
            for i, a in enumerate(keys):
                for b in keys[i + 1:]:
                    bands[(n, p, a, b)] = _band_spread(
                        [nm[p] for nm in norms], a, b)
    return bands


def suite_theoremA(config: RunConfig) -> SuiteReport:
    """Pairwise ratio bands between the five functional norms over a seeded
    family: finiteness and refinement stability stand in for the theorem's
    unnamed equivalence constants."""
    rng = _rng(config, 5)
    families = {}
    for n in (3, 4):
        families[n] = [_random_u(n, min(config.lmax, 6), rng)
                       for _ in range(10)]
    base = _theoremA_pass(config, 16, fn.ConeSpec(8, 3, 4, 4), families)
    fine = _theoremA_pass(config, 24, fn.ConeSpec(8, 3, 6, 6), families)
    spread_max = max(v for v in fine.values() if np.isfinite(v))
    drift = max(abs(fine[k] - base[k]) / base[k] for k in base
                if np.isfinite(base[k]) and base[k] > 0)
    return SuiteReport(
        suite="theorem-a",
        checks=[Check("max_band_spread", spread_max, "<=", 1e3),
                Check("max_refinement_drift", drift, "<=", 0.10)],
        constants={"max_band_spread": spread_max,
                   "max_refinement_drift": drift},
        seed=config.seed,
        notes=["bands over 20 seeded zonal functions, n in {3,4}",
               "pairwise spreads of Malpha, S, SN, g, gN norms"])


def suite_hardy_sobolev(config: RunConfig) -> SuiteReport:
    """Maximal-function norms of the derivative families N^j u, tangential
    powers, and the damped odd-order quantity; reports cross-ratio bands."""
    rng = _rng(config, 6)
    one_minus = [1.0, 0.0, -1.0]
    results = {}
    p = 1.0
    for n, k in ((config.n, 1), (4, 2)):
        funcs = [_random_u(n, min(config.lmax, 6), rng) for _ in range(6)]
        grid = fn.functional_grid(n, degree=16, ladder_depth=12,
                                  cone=fn.ConeSpec(8, 3, 6, 6))
        alpha = config.alpha
        norms = []
        for u in funcs:
            entry = {}
            for j in range(k + 1):
                entry[f"N{j}"] = fn.cone_max(
                    hm.apply_N(u, j) if j else u, alpha, grid).quasinorm(p)
            for j in range(1, k // 2 + 1):
                entry[f"lap{j}"] = fn.cone_max(
                    hm.apply_lap_sigma(u, j), alpha, grid).quasinorm(p)
            if k % 2 == 1:
                damped = hm._mul_poly(
                    hm.apply_lap_sigma(u, (k + 1) // 2), one_minus)
                entry["damped"] = fn.cone_max(damped, alpha,
                                              grid).quasinorm(p)
                entry["S_half"] = fn.area_integral(
                    hm.apply_neg_lap_sigma_half(u), alpha, grid,
                    refine_tol=0.05).quasinorm(p)
                entry["SN_N"] = fn.area_integral(
                    hm.apply_N(u), alpha, grid, radial_only=True,
                    refine_tol=0.05).quasinorm(p)
            norms.append(entry)
        keys = sorted(norms[0])
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                band = _band_spread(norms, a, b)
                if not math.isnan(band):
                    results[f"n{n}-k{k}-{a}/{b}"] = band
    spread = float(np.max(list(results.values())))
    return SuiteReport(
        suite="hardy-sobolev",
        checks=[Check("max_band_spread", spread, "finite")],
        constants={"max_band_spread": spread, **results},
        seed=config.seed,
        informational=True,
        notes=["cross-ratio bands of maximal norms over derivative "
               "families; k = 2 exercised at n = 4 (k <= n-2)"])


# ---------------------------------------------------------------------------
# suite: Lipschitz exponents


def _project_singular_zonal(gamma: float, t0: float, lmax: int) -> np.ndarray:
    """Zonal coefficients of |t - t0|^gamma on the 2-sphere. Gauss-Jacobi
    nodes on each side of t0 absorb |t - t0|^gamma as the quadrature weight,
    so the remaining polynomial factor Z_l integrates exactly."""
    nq = lmax // 2 + 8
    x, w = sf.gauss_jacobi(nq, 0.0, gamma)  # weight (1+x)^gamma on [-1, 1]
    s = 0.5 * (1.0 + x)
    acc = np.zeros(lmax + 1)
    for half_len, sign in ((1.0 - t0, 1.0), (1.0 + t0, -1.0)):
        t = t0 + sign * half_len * s
        Z = sf.zonal_all(lmax, 3, t)
        acc += (half_len / 2.0) ** (gamma + 1.0) * (Z @ w)
    c = 0.5 * acc  # measure dt/2 on the 2-sphere
    z1 = np.array([sf.zonal_at_one(l, 3) for l in range(lmax + 1)])
    return c / z1


def _fit_slope(x, y) -> float:
    return float(np.polyfit(x, y, 1)[0])


def suite_lipschitz(config: RunConfig) -> SuiteReport:
    """Boundary-smoothness transfer: decay exponents of the extension of
    Hoelder profiles, growth exponent of the kernel gradient, and a bounded
    limiting-class check."""
    n = 3
    t0 = 0.2
    lmax = 256
    ms = np.arange(1, 7)
    radii = 1.0 - 0.5 ** ms
    log_h = np.log(1.0 - radii)
    tg = np.unique(np.clip(np.concatenate([
        np.linspace(-1.0, 1.0, 801),
        t0 + np.linspace(-0.05, 0.05, 401)]), -1.0, 1.0))
    slopes = {}
    pole = np.array([1.0, 0.0, 0.0])
    for gamma in (0.3, 0.5, 0.7):
        coeffs = _project_singular_zonal(gamma, t0, lmax)
        data = hm.ZonalExpansion(n, pole, coeffs)
        u = hm.extend(data)
        # order 0: dyadic radial differences sup_t |u(r_{m+1}) - u(r_m)|;
        # interior values only, so the projection-truncation floor at the
        # boundary never enters
        vals = [u.eval_rt(r, tg)
                for r in np.append(radii, 1.0 - 0.5 ** (len(ms) + 1))]
        sup0 = [float(np.max(np.abs(b - a)))
                for a, b in zip(vals[:-1], vals[1:])]
        slopes[f"gamma{gamma}-k0"] = _fit_slope(log_h, np.log(sup0))
        # order 1: sup of (1-r) |grad u|
        g2 = hm.gradient_sq(u)
        sup1 = []
        for r in radii:
            pts = r * np.column_stack(
                [tg, np.sqrt(np.maximum(0.0, 1 - tg ** 2)),
                 np.zeros_like(tg)])
            sup1.append((1.0 - r)
                        * math.sqrt(float(np.max(g2(pts)))))
        slopes[f"gamma{gamma}-k1"] = _fit_slope(log_h, np.log(sup1))

    # kernel gradient growth: sup over angles of |grad P_h| ~ (1-r)^(-n)
    kernel_sup = []
    for r in radii:
        A = 1.0 + r * r - 2.0 * r * tg
        P = ((1.0 - r * r) / A) ** (n - 1)
        dPdr = (n - 1) * P * (-2.0 * r / (1.0 - r * r)
                              - (2.0 * r - 2.0 * tg) / A)
        dPdt = (n - 1) * P * (2.0 * r / A)
        grad2 = dPdr ** 2 + (1.0 - tg ** 2) * dPdt ** 2 / r ** 2
        kernel_sup.append(math.sqrt(float(np.max(grad2))))
    kernel_slope = _fit_slope(log_h, np.log(kernel_sup))
    slopes["kernel-gradient"] = kernel_slope

    # limiting class: lacunary data of second-order smoothness; the scaled
    # third radial derivative stays bounded along the ladder
    lac = np.zeros(65)
    for kk in range(7):
        l = 2 ** kk
        lac[l] = 4.0 ** (-kk) / sf.zonal_at_one(l, 3)
    uz = hm.extend(hm.ZonalExpansion(n, pole, lac))
    d3 = uz._map_radial(lambda rad: rad.diff_r().diff_r().diff_r())
    zyg = [(1.0 - r) * float(np.max(np.abs(d3.eval_rt(r, tg))))
           for r in 1.0 - 0.5 ** np.arange(2, 12)]
    zyg_ratio = float(np.max(zyg)) / max(zyg[0], 1e-300)

    return SuiteReport(
        suite="lipschitz",
        checks=[Check(f"|gamma{g}-k{k} - {g}|",
                      abs(slopes[f"gamma{g}-k{k}"] - g), "<=", 0.1)
                for g in (0.3, 0.5, 0.7) for k in (0, 1)]
        + [Check(f"|kernel-gradient + {n}|", abs(kernel_slope + n), "<=",
                 0.15),
           Check("limiting_class_ratio", zyg_ratio, "<", 10.0)],
        constants={**slopes, "limiting_class_ratio": zyg_ratio},
        seed=config.seed,
        notes=["profiles |t-t0|^gamma projected to degree 256",
               "order 0 via dyadic radial differences along the ladder"])


# ---------------------------------------------------------------------------
# registry and reporting


SUITES = {
    "kernel-consistency": suite_kernel_consistency,
    "green": suite_green,
    "mean-value": suite_mean_value,
    "operator-identities": suite_operator_identities,
    "prop18": suite_prop18,
    "theorem-a": suite_theoremA,
    "hardy-sobolev": suite_hardy_sobolev,
    "lipschitz": suite_lipschitz,
}


def run_suite(name: str, config: RunConfig) -> SuiteReport:
    start = time.perf_counter()
    report = SUITES[name](config)
    print(f"[{name}] {report.status} ({time.perf_counter() - start:.1f}s)",
          file=sys.stderr)
    return report


def write_reports(reports, out_dir: str) -> str:
    """One text document per suite plus the aggregate CSV; returns the CSV
    path. Writes are atomic and byte-deterministic."""
    os.makedirs(out_dir, exist_ok=True)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["suite", "status", "name", "value", "comparator", "bound",
                "passed"])
    for rep in reports:
        fn.write_atomic(os.path.join(out_dir, f"report-{rep.suite}.txt"),
                        rep.to_text())
        w.writerows(rep.csv_rows())
    csv_path = os.path.join(out_dir, "reports.csv")
    fn.write_atomic(csv_path, buf.getvalue())
    return csv_path
