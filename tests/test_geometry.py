"""Tests for the ball-model geometry and quadrature grids."""

import math
import time

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from hyperharm import geometry as geo
from hyperharm import specfun as sf
from hyperharm.errors import UnsupportedRequest
from oracles import (DegenerateDenominator, boost, cone_min_quadratic,
                     identity_element, invariant_measure_weight, mobius_act,
                     random_group_element)


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def polar_cut_bisection(region, r):
    """Cone cut by 60 bisection steps on the membership sign change."""
    a = region.alpha
    lo, hi = -1.0, 1.0
    if cone_min_quadratic(a, r, hi) >= 0.0:
        return 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cone_min_quadratic(a, r, mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def inside(region, x):
    """Membership by the closed-form cut of the region at radius |x|."""
    r = float(np.linalg.norm(x))
    return r < region.alpha or float(x @ region.xi) / r > \
        geo.cone_polar_cut(region, r)


def cone_quadrature_loop(region, n, r_max, pole=None, shells=18, n_radial=4,
                         n_polar=12, n_angular=12):
    """The cone grid built node by node: shell x radial x polar x angular."""
    xi = region.xi
    if pole is None:
        pole = xi
    pole = np.asarray(pole, dtype=float)
    _, e2, e3 = geo.orthonormal_frame(xi, pole, n=n)

    gq, gw = sf.gauss_jacobi(n_radial)
    pq, pw = sf.gauss_jacobi(n_polar)
    s_nodes, s_w = geo._angular_weight_rule(n, n_angular)

    edges = [0.0] + [1.0 - 0.5 ** (j + 1) for j in range(shells)]
    edges = [e for e in edges if e < r_max] + [r_max]

    pts, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        for q, wq in zip(gq, gw):
            r = lo + half * (q + 1.0)
            wr = half * wq * r ** (n - 1)
            tmin = geo.cone_polar_cut(region, r)
            if tmin >= 1.0:
                continue
            th = 0.5 * (1.0 - tmin)
            for qp, wp in zip(pq, pw):
                t = tmin + th * (qp + 1.0)
                wt = th * wp * (1.0 - t * t) ** ((n - 3) / 2.0)
                rt = math.sqrt(max(1.0 - t * t, 0.0))
                for s, ws in zip(s_nodes, s_w):
                    sq = math.sqrt(max(1.0 - s * s, 0.0))
                    d = t * xi + rt * (s * e2 + sq * e3)
                    pts.append(r * d)
                    wts.append(wr * wt * ws)
    return np.array(pts), np.array(wts)


def ball_quadrature_loop(n, center, radius, n_radial=24, n_psi=12,
                         n_theta=24, axis1=None, axis2=None):
    """The ball grid built direction by direction: psi x theta x sign."""
    center = np.asarray(center, dtype=float)
    if axis1 is None:
        axis1 = np.eye(n)[0]
    if axis2 is None:
        axis2 = np.eye(n)[min(1, n - 1)]
    e1_, e2_, e3_ = geo.orthonormal_frame(axis1, axis2, n=n)
    rq, rw = sf.gauss_jacobi(n_radial)
    rho = 0.5 * radius * (rq + 1.0)
    rhow = 0.5 * radius * rw * rho ** (n - 1)
    pq, pw = sf.gauss_jacobi(n_psi)
    psi = 0.25 * math.pi * (pq + 1.0)
    psw = 0.25 * math.pi * pw
    th = 2.0 * math.pi * np.arange(n_theta) / n_theta
    thw = 2.0 * math.pi / n_theta
    area_rest = geo.sphere_area(n - 3) if n > 3 else 2.0
    dirs, dw = [], []
    for p, wp in zip(psi, psw):
        s, c = math.sin(p), math.cos(p)
        ang = wp * thw * s * c ** (n - 3) * area_rest / 2.0
        for t in th:
            base = s * (math.cos(t) * e1_ + math.sin(t) * e2_)
            dirs.append(base + c * e3_)
            dw.append(ang)
            dirs.append(base - c * e3_)
            dw.append(ang)
    dirs = np.array(dirs)
    dw = np.array(dw)
    pts = center[None, None, :] + rho[:, None, None] * dirs[None, :, :]
    wts = rhow[:, None] * dw[None, :]
    return pts.reshape(-1, n), wts.ravel()


class TestGroup:
    def test_boost_identity(self):
        assert np.allclose(boost(0.0, 3).matrix, np.eye(4))

    def test_boost_entries(self):
        g = boost(1.0, 3).matrix
        assert g[0, 0] == pytest.approx(math.cosh(1.0))
        assert g[0, 1] == pytest.approx(math.sinh(1.0))

    def test_boost_preserves_form(self):
        g = boost(1.3, 5).matrix
        J = np.eye(6)
        J[0, 0] = -1.0
        assert np.allclose(g.T @ J @ g, J, atol=1e-12)

    def test_identity_action(self):
        x = np.array([0.2, -0.1, 0.4])
        assert np.allclose(mobius_act(identity_element(3), x), x, atol=1e-14)

    def test_boost_moves_origin(self):
        t = 0.8
        y = mobius_act(boost(t, 4), np.zeros(4))
        # y1 = sinh t / (1 + cosh t) = tanh(t/2)
        assert np.linalg.norm(y) == pytest.approx(math.tanh(t / 2.0),
                                                  abs=1e-14)
        assert np.allclose(y / np.linalg.norm(y), e1(4))

    def test_group_action_property(self):
        rng = np.random.default_rng(11)
        for n in (3, 4):
            for _ in range(5):
                g1 = random_group_element(n, rng)
                g2 = random_group_element(n, rng)
                x = rng.uniform(-0.4, 0.4, n)
                a = mobius_act(g1 @ g2, x)
                b = mobius_act(g1, mobius_act(g2, x))
                assert np.allclose(a, b, atol=1e-10)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_group_element(3, rng)
            x = rng.uniform(-0.5, 0.5, 3)
            back = mobius_act(g.inverse(), mobius_act(g, x))
            assert np.allclose(back, x, atol=1e-10)

    def test_degenerate_denominator(self):
        bad = identity_element(3)
        object.__setattr__(bad, "matrix", -np.eye(4))
        with pytest.raises(DegenerateDenominator):
            mobius_act(bad, np.zeros(3))

    def test_ball_image_bounds(self):
        # image of an eps-ball around 0 under g with g.0 = x0 stays within
        # 6(1-|x0|^2)eps of x0 and surrounds a (sqrt2/8)(1-|x0|^2)eps ball
        rng = np.random.default_rng(21)
        eps = 0.1
        for _ in range(5):
            g = random_group_element(3, rng)
            x0 = mobius_act(g, np.zeros(3))
            scale = 1.0 - float(x0 @ x0)
            d = rng.standard_normal((400, 3))
            d /= np.linalg.norm(d, axis=1, keepdims=True)
            dists = np.linalg.norm(mobius_act(g, eps * d) - x0, axis=1)
            assert dists.max() <= 6.0 * scale * eps
            assert dists.min() >= math.sqrt(2.0) / 8.0 * scale * eps


class TestInvariantMeasure:
    def test_at_origin(self):
        assert invariant_measure_weight(np.zeros(3), 3) == 1.0

    def test_arithmetic(self):
        w = invariant_measure_weight(0.5 * e1(3), 3, exponent=3)
        assert w == pytest.approx(0.75 ** -3, rel=1e-14)

    def test_invariance_selects_exponent(self):
        # bump supported in B(0, 0.55); integrate f and f(g.x) against
        # (1-|x|^2)^-e; only e = n makes them agree
        n = 3
        g = boost(0.4, n)

        def bump(r):
            out = np.zeros_like(r)
            m = r < 0.55
            s = (r[m] / 0.55) ** 2
            out[m] = np.exp(-1.0 / (1.0 - s))
            return out

        bq = geo.ball_quadrature(n, np.zeros(n), 0.9, n_radial=80,
                                 n_psi=20, n_theta=32)
        r = np.linalg.norm(bq.points, axis=1)
        moved = np.linalg.norm(mobius_act(g, bq.points), axis=1)
        for e, match in [(n, True), (n - 1, False)]:
            w = invariant_measure_weight(bq.points, n, exponent=e)
            base = bq.integrate(bump(r) * w)
            pushed = bq.integrate(bump(moved) * w)
            rel = abs(base - pushed) / abs(base)
            if match:
                assert rel < 1e-6
            else:
                assert rel > 1e-2


class TestCone:
    def test_center_inside(self):
        assert inside(geo.ConeRegion(0.3, e1(4)), np.zeros(4))

    def test_near_vertex_inside(self):
        assert inside(geo.ConeRegion(0.5, e1(3)), 0.99 * e1(3))

    def test_antipode_outside(self):
        assert not inside(geo.ConeRegion(0.5, e1(3)), -0.99 * e1(3))

    def test_monotone_in_aperture(self):
        rng = np.random.default_rng(5)
        small = geo.ConeRegion(0.2, e1(3))
        big = geo.ConeRegion(0.6, e1(3))
        for _ in range(200):
            x = rng.uniform(-0.57, 0.57, 3)
            if inside(small, x):
                assert inside(big, x)

    def test_polar_cut_consistency(self):
        # the hull quadratic is negative just above the cut, not just below
        a = 0.4
        reg = geo.ConeRegion(a, e1(3))
        for r in (0.2, 0.5, 0.8, 0.95):
            tm = geo.cone_polar_cut(reg, r)
            if r < reg.alpha:
                assert tm == -1.0
            else:
                assert cone_min_quadratic(a, r, min(tm + 1e-6, 1.0)) < 0.0
                assert not cone_min_quadratic(a, r, tm - 1e-6) < 0.0

    def test_polar_cut_matches_bisection(self):
        for a in np.linspace(0.1, 0.95, 18):
            reg = geo.ConeRegion(float(a), e1(3))
            for r in np.linspace(a, 1.0 - 1e-6, 200):
                assert abs(geo.cone_polar_cut(reg, float(r))
                           - polar_cut_bisection(reg, float(r))) <= 1e-15
        reg = geo.ConeRegion(0.4, e1(3))
        assert geo.cone_polar_cut(reg, 0.39) == -1.0
        with pytest.raises(ValueError):
            geo.cone_polar_cut(reg, 1.0)

    def test_quadrature_volume_converges(self):
        reg = geo.ConeRegion(0.5, e1(3))
        rs = np.linspace(1e-6, 0.999, 20001)
        tm = np.array([geo.cone_polar_cut(reg, r) for r in rs])
        dense = 2 * math.pi * np.trapezoid(rs ** 2 * (1 - tm), rs)
        cq = geo.cone_quadrature(reg, 3, 0.999, shells=18, n_radial=8,
                                 n_polar=16)
        assert cq.weights.sum() == pytest.approx(dense, rel=1e-3)

    def test_quadrature_matches_loop(self):
        # (shells, n_radial, n_polar, n_angular, r_max): prop18's cone, then
        # theorem-a's, hardy-sobolev's and the CLI's, each with its doubling
        specs = [(10, 3, 8, 8, 0.95)]
        for base, r_max in (((8, 3, 4, 4), 1 - 2.0 ** -12),
                            ((8, 3, 6, 6), 1 - 2.0 ** -12),
                            ((12, 3, 8, 8), 1 - 2.0 ** -18)):
            sh, nr, npol, nang = base
            specs += [(sh, nr, npol, nang, r_max),
                      (sh, nr, 2 * npol, 2 * nang, r_max)]
        specs.append((6, 4, 5, 3, 0.3))  # r_max below most apertures
        rng = np.random.default_rng(11)
        for n in (3, 4, 5, 6):
            for a, alpha in enumerate((0.1, 0.5, 0.9)):
                for j, (sh, nr, npol, nang, r_max) in enumerate(specs):
                    xi = rng.standard_normal(n)
                    xi /= np.linalg.norm(xi)
                    # each spec meets each pole: None, xi, -xi, a random one
                    pole = (None, xi, -xi,
                            rng.standard_normal(n))[(j + a + n) % 4]
                    if pole is not None:
                        pole = pole / np.linalg.norm(pole)
                    kw = dict(pole=pole, shells=sh, n_radial=nr,
                              n_polar=npol, n_angular=nang)
                    reg = geo.ConeRegion(alpha, xi)
                    got = geo.cone_quadrature(reg, n, r_max, **kw)
                    pts, wts = cone_quadrature_loop(reg, n, r_max, **kw)
                    assert np.array_equal(got.points, pts)
                    assert np.array_equal(got.weights, wts)


    def test_slice_is_radius_and_polar_cosine_of_cone_points(self):
        rng = np.random.default_rng(12)
        for n in (3, 4, 6):
            for alpha in (0.1, 0.5, 0.9):
                xi = rng.standard_normal(n)
                xi /= np.linalg.norm(xi)
                reg = geo.ConeRegion(alpha, xi)
                kw = dict(shells=10, n_radial=3, n_polar=8)
                r, wr, t, wt = geo.cone_slice(reg, n, 0.95, **kw)
                vg = geo.cone_quadrature(reg, n, 0.95, pole=-xi, n_angular=5,
                                         **kw)
                pts = vg.points.reshape(r.size, t.shape[1], 5, n)
                rad = np.linalg.norm(pts, axis=-1)
                assert np.max(np.abs(rad - r[:, None, None])) <= 1e-15
                cos = pts @ xi / rad
                assert np.max(np.abs(cos - t[:, :, None])) <= 1e-15
                s_w = geo._angular_weight_rule(n, 5)[1]
                assert np.array_equal(vg.weights,
                                      ((wr[:, None] * wt)[:, :, None]
                                       * s_w).ravel())


class TestSphereQuadrature:
    def test_unit_mass_all_grids(self):
        for n in (3, 4, 5, 6):
            g = geo.sphere_quadrature(n, 16)
            assert g.weights.sum() == pytest.approx(1.0, abs=1e-12)
        gf = geo.sphere_quadrature(3, 8, full=True)
        assert gf.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_grid_only_n3(self):
        with pytest.raises(UnsupportedRequest):
            geo.sphere_quadrature(4, 8, full=True)

    def test_zonal_orthogonality(self):
        g = geo.sphere_quadrature(3, 8, full=True)
        vals = sf.zonal_all(4, 3, g.nodes @ e1(3))[4]
        assert g.integrate(vals) == pytest.approx(0.0, abs=1e-12)

    def test_jacobi_moment_n5(self):
        # int t^2 (1-t^2)^{(n-3)/2} dt / int (1-t^2)^{(n-3)/2} dt for n=5:
        # Beta(3/2, 2)/Beta(1/2, 2)
        g = geo.sphere_quadrature(5, 12)
        t = g.nodes @ g.pole
        want = beta_fn(1.5, 2.0) / beta_fn(0.5, 2.0)
        assert g.integrate(t ** 2) == pytest.approx(want, abs=1e-12)

    def test_poisson_unit_mass(self):
        for n in (3, 4, 5, 6):
            g = geo.sphere_quadrature(n, 80)
            t = g.nodes @ g.pole
            r = 0.6
            pe = (1 - r * r) / (1 + r * r - 2 * r * t) ** (n / 2.0)
            assert g.integrate(pe) == pytest.approx(1.0, abs=1e-7)


class TestFrame:
    def test_large_n_orthonormal_and_fast(self):
        # one identity matrix per call, not one per coordinate (O(n^3))
        rng = np.random.default_rng(4)
        axis = rng.standard_normal(800)
        t0 = time.perf_counter()
        frame = np.array(geo.orthonormal_frame(axis, n=800))
        assert time.perf_counter() - t0 < 0.5
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-12)
        assert np.allclose(frame[0], axis / np.linalg.norm(axis))


class TestBallQuadrature:
    def test_volume(self):
        for n in (3, 4, 5):
            R = 0.7
            bq = geo.ball_quadrature(n, np.zeros(n), R)
            want = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1) * R ** n
            assert bq.weights.sum() == pytest.approx(want, rel=1e-12)

    def test_two_direction_integrand(self):
        # int over B(c, R) of <x - c, a>^2 dx = R^{n+2} V_n /(n+2) ... use
        # the polar formula: int rho^2 <w,a>^2 = A_{n-1}/n * R^{n+2}/(n+2)
        for n in (3, 5):
            R = 0.6
            a = np.ones(n) / math.sqrt(n)
            c = np.zeros(n)
            bq = geo.ball_quadrature(n, c, R, axis1=a)
            vals = (bq.points @ a) ** 2
            want = geo.sphere_area(n - 1) / n * R ** (n + 2) / (n + 2)
            assert bq.integrate(vals) == pytest.approx(want, rel=1e-10)

    def test_matches_loop(self):
        # mean-value's grid and the default one, with default axes, one
        # random axis, and two random axes (parallel and antiparallel pairs
        # included)
        rng = np.random.default_rng(5)
        for n in (3, 4, 5, 6):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            axes = [(None, None), (a, None), (a, b), (a, a), (a, -a),
                    (e1(n), b)]
            for sizes in ((8, 6, 10), (24, 12, 24), (3, 5, 7)):
                for ax1, ax2 in axes:
                    c = 0.3 * rng.standard_normal(n)
                    R = float(rng.uniform(0.01, 0.5))
                    kw = dict(n_radial=sizes[0], n_psi=sizes[1],
                              n_theta=sizes[2], axis1=ax1, axis2=ax2)
                    got = geo.ball_quadrature(n, c, R, **kw)
                    pts, wts = ball_quadrature_loop(n, c, R, **kw)
                    assert np.array_equal(got.points, pts)
                    assert np.array_equal(got.weights, wts)
