"""Tests for harmonic extension, the exact mode-form operators, and the
finite-difference oracles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperharm import geometry as geo
from hyperharm import harmonic as hm
from hyperharm import kernels as ker
from hyperharm import specfun as sf
from hyperharm.errors import (DataFileError, OriginSingularity,
                              UnsupportedDimension)
from oracles import apply_L_fd


def e_vec(n, i=0):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def sample_zonal(n, lmax=5, seed=0):
    rng = np.random.default_rng(seed)
    return hm.random_zonal(n, lmax, rng)


def sample_u(n, lmax=5, seed=0):
    return hm.extend(sample_zonal(n, lmax, seed))


def rel_scale(u, pts):
    return max(np.max(np.abs(u.eval_points(pts))), 1.0)


def interior_points(n, m=12, seed=3, rmax=0.85, rmin=0.1):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(rmin, rmax, (m, 1))


class TestRadialPart:
    def test_base_value(self):
        rad = hm.RadialPart.base(2, 3, coeff=1.5)
        r = 0.4
        assert rad.evaluate(r) == pytest.approx(
            1.5 * sf.fl_deriv(2, 3, r ** 2, 0) * r ** 2, rel=1e-12)

    def test_apply_N_matches_fd(self):
        rad = hm.RadialPart.base(3, 4, coeff=0.7)
        h = 1e-6
        r = 0.55
        fd = r * (rad.evaluate(r + h) - rad.evaluate(r - h)) / (2 * h)
        assert rad.apply_N().evaluate(r) == pytest.approx(fd, rel=1e-8)

    def test_diff_r_matches_fd(self):
        rad = hm.RadialPart.base(2, 5, coeff=1.0).apply_N()
        h = 1e-6
        r = 0.3
        fd = (rad.evaluate(r + h) - rad.evaluate(r - h)) / (2 * h)
        assert rad.diff_r().evaluate(r) == pytest.approx(fd, rel=1e-7)

    def test_even_dimension_buckets_truncate(self):
        rad = hm.RadialPart.base(2, 4, coeff=1.0)
        out = rad.apply_N().apply_N().apply_N()
        assert len(out.polys) <= 2  # G_i vanishes for i >= n/2 = 2

    def test_div_r2_exact(self):
        rad = hm.RadialPart.base(2, 3).mul_poly([0.0, 0.0, 3.0])
        back = rad.div_r2().mul_poly([0.0, 0.0, 1.0])
        r = np.linspace(0.05, 0.9, 7)
        assert np.allclose(back.evaluate(r), rad.evaluate(r) / 3.0 * 3.0)

    def test_div_r2_rejects_nonvanishing(self):
        rad = hm.RadialPart.base(0, 3, coeff=1.0)
        with pytest.raises(OriginSingularity):
            rad.div_r2()

    def test_dilate(self):
        rad = hm.RadialPart.base(2, 3, coeff=2.0)
        d = rad.dilate(0.6)
        r = 0.5
        assert d.evaluate(r) == pytest.approx(rad.evaluate(0.6 * r),
                                              rel=1e-12)


class TestExtension:
    def test_constant_data(self):
        data = hm.ZonalExpansion(3, e_vec(3), [2.5])
        u = hm.extend(data)
        assert u.eval_points(0.7 * e_vec(3)[None])[0] == pytest.approx(2.5)

    def test_matches_poisson_integral_on_axis(self):
        # dual route: exact mode extension vs quadrature against the kernel
        for n in (3, 4, 5):
            data = sample_zonal(n, lmax=4, seed=n)
            u = hm.extend(data)
            g = geo.sphere_quadrature(n, 200, pole=data.pole)
            t = g.nodes @ data.pole
            phi = data.boundary_value(t)
            for r in (0.3, 0.7):
                integral = g.integrate(ker.poisson_hyp_rt(n, r, t) * phi)
                assert u.eval_rt(r, 1.0) == pytest.approx(integral, abs=1e-8)

    def test_matches_poisson_integral_off_axis(self):
        n = 3
        data = sample_zonal(n, lmax=3, seed=11)
        u = hm.extend(data)
        g = geo.sphere_quadrature(n, 40, full=True)
        zeta = np.array([0.6, 0.8, 0.0])
        phi = data.boundary_value(g.nodes @ data.pole)
        kernel = ker.poisson_hyp_rt(n, 0.5, g.nodes @ zeta)
        assert u.eval_points(0.5 * zeta[None])[0] == pytest.approx(
            g.integrate(kernel * phi), abs=1e-8)

    def test_boundary_limit(self):
        data = sample_zonal(4, lmax=3, seed=2)
        u = hm.extend(data)
        t = np.linspace(-1, 1, 9)
        assert np.allclose(u.eval_rt(1.0, t), data.boundary_value(t),
                           atol=1e-12)

    def test_harmonicity_fd_residual(self):
        for n in (3, 4, 5):
            u = sample_u(n, lmax=4, seed=n + 1)
            pts = interior_points(n, m=6, seed=n)
            scale = rel_scale(u, pts)
            for x in pts:
                res = hm.d_residual(lambda y: u.eval_points(y[None])[0],
                                    x, n, h=1e-3)
                assert abs(res) < 1e-4 * scale

    def test_fd_order_two(self):
        n = 3
        u = sample_u(n, lmax=4, seed=7)
        pts = interior_points(n, m=8, seed=5)
        order = hm.fd_order(lambda y: u.eval_points(y[None])[0], pts, n,
                            h0=2e-2)
        assert abs(order - 2.0) < 0.2


def random_sph3(lmax, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return hm.extend(hm.Sph3Expansion(tuple(
        scale * (rng.standard_normal(2 * l + 1)
                 + 1j * rng.standard_normal(2 * l + 1))
        for l in range(lmax + 1))))


class TestModeLayout:
    def test_fields_and_modes(self):
        assert [f.name for f in dataclasses.fields(hm.HarmonicFunction)] \
            == ["n", "pole", "modes"]
        uz = sample_u(4)
        for u, kind in ((uz, "zonal"), (hm.dilate(uz, 0.5), "zonal"),
                        (hm.zonal_as_sph3(sample_u(3)), "sph3"),
                        (random_sph3(3, 1), "sph3")):
            assert u.kind == kind
            degrees = [rad.l for rad, _ in u.modes]
            assert degrees == sorted(degrees)
            for rad, coeff in u.modes:
                assert isinstance(rad, hm.RadialPart)
                if kind == "zonal":
                    assert coeff is None
                else:
                    assert coeff.shape == (2 * rad.l + 1,)


class TestAdd:
    def test_refusals(self):
        u = sample_u(3)
        cases = [
            (u, sample_u(4)),
            (u, hm.zonal_as_sph3(u)),
            (u, hm.extend(hm.ZonalExpansion(3, e_vec(3, 1),
                                            [0.5, 0.3]))),
            (u, hm.dilate(u, 0.5)),
            # no degree in common: the dilations still differ
            (hm.extend(hm.ZonalExpansion(3, e_vec(3), [1.0])),
             hm.dilate(hm.extend(hm.ZonalExpansion(3, e_vec(3),
                                                   [0.0, 1.0])), 0.5)),
        ]
        for a, b in cases:
            with pytest.raises(ValueError):
                a.add(b)
            with pytest.raises(ValueError):
                b.add(a)

    def test_zonal_degrees_merge(self):
        u = sample_u(4, lmax=5)
        s = u.add(hm.apply_N(u))
        assert [rad.l for rad, _ in s.modes] == [rad.l for rad, _ in u.modes]

    def test_sph3_near_equal_coefficients_stay_apart(self):
        # coefficients 5e-6 apart in relative terms and different radial
        # parts: the sum must hold both modes of each degree, not merge
        # them under one coefficient
        a = random_sph3(4, 5)
        b = hm.apply_N(random_sph3(4, 5, scale=1.0 + 5e-6))
        s = a.add(b)
        pts = interior_points(3, m=12, seed=3)
        want = a.eval_points(pts) + b.eval_points(pts)
        assert np.max(np.abs(s.eval_points(pts) - want)) \
            <= 1e-12 * np.max(np.abs(want))
        # an equal coefficient merges: N u + u keeps one mode per degree
        assert len(a.add(hm.apply_N(a)).modes) == len(a.modes)


class TestOperators:
    def test_N_matches_fd(self):
        u = sample_u(4, seed=3)
        Nu = hm.apply_N(u)
        h = 1e-6
        for r, t in [(0.4, 0.2), (0.8, -0.7)]:
            fd = r * (u.eval_rt(r + h, t) - u.eval_rt(r - h, t)) / (2 * h)
            assert Nu.eval_rt(r, t) == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_radial_tangential_combination(self):
        # r^2 L u = (1-r^2)N^2 u + (n-2)(1+r^2)N u + (1-r^2) tangential u
        # vanishes identically on harmonic extensions
        for n in (3, 4, 6):
            u = sample_u(n, seed=n)
            total = hm._mul_poly(hm.apply_N(u, 2), [1.0, 0.0, -1.0]).add(
                hm._mul_poly(hm.apply_N(u), [1.0, 0.0, 1.0]).scale(
                    n - 2.0)).add(
                hm._mul_poly(hm.apply_lap_sigma(u), [1.0, 0.0, -1.0]))
            pts = interior_points(n, m=10, seed=1)
            assert np.max(np.abs(total.eval_points(pts))) < 1e-10

    def test_L_annihilates_harmonic(self):
        for n in (3, 5, 6):
            u = sample_u(n, seed=n + 4)
            Lu = hm.apply_L(u)
            pts = interior_points(n, m=10, seed=2)
            assert np.max(np.abs(Lu.eval_points(pts))) < 1e-9

    def test_D_matches_fd_residual(self):
        # D = (1-r^2)^2 Lap + 2(n-2)(1-r^2) N, by second differences, on
        # the non-harmonic Nu; D vanishes on the harmonic u itself
        for n in (3, 4, 5):
            u = sample_u(n, lmax=4, seed=n + 20)
            w = hm.apply_N(u)
            pts = interior_points(n, m=8, seed=n)
            want = np.array([hm.d_residual(
                lambda y: w.eval_points(y[None])[0], x, n) for x in pts])
            got = hm.apply_D(w).eval_points(pts)
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))
            assert np.max(np.abs(hm.apply_D(u).eval_points(pts))) < 1e-9

    def test_commutator_identity(self):
        # (LN - NL)u = 2Lu + 2(N^2 u + tangential u) - 2(n-2)Nu, valid for
        # arbitrary smooth mode forms, checked on the non-harmonic Nu
        for n in (3, 4):
            w = hm.apply_N(sample_u(n, lmax=4, seed=n + 9))
            lhs = hm.apply_L(hm.apply_N(w)).add(
                hm.apply_N(hm.apply_L(w)).scale(-1.0))
            rhs = hm.apply_L(w).scale(2.0).add(
                hm.apply_N(w, 2).add(hm.apply_lap_sigma(w)).scale(2.0)).add(
                hm.apply_N(w).scale(-2.0 * (n - 2)))
            pts = interior_points(n, m=10, seed=3)
            diff = np.abs(lhs.eval_points(pts) - rhs.eval_points(pts))
            scale = rel_scale(rhs, pts)
            assert np.max(diff) < 1e-8 * scale

    def test_derivative_recursion_k1(self):
        # (1-r^2)N^2 u + 2(n-2)Nu = (1-r^2)[(n-2)Nu - tangential u]
        for n in (3, 5):
            u = sample_u(n, seed=n)
            one_minus = [1.0, 0.0, -1.0]
            lhs = hm._mul_poly(hm.apply_N(u, 2), one_minus).add(
                hm.apply_N(u).scale(2.0 * (n - 2)))
            rhs = hm._mul_poly(
                hm.apply_N(u).scale(n - 2.0).add(
                    hm.apply_lap_sigma(u).scale(-1.0)), one_minus)
            pts = interior_points(n, m=10, seed=4)
            assert np.max(np.abs(lhs.eval_points(pts)
                                 - rhs.eval_points(pts))) < 1e-9

    def test_derivative_recursion_k2(self):
        # second instance, obtained by applying N to the first and reusing it
        for n in (4, 5):
            u = sample_u(n, seed=n + 2)
            one_minus = [1.0, 0.0, -1.0]
            lhs = hm._mul_poly(hm.apply_N(u, 3), one_minus).add(
                hm.apply_N(u, 2).scale(2.0 * (n - 3)))
            inner = hm.apply_N(u, 2).scale(n - 3.0).add(
                hm.apply_N(u).scale(n - 2.0)).add(
                hm.apply_lap_sigma(u).scale(-1.0)).add(
                hm.apply_N(hm.apply_lap_sigma(u)).scale(-1.0))
            rhs = hm.apply_lap_sigma(u).scale(2.0).add(
                hm._mul_poly(inner, one_minus))
            pts = interior_points(n, m=10, seed=5)
            assert np.max(np.abs(lhs.eval_points(pts)
                                 - rhs.eval_points(pts))) < 1e-9

    def test_half_power_squares_to_full(self):
        u = sample_u(3, seed=1)
        half2 = hm.apply_neg_lap_sigma_half(hm.apply_neg_lap_sigma_half(u))
        full = hm.apply_lap_sigma(u).scale(-1.0)
        pts = interior_points(3, m=6, seed=6)
        assert np.allclose(half2.eval_points(pts), full.eval_points(pts),
                           atol=1e-12)

    def test_L_fd_matches_mode_route(self):
        n = 4
        w = hm.apply_N(sample_u(n, seed=8))  # non-harmonic input
        Lw = hm.apply_L(w)
        x = 0.5 * e_vec(n)
        got = apply_L_fd(lambda y: w.eval_points(y[None])[0], x, n)
        assert got == pytest.approx(Lw.eval_points(x[None])[0], rel=1e-5,
                                    abs=1e-7)

    def test_L_fd_origin_guard(self):
        n = 3
        u = sample_u(n)
        with pytest.raises(OriginSingularity):
            apply_L_fd(lambda y: u.eval_points(y[None])[0], 1e-5 * e_vec(n),
                       n)


class TestDilation:
    def test_values(self):
        u = sample_u(4, seed=5)
        v = hm.dilate(u, 0.6)
        pts = interior_points(4, m=8, seed=7)
        assert np.allclose(v.eval_points(pts), u.eval_points(0.6 * pts),
                           atol=1e-12)

    def test_interpolating_operator_annihilates(self):
        # the dilated extension solves the delta-interpolating equation
        n = 4
        delta = 0.7
        v = hm.dilate(sample_u(n, seed=9), delta)
        pts = interior_points(n, m=6, seed=8)
        scale = rel_scale(v, pts)
        for x in pts:
            res = hm.d_residual(lambda y: v.eval_points(y[None])[0],
                                x, n, delta=delta, h=1e-3)
            assert abs(res) < 1e-4 * scale
        # mismatched parameter must not annihilate
        res1 = hm.d_residual(lambda y: v.eval_points(y[None])[0],
                             pts[0], n, delta=1.0, h=1e-3)
        assert abs(res1) > 1e-3

    def test_N_commutes_with_dilation(self):
        u = sample_u(3, seed=2)
        a = hm.apply_N(hm.dilate(u, 0.5))
        b = hm.dilate(hm.apply_N(u), 0.5)
        pts = interior_points(3, m=6, seed=9)
        assert np.allclose(a.eval_points(pts), b.eval_points(pts),
                           atol=1e-12)


class TestGradient:
    def test_zonal_matches_fd(self):
        for n in (3, 5):
            u = sample_u(n, seed=n + 3)
            grad2 = hm.gradient_sq(u)
            pts = interior_points(n, m=8, seed=10)
            for x in pts:
                g = hm.fd_gradient(lambda y: u.eval_points(y[None])[0],
                                   x, 1e-5)
                assert grad2(x[None])[0] == pytest.approx(
                    float(g @ g), rel=1e-6, abs=1e-10)

    def test_zonal_origin_finite(self):
        u = sample_u(3, seed=4)
        val = hm.gradient_sq(u)(np.zeros((1, 3)))
        assert np.isfinite(val[0])

    def test_sph3_matches_zonal(self):
        data = sample_zonal(3, lmax=3, seed=6)
        uz = hm.extend(data)
        us = hm.zonal_as_sph3(uz)
        g2z = hm.gradient_sq(uz)
        g2s = hm.gradient_sq(us)
        pts = interior_points(3, m=8, seed=11)
        assert np.allclose(g2z(pts), g2s(pts), atol=1e-9)


class TestBatchIndependence:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([3, 4, 5]), seed=st.integers(0, 2 ** 32 - 1),
           mode=st.sampled_from(["subset", "permutation", "duplicates"]),
           sph3=st.booleans())
    def test_values_ignore_the_rest_of_the_batch(self, n, seed, mode, sph3):
        # radii up to 0.97 send r^2 > 0.9 to the Euler route and the rest
        # to the series; a few radii are shared, as on a cone grid
        rng = np.random.default_rng(seed)
        u = hm.extend(hm.random_zonal(n, 6, rng))
        if sph3 and n == 3:
            u = hm.zonal_as_sph3(u)
        m = 40
        shared = rng.uniform(0.05, 0.97, 4)
        r = np.where(rng.random(m) < 0.5, rng.choice(shared, m),
                     rng.uniform(0.05, 0.97, m))
        pts = rng.standard_normal((m, n))
        pts *= (r / np.linalg.norm(pts, axis=1))[:, None]
        if mode == "subset":
            idx = np.sort(rng.choice(m, int(rng.integers(1, m)),
                                     replace=False))
        elif mode == "permutation":
            idx = rng.permutation(m)
        else:
            idx = rng.choice(m, 2 * m, replace=True)
        grad2 = hm.gradient_sq(u)
        assert np.array_equal(u.eval_points(pts[idx]),
                              u.eval_points(pts)[idx])
        assert np.array_equal(grad2(pts[idx]), grad2(pts)[idx])


class TestRotations:
    def test_zonal_promotion_values_agree(self):
        data = sample_zonal(3, lmax=4, seed=12)
        uz = hm.extend(data)
        us = hm.zonal_as_sph3(uz)
        pts = interior_points(3, m=10, seed=12)
        assert np.allclose(uz.eval_points(pts), us.eval_points(pts),
                           atol=1e-10)

    def test_axis_rotation_kills_axial_data(self):
        pole = e_vec(3, 2)  # data symmetric about the third axis
        data = hm.ZonalExpansion(3, pole, [0.5, 0.3, 0.2])
        u = hm.extend(data)
        v = hm.apply_Lij(u, 1, 2)
        pts = interior_points(3, m=6, seed=13)
        assert np.max(np.abs(v.eval_points(pts))) < 1e-12

    def test_matches_fd(self):
        u = sample_u(3, lmax=3, seed=14)
        for (i, j) in [(1, 2), (2, 3), (3, 1)]:
            v = hm.apply_Lij(u, i, j)
            pts = interior_points(3, m=5, seed=14)
            for x in pts:
                g = hm.fd_gradient(lambda y: u.eval_points(y[None])[0],
                                   x, 1e-5)
                want = x[i - 1] * g[j - 1] - x[j - 1] * g[i - 1]
                assert v.eval_points(x[None])[0] == pytest.approx(
                    want, rel=1e-6, abs=1e-9)

    def test_antisymmetry(self):
        u = sample_u(3, lmax=3, seed=15)
        a = hm.apply_Lij(u, 1, 2)
        b = hm.apply_Lij(u, 2, 1)
        pts = interior_points(3, m=5, seed=15)
        assert np.allclose(a.eval_points(pts), -b.eval_points(pts),
                           atol=1e-12)

    def test_sum_of_squares_is_tangential_laplacian(self):
        u = sample_u(3, lmax=3, seed=16)
        total = None
        for (i, j) in [(1, 2), (2, 3), (3, 1)]:
            v = hm.apply_Lij(u, i, j, k=2)
            total = v if total is None else total.add(v)
        want = hm.apply_lap_sigma(hm.zonal_as_sph3(u))
        pts = interior_points(3, m=8, seed=16)
        assert np.allclose(total.eval_points(pts), want.eval_points(pts),
                           atol=1e-9)

    def test_higher_dimension_rejected(self):
        u = sample_u(4)
        with pytest.raises(UnsupportedDimension):
            hm.apply_Lij(u, 1, 2)


class TestInversion:
    def test_roundtrip(self):
        for n, k in [(3, 1), (4, 1), (5, 2), (3, 2)]:
            u = sample_u(n, lmax=4, seed=20 + n + k)
            Nk = hm.apply_N(u, k)
            Nk1 = hm.apply_N(u, k + 1)

            def v_func(t, _a=Nk, _b=Nk1, _n=n, _k=k):
                t = np.asarray(t, dtype=float)
                return (2.0 * (_n - 1 - _k) * _a.eval_rt(t, 1.0)
                        + (1.0 - t ** 2) * _b.eval_rt(t, 1.0))

            for r in (0.4, 0.8):
                got = hm.invert_N_from_ray(v_func, r, n, k)
                assert got == pytest.approx(Nk.eval_rt(r, 1.0), rel=1e-8,
                                            abs=1e-10)


class TestDataIngestion:
    def test_zonal_coeffs_roundtrip(self):
        doc = {"n": 4, "kind": "zonal-coeffs", "pole": [0, 1, 0, 0],
               "coeffs": [1.0, 0.5, 0.25]}
        data = hm.load_boundary_data(doc)
        assert isinstance(data, hm.ZonalExpansion)
        assert np.allclose(data.coeffs, [1.0, 0.5, 0.25])
        assert np.allclose(data.pole, [0, 1, 0, 0])

    def test_json_text(self):
        data = hm.load_boundary_data(
            '{"n": 3, "kind": "zonal-coeffs", "coeffs": [1]}')
        assert isinstance(data, hm.ZonalExpansion)
        assert np.array_equal(data.coeffs, [1.0])

    def test_zonal_samples_projection(self):
        # samples of a degree-2 zonal polynomial on a fine grid project back
        target = hm.ZonalExpansion(3, e_vec(3), [0.4, 0.0, 0.2])
        ts = np.linspace(-1, 1, 801)
        doc = {"n": 3, "kind": "zonal-samples", "pole": [1, 0, 0],
               "samples": [[float(t), float(v)] for t, v in
                           zip(ts, target.boundary_value(ts))]}
        data = hm.load_boundary_data(doc)
        assert np.allclose(data.coeffs[:3], [0.4, 0.0, 0.2], atol=1e-5)
        assert np.max(np.abs(data.coeffs[3:])) < 1e-5

    def test_sph3_coeffs(self):
        doc = {"n": 3, "kind": "sph3-coeffs", "pole": [0, 0, 1],
               "coeffs": [[[1.0, 0.0]],
                          [[0.1, -0.2], [0.5, 0.0], [-0.1, -0.2]]]}
        data = hm.load_boundary_data(doc)
        assert isinstance(data, hm.Sph3Expansion)
        u = hm.extend(data)
        x = 0.4 * np.array([0.0, 0.6, 0.8])
        assert np.isfinite(u.eval_points(x[None])[0])

    def test_malformed(self):
        for doc in ["not json at all", '{"kind": "zonal-coeffs"}',
                    {"n": 3, "kind": "mystery"},
                    {"n": 3, "kind": "zonal-coeffs"},
                    {"n": 2, "kind": "zonal-coeffs", "coeffs": [1]},
                    {"n": 3, "kind": "zonal-coeffs", "coeffs": [1],
                     "pole": [1, 0]},
                    {"n": 4, "kind": "sph3-coeffs", "coeffs": []}]:
            with pytest.raises(DataFileError):
                hm.load_boundary_data(doc)

    def test_projection_recovers_zonal_basis(self):
        for n in (3, 5):
            want = np.array([0.3, 0.0, 1.0, -0.2])
            phi = hm.ZonalExpansion(n, e_vec(n), want)
            got = hm.project_zonal(phi.boundary_value, n, 6)
            assert np.allclose(got[:4], want, atol=1e-10)
            assert np.max(np.abs(got[4:])) < 1e-10

    def test_random_zonal_deterministic(self):
        a = hm.random_zonal(4, 6, np.random.default_rng(42))
        b = hm.random_zonal(4, 6, np.random.default_rng(42))
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.all(np.abs(a.coeffs) <= (np.arange(7) + 1.0) ** -2.0)
