"""Tests for kernel evaluation, the even-dimension decomposition, and the
radial transfer identity."""

import math
import warnings

import numpy as np
import pytest

from hyperharm import geometry as geo
from hyperharm import kernels as ker
from hyperharm import specfun as sf
from hyperharm.errors import TruncationWarning, UnsupportedDimension
from hyperharm.geometry import BallPoint


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


class TestClosedForms:
    def test_euclid_center(self):
        assert ker.poisson_euclid(BallPoint(0.0, e1(4)), e1(4)) == 1.0

    def test_euclid_on_axis(self):
        # r=0.5, t=1, n=3: 0.75/0.25^1.5 = 6
        assert ker.poisson_euclid_rt(3, 0.5, 1.0) == pytest.approx(6.0)

    def test_hyp_center(self):
        assert ker.poisson_hyp(BallPoint(0.0, e1(3)), e1(3)) == 1.0

    def test_hyp_axis_values(self):
        for n, r in [(3, 0.4), (5, 0.7)]:
            want_plus = ((1 + r) / (1 - r)) ** (n - 1)
            want_minus = ((1 - r) / (1 + r)) ** (n - 1)
            assert ker.poisson_hyp_rt(n, r, 1.0) == pytest.approx(want_plus)
            assert ker.poisson_hyp_rt(n, r, -1.0) == pytest.approx(want_minus)

    def test_positivity_random(self):
        rng = np.random.default_rng(8)
        r = rng.uniform(0, 0.99, 10_000)
        t = rng.uniform(-1, 1, 10_000)
        for n in (3, 4, 5, 6):
            assert np.all(ker.poisson_euclid_rt(n, r, t) > 0)
            assert np.all(ker.poisson_hyp_rt(n, r, t) > 0)


class TestSeries:
    def test_l0_partial_sum(self):
        assert ker.poisson_hyp_series_rt(3, 0.5, 0.2, 0.7, L=0) == 1.0

    def test_delta0_matches_euclid(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(-1, 1, 20)
        s = ker.poisson_hyp_series_rt(4, 0.6, t, 0.0)
        assert np.max(np.abs(s - ker.poisson_euclid_rt(4, 0.6, t))) < 1e-8

    def test_delta1_matches_hyp(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(-1, 1, 20)
        s = ker.poisson_hyp_series_rt(3, 0.6, t, 1.0)
        assert np.max(np.abs(s - ker.poisson_hyp_rt(3, 0.6, t))) < 1e-8

    def test_relative_accuracy_hard_case(self):
        # n=6, r=0.9, t near -1: heavy cancellation; the extended-precision
        # and arbitrary-precision paths must keep pointwise relative accuracy
        t = np.array([-0.9957, -0.9, 0.3])
        s = ker.poisson_hyp_series_rt(6, 0.9, t, 1.0)
        h = ker.poisson_hyp_rt(6, 0.9, t)
        assert np.max(np.abs(s - h) / h) < 1e-8

    def test_intermediate_delta_positive_unit_mass(self):
        for n in (3, 5):
            g = geo.sphere_quadrature(n, 300)
            t = g.nodes @ g.pole
            for r in (0.3, 0.6, 0.9):
                v = ker.poisson_hyp_series_rt(n, r, t, 0.5, cap=1024)
                assert v.min() > 0
                assert g.integrate(v) == pytest.approx(1.0, abs=1e-7)

    def test_angles_stop_on_their_own(self, monkeypatch):
        # an angle's value does not depend on the other angles in the call
        # (the series alone here; the mpmath fallback is checked below)
        ts = np.linspace(-1.0, 1.0, 11)
        kw = dict(mp_amplification=np.inf)
        for n in (3, 4, 5, 6):
            for delta in (0.0, 0.5, 1.0):
                for r in (0.3, 0.9):
                    grid = ker.poisson_hyp_series_rt(n, r, ts, delta, **kw)
                    alone = [ker.poisson_hyp_series_rt(n, r, t, delta, **kw)
                             for t in ts]
                    assert np.array_equal(grid, np.concatenate(alone))
        # an angle that takes the mpmath fallback, alone and in a batch
        fallback = []
        mp_point = ker._series_point_mp
        monkeypatch.setattr(ker, "_series_point_mp",
                            lambda *a, **k: fallback.append(a[2])
                            or mp_point(*a, **k))
        t = np.array([-0.9957, -0.5, 0.0, 0.7])
        grid = ker.poisson_hyp_series_rt(6, 0.9, t, 1.0)
        alone = ker.poisson_hyp_series_rt(6, 0.9, t[:1], 1.0)
        assert fallback == [-0.9957, -0.9957]
        assert np.array_equal(grid[:1], alone)

    def test_truncation_warning(self):
        with pytest.warns(TruncationWarning):
            ker.poisson_hyp_series_rt(6, 0.95, -0.2, 1.0, cap=10)

    def test_ballpoint_wrapper(self):
        x = BallPoint(0.5, e1(3))
        v = ker.poisson_hyp_series(x, e1(3), 1.0)
        assert v == pytest.approx(ker.poisson_hyp(x, e1(3)), rel=1e-10)


class TestDecomposition:
    def test_odd_n_rejected(self):
        with pytest.raises(UnsupportedDimension):
            ker.lemma3_build(5)

    def test_n4_polynomials(self):
        dec = ker.lemma3_build(4)
        assert dec.p == 2
        # P_0 = 1, P_1 = r/2 (frozen from the exact rational construction
        # validated against the n=4 closed form f_l(x) = (l+2)/2 - (l/2) x)
        assert np.allclose(dec.poly(0), [1.0, 0.0, 0.0])
        assert np.allclose(dec.poly(1), [0.0, 0.5, 0.0])

    def test_p0_is_one(self):
        # the l=0 mode forces P_0 = 1 in every even dimension
        for n in (4, 6, 8):
            dec = ker.lemma3_build(n)
            p0 = dec.poly(0)
            assert p0[0] == 1.0
            assert np.allclose(p0[1:], 0.0)

    def test_fl_route_agreement(self):
        dec = ker.lemma3_build(4)
        x = 0.25
        for l in (0, 1, 3, 6):
            assert dec.fl_via_decomposition(l, x) == pytest.approx(
                sf.fl_normalized(l, 4, x), abs=1e-12)

    def test_fl_route_agreement_n6(self):
        dec = ker.lemma3_build(6)
        for l in (0, 2, 5):
            for x in (0.1, 0.5, 0.9):
                assert dec.fl_via_decomposition(l, x) == pytest.approx(
                    sf.fl_normalized(l, 6, x), abs=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.05, 0.95, 1000)
        t = rng.uniform(-1, 1, 1000)
        for n in (4, 6):
            dec = ker.lemma3_build(n)
            res = np.abs(dec.reconstruct(r, t) - ker.poisson_hyp_rt(n, r, t))
            assert res.max() < 1e-9

    def test_reconstruction_pointwise_example(self):
        dec = ker.lemma3_build(4)
        got = dec.reconstruct(0.5, 0.3)
        assert got == pytest.approx(ker.poisson_hyp_rt(4, 0.5, 0.3), abs=1e-10)


class TestRadialDerivative:
    def test_matches_finite_difference(self):
        h = 1e-5
        for n in (4, 6):
            for k in (1, 2):
                for r, t in [(0.3, 0.5), (0.7, -0.2)]:
                    if k == 1:
                        fd = (ker.poisson_euclid_rt(n, r + h, t)
                              - ker.poisson_euclid_rt(n, r - h, t)) / (2 * h)
                    else:
                        fd = (ker.poisson_euclid_rt(n, r + h, t)
                              - 2 * ker.poisson_euclid_rt(n, r, t)
                              + ker.poisson_euclid_rt(n, r - h, t)) / h ** 2
                    got = ker.poisson_euclid_radial_derivative(n, k, r, t)
                    assert got == pytest.approx(fd, rel=1e-5)

    def test_k0_is_kernel(self):
        assert ker.poisson_euclid_radial_derivative(3, 0, 0.4, 0.1) == \
            pytest.approx(ker.poisson_euclid_rt(3, 0.4, 0.1), rel=1e-14)


class TestTransferKernel:
    def test_constant_closed_form(self):
        # c = 1/B(n/2, n/2-1): n=3 -> 2/pi, n=4 -> 2
        assert ker.eta_constant(3) == pytest.approx(2.0 / math.pi, rel=1e-12)
        assert ker.eta_constant(4) == pytest.approx(2.0, rel=1e-12)

    def test_calibration_matches_closed_form(self):
        for n in (3, 4, 5):
            assert ker.calibrate_eta_constant(n) == pytest.approx(
                ker.eta_constant(n), rel=1e-10)

    def test_constant_r_independent(self):
        for n in (3, 4, 5):
            c1 = ker.calibrate_eta_constant(n, r=0.1)
            c2 = ker.calibrate_eta_constant(n, r=0.9)
            assert abs(c1 - c2) < 1e-6

    def test_unit_mass(self):
        for n in (3, 4, 5):
            for r in (0.1, 0.5, 0.9):
                mass = ker.transfer_integral(lambda s: np.ones_like(s), r, n)
                assert mass == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative(self):
        s = np.linspace(1e-6, 1 - 1e-6, 101)
        for n in (3, 4, 5):
            assert np.all(ker.eta_kernel(0.6, s, n) >= 0.0)

    def test_transfer_identity(self):
        rng = np.random.default_rng(9)
        for n in (3, 4, 5):
            zeta = rng.standard_normal(n)
            zeta /= np.linalg.norm(zeta)
            xi = rng.standard_normal(n)
            xi /= np.linalg.norm(xi)
            for r in (0.3, 0.7, 0.9):
                x = BallPoint(r, zeta)
                got = ker.transfer_euclid_from_hyp(
                    lambda b: ker.poisson_hyp(b, xi), x)
                assert got == pytest.approx(ker.poisson_euclid(x, xi),
                                            abs=1e-6)

    def test_transfer_of_constant(self):
        x = BallPoint(0.5, e1(4))
        got = ker.transfer_euclid_from_hyp(lambda b: 1.0, x)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_derivative_bound_estimate(self):
        # k=1 radial-derivative mass of eta grows no faster than 1/(1-r)
        n = 4
        h = 1e-6
        ss = np.linspace(1e-8, 1 - 1e-8, 4001)
        consts = []
        for r in (0.5, 0.75, 0.875, 0.9375):
            d = r * (ker.eta_kernel(r + h, ss, n)
                     - ker.eta_kernel(r - h, ss, n)) / (2 * h)
            mass = np.trapezoid(np.abs(d), ss)
            consts.append(mass * (1 - r))
        # the scaled masses stay bounded along the ladder
        assert max(consts) < 10.0 * max(consts[0], 1e-9)
