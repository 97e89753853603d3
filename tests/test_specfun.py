"""Tests for the hypergeometric radial family, zonal and spherical
harmonics, and the Gauss-Jacobi rules."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperharm import specfun as sf
from hyperharm.errors import NonConvergence
from oracles import gauss_jacobi_mp, sph_harm_y

ROOT = Path(__file__).resolve().parent.parent


def series_2f1_oracle(a, b, c, x, terms=200):
    """Brute-force partial sum, independent of the library path."""
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * x
        total += term
    return total


def series_2f1_loop(a, b, c, x, tol=sf.SERIES_TOL, cap=sf.SERIES_CAP):
    """The per-term series loop for one point: the partial sum through the
    first term with |term| <= tol * max(|sum|, 1), and the terms taken."""
    term = total = 1.0
    for k in range(cap):
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * x
        total = total + term
        if abs(term) <= tol * max(abs(total), 1.0):
            return total, k + 1
    raise NonConvergence("oracle did not converge")


def zonal_polynomial(l, n, t):
    """Z_l from its monomial coefficients (Gegenbauer recurrence on the
    coefficient vectors), independent of the library's pointwise recurrence."""
    lam = (n - 2.0) / 2.0
    polys = [np.array([1.0]), np.array([0.0, 2.0 * lam])]
    for k in range(2, l + 1):
        a = np.zeros(k + 1)
        a[1:] += 2.0 * (k + lam - 1.0) / k * polys[k - 1]
        a[: k - 1] -= (k + 2.0 * lam - 2.0) / k * polys[k - 2]
        polys.append(a)
    scale = (2.0 * l + n - 2.0) / (n - 2.0)
    return np.polynomial.polynomial.polyval(t, scale * polys[l][: l + 1])


class TestPochhammer:
    def test_empty_product(self):
        assert sf.pochhammer(3.0, 0) == 1.0

    def test_rising_factorial(self):
        assert sf.pochhammer(2.0, 3) == 24.0

    def test_l1_p2(self):
        # (l+p)_{p-1} with l=1, p=2
        assert sf.pochhammer(3.0, 1) == 3.0


class TestRadialFamily:
    def test_l0_is_one(self):
        assert sf.fl_deriv(0, 5, 0.7, 0) == 1.0

    def test_value_at_one_even_n(self):
        # F_1(1) for n=4 equals (p)_{p-1}/(l+p)_{p-1} = 2/3 with p=2, l=1,
        # matching both the Gauss closed form and the terminating series
        val = sf.gauss_Fl_at_one(1, 4)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert val == pytest.approx(series_2f1_oracle(1, -1, 3, 1.0), abs=1e-14)

    def test_against_series_oracle(self):
        want = series_2f1_oracle(2, 1 - 1.5, 2 + 1.5, 0.5)
        got = sf.fl_deriv(2, 3, 0.5, 0) * sf.gauss_Fl_at_one(2, 3)
        assert got == pytest.approx(want, rel=1e-12)

    def test_gauss_closed_form_matches_series_limit(self):
        for l, n in [(1, 3), (2, 5), (4, 3), (3, 5)]:
            want = series_2f1_oracle(l, 1 - n / 2, l + n / 2, 1.0, terms=4_000_000)
            assert sf.gauss_Fl_at_one(l, n) == pytest.approx(want, rel=1e-5)

    def test_even_n_polynomial_termination(self):
        rng = np.random.default_rng(7)
        for n in (4, 6):
            p = n // 2
            for l in (1, 3, 5):
                for x in rng.uniform(0.0, 1.0, 3):
                    # terminating sum of exactly p terms
                    want = series_2f1_oracle(l, 1 - p, l + p, x, terms=p)
                    got = sf.fl_deriv(l, n, x, 0) * sf.gauss_Fl_at_one(l, n)
                    assert got == pytest.approx(want, abs=1e-13)

    def test_normalization_exact_at_one(self):
        for l in range(6):
            for n in (3, 4, 5, 6):
                assert sf.fl_deriv(l, n, 1.0, 0) == 1.0

    def test_fl_l0_is_one(self):
        assert sf.fl_deriv(0, 6, 0.123, 0) == 1.0
        assert sf.fl_deriv(0, 6, 0.123, 2) == 0.0

    def test_near_one_odd_n(self):
        # frozen from a high-precision evaluation of 2F1(5, -1/2; 13/2; x)
        x = 0.999992
        got = sf.fl_deriv(5, 3, x, 0) * sf.gauss_Fl_at_one(5, 3)
        assert got == pytest.approx(0.45118089733599137, rel=1e-10)

    def test_derivative_rule_vs_central_difference(self):
        h = 1e-6
        for l, n, x in [(2, 3, 0.4), (3, 5, 0.7), (2, 4, 0.5)]:
            fd = (sf.fl_deriv(l, n, x + h, 0) - sf.fl_deriv(l, n, x - h, 0)) / (2 * h)
            assert sf.fl_deriv(l, n, x, 1) == pytest.approx(fd, rel=1e-6)

    def test_second_derivative_vs_difference(self):
        h = 1e-4
        l, n, x = 3, 5, 0.6
        fd = (sf.fl_deriv(l, n, x + h, 0) - 2 * sf.fl_deriv(l, n, x, 0)
              + sf.fl_deriv(l, n, x - h, 0)) / h**2
        assert sf.fl_deriv(l, n, x, 2) == pytest.approx(fd, rel=1e-6)

    def test_even_n_high_derivative_is_zero(self):
        # degree n/2 - 1 polynomial: derivatives beyond that vanish
        assert sf.fl_deriv(4, 4, 0.3, 2) == 0.0
        assert sf.fl_deriv(4, 6, 0.3, 3) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.1, 0.5, 0.92, 0.999])
        vec = sf.fl_deriv(3, 3, xs, 0)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(sf.fl_deriv(3, 3, float(x), 0), rel=1e-12)

    def test_points_route_on_their_own(self):
        # the series up to _SERIES_X_MAX, the Euler integral above it for odd
        # n, exactly 1 at x = 1 for order 0: a batch equals its points alone
        xs = np.array([0.0, 0.3, 0.9, np.nextafter(0.9, 1.0), 0.97, 1.0])
        for n in (3, 4, 5):
            for order in range(4):
                batch = sf.fl_deriv(7, n, xs, order)
                alone = [sf.fl_deriv(7, n, float(x), order) for x in xs]
                assert all(type(v) is float for v in alone)
                assert np.array_equal(batch, alone), (n, order)
            assert batch.shape == xs.shape and sf.fl_deriv(7, n, 1.0, 0) == 1.0
        for l, n, x in ((-1, 3, 0.5), (1, 2, 0.5), (3, 3, np.nan),
                        (3, 4, -0.1), (3, 5, 1.0 + 1e-12), (3, 6, np.inf),
                        (3, 3, [0.2, np.nan])):
            with pytest.raises(ValueError):
                sf.fl_deriv(l, n, x, 0)

    def test_series_stops_per_point(self):
        # points needing well under 64 terms, about 64 (one block) and
        # several blocks, summed together and one at a time, must all equal
        # the per-term loop on that point alone. At (200, -20.5, 221.5) the
        # terms grow before they fall, so small x needs more terms than
        # |x|^k alone suggests.
        xs = np.concatenate([np.linspace(0.0, 0.98, 40),
                             np.linspace(0.78, 0.8, 9), [0.01, 0.05, 0.98]])
        terms = []
        for a, b, c in [(2, -0.5, 3.5), (5.0, 0.5, 7.5), (40.0, -0.5, 41.5),
                        (200.0, -20.5, 221.5)]:
            want = [series_2f1_loop(a, b, c, float(x)) for x in xs]
            terms += [k for _, k in want]
            batch = sf._series_2f1(a, b, c, xs, sf.SERIES_TOL, sf.SERIES_CAP)
            assert np.array_equal(batch, [v for v, _ in want])
            for x, (v, _) in zip(xs, want):
                one = sf._series_2f1(a, b, c, x, sf.SERIES_TOL, sf.SERIES_CAP)
                assert one == v
            rev = sf._series_2f1(a, b, c, xs[::-1], sf.SERIES_TOL,
                                 sf.SERIES_CAP)
            assert np.array_equal(rev, batch[::-1])
        assert min(terms) < 64 and max(terms) > 448
        assert any(60 <= k <= 68 for k in terms)

    def test_series_many_points(self):
        # enough points that the cell budget cuts the first blocks short
        # (six terms each at 2,500 points)
        xs = np.random.default_rng(3).uniform(0.0, 0.9, 2500)
        got = sf._series_2f1(3.0, -1.5, 7.5, xs, sf.SERIES_TOL,
                             sf.SERIES_CAP)
        assert np.array_equal(
            got, [series_2f1_loop(3.0, -1.5, 7.5, float(x))[0] for x in xs])

    def test_series_cap_raises(self):
        with pytest.raises(NonConvergence):
            sf._series_2f1(2, -0.5, 3.5, np.array([0.1, 0.9]),
                           sf.SERIES_TOL, 100)
        # a cap that the slowest point just meets still converges
        _, k = series_2f1_loop(2, -0.5, 3.5, 0.9)
        sf._series_2f1(2, -0.5, 3.5, np.array([0.1, 0.9]), sf.SERIES_TOL, k)
        with pytest.raises(NonConvergence):
            sf._series_2f1(2, -0.5, 3.5, np.array([0.1, 0.9]),
                           sf.SERIES_TOL, k - 1)

    def test_per_point_parameters_match_scalar_calls(self):
        # rows with their own (a, c), in double and in long double, equal a
        # call per row with scalar a and c: terminating (b = -1, -2) and
        # not (b = -0.5, 0.5), with rows stopping in different blocks
        xs = np.array([0.0, 0.05, 0.3, 0.78, 0.8, 0.9, 0.98])
        a = np.arange(1, 200, 13)
        grid = np.broadcast_shapes(a[:, None].shape, xs.shape)
        for b in (-1.0, -2.0, -0.5, 0.5):
            c = a + 1.5 - b
            for dtype in (float, np.longdouble):
                x = xs.astype(dtype)
                got = sf._series_2f1(a[:, None], b, c[:, None], x,
                                     sf.SERIES_TOL, sf.SERIES_CAP)
                want = [[sf._series_2f1(int(ai), b, float(ci), x[[j]],
                                        sf.SERIES_TOL, sf.SERIES_CAP)[0]
                         for j in range(x.size)] for ai, ci in zip(a, c)]
                assert got.shape == grid and got.dtype == x.dtype
                assert np.array_equal(got, want), (b, dtype)
        # terms taken per row span several blocks of the series
        terms = [series_2f1_loop(float(ai), 0.5, ai + 1.0, float(x))[1]
                 for ai in a for x in xs]
        assert min(terms) < 8 and max(terms) > 200
        # a row past the cap names its own scalar parameters
        a, c = np.array([2, 5, 7]), np.array([3.5, 6.5, 8.5])
        with pytest.raises(NonConvergence) as caught:
            sf._series_2f1(a, -0.5, c, np.array([0.1, 0.99, 0.99]),
                           sf.SERIES_TOL, 100)
        assert str(caught.value) == ("2F1(5,-0.5;6.5) series did not "
                                     "converge within 100 terms")

    @pytest.mark.parametrize("cells", [1, 64])
    def test_cell_budget_keeps_bits(self, monkeypatch, cells):
        # scalar and per-point (a, c), in double and long double, with
        # points stopping in different blocks: a smaller budget splits the
        # blocks elsewhere but leaves every value, and a failure, as it was
        xs = np.concatenate([np.linspace(0.0, 0.98, 40), [0.01, 0.5, 0.9]])
        ls = np.arange(1, 120, 9)[:, None]
        cases = [((2, -0.5, 3.5), xs), ((200.0, -20.5, 221.5), xs),
                 ((ls, -0.5, ls + 2.0), xs),
                 ((ls, -1.5, ls + 2.5), xs.astype(np.longdouble))]
        want = [sf._series_2f1(a, b, c, x, sf.SERIES_TOL, sf.SERIES_CAP)
                for (a, b, c), x in cases]
        bad = (np.array([2, 5, 7]), -0.5, np.array([3.5, 6.5, 8.5]))
        with pytest.raises(NonConvergence) as caught:
            sf._series_2f1(*bad, np.array([0.1, 0.99, 0.99]),
                           sf.SERIES_TOL, 100)
        monkeypatch.setattr(sf, "_SERIES_CELLS", cells)
        for ((a, b, c), x), w in zip(cases, want):
            got = sf._series_2f1(a, b, c, x, sf.SERIES_TOL, sf.SERIES_CAP)
            assert got.dtype == w.dtype and np.array_equal(got, w)
        with pytest.raises(NonConvergence) as again:
            sf._series_2f1(*bad, np.array([0.1, 0.99, 0.99]),
                           sf.SERIES_TOL, 100)
        assert str(again.value) == str(caught.value)

    def test_empty_points(self):
        for x in (np.array([]), np.empty((0, 3), np.longdouble)):
            got = sf._series_2f1(2.0, -0.5, 3.5, x, sf.SERIES_TOL,
                                 sf.SERIES_CAP)
            assert got.shape == x.shape and got.dtype == x.dtype

    def test_terminating_series_matches_loop(self):
        xs = np.linspace(0.0, 1.0, 11)
        for n in (4, 6, 8):
            b = 1.0 - n / 2.0
            for order in (0, 1):
                a, bb, c = 3.0 + order, b + order, 3.0 + n / 2.0 + order
                got = sf._series_2f1(a, bb, c, xs, sf.SERIES_TOL,
                                     sf.SERIES_CAP)
                for x, v in zip(xs, got):
                    term = total = 1.0
                    for k in range(int(-bb)):
                        term = term * ((a + k) * (bb + k)
                                       / ((c + k) * (k + 1.0))) * x
                        total = total + term
                    assert v == total


class TestZonal:
    def test_z0_is_one(self):
        assert sf.zonal_all(0, 5, -0.3)[0] == 1.0

    def test_l1_n3_is_3t(self):
        # r^1 coefficient of (1-r^2)/(1+r^2-2rt)^{3/2} is 3t
        for t in (-1.0, -0.2, 0.55, 1.0):
            assert sf.zonal_all(1, 3, t)[1] == pytest.approx(3 * t,
                                                             abs=1e-14)

    def test_n3_at_one_counts_harmonics(self):
        # (1+r)/(1-r)^2 = sum (2l+1) r^l
        assert sf.zonal_all(4, 3, 1.0)[4] == pytest.approx(9.0, abs=1e-12)
        for l in range(8):
            assert sf.zonal_at_one(l, 3) == pytest.approx(2 * l + 1, abs=1e-12)

    def test_generating_function(self):
        ts = np.linspace(-1.0, 1.0, 21)
        for n in (3, 4, 5, 6):
            for r in (0.3, 0.6, 0.9):
                # tail of sum r^l Z_l is ~ r^L L^{n-2}; triple the naive cut
                L = max(80, 3 * int(math.log(1e-12) / math.log(r)) + 60)
                Z = sf.zonal_all(L, n, ts)
                lhs = ((r ** np.arange(L + 1))[:, None] * Z).sum(axis=0)
                rhs = (1 - r * r) / (1 + r * r - 2 * r * ts) ** (n / 2.0)
                assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_zonal_polynomial_matches_recurrence(self):
        ts = np.linspace(-1, 1, 9)
        for l, n in [(0, 4), (3, 3), (6, 5), (5, 6)]:
            assert np.allclose(zonal_polynomial(l, n, ts),
                               sf.zonal_all(l, n, ts)[l], atol=1e-10)

    def test_zonal_deriv_vs_difference(self):
        h = 1e-6
        for l, n, t in [(3, 3, 0.2), (5, 4, -0.4), (2, 6, 0.8)]:
            fd = (sf.zonal_all(l, n, t + h)[l]
                  - sf.zonal_all(l, n, t - h)[l]) / (2 * h)
            assert sf.zonal_deriv_all(l, n, t)[l] == pytest.approx(fd,
                                                                   rel=1e-6)

    def test_zonal_deriv_all_rows(self):
        # each row equals the per-degree C^{lam+1} recurrence bit for bit
        ts = np.linspace(-1.0, 1.0, 17)
        for n in (3, 4, 6):
            lam = (n - 2.0) / 2.0
            table = sf.zonal_deriv_all(40, n, ts)
            assert np.array_equal(table[0], np.zeros_like(ts))
            for l in range(1, 41):
                c = sf._gegenbauer_all(l - 1, lam + 1.0, ts)[l - 1]
                want = (2.0 * l + n - 2.0) / (n - 2.0) * 2.0 * lam * c
                assert np.array_equal(table[l], want)

    def test_eigenvalue(self):
        assert sf.lap_sigma_eigenvalue(2, 3) == -6.0
        assert sf.lap_sigma_eigenvalue(2, 4) == -8.0
        assert sf.lap_sigma_eigenvalue(0, 6) == 0.0


# The (m, a, b) rules the program asks for: `verify all` builds rules from
# this set (Legendre, Chebyshev and Gegenbauer grids, lipschitz's (136, 0,
# gamma)), and kernels.transfer_integral the (n/2 - 2, n/2 - 1) rules.
PROGRAM_RULES = [(3, 0.0, 0.0), (4, -0.5, -0.5), (4, 0.0, 0.0),
                 (6, -0.5, -0.5), (8, 0.0, 0.0), (9, 0.5, 0.5),
                 (12, -0.5, -0.5), (12, 0.0, 0.0), (13, 0.5, 0.5),
                 (16, 0.0, 0.0), (24, -0.5, 0.5), (32, 0.0, 0.0),
                 (48, 0.0, 1.0), (81, 0.0, 0.0), (136, 0.0, 0.7),
                 (151, 0.0, 0.0), (151, 1.5, 1.5)]


def jacobi_moment(k, a, b):
    """int_{-1}^{1} x^k (1-x)^a (1+x)^b dx at 50 digits, from the binomial
    expansion of x = 2s - 1 into Beta integrals."""
    import mpmath as mp
    with mp.workdps(50):
        a, b = mp.mpf(a), mp.mpf(b)
        total = mp.fsum(mp.binomial(k, j) * 2 ** j * (-1) ** (k - j)
                        * mp.beta(j + b + 1, a + 1) for j in range(k + 1))
        return float(2 ** (a + b + 1) * total)


class TestGaussJacobi:
    @pytest.mark.parametrize("m,a,b", PROGRAM_RULES)
    def test_matches_mpmath_rule(self, m, a, b):
        x, w = sf.gauss_jacobi(m, a, b)
        xm, wm = gauss_jacobi_mp(m, a, b, x)
        assert np.max(np.abs(x - xm)) <= 1e-15
        assert np.max(np.abs(w / wm - 1.0)) <= 1e-12

    @pytest.mark.parametrize("m,a,b", [(1, 0.0, 0.0), (4, -0.5, -0.5),
                                       (6, 0.0, 0.0), (9, 0.5, 0.5),
                                       (12, -0.5, 0.5), (13, 0.0, 0.7),
                                       (16, 1.0, 1.0)])
    def test_exact_on_moments_through_2m_minus_1(self, m, a, b):
        x, w = sf.gauss_jacobi(m, a, b)
        for k in range(2 * m):
            got = float(w @ x ** k)
            scale = float(w @ np.abs(x) ** k)
            assert abs(got - jacobi_moment(k, a, b)) <= 1e-13 * scale

    def test_nodes_match_scipy(self):
        from scipy.special import (roots_chebyt, roots_gegenbauer,
                                   roots_jacobi, roots_legendre)
        cases = [(roots_legendre(m), (m, 0.0, 0.0)) for m in (3, 12, 151)]
        cases += [(roots_chebyt(m), (m, -0.5, -0.5)) for m in (4, 12)]
        cases += [(roots_gegenbauer(m, lam), (m, lam - 0.5, lam - 0.5))
                  for m, lam in ((9, 1.0), (151, 2.0))]
        cases += [(roots_jacobi(m, a, b), (m, a, b))
                  for m, a, b in ((24, -0.5, 0.5), (48, 0.0, 1.0),
                                  (136, 0.0, 0.3))]
        for (xs, ws), key in cases:
            x, w = sf.gauss_jacobi(*key)
            assert np.max(np.abs(x - xs)) <= 1e-15, key
            # same normalization as scipy's rule, whose weights are
            # themselves off by up to ~1e-10 relative at these m
            assert np.allclose(w, ws, rtol=1e-9, atol=0.0), key

    def test_rule_is_read_only_and_memoized(self):
        x, w = sf.gauss_jacobi(5, 0.0, 0.5)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0
        again = sf.gauss_jacobi(5, 0.0, 0.5)
        assert again[0] is x and again[1] is w


class TestSphHarm:
    def test_matches_scipy_through_degree_40(self):
        theta = np.concatenate([[0.0, math.pi, 1e-8, math.pi - 1e-8],
                                np.linspace(0.01, 3.13, 37)])
        phi = np.linspace(-math.pi, math.pi, theta.size)
        for l in range(41):
            ms = np.arange(-l, l + 1)
            want = sph_harm_y(np.full_like(ms, l), ms, theta[:, None],
                              phi[:, None])
            got = sf.sph_harm(l, theta, phi)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13, l

    def test_scalar_angles(self):
        got = sf.sph_harm(3, 0.7, -1.2)
        want = sph_harm_y(3, np.arange(-3, 4), 0.7, -1.2)
        assert got.shape == (7,)
        assert np.allclose(got, want, rtol=0.0, atol=1e-15)


# Every former scipy call site of the program, run in a fresh interpreter
GUARD = """
import sys
import numpy as np
from hyperharm import (cli, config, errors, functionals, geometry, harmonic,
                       kernels, specfun, verify)
xi = np.array([1.0, 0.0, 0.0])
for n in (3, 4):
    geometry.cone_quadrature(geometry.ConeRegion(0.5, np.eye(n)[0]), n, 0.9)
    geometry.ball_quadrature(n, np.zeros(n), 0.5)
geometry.sphere_quadrature(5, 8)
geometry.sphere_quadrature(3, 8, full=True)
specfun.fl_deriv(np.arange(1, 6), 3, 0.95, 1)  # the Euler route, x > 0.9
kernels.transfer_integral(lambda s: np.ones_like(s), 0.4, 3,
                          c=kernels.eta_constant(3))
verify._project_singular_zonal(0.5, 0.2, 16)
u = harmonic.extend(harmonic.ZonalExpansion(3, xi, [0.5, 0.3, 0.2]))
harmonic.zonal_as_sph3(u).eval_points(np.array([[0.1, 0.2, 0.3]]))
functionals.ray_integral_Il(u, 0.5, np.array([0.3, 0.1, 0.0]))
harmonic.invert_N_from_ray(lambda t: t, 0.5, 3, 0)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_program_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", GUARD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
