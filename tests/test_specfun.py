"""Tests for the hypergeometric radial family and zonal harmonics."""

import math

import numpy as np
import pytest

from hyperharm import specfun as sf
from hyperharm.errors import NonConvergence


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
