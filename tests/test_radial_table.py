"""The all-degree radial table against the degree-by-degree and
mode-by-mode sums it replaced (tests/oracles.py): every value bit for bit,
whatever the degrees, orders, radii and their repetitions and order."""

import numpy as np
import pytest

from hyperharm import harmonic as hm
from hyperharm import specfun as sf
from oracles import (diff_r_polynomial, eval_points_per_mode,
                     eval_rt_per_mode, fl_deriv_one_degree,
                     gradient_sq_per_mode)

X_MAX = sf._SERIES_X_MAX
# x = 0 and 1, both sides of the series/Euler switch, a repeat, and the
# rest out of order
XS = np.array([0.5, 0.0, np.nextafter(X_MAX, 0.0), X_MAX,
               np.nextafter(X_MAX, 1.0), 0.97, 1.0, 0.25, 0.5, 0.999, 0.03])


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_fl_deriv_degree_array_matches_one_degree(n, order):
    # l = 0 and, for even n, orders >= n/2 have a zero prefactor
    ls = np.array([0, 1, 2, 3, 7, 16, 40])
    table = sf.fl_deriv(ls[:, None], n, XS, order)
    assert table.shape == (ls.size, XS.size)
    for l, row in zip(ls, table):
        assert _bits_equal(row, fl_deriv_one_degree(int(l), n, XS, order)), l


def test_fl_deriv_many_series_rows_match():
    # more series rows than one slice holds, several degrees per radius
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, X_MAX, 700)
    ls = np.arange(1, 5)
    table = sf.fl_deriv(ls[:, None], 3, x, 1)
    for l, row in zip(ls, table):
        assert _bits_equal(row, fl_deriv_one_degree(int(l), 3, x, 1))


def _zonal(n, lmax, seed, delta=1.0):
    rng = np.random.default_rng(seed)
    return hm.extend(hm.random_zonal(n, lmax, rng, decay=1.0), delta=delta)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_eval_rt_matches_per_mode_sum(n):
    u = _zonal(n, 24, n)
    # radii whose delta^2 r^2 falls on both sides of the switch, a repeat
    # and the centre, out of order; then operators adding buckets
    r = np.array([0.97, 0.2, 0.0, np.sqrt(X_MAX), 0.5, 0.97, 0.999])
    t = np.linspace(-1.0, 1.0, r.size)
    for v in (u, hm.apply_N(u, 2), hm.apply_L(u), hm.dilate(u, 0.9)):
        assert _bits_equal(v.eval_rt(r, t), eval_rt_per_mode(v, r, t))
        perm = np.random.default_rng(1).permutation(r.size)
        assert _bits_equal(v.eval_rt(r[perm], t[perm]),
                           eval_rt_per_mode(v, r, t)[perm])
        # one radius against many angles
        assert _bits_equal(v.eval_rt(0.93, t), eval_rt_per_mode(v, 0.93, t))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_eval_points_and_gradient_match_per_mode_sums(n):
    u = hm.apply_N(_zonal(n, 16, 10 + n))
    rng = np.random.default_rng(n)
    pts = rng.standard_normal((30, n))
    pts *= (rng.uniform(0.0, 0.995, 30)
            / np.linalg.norm(pts, axis=1))[:, None]
    pts = np.vstack([pts, pts[:5]])
    assert _bits_equal(u.eval_points(pts), eval_points_per_mode(u, pts))
    assert _bits_equal(hm.gradient_sq(u)(pts), gradient_sq_per_mode(u, pts))


def test_sph3_eval_points_matches_per_mode_sum():
    rng = np.random.default_rng(8)
    coeffs = tuple(rng.standard_normal(2 * l + 1)
                   + 1j * rng.standard_normal(2 * l + 1) for l in range(12))
    u = hm.apply_N(hm.extend(hm.Sph3Expansion(coeffs)))
    pts = rng.standard_normal((25, 3))
    pts *= (rng.uniform(0.0, 0.99, 25) / np.linalg.norm(pts, axis=1))[:, None]
    assert _bits_equal(u.eval_points(pts), eval_points_per_mode(u, pts))


def test_point_outside_ball_is_refused():
    u = _zonal(3, 4, 0)
    with pytest.raises(ValueError):
        u.eval_points([[0.5, 0.9, 0.3]])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_diff_r_matches_numpy_polynomial(n):
    # signed zeros included: compare the bytes of every polynomial
    signed = hm.RadialPart(2, n, 0.7, (np.array([-0.0, -1.5, 0.0, -0.0, 3.0]),
                                       np.array([-4.0]),
                                       np.array([0.0, -0.0, -2.0])))
    for delta in (1.0, 0.8):
        u = _zonal(n, 12, n, delta)
        for v in (u, hm.apply_N(u), hm.apply_L(u), hm.apply_D(u)):
            for rad in [rad for rad, _ in v.modes] + [signed]:
                for _ in range(2):  # d/dr and d^2/dr^2
                    got, want = rad.diff_r(), diff_r_polynomial(rad)
                    assert len(got.polys) == len(want.polys)
                    assert all(_bits_equal(p, q)
                               for p, q in zip(got.polys, want.polys))
                    rad = got
