"""Tests for kernel evaluation, the even-dimension decomposition, and the
radial transfer identity."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from hyperharm import geometry as geo
from hyperharm import kernels as ker
from hyperharm import specfun as sf
from hyperharm.errors import (NonConvergence, TruncationWarning,
                              UnsupportedDimension)


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


class TestClosedForms:
    def test_euclid_center(self):
        assert ker.poisson_euclid_rt(4, 0.0, 1.0) == 1.0

    def test_euclid_on_axis(self):
        # r=0.5, t=1, n=3: 0.75/0.25^1.5 = 6
        assert ker.poisson_euclid_rt(3, 0.5, 1.0) == pytest.approx(6.0)

    def test_hyp_center(self):
        assert ker.poisson_hyp_rt(3, 0.0, 1.0) == 1.0

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


_LD = np.longdouble


def fl_extended_loop(l, n, x, cap=4000):
    """Reference F_l on longdouble arrays, term by term with one np.all per
    term (the form the library used before its scalar series)."""
    x = np.asarray(x, dtype=_LD)
    if l == 0:
        return np.ones_like(x)
    a, b, c = _LD(l), _LD(1) - _LD(n) / 2, _LD(l) + _LD(n) / 2
    term = np.ones_like(x)
    total = np.ones_like(x)
    terminating = n % 2 == 0
    kmax = n // 2 - 1 if terminating else cap
    for k in range(kmax):
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1))) * x
        total = total + term
        if not terminating and np.all(np.abs(term)
                                      <= _LD(1e-21) * np.abs(total)):
            break
    return total


def series_loop(n, r, t, delta, tail_tol=ker.SERIES_TAIL_TOL,
                cap=ker.SERIES_CAP, mp_amplification=3e9):
    """Reference kernel series: every pair of the broadcast (r, t) arrays
    summed as given, with no deduplication and no active set."""

    @lru_cache(maxsize=None)
    def fl1_extended(l):
        # F_l(1) by the exact ratio recurrence
        # F_{l+1}(1)/F_l(1) = (l + n/2)/(l + n - 1), F_0(1) = 1
        if l == 0:
            return _LD(1)
        return fl1_extended(l - 1) * ((_LD(l - 1) + _LD(n) / 2)
                                      / (_LD(l - 1) + _LD(n) - 1))

    r = np.atleast_1d(np.asarray(r, dtype=_LD))
    t = np.atleast_1d(np.asarray(t, dtype=_LD))
    r, t = np.broadcast_arrays(r, t)
    lam = (_LD(n) - 2) / 2
    total = np.zeros_like(r)
    abs_total = np.zeros_like(r)
    c_prev = np.zeros_like(t)
    c_curr = np.ones_like(t)
    rpow = np.ones_like(r)
    d2 = _LD(delta) ** 2
    x_arr = d2 * r ** 2
    x_unique, x_inv = np.unique(x_arr, return_inverse=True)
    x_keys = [float(x) for x in x_unique]
    loud = np.full(r.shape, -1)
    stopped = np.zeros(r.shape, dtype=bool)
    kept, abs_kept = total, abs_total
    for l in range(cap + 1):
        if l == 1:
            c_prev, c_curr = c_curr, 2 * lam * t
        elif l >= 2:
            c_new = (2 * (l + lam - 1) * t * c_curr
                     - (l + 2 * lam - 2) * c_prev) / _LD(l)
            c_prev, c_curr = c_curr, c_new
        z = (2 * _LD(l) + _LD(n) - 2) / (_LD(n) - 2) * c_curr
        if delta == 0.0 or l == 0:
            ratio = _LD(1)
        else:
            num = np.array([ker._Fl_at(l, n, [xk])[0] for xk in x_keys],
                           dtype=_LD)
            if delta == 1.0:
                den = fl1_extended(l)
            else:
                den = ker._Fl_scalar(l, n, float(d2))
            ratio = (num / den)[x_inv].reshape(x_arr.shape)
        term = ratio * rpow * z
        rpow = rpow * r
        abs_term = np.abs(term)
        total = total + term
        abs_total = abs_total + abs_term
        settled = abs_term <= _LD(tail_tol) * (np.abs(total) + _LD(1e-30))
        loud = np.where(settled, loud, l)
        stop = (loud == l - 5) & ~stopped
        kept = np.where(stop, total, kept)
        abs_kept = np.where(stop, abs_total, abs_kept)
        stopped |= stop
        if stopped.all():
            break
    if not stopped.all():
        warnings.warn("kernel series truncated at the term cap",
                      TruncationWarning)
    total = np.where(stopped, kept, total)
    abs_total = np.where(stopped, abs_kept, abs_total)
    out = total.astype(float)
    if np.isfinite(mp_amplification):
        ampl = (abs_total / (np.abs(total) + _LD(1e-300))).ravel()
        rf, tf, flat = r.ravel(), t.ravel(), out.ravel()
        for i in np.nonzero(ampl > _LD(mp_amplification))[0]:
            dps = int(math.log10(float(ampl[i]))) + 14
            flat[i] = ker._series_point_mp(n, float(rf[i]), float(tf[i]),
                                           delta, cap, dps=dps)
    return out


@lru_cache(maxsize=None)
def Fl_mp(n, l, x, dps):
    """Reference F_l(x) in dps-digit arithmetic: the direct series, or Gauss
    summation at x = 1."""
    import mpmath as mp

    with mp.workdps(dps):
        a, b, c = mp.mpf(l), 1 - mp.mpf(n) / 2, l + mp.mpf(n) / 2
        if x == 1:
            return (mp.gamma(c) * mp.gamma(c - a - b)
                    / (mp.gamma(c - a) * mp.gamma(c - b)))
        term = total = mp.mpf(1)
        k = 0
        while True:
            term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
            total += term
            k += 1
            if term == 0 or abs(term) <= mp.mpf(10) ** (-dps - 5) \
                    * abs(total):
                return total


def ratio_mp(n, l, r, delta, dps):
    """Reference F_l(delta^2 r^2)/F_l(delta^2) in dps-digit arithmetic."""
    import mpmath as mp

    with mp.workdps(dps):
        rr, dd = mp.mpf(r), mp.mpf(delta)
        return Fl_mp(n, l, (dd * rr) ** 2, dps) / Fl_mp(n, l, dd ** 2, dps)


def series_point_mp_loop(n, r, t, delta, cap, dps=40):
    """Reference mpmath point evaluation that recomputes the radial ratio
    F_l(delta^2 r^2)/F_l(delta^2) at every degree."""
    import mpmath as mp

    with mp.workdps(dps):
        rr, tt = mp.mpf(r), mp.mpf(t)
        lam = mp.mpf(n - 2) / 2
        c_prev, c_curr = mp.mpf(0), mp.mpf(1)
        total, rpow = mp.mpf(0), mp.mpf(1)
        tol = mp.mpf(10) ** (-(dps - 5))
        quiet = 0
        for l in range(cap + 1):
            if l == 1:
                c_prev, c_curr = c_curr, 2 * lam * tt
            elif l >= 2:
                c_new = (2 * (l + lam - 1) * tt * c_curr
                         - (l + 2 * lam - 2) * c_prev) / l
                c_prev, c_curr = c_curr, c_new
            z = mp.mpf(2 * l + n - 2) / (n - 2) * c_curr
            ratio = (mp.mpf(1) if delta == 0.0 or l == 0
                     else ratio_mp(n, l, r, delta, dps))
            term = ratio * rpow * z
            total += term
            rpow *= rr
            if abs(term) <= tol * (abs(total) + tol):
                quiet += 1
                if quiet >= 5:
                    break
            else:
                quiet = 0
        return float(total)


def check_mp_weights(n, r, delta, dps, degrees=(1, 2, 7, 64, 300, 1024)):
    """The degree-l weights of the fallback's sum at dps digits, from a
    table at the least precision it uses, against the per-degree reference
    ratios at dps + 10 digits, to 10^-dps relative. A weight is an integer
    mantissa m over 2^s."""
    import mpmath as mp

    table = ker._mp_table(n, r, delta, dps + ker._MP_GUARD, 1024)
    with mp.workdps(dps + 10):
        for l in degrees:
            want = (ratio_mp(n, l, r, delta, dps + 10) * mp.mpf(r) ** l
                    * (2 * l + n - 2) / (n - 2))
            m, s = table[l]
            got = mp.ldexp(m, -s)
            assert abs(got - want) <= mp.mpf(10) ** -dps * abs(want), \
                (n, r, delta, l)


NO_MPMATH_SCRIPT = """
import contextlib, io, json, sys
from hyperharm import cli, kernels
points = []
point = kernels._series_point_mp
kernels._series_point_mp = lambda *a, **k: points.append(a) or point(*a, **k)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["kernel", "--kind", "hyp-delta", "--n", "6", "--r", "0.9",
                     "--delta", "1", "--grid-degree", "30"])
print(json.dumps([code, len(points),
                  sorted(m for m in sys.modules if m.startswith("mpmath"))]))
"""


def capped(fn, *args, **kw):
    """fn's value, and whether it warned that the series hit its cap."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args, **kw)
    return out, any(issubclass(w.category, TruncationWarning)
                    for w in caught)


class TestFlExtended:
    def test_scalar_matches_loop(self):
        for n in range(3, 9):
            for l in (0, 1, 2, 7, 64, 300, 1024):
                for x in (0.0, 0.1, 0.5, 0.81, 0.95, 0.99):
                    got = ker._Fl_at(l, n, [x])
                    want = fl_extended_loop(l, n, _LD(x))
                    assert got.dtype == _LD
                    assert got[0] == want[()], (n, l, x)
                    assert ker._Fl_scalar(l, n, x) == got[0], (n, l, x)

    @staticmethod
    def check_array(ns):
        # the loop oracle stops on all points at once, so one point per call
        x = np.linspace(0.0, 0.99, 37)
        for n in ns:
            for l in (1, 2, 9, 500, 1024):
                got = ker._Fl_at(l, n, x)
                want = [fl_extended_loop(l, n, xk)[()] for xk in x]
                assert np.array_equal(got, want), (n, l)

    def test_even_n_array_matches_loop(self):
        self.check_array((4, 6, 8))

    def test_odd_n_array_matches_loop(self):
        self.check_array((3, 5, 7))

    def test_series_cap_raises(self):
        # near x = 1 the odd-n series needs millions of terms; it refuses at
        # its cap instead of returning a partial sum
        with pytest.raises(NonConvergence):
            ker._Fl_at(5, 3, [0.5, 0.99999])


class TestSeries:
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
        # (the series alone here; the fallback is checked below)
        ts = np.linspace(-1.0, 1.0, 11)
        kw = dict(mp_amplification=np.inf)
        for n in (3, 4, 5, 6):
            for delta in (0.0, 0.5, 1.0):
                for r in (0.3, 0.9):
                    grid = ker.poisson_hyp_series_rt(n, r, ts, delta, **kw)
                    alone = [ker.poisson_hyp_series_rt(n, r, t, delta, **kw)
                             for t in ts]
                    assert np.array_equal(grid, np.concatenate(alone))
        # an angle that takes the high-precision fallback, alone and in a batch
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
        # with cold caches, the same point alone and in a batch whose other
        # fallback points take other precisions
        dps = []
        monkeypatch.setattr(ker, "_series_point_mp",
                            lambda *a, **k: dps.append(k["dps"])
                            or mp_point(*a, **k))
        t = np.array([-1.0, -0.9957, -0.96, -0.8])
        for cache in (ker._mp_table, ker._Fl_scalar):
            cache.cache_clear()
        alone = ker.poisson_hyp_series_rt(6, 0.9, t[1:2], 1.0)
        for cache in (ker._mp_table, ker._Fl_scalar):
            cache.cache_clear()
        grid = ker.poisson_hyp_series_rt(6, 0.9, t, 1.0)
        assert len(set(dps[1:])) == 4  # four points, four precisions
        assert np.array_equal(grid[1:2], alone)

    def test_grids_match_loop(self):
        # r x t broadcast grids: one sum per distinct pair over an active
        # set, in blocks of degrees, gives the reference loop's values bit
        # for bit
        r = np.array([0.0, 0.3, 0.6, 0.8, 0.95])[:, None]
        t = np.concatenate([np.linspace(-1.0, 1.0, 13),
                            np.random.default_rng(5).uniform(-1, 1, 4)])
        kw = dict(mp_amplification=np.inf)
        for n in (3, 4, 5, 6):
            for delta in (0.0, 0.25, 0.5, 1.0):
                got, got_cut = capped(ker.poisson_hyp_series_rt,
                                      n, r, t, delta, **kw)
                want, want_cut = capped(series_loop, n, r, t, delta, **kw)
                assert got.shape == want.shape == (5, 17)
                assert np.array_equal(got, want), (n, delta)
                assert got_cut == want_cut, (n, delta)
        # more pairs than one block's cell budget holds at the first block's
        # degree count, so that blocks are cut short
        t = np.linspace(-1.0, 1.0, 5000)
        assert t.size * ker._BLOCK_FIRST > ker._BLOCK_CELLS
        got = ker.poisson_hyp_series_rt(5, 0.6, t, 0.5)
        assert np.array_equal(got, series_loop(5, 0.6, t, 0.5))

    @pytest.mark.parametrize("n,r,t,delta", [
        (3, 0.82, np.linspace(-1.0, 1.0, 201), 0.95),
        (4, np.array([0.3, 0.9])[:, None], np.linspace(-1.0, 1.0, 21),
         np.array([0.25, 0.75])[:, None, None])])
    def test_normalisers_join_each_block_call(self, monkeypatch, n, r, t,
                                              delta):
        # each block takes its normalisers F_l(delta^2) in its one F_l
        # call, from cold caches, with the per-degree loop's values
        counts = {"blocks": 0, "series": 0}

        def counted(name, fn):
            def wrapper(*args, **kw):
                counts[name] += 1
                return fn(*args, **kw)
            return wrapper

        for cache in (ker._Fl_scalar, ker._mp_table):
            cache.cache_clear()
        with monkeypatch.context() as m:
            m.setattr(sf, "gegenbauer_rows",
                      counted("blocks", sf.gegenbauer_rows))
            m.setattr(sf, "_series_2f1", counted("series", sf._series_2f1))
            got = ker.poisson_hyp_series_rt(n, r, t, delta)
        assert 0 < counts["series"] <= counts["blocks"]
        assert ker._Fl_scalar.cache_info().misses == 0
        deltas = np.ravel(delta)
        want = np.stack([series_loop(n, r, t, float(d)) for d in deltas])
        assert np.array_equal(got, want.reshape(got.shape))

    def test_block_past_every_stop_fails_to_converge(self):
        # at delta^2 = 0.9998 the odd-n F_l(delta^2) series exceeds its term
        # cap from degree 44 on, past where every r = 0.3 pair stops; the
        # block that reaches it is redone degree by degree, as in the loop
        t = np.linspace(-1.0, 1.0, 9)
        got = ker.poisson_hyp_series_rt(3, 0.3, t, 0.9999)
        assert np.array_equal(got, series_loop(3, 0.3, t, 0.9999))
        with pytest.raises(NonConvergence):
            ker.poisson_hyp_series_rt(3, 0.9, t, 0.9999)
        # one delta's failing normaliser fails the call for every delta
        with pytest.raises(NonConvergence):
            ker.poisson_hyp_series_rt(3, 0.9, t, np.array([[0.5], [0.9999]]))

    def test_duplicated_permuted_and_subset_pairs(self):
        rng = np.random.default_rng(11)
        base_r = rng.choice([0.2, 0.7, 0.9], 12)
        base_t = np.concatenate([rng.uniform(-1, 1, 10), [0.0, -0.0]])
        r = np.concatenate([base_r, base_r[:5], [0.7, 0.7]])
        t = np.concatenate([base_t, base_t[:5], [0.0, -0.0]])
        kw = dict(mp_amplification=np.inf)
        for n, delta in ((3, 0.5), (4, 1.0), (5, 0.25)):
            full = ker.poisson_hyp_series_rt(n, r, t, delta, **kw)
            assert np.array_equal(full, series_loop(n, r, t, delta, **kw))
            perm = rng.permutation(r.size)
            assert np.array_equal(
                ker.poisson_hyp_series_rt(n, r[perm], t[perm], delta, **kw),
                full[perm])
            sub = perm[:7]
            assert np.array_equal(
                ker.poisson_hyp_series_rt(n, r[sub], t[sub], delta, **kw),
                full[sub])

    def test_truncated_call_matches_loop(self):
        # caps on both sides of the first two block edges (degrees 0..cap)
        t = np.array([-0.2, 0.4, 0.4])
        b = ker._BLOCK_FIRST
        for cap in (10, b - 1, b, b + 1, 3 * b - 1, 3 * b, 3 * b + 1):
            with pytest.warns(TruncationWarning):
                got = ker.poisson_hyp_series_rt(5, 0.95, t, 0.5, cap=cap)
            with pytest.warns(TruncationWarning):
                want = series_loop(5, 0.95, t, 0.5, cap=cap)
            assert np.array_equal(got, want), cap

    def test_flagged_angle_repeated_evaluated_once(self, monkeypatch):
        calls = []
        mp_point = ker._series_point_mp
        monkeypatch.setattr(ker, "_series_point_mp",
                            lambda *a, **k: calls.append(a[2])
                            or mp_point(*a, **k))
        t = np.array([-0.9957, 0.3, -0.9957, -0.9957])
        batch = ker.poisson_hyp_series_rt(6, 0.9, t, 1.0)
        assert calls == [-0.9957]
        alone = ker.poisson_hyp_series_rt(6, 0.9, -0.9957, 1.0)
        assert np.array_equal(batch[[0, 2, 3]], np.repeat(alone, 3))
        assert np.array_equal(batch, series_loop(6, 0.9, t, 1.0))

    def test_mp_point_matches_loop(self):
        # the fallback's radial table, built by the backward recurrence,
        # against the per-degree ratios the reference loop recomputes
        for n in range(3, 9):
            for delta in (0.25, 0.5, 0.95, 1.0):
                for r in (0.0, 0.3, 0.9, 0.99):
                    check_mp_weights(n, r, delta, 22)
        # and whole points, against the reference loop in ten more digits
        for n, r, t, delta, dps in ((6, 0.9, -0.9957, 1.0, 22),
                                    (6, 0.9, -0.9, 1.0, 22),
                                    (6, 0.8, -0.99, 0.5, 21),
                                    (5, 0.6, -0.5, 0.5, 18),
                                    (3, 0.7, 0.2, 0.25, 18)):
            got = ker._series_point_mp(n, r, t, delta, 1024, dps=dps)
            want = series_point_mp_loop(n, r, t, delta, 1024, dps=dps + 10)
            assert got == pytest.approx(want, rel=1e-10, abs=0), (n, r, t)

    def test_mp_weights_near_one(self):
        # delta^2 = 0.998 would put Miller's start 32k degrees above the
        # cap; the recurrence starts at the cap from mpmath's hyp2f1 instead
        # (even n terminates, odd n does not)
        for n in (4, 5):
            start = time.perf_counter()
            ker._mp_table.cache_clear()
            ker._mp_table(n, 0.99, 0.999, 22 + ker._MP_GUARD, 1024)
            assert time.perf_counter() - start < 5.0
            check_mp_weights(n, 0.99, 0.999, 22)

    def test_mp_fallback_points_match_closed_form(self, monkeypatch):
        # every fallback point of acceptance criterion 01's delta = 1 grid
        # with r <= 0.9, at the precision the series picks, against the
        # closed form in 50 digits
        import mpmath as mp

        seen = []
        mp_point = ker._series_point_mp
        monkeypatch.setattr(ker, "_series_point_mp",
                            lambda *a, **k: seen.append((a, mp_point(*a, **k)))
                            or seen[-1][1])
        t = np.linspace(-1.0, 1.0, 101)
        for n in (3, 4, 5, 6):
            for r in (0.3, 0.6, 0.9):
                ker.poisson_hyp_series_rt(n, r, t, 1.0)
        assert len(seen) >= 20
        with mp.workdps(50):
            for (n, r, tt, _, _), got in seen:
                rr, tt = mp.mpf(r), mp.mpf(tt)
                want = ((1 - rr ** 2) / (1 + rr ** 2 - 2 * rr * tt)) ** (n - 1)
                assert abs(got / want - 1) <= 4e-15, (n, r, tt)

    def test_mp_points_at_deep_cancellation(self, monkeypatch):
        # delta = 1 against the closed form in 50 digits, at a dps too low
        # where the terms cancel deepest (n = 8, r = 0.9, t = -1: value
        # 1.1e-9 from terms near 1e9), so that the point sizes its own
        # precision from its sum; and through the series (11, 0.85, -1):
        # value 1.2e-11 from terms near 1e11, cancellation past what the
        # long-double pass can measure
        import mpmath as mp

        def closed(n, r, t):
            with mp.workdps(50):
                r, t = mp.mpf(r), mp.mpf(t)
                return ((1 - r ** 2) / (1 + r ** 2 - 2 * r * t)) ** (n - 1)

        for n in range(3, 9):
            for r in (0.6, 0.9):
                for t in (-1.0, -0.95, -0.9):
                    got = ker._series_point_mp(n, r, t, 1.0, 1024, dps=20)
                    assert abs(got / closed(n, r, t) - 1) <= 4e-15, (n, r, t)
        seen = []
        mp_point = ker._series_point_mp
        monkeypatch.setattr(ker, "_series_point_mp",
                            lambda *a, **k: seen.append((a, k["dps"]))
                            or mp_point(*a, **k))
        got = ker.poisson_hyp_series_rt(11, 0.85, -1.0, 1.0)[0]
        assert len(seen) == 1 and got < 1e-10
        assert abs(got / closed(11, 0.85, -1.0) - 1) <= 4e-15
        # delta < 1, at the dps the series picks, against the reference loop
        # in ten more digits up to degree 2048, so that a point that reached
        # the cap would show; (10, 0.9, -1, 0.95) cancels by 3e20
        seen.clear()
        capped = []
        for n, r, t, delta in ((6, 0.9, -1.0, 0.95), (8, 0.9, -1.0, 0.25),
                               (10, 0.9, -1.0, 0.95)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = ker.poisson_hyp_series_rt(n, r, t, delta)[0]
            capped.append(any(issubclass(w.category, TruncationWarning)
                              for w in caught))
            args, dps = seen[-1]
            assert args == (n, r, t, delta, 1024), args
            want = series_point_mp_loop(n, r, t, delta, 2048, dps=dps + 10)
            assert got == pytest.approx(want, rel=4e-15, abs=0), args
        assert len(seen) == 3
        # the n = 10 point stops at the cap with its tail estimate, 3.7e-15
        # relative, above double rounding (it lies 2.4e-16 from degree 2048)
        assert capped == [False, False, True]

    def test_mp_fallback_loads_no_mpmath(self):
        # a kernel call whose fallback points take the Miller start, in a
        # fresh interpreter: only the start near x = 1 imports mpmath
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", NO_MPMATH_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        code, points, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0 and points > 0
        assert loaded == []

    def test_truncation_warning(self):
        with pytest.warns(TruncationWarning):
            ker.poisson_hyp_series_rt(6, 0.95, -0.2, 1.0, cap=10)

    def test_delta_grid_matches_stacked_calls(self, monkeypatch):
        # a call over delta x r x t gives each delta's own call bit for bit,
        # each side from cold caches, with one TruncationWarning per call
        # at most
        def cold(*args, **kw):
            for cache in (ker._Fl_scalar, ker._mp_table):
                cache.cache_clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = ker.poisson_hyp_series_rt(*args, **kw)
            return out, sum(issubclass(w.category, TruncationWarning)
                            for w in caught)

        def check(n, r, t, deltas, **kw):
            got, warned = cold(n, r, t, deltas[:, None, None], **kw)
            alone = [cold(n, r, t, d, **kw) for d in deltas]
            assert got.shape == np.broadcast_shapes(
                deltas[:, None, None].shape, np.shape(r), np.shape(t))
            want = np.stack([a for a, _ in alone]).reshape(got.shape)
            assert np.array_equal(got, want)
            assert warned == max(w for _, w in alone) <= 1
            return warned

        deltas = np.array([0.0, 0.5, 0.95, 1.0])
        r = np.array([0.0, 0.3, 0.9, 0.95])[:, None]
        t = np.concatenate([np.linspace(-1.0, 1.0, 9), [-0.9957, 0.123]])
        for n in (3, 4, 5, 6):
            check(n, r, t, deltas, mp_amplification=np.inf)
        # the fallback on, at points near t = -1 where it is taken
        fallback = []
        mp_point = ker._series_point_mp
        monkeypatch.setattr(ker, "_series_point_mp",
                            lambda *a, **k: fallback.append(a[3])
                            or mp_point(*a, **k))
        check(6, 0.9, np.array([-1.0, -0.9957, -0.96, 0.3]), deltas[1:])
        assert set(fallback) == {0.95, 1.0}
        # the retry path, degree by degree past every stop at delta 0.9999
        check(3, 0.3, np.linspace(-1.0, 1.0, 9), np.array([0.5, 0.9999]))
        # truncated at the cap for every delta: one warning for the call
        assert check(5, 0.95, np.array([-0.2, 0.4]), deltas, cap=10) == 1
        # a delta per point, against one call per point
        rng = np.random.default_rng(3)
        d = rng.choice(deltas, 12)
        rp = rng.choice([0.2, 0.7], 12)
        tp = rng.uniform(-1.0, 1.0, 12)
        got = ker.poisson_hyp_series_rt(4, rp, tp, d)
        assert np.array_equal(got, np.concatenate(
            [ker.poisson_hyp_series_rt(4, *p) for p in zip(rp, tp, d)]))

    @pytest.mark.parametrize("r,t,delta", [
        (1.2, 0.3, 0.5), (1.0, 0.3, 0.5), (-0.5, 0.3, 0.5),
        (np.nan, 0.3, 0.5), (0.5, 1.5, 0.5), (0.5, -np.inf, 1.0),
        (0.5, np.nan, 0.5), (0.5, 0.3, 1.5), (0.5, 0.3, np.nan),
        (0.5, 0.3, [0.5, -0.1])])
    def test_outside_domain_raises_at_entry(self, r, t, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                ker.poisson_hyp_series_rt(3, r, t, delta)


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
                sf.fl_deriv(l, 4, x, 0), abs=1e-12)

    def test_fl_route_agreement_n6(self):
        dec = ker.lemma3_build(6)
        for l in (0, 2, 5):
            for x in (0.1, 0.5, 0.9):
                assert dec.fl_via_decomposition(l, x) == pytest.approx(
                    sf.fl_deriv(l, 6, x, 0), abs=1e-12)

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

            def hyp(pts):
                r = np.linalg.norm(pts, axis=1)
                return ker.poisson_hyp_rt(n, r, pts @ xi / r)

            for r in (0.3, 0.7, 0.9):
                got = ker.transfer_euclid_from_hyp(hyp, r * zeta)
                want = ker.poisson_euclid_rt(n, r, zeta @ xi)
                assert got == pytest.approx(want, abs=1e-6)

    def test_transfer_of_constant(self):
        got = ker.transfer_euclid_from_hyp(lambda p: np.ones(len(p)),
                                           0.5 * e1(4))
        assert got == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ValueError):
            ker.transfer_euclid_from_hyp(lambda p: np.ones(len(p)), e1(4))

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
