"""Poisson kernels on the unit ball: the Euclidean kernel, the hyperbolic
kernel, the interpolating delta-family, the even-dimension decomposition of
the hyperbolic kernel through radial derivatives of the Euclidean one, and
the radial transfer kernel linking the two."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import specfun as sf
from .errors import NonConvergence, TruncationWarning, UnsupportedDimension

SERIES_CAP = 1024
SERIES_TAIL_TOL = 1e-12


def poisson_euclid_rt(n: int, r, t):
    """Euclidean Poisson kernel (1-r^2)/(1+r^2-2rt)^(n/2) as a function of
    the radius and the cosine t of the angle between direction and boundary
    point."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    return (1.0 - r ** 2) / (1.0 + r ** 2 - 2.0 * r * t) ** (n / 2.0)


def poisson_hyp_rt(n: int, r, t):
    """Hyperbolic Poisson kernel ((1-r^2)/(1+r^2-2rt))^(n-1)."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    return ((1.0 - r ** 2) / (1.0 + r ** 2 - 2.0 * r * t)) ** (n - 1.0)


_LD = np.longdouble
# pair x degree cells of one block of the kernel series at most, and the
# degrees of its first block; later blocks double within the cell budget.
_BLOCK_CELLS = 1 << 14
_BLOCK_FIRST = 8


def _Fl_at(l, n: int, x) -> np.ndarray:
    """F_l at the double-precision arguments x, as a longdouble array: the
    shared 2F1 series in long double, each point stopping once a term falls
    to 1e-21 of its partial sum (exactly, as a polynomial, for even n).
    The degree l may be an integer array, broadcast against x."""
    x = np.asarray(x, dtype=_LD)
    return sf._series_2f1(l, 1.0 - n / 2.0, l + n / 2.0, x, 1e-21,
                          sf.SERIES_CAP, floor=0.0)


@lru_cache(maxsize=20000)
def _Fl_scalar(l: int, n: int, x: float):
    """Cached F_l(x) for one double x: the normaliser F_l(delta^2), which
    every radius and every call at one delta share."""
    return _Fl_at(l, n, [x])[0]


_MP_GUARD = 6  # guard digits of the fallback's tables
_GUARD_BITS = 20  # guard bits of its integer work
_MILLER_MAX_STEPS = 4096


def _int_Fl(n: int, x: Fraction, cap: int, digits: int, bits: int):
    """F_l(x), l = 0..cap, x = X / 2^q in [0, 1), as integers of about bits
    bits with one common factor, to about 10^-digits relative, by F_{l-1} =
    (1+x) F_l - kappa_l x F_{l+1}, kappa_l = 4l(l+n-1)/((2l+n)(2l+n-2)),
    truncated at each step. F_l is its minimal solution, so Miller's start
    (F_{N+1}, F_N) = (0, 2^bits) at N = cap + steps errs by x^steps =
    10^-digits. Past _MILLER_MAX_STEPS (steps grows like 1/(1-x)) it starts
    at N = cap from mpmath's hyp2f1, quick there by its 1-x transformation."""
    X, q = x.numerator, x.denominator.bit_length() - 1
    steps = X and math.ceil(digits * math.log(10)
                            / (q * math.log(2) - math.log(X)))
    top, f_up, f = cap + steps, 0, 1 << bits
    if steps > _MILLER_MAX_STEPS:
        import mpmath as mp

        with mp.workprec(bits + _GUARD_BITS):
            h, x = mp.mpf(n) / 2, mp.ldexp(X, -q)
            f_up, f = (mp.hyp2f1(l, 1 - h, l + h, x) for l in (cap + 1, cap))
            top, shift = cap, bits - mp.mag(f)
            f_up, f = int(mp.ldexp(f_up, shift)), int(mp.ldexp(f, shift))
    vals, x1 = [], (1 << q) + X
    for l in range(top, 0, -1):
        if l <= cap:
            vals.append(f)
        b = (2 * l + n) * (2 * l + n - 2)
        f_up, f = f, ((x1 * b * f - 4 * l * (l + n - 1) * X * f_up) >> q) // b
    return [f] + vals[::-1]


@lru_cache(maxsize=16)
def _mp_table(n: int, r: float, delta: float, digits: int, cap: int):
    """Per degree l = 0..cap, (m_l, s_l) with the weight w_l = m_l / 2^s_l =
    [F_l(delta^2 r^2)/F_l(delta^2)] r^l (2l+n-2)/(n-2) to digits digits, each
    with its own exponent (r^l is 1e-47 at r = 0.9, l = 1024): the kernel
    series at radius r is sum_l w_l C_l(t), C_l Gegenbauer of index (n-2)/2.
    The arguments of F_l are exact dyadic rationals, and F_l(1) is the
    product of the exact ratios F_l(1)/F_{l-1}(1) = (l-1+n/2)/(l+n-2)."""
    bits = math.ceil(digits * math.log2(10))
    wide = bits + _GUARD_BITS
    num = _int_Fl(n, (Fraction(delta) * Fraction(r)) ** 2, cap, digits, wide)
    if delta < 1.0:
        den = _int_Fl(n, Fraction(delta) ** 2, cap, digits, wide)
    else:  # extra bits as F_l(1) falls like l^(1-n/2)
        den = [1 << (wide + n // 2 * cap.bit_length())]
        for l in range(1, cap + 1):
            den.append(den[-1] * (2 * l - 2 + n) // (2 * (l + n - 2)))
    rm, rd = r.as_integer_ratio()  # r = rm / rd, rd a power of 2
    table, rp, e = [], 1, 0  # r^l = rp / 2^e, rp kept to wide bits
    for l in range(cap + 1):
        a = num[l] * den[0] * rp * (2 * l + n - 2)
        b = num[0] * den[l] * (n - 2)
        sh = bits - a.bit_length() + b.bit_length()
        table.append(((a << sh) // b if sh >= 0 else a // (b << -sh), sh + e))
        cut = max((rp * rm).bit_length() - wide, 0)
        rp, e = rp * rm >> cut, e + rd.bit_length() - 1 - cut
    return tuple(table)


def _series_point_mp(n: int, r: float, t: float, delta: float,
                     cap: int, dps: int = 40) -> float:
    """The kernel series at one point in integers, where its terms cancel
    beyond extended-precision reach. Weights come from _mp_table at dps +
    _MP_GUARD digits, rounded up to a multiple of 16 so that nearby points
    share one table, which depends only on its key. C_l = ((2l+n-4) t
    C_{l-1} - (l+n-4) C_{l-2}) / l and the sum run at one scale 2^-S, S the
    table's bits plus _GUARD_BITS; the stop rule |term| <= tol (|total| +
    tol), tol = 10^-(dps-5), is an exact comparison. Where the weights'
    error, about 2^-bits sum|term|, is not below 2^-60 |total| (dps comes
    from a long-double |total|, noise past 1e19 cancellation), the point is
    redone at the precision that suffices. Returns total / 2^S, correctly
    rounded; emits TruncationWarning when the sum reaches the cap with its
    tail, about |last term| r/(1-r), above 2^-53 |total|."""
    T, u = t.as_integer_ratio()
    u = u.bit_length() - 1  # t = T / 2^u
    inv, inv2 = 10 ** (dps - 5), 10 ** (2 * (dps - 5))  # 1/tol, 1/tol^2
    digits = dps + _MP_GUARD
    while True:
        digits = -(-digits // 16) * 16
        bits = math.ceil(digits * math.log2(10))
        one = 1 << (bits + _GUARD_BITS)
        c_prev, c, total, mass, quiet = 0, one, 0, 0, 0  # C_{-1}, C_0
        for l, (m, s) in enumerate(_mp_table(n, r, delta, digits, cap)):
            if l:
                c_prev, c = c, (((2 * l + n - 4) * T * c >> u)
                                - (l + n - 4) * c_prev) // l
            term = m * c >> s
            total, mass = total + term, mass + abs(term)
            quiet = (quiet + 1 if abs(term) * inv2 <= inv * abs(total) + one
                     else 0)
            if quiet == 5:
                break
        need = 61 + mass.bit_length() - abs(total).bit_length()
        if need <= bits or bits > 4000:  # 2^-4000: far below any double
            rm, rd = r.as_integer_ratio()
            if quiet < 5 and abs(term) * rm << 53 > abs(total) * (rd - rm):
                warnings.warn("kernel series fallback truncated at the term "
                              "cap above double rounding", TruncationWarning)
            return total / one
        digits = math.ceil(need / math.log2(10))


def _running(op, carry, rows):
    """The running op (np.add, np.multiply, np.maximum) down the rows,
    seeded by carry: row j is op(...op(op(carry, rows[0]), rows[1])...,
    rows[j]), in order."""
    out = np.empty(rows.shape, dtype=rows.dtype)
    op(carry, rows[0], out=out[0])
    out[1:] = rows[1:]
    op.accumulate(out, axis=0, out=out)
    return out


def _in_use(pos, *state):
    """pos renumbered to index only the entries it still points at, and each
    per-entry state array cut to those entries."""
    used = np.zeros(len(state[0]), dtype=bool)
    used[pos] = True
    return ((np.cumsum(used) - 1)[pos], *(s[used] for s in state))


def poisson_hyp_series_rt(n: int, r, t, delta, cap: int = SERIES_CAP,
                          mp_amplification: float = 3e9):
    """Series evaluation sum_l [F_l(delta^2 r^2)/F_l(delta^2)] r^l Z_l(t).

    delta = 0 gives the Euclidean kernel, delta = 1 the hyperbolic one. The
    normalization F_l(delta^2) makes each radial factor tend to 1 at the
    boundary, so the series is a genuine Poisson kernel for every delta.
    r and t broadcast against each other, and delta (a float or an array)
    against both. Unless r lies in [0, 1), t in [-1, 1] and delta in
    [0, 1], it raises ValueError before any work.

    Accumulation runs in extended precision: the zonal terms cancel heavily
    where the kernel is small (the sum can be 1e8 times smaller than its
    largest term), so double-precision accumulation loses up to half its
    digits.

    The degrees are summed in blocks: per block one F_l call for every
    distinct (delta, r) and degree in it, the Gegenbauer recurrence once per
    distinct angle, and each triple's running sums as in-order
    accumulations, so the values are bit for bit those of a sum degree by
    degree. The first block has _BLOCK_FIRST degrees and each next one twice
    as many, within _BLOCK_CELLS triple x degree cells; large batches thus
    take short blocks, and the F_l series bounds its own work arrays.

    Each (delta, r, t) triple stops on its own once five consecutive terms
    fall below SERIES_TAIL_TOL, and where its terms cancelled by more than
    mp_amplification it is redone in high precision on Python integers
    (_series_point_mp); on acceptance criterion 01's delta = 1 grid those 21
    points are within 9.5e-17 relative of the closed form. An infinite
    mp_amplification skips the sums of |term| that test reads. Each distinct
    triple is summed once, and its value depends neither on the other
    triples in the call nor on earlier calls.
    Emits TruncationWarning when any triple reaches the cap first, and
    raises NonConvergence when any delta's F_l(delta^2) does not converge.
    """
    d = np.asarray(delta, dtype=float)
    r = np.atleast_1d(np.asarray(r, dtype=_LD))
    t = np.atleast_1d(np.asarray(t, dtype=_LD))
    if not (np.all((d >= 0.0) & (d <= 1.0)) and np.all(np.abs(t) <= 1.0)
            and np.all((r >= 0.0) & (r < 1.0))):
        raise ValueError("need delta in [0, 1], r in [0, 1) and t in [-1, 1]")
    d, r, t = np.broadcast_arrays(d, r, t)
    # one sum per distinct (delta, r, t) triple, by exact value; `inv`
    # scatters back. A triple's radial entry is its distinct (delta, r).
    d_u, d_code = np.unique(d.ravel(), return_inverse=True)
    r_u, r_code = np.unique(r.ravel(), return_inverse=True)
    t_u, t_code = np.unique(t.ravel(), return_inverse=True)
    dr, dr_code = np.unique(d_code * r_u.size + r_code, return_inverse=True)
    trips, inv = np.unique(dr_code * t_u.size + t_code, return_inverse=True)
    dr_of, t_of = np.divmod(trips, t_u.size)
    dr_d, dr_r = d_u[dr // r_u.size], r_u[dr % r_u.size]
    total, abs_total = np.zeros((2, trips.size), dtype=_LD)
    fallback = np.isfinite(mp_amplification)
    # the active set: the triples still summing, their running state, and
    # their places (rad, ang) among the radial entries and angles in use.
    # Per radial entry: delta, r, the argument of F_l as a double, and r^l;
    # per angle: t and the Gegenbauer C_{l-2}, C_{l-1}.
    act, rad, ang = np.arange(trips.size), dr_of, t_of
    da, ra, rpow = dr_d, dr_r, np.ones_like(dr_r)
    xr = (da.astype(_LD) ** 2 * ra ** 2).astype(float)
    ta, c_prev, c_curr = t_u, None, None
    run, abs_run = np.zeros((2, trips.size), dtype=_LD)
    # per triple: the last degree whose term was above the tail tolerance
    loud = np.full(trips.size, -1)
    if 1.0 in d_u:
        # F_l(1), l = 0..cap, by the exact ratio (l-1+n/2)/(l+n-2) to F_{l-1}
        l1 = np.arange(1, cap + 1)
        ratio = np.asarray(l1 - 1 + n / 2, _LD) / np.asarray(l1 + n - 2, _LD)
        fl1 = np.cumprod(np.concatenate(([_LD(1)], ratio)))
    l0, step, most = 0, _BLOCK_FIRST, _BLOCK_CELLS
    while act.size and l0 <= cap:
        m = max(1, min(step, most // act.size, cap + 1 - l0))
        ls = np.arange(l0, l0 + m)
        # r^l0 .. r^(l0+m) per radial entry, a running product
        w = np.empty((m + 1, ra.size), dtype=_LD)
        w[0] = rpow
        w[1:] = _running(np.multiply, rpow, np.broadcast_to(ra, w[1:].shape))
        pos = da > 0.0
        if pos.any():
            # F_l(delta^2 r^2)/F_l(delta^2), one F_l call for the block; a
            # degree past every triple's stop may fail to converge where the
            # per-degree sum never reached it, so retry degree by degree
            d_in, col = np.unique(da[pos], return_inverse=True)
            try:
                num = _Fl_at(ls[:, None], n, xr[pos])
                den = np.stack([fl1[ls] if v == 1.0 else np.array(
                    [_Fl_scalar(int(l), n, float(_LD(v) ** 2)) for l in ls],
                    _LD) for v in d_in], axis=1)
            except NonConvergence:
                if m == 1:
                    raise
                step = most = 1
                continue
            w[:m, pos] = num / den[:, col] * w[:m, pos]
        rpow = w[m]
        # Z_l = (2l+n-2)/(n-2) C_l per distinct angle, C_l Gegenbauer of
        # index (n-2)/2 continued from the last block
        z, c_prev, c_curr = sf.gegenbauer_rows((n - 2) / 2, ta, l0, m,
                                               c_prev, c_curr)
        z *= ((2 * ls.astype(_LD) + _LD(n) - 2) / (_LD(n) - 2))[:, None]
        # each triple's terms (one row per degree) and its running sums,
        # accumulated in order so that they round like run + term. With one
        # radial entry left, its triples are the angles in use, in order.
        term = w[:m] * z if ra.size == 1 else w[:m, rad] * z[:, ang]
        runs = _running(np.add, run, term)
        abs_term = np.abs(term)
        # only the fallback reads the sums of |term|
        abs_runs = _running(np.add, abs_run, abs_term) if fallback else runs
        bound = np.abs(runs)
        bound += _LD(1e-30)
        bound *= _LD(SERIES_TAIL_TOL)
        louds = _running(np.maximum, loud, np.where(abs_term <= bound, -1,
                                                    ls[:, None]))
        run, abs_run, loud = runs[-1], abs_runs[-1], louds[-1]
        l0, step = l0 + m, 2 * step
        # a triple stops at its first degree l with five quiet degrees in a
        # row (loud == l - 5) and keeps the sums through l
        quiet5 = louds == (ls - 5)[:, None]
        stop = quiet5.any(axis=0)
        if stop.any():
            i = np.flatnonzero(stop)
            at = quiet5[:, i].argmax(axis=0)
            total[act[i]], abs_total[act[i]] = runs[at, i], abs_runs[at, i]
            go = ~stop
            act, run, abs_run, loud = act[go], run[go], abs_run[go], loud[go]
            rad, da, ra, xr, rpow = _in_use(rad[go], da, ra, xr, rpow)
            ang, ta, c_prev, c_curr = _in_use(ang[go], ta, c_prev, c_curr)
    if act.size:
        warnings.warn("kernel series truncated at the term cap before "
                      "reaching the tail tolerance", TruncationWarning)
        total[act], abs_total[act] = run, abs_run
    out = total.astype(float)
    if fallback:
        # where the alternating terms cancelled beyond extended-precision
        # reach, redo those triples in high precision
        ampl = abs_total / (np.abs(total) + _LD(1e-300))
        for i in np.nonzero(ampl > _LD(mp_amplification))[0]:
            # working precision sized to the observed cancellation
            dps = int(math.log10(float(ampl[i]))) + 14
            out[i] = _series_point_mp(n, float(dr_r[dr_of[i]]),
                                      float(t_u[t_of[i]]),
                                      float(dr_d[dr_of[i]]), cap, dps=dps)
    return out[inv].reshape(r.shape)


# ---------------------------------------------------------------------------
# even-dimension decomposition


def _stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind S(m, k)."""
    if k == m:
        return 1
    if k == 0 or k > m:
        return 0
    return k * _stirling2(m - 1, k) + _stirling2(m - 1, k - 1)


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@dataclass(frozen=True)
class Lemma3Decomposition:
    """For even n = 2p, polynomials P_0 .. P_{p-1} such that

        f_l(r^2) r^l = sum_k P_k(r) (1-r^2)^k d^k/dr^k (r^l)

    for every l, hence the hyperbolic kernel equals
    sum_k P_k(r)(1-r^2)^k d_r^k of the Euclidean kernel. Coefficients are
    exact rationals (ascending powers of r)."""

    n: int
    poly_coeffs: tuple  # tuple of tuples of Fraction

    @property
    def p(self) -> int:
        return self.n // 2

    def poly(self, k: int) -> np.ndarray:
        return np.array([float(c) for c in self.poly_coeffs[k]])

    def eval_poly(self, k: int, r):
        return np.polynomial.polynomial.polyval(
            np.asarray(r, dtype=float), self.poly(k))

    def fl_via_decomposition(self, l: int, x):
        """f_l(x) reconstructed from the alpha-coefficient expansion; an
        independent route used to validate the radial factors."""
        p = self.p
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        alpha = 1.0
        for j in range(p):
            total = total + (math.comb(p - 1, j) * sf.pochhammer(p, p - 1 - j)
                             * alpha * x ** (p - 1 - j) * (1.0 - x) ** j)
            alpha *= l + 2.0 * (p - 1) - j
        out = total / sf.pochhammer(p, p - 1)
        return float(out) if out.shape == () else out

    def reconstruct(self, r, t):
        """sum_k P_k(r)(1-r^2)^k d_r^k of the Euclidean kernel, which must
        equal the hyperbolic kernel."""
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        total = np.zeros(np.broadcast(r, t).shape)
        for k in range(self.p):
            total = total + (self.eval_poly(k, r) * (1.0 - r ** 2) ** k
                             * poisson_euclid_radial_derivative(self.n, k, r, t))
        return total if total.shape else float(total)


@lru_cache(maxsize=None)
def lemma3_build(n: int) -> Lemma3Decomposition:
    """Construct the decomposition for even n >= 4 by exact rational
    arithmetic.

    alpha_{l,j} = (l+2p-2)(l+2p-3)...(l+2p-1-j) is expanded in the falling
    factorial basis of l (Stirling numbers), and each falling factorial
    fall(l,k) r^l is rewritten as r^k d^k/dr^k (r^l).
    """
    if n % 2 != 0 or n < 4:
        raise UnsupportedDimension("decomposition requires even n >= 4")
    p = n // 2
    # alpha_{l,j} as polynomial in l (monomial basis, exact)
    alphas = [[Fraction(1)]]
    for j in range(1, p):
        alphas.append(_poly_mul(alphas[-1],
                                [Fraction(2 * (p - 1) - (j - 1)), Fraction(1)]))
    # a[k][j]: coefficient of fall(l, k) in alpha_{l,j}
    a = [[Fraction(0)] * p for _ in range(p)]
    for j in range(p):
        for m, cm in enumerate(alphas[j]):
            for k in range(m + 1):
                a[k][j] += cm * _stirling2(m, k)
    denom = Fraction(1)
    for i in range(p - 1):
        denom *= p + i  # (p)_{p-1}
    polys = []
    for k in range(p):
        # P_k(r) = sum_{j>=k} binom(p-1,j)(p)_{p-1-j}/(p)_{p-1} a[k][j]
        #          r^{2(p-1-j)+k} (1-r^2)^{j-k}
        coeffs = [Fraction(0)] * (2 * p - 1)
        for j in range(k, p):
            poch = Fraction(1)
            for i in range(p - 1 - j):
                poch *= p + i
            pref = Fraction(math.comb(p - 1, j)) * poch / denom * a[k][j]
            if pref == 0:
                continue
            # expand r^{2(p-1-j)+k} (1-r^2)^{j-k}
            base = 2 * (p - 1 - j) + k
            for m in range(j - k + 1):
                coeffs[base + 2 * m] += (pref * math.comb(j - k, m)
                                         * (-1) ** m)
            # degree check: base + 2(j-k) = 2(p-1) - k <= 2p - 2
        polys.append(tuple(coeffs))
    return Lemma3Decomposition(n, tuple(polys))


def _polymul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two bivariate polynomials in (r, t) given as coefficient
    arrays, entry [i, j] multiplying r^i t^j."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for (i, j), v in np.ndenumerate(a):
        if v != 0.0:
            out[i:i + b.shape[0], j:j + b.shape[1]] += v * b
    return out


@lru_cache(maxsize=None)
def _peuclid_deriv_numerator(n: int, k: int) -> np.ndarray:
    """Numerator Q_k with d_r^k of the Euclidean kernel = Q_k / A^{n/2 + k},
    A = 1 + r^2 - 2rt, computed by exact quotient-rule recursion. Entry
    [i, j] is the coefficient of r^i t^j; all are integers far below 2^53,
    so every product and sum is exact."""
    if k == 0:
        return np.array([[1.0], [0.0], [-1.0]])  # 1 - r^2
    A = np.array([[1.0, 0.0], [0.0, -2.0], [1.0, 0.0]])
    Ap = np.array([[0.0, -2.0], [2.0, 0.0]])  # dA/dr = 2r - 2t
    Q = _peuclid_deriv_numerator(n, k - 1)
    dQ = Q[1:] * np.arange(1, len(Q))[:, None]
    return _polymul2(dQ, A) - (n / 2.0 + (k - 1)) * _polymul2(Q, Ap)


def poisson_euclid_radial_derivative(n: int, k: int, r, t):
    """Exact k-th radial derivative of the Euclidean Poisson kernel, by
    symbolic differentiation of the closed form (no finite differences)."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    A = 1.0 + r ** 2 - 2.0 * r * t
    Q = np.zeros(np.broadcast(r, t).shape)
    for (i, j), c in np.ndenumerate(_peuclid_deriv_numerator(n, k)):
        if c != 0.0:
            Q = Q + c * r ** i * t ** j
    return Q / A ** (n / 2.0 + k)


# ---------------------------------------------------------------------------
# radial transfer kernel


def eta_constant(n: int) -> float:
    """Normalizing constant: at r = 0 the kernel is the Beta density
    c s^{n/2-1} (1-s)^{n/2-2}, so c = 1/B(n/2, n/2-1)."""
    if n < 3:
        raise UnsupportedDimension("transfer kernel needs n >= 3")
    return math.exp(math.lgamma(n - 1.0) - math.lgamma(n / 2.0)
                    - math.lgamma(n / 2.0 - 1.0))


def eta_kernel(r, s, n: int, c: float | None = None):
    """Transfer density eta(r, s) with
    int_0^1 eta(r, s) P_h(s r zeta, xi) ds = P_e(r zeta, xi)."""
    s = np.asarray(s, dtype=float)
    return (eta_smooth_part(r, s, n, c) * s ** (n / 2.0 - 1.0)
            * (1.0 - s) ** (n / 2.0 - 2.0))


def eta_smooth_part(r, s, n: int, c: float | None = None):
    """eta with the Beta-type endpoint factors s^{n/2-1}(1-s)^{n/2-2}
    removed; what remains is smooth on [0, 1]."""
    if c is None:
        c = eta_constant(n)
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    return (c * (1.0 - r ** 2) * (1.0 - (r * s) ** 2) ** (2.0 - n)
            * (1.0 - s * r ** 2) ** (n / 2.0 - 2.0))


def calibrate_eta_constant(n: int, r: float = 0.0) -> float:
    """Constant fixed numerically by unit mass of eta(r, .); independent of
    r, which the tests confirm."""
    val = transfer_integral(lambda s: np.ones_like(s), r, n, c=1.0)
    return 1.0 / val


def transfer_integral(func, r: float, n: int,
                      c: float | None = None) -> float:
    """int_0^1 eta(r, s) func(s) ds by Gauss-Jacobi in s (the exact endpoint
    weights of eta), from 24 nodes, doubled at most six times until two
    passes agree to 1e-10."""
    # weight (1-x)^a (1+x)^b on [-1,1]; s=(1+x)/2 gives
    # (1-s)^a s^b ds = ((1-x)/2)^a ((1+x)/2)^b dx/2
    a, b = n / 2.0 - 2.0, n / 2.0 - 1.0

    def estimate(m):
        x, w = sf.gauss_jacobi(m, a, b)
        s = 0.5 * (x + 1.0)
        vals = eta_smooth_part(r, s, n, c) * np.asarray(func(s), dtype=float)
        return 0.5 ** (a + b + 1.0) * float(w @ vals)

    return sf.settle(estimate, (24 * 2 ** k for k in range(7)), 1e-10, 1.0,
                     "transfer integral")


def transfer_euclid_from_hyp(u, x) -> float:
    """int_0^1 eta(r, rho) u(rho x) d rho at the Cartesian point x, r = |x|,
    with u a pointwise callable of (m, n) point arrays, evaluated once on
    all nodes of each quadrature pass. With u the hyperbolic kernel toward
    a boundary point, this reproduces the Euclidean kernel there."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r >= 1.0:
        raise ValueError("x must lie inside the unit ball")
    return transfer_integral(lambda s: u(s[:, None] * x[None, :]), r, len(x))
