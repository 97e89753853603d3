"""Special functions for the radial and angular factors of hyperbolic-harmonic
expansions on the unit ball.

The radial family is F_l(x) = 2F1(l, 1 - n/2; l + n/2; x), used through its
normalization f_l = F_l / F_l(1) and the derivatives of f_l (fl_deriv); the
angular family is the zonal harmonic
Z_l(t) = ((2l + n - 2)/(n - 2)) C_l^{(n-2)/2}(t), normalized so that
sum_l r^l Z_l(t) reproduces the Euclidean Poisson kernel.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from .errors import NonConvergence

SERIES_TOL = 1e-12
SERIES_CAP = 100_000

# x above this threshold routes odd-n evaluation through the Euler integral,
# where the power series slows to a crawl.
_SERIES_X_MAX = 0.9

# Terms in the first block of the series at most, and point x term cells
# in any block at most; the cells bound its work arrays to a few MB.
_SERIES_BLOCK = 64
_SERIES_CELLS = 1 << 14


def pochhammer(a: float, k: int) -> float:
    """Rising factorial a (a+1) ... (a+k-1); 1 for k = 0."""
    if k < 0:
        raise ValueError("pochhammer requires k >= 0")
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


def gauss_Fl_at_one(l: int, n: int) -> float:
    """F_l(1) by the Gauss summation formula.

    F_l(1) = Gamma(l + n/2) Gamma(n-1) / (Gamma(n/2) Gamma(l + n - 1)),
    valid since the parameter excess n - 1 is positive.
    """
    return math.exp(
        math.lgamma(l + n / 2.0)
        + math.lgamma(n - 1.0)
        - math.lgamma(n / 2.0)
        - math.lgamma(l + n - 1.0)
    )


def _series_block(a: float, b: float, c: float, x, term, total, k0: int,
                  m: int):
    """Terms k0+1 .. k0+m of the 2F1 series and the partial sums through
    them, continuing from term k0 and the sum through it (one row per point;
    a and c are scalars or columns with one entry per row).

    Each row repeats the recurrence term * ratio_k * x multiplication for
    multiplication, as a running product over (term, ratio_k0, x,
    ratio_k0+1, x, ...), and adds the terms in order by a running sum."""
    k = np.arange(k0, k0 + m, dtype=x.dtype)
    seq = np.empty((x.size, 2 * m + 1), dtype=x.dtype)
    seq[:, 0] = term
    seq[:, 1::2] = (a + k) * (b + k) / ((c + k) * (k + 1.0))
    seq[:, 2::2] = x[:, None]
    terms = np.cumprod(seq, axis=1, out=seq)[:, 2::2]
    sums = np.empty((x.size, m + 1), dtype=x.dtype)
    sums[:, 0] = total
    sums[:, 1:] = terms
    return terms, np.cumsum(sums, axis=1, out=sums)[:, 1:]


def _first_block(x, tol: float) -> int:
    """Terms in the first block: where |x|^k alone falls to tol for the
    largest |x|, at least 8 and at most _SERIES_BLOCK, so that most points
    stop in it without summing many terms past their own stop."""
    xm = float(np.max(np.abs(x), initial=0.0))
    if not (0.0 < tol < 1.0 and 0.0 < xm < 1.0):
        return _SERIES_BLOCK
    return min(_SERIES_BLOCK, max(8, math.ceil(math.log(tol) / math.log(xm))))


def _series_2f1(a, b: float, c, x, tol: float, cap: int,
                floor: float = 1.0):
    """Power series for 2F1(a, b; c; x), vectorized over x, in the precision
    of x (double, or long double for a long-double x). a and c may be
    per-point arrays, broadcast against x; each point then does exactly the
    arithmetic of a call with its own scalar a and c.

    Terminates exactly when b is a nonpositive integer, summed term by term.
    Otherwise each point stops on its own: its value is the partial sum
    through its first term with |term| <= tol * max(|partial sum|, floor),
    so it does not depend on the other points evaluated with it; floor 0
    makes the stop purely relative. Terms are summed in blocks (see
    _first_block) that double, each within _SERIES_CELLS point x term
    cells; points that stopped leave the next block. A row's running
    product and sum carry over from block to block, so where the blocks
    split does not change its bits.
    Raises NonConvergence, naming the (a, b, c) of one such point, when a
    point has not stopped within cap terms.
    """
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float), copy=False)
    per_point = isinstance(a, np.ndarray) or isinstance(c, np.ndarray)
    if per_point:
        x, a, c = np.broadcast_arrays(x, a, c)
        a, c = a.ravel(), c.ravel()
    flat = x.ravel()
    if b <= 0 and float(b).is_integer():
        m, real = int(-b), x.dtype.type
        a, b, c = real(a), real(b), real(c)
        term, total = 1, np.ones(flat.size, x.dtype)
        for k in range(m):
            term = term * ((a + k) * (b + k) / ((c + k) * (k + 1))) * flat
            total = total + term
        return total.reshape(x.shape)
    out = np.empty_like(flat)
    rows = np.arange(flat.size)
    term = total = 1.0
    k0, step = 0, _first_block(flat, tol)
    while rows.size:
        ar, cr = (a[rows, None], c[rows, None]) if per_point else (a, c)
        if k0 >= cap:
            raise NonConvergence(
                f"2F1({np.ravel(ar)[0]},{b};{np.ravel(cr)[0]}) series "
                f"did not converge within {cap} terms")
        m = max(1, min(step, cap - k0, _SERIES_CELLS // rows.size))
        terms, sums = _series_block(ar, b, cr, flat[rows], term, total, k0, m)
        done = np.abs(terms) <= tol * np.maximum(np.abs(sums), floor)
        first = done.argmax(axis=1)
        stop = done[np.arange(rows.size), first]
        out[rows[stop]] = sums[stop, first[stop]]
        rows = rows[~stop]
        term, total = terms[~stop, -1], sums[~stop, -1]
        k0, step = k0 + m, 2 * step
    return out.reshape(x.shape)


@lru_cache(maxsize=1)
def _euler_panels():
    """Composite Gauss-Legendre rule on [0,1), 12 nodes on each of 40 panels
    refined geometrically toward t = 1, so integrands with endpoint scales
    down to ~2^-40 are resolved uniformly."""
    xg, wg = roots_legendre(12)
    ts, ws = [], []
    lo = 0.0
    for j in range(40):
        hi = 1.0 - 0.5 ** (j + 1)
        half = 0.5 * (hi - lo)
        ts.append(lo + half * (xg + 1.0))
        ws.append(half * wg)
        lo = hi
    return np.concatenate(ts), np.concatenate(ws)


def _euler_2f1(a: float, b: float, c: float, x):
    """2F1(a, b; c; x) by the Euler integral over the first parameter,
    requiring c > a > 0. Accurate for x arbitrarily close to 1."""
    if not c > a > 0:
        raise ValueError("Euler integral needs c > a > 0")
    t, w = _euler_panels()
    base = w * t ** (a - 1.0) * (1.0 - t) ** (c - a - 1.0)
    x = np.asarray(x, dtype=float)
    kern = (1.0 - x[..., None] * t) ** (-b)
    # one dot product per point, summed the same way whatever the batch
    # (a BLAS matrix-vector product rounds a row differently by batch size)
    integral = np.einsum("...j,j->...", kern, base)
    pref = math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a))
    return pref * integral


def fl_deriv(l: int, n: int, x, order: int = 1):
    """order-th derivative of f_l(x) = F_l(x) / F_l(1) for x in [0, 1], with
    F_l(x) = 2F1(l, 1 - n/2; l + n/2; x); order 0 is f_l itself, exactly 1
    at x = 1 and for l = 0.

    Uses the parameter-shift rule d/dx 2F1(a,b;c;x) = (ab/c)
    2F1(a+1, b+1; c+1; x). Each point is summed by the power series (a
    polynomial for even n), or by the Euler integral above _SERIES_X_MAX
    when the series does not terminate.
    """
    if l < 0 or n < 3:
        raise ValueError("need l >= 0 and n >= 3")
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x) if order == 0 else np.zeros_like(x)
    a, b, c = float(l), 1.0 - n / 2.0, l + n / 2.0
    pref = 1.0
    for j in range(order):
        pref *= (a + j) * (b + j) / (c + j)
    if l > 0 and pref != 0.0:
        a, b, c = a + order, b + order, c + order
        norm = gauss_Fl_at_one(l, n)
        todo = x != 1.0 if order == 0 else np.ones(x.shape, bool)
        terminating = b <= 0 and b.is_integer()
        euler = todo & (x > _SERIES_X_MAX) & (not terminating)
        series = todo & ~euler
        if series.any():
            out[series] = pref * _series_2f1(a, b, c, x[series], SERIES_TOL,
                                             SERIES_CAP) / norm
        if euler.any():
            out[euler] = pref * _euler_2f1(a, b, c, x[euler]) / norm
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# zonal harmonics


def _gegenbauer_all(lmax: int, lam: float, t):
    """C_0 .. C_lmax of the Gegenbauer family with parameter lam at t, by the
    forward three-term recurrence (stable on [-1, 1])."""
    t = np.asarray(t, dtype=float)
    out = np.empty((lmax + 1,) + t.shape)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = 2.0 * lam * t
    for l in range(2, lmax + 1):
        out[l] = (2.0 * (l + lam - 1.0) * t * out[l - 1]
                  - (l + 2.0 * lam - 2.0) * out[l - 2]) / l
    return out


def zonal_all(lmax: int, n: int, t):
    """Z_0(t) .. Z_lmax(t) stacked along the first axis."""
    lam = (n - 2.0) / 2.0
    c = _gegenbauer_all(lmax, lam, t)
    scale = (2.0 * np.arange(lmax + 1) + n - 2.0) / (n - 2.0)
    return c * scale.reshape((-1,) + (1,) * (c.ndim - 1))


def zonal_deriv_all(lmax: int, n: int, t):
    """Z_0'(t) .. Z_lmax'(t) stacked along the first axis, via
    (C_l^lam)' = 2 lam C_{l-1}^{lam+1} from one recurrence for all degrees."""
    t = np.asarray(t, dtype=float)
    lam = (n - 2.0) / 2.0
    out = np.zeros((lmax + 1,) + t.shape)
    if lmax >= 1:
        ls = np.arange(1, lmax + 1, dtype=float)
        scale = (2.0 * ls + n - 2.0) / (n - 2.0) * 2.0 * lam
        out[1:] = scale.reshape((-1,) + (1,) * t.ndim) \
            * _gegenbauer_all(lmax - 1, lam + 1.0, t)
    return out


def zonal_at_one(l: int, n: int) -> float:
    """Z_l(1), the dimension of the degree-l spherical-harmonic space."""
    lam = (n - 2.0) / 2.0
    # C_l^lam(1) = (2 lam)_l / l!, in log-gamma form to survive large l
    c1 = math.exp(math.lgamma(2.0 * lam + l) - math.lgamma(2.0 * lam)
                  - math.lgamma(l + 1.0))
    return (2.0 * l + n - 2.0) / (n - 2.0) * c1


def lap_sigma_eigenvalue(l: int, n: int) -> float:
    """Eigenvalue of the tangential Laplacian on degree-l harmonics."""
    return -float(l * (l + n - 2))
