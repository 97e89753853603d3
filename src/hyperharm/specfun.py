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

from .errors import NonConvergence, QuadratureFailure

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


@lru_cache(maxsize=None)
def gauss_jacobi(m: int, a: float = 0.0, b: float = 0.0):
    """m-point Gauss rule for the weight (1 - x)^a (1 + x)^b on [-1, 1]:
    (nodes ascending, weights), both read-only. Legendre is (0, 0),
    Chebyshev (-1/2, -1/2) and Gegenbauer lam (lam - 1/2, lam - 1/2).

    Golub-Welsch nodes, one Newton step on the orthonormal three-term
    recurrence, Christoffel weights 1 / sum_{j<m} p_j(x)^2, and symmetric
    nodes and weights when a = b."""
    j = np.arange(m, dtype=float)
    s = 2.0 * j + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = np.where(s == 0.0, (b - a) / (a + b + 2.0),
                        (b * b - a * a) / (s * (s + 2.0)))
        j, s = j[1:], s[1:]  # beta_1 has its (1 + a + b) factor cancelled
        off = np.sqrt(np.where(j == 1.0, 4.0 * (1.0 + a) * (1.0 + b)
                               / ((2.0 + a + b) ** 2 * (3.0 + a + b)),
                               4.0 * j * (j + a) * (j + b) * (j + a + b)
                               / (s * s * (s + 1.0) * (s - 1.0))))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    p0 = math.exp(-0.5 * ((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
                          + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)))

    def sweep(x):  # p_m, p_m' and sum_{j<m} p_j^2 at x
        p, q, dp, dq, ssq = np.full_like(x, p0), 0.0 * x, 0.0 * x, 0.0, 0.0
        for k in range(m):
            ssq = ssq + p * p
            beta = off[k - 1] if k else 0.0
            nxt = off[k] if k < m - 1 else 1.0  # p_m up to a constant
            p, q, dp, dq = (((x - diag[k]) * p - beta * q) / nxt, p,
                            (p + (x - diag[k]) * dp - beta * dq) / nxt, dp)
        return p, dp, ssq

    p, dp, _ = sweep(x)
    x = x - p / dp
    w = 1.0 / sweep(x)[2]
    if a == b:
        x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_on(lo, hi, m: int):
    """The m-point Gauss-Legendre rule (x, w) mapped onto [lo, hi]: nodes
    lo + h (x + 1) and weights h w, h = (hi - lo) / 2. lo and hi may be
    arrays, broadcast together; each interval's nodes and weights then run
    along a new last axis."""
    x, w = gauss_jacobi(m)
    lo = np.asarray(lo, dtype=float)[..., None]
    h = (np.asarray(hi, dtype=float)[..., None] - lo) / 2
    return lo + h * (x + 1.0), h * w


def settle(estimate, sizes, tol: float, floor: float, what: str):
    """estimate(size) for each size in turn, until two successive values
    agree: returns the first value v whose largest difference from the one
    before is at most tol * max(|v|, floor), |v| its largest entry for an
    array. Raises QuadratureFailure, naming what, when no pair agrees."""
    prev = None
    for size in sizes:
        cur = estimate(size)
        if prev is not None and np.max(np.abs(cur - prev)) <= tol * max(
                np.max(np.abs(cur)), floor):
            return cur
        prev = cur
    raise QuadratureFailure(f"{what} did not settle")


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
    edges = np.array([0.0] + [1.0 - 0.5 ** (j + 1) for j in range(40)])
    t, w = gauss_legendre_on(edges[:-1], edges[1:], 12)
    return t.ravel(), w.ravel()


def _euler_2f1(a, b: float, c, x):
    """2F1(a, b; c; x) by the Euler integral over the first parameter,
    requiring c > a > 0. Accurate for x arbitrarily close to 1. a and c may
    be per-point arrays, broadcast against x; the kernel (1 - x t)^(-b) is
    built once per distinct x and shared by every (a, c), and each (a, c)
    takes its weight with scalar exponents, so a point's value is that of a
    call with its own scalar a and c."""
    x, a, c = np.broadcast_arrays(np.asarray(x, dtype=float), a, c)
    if not np.all((c > a) & (a > 0)):
        raise ValueError("Euler integral needs c > a > 0")
    t, w = _euler_panels()
    xu, xi = np.unique(x, return_inverse=True)
    kern = (1.0 - xu[:, None] * t) ** (-b)
    pairs, pi = np.unique(np.stack([a.ravel(), c.ravel()], axis=1), axis=0,
                          return_inverse=True)
    xi, pi = xi.ravel(), pi.ravel()
    out = np.empty(x.size)
    tails = {}  # (1 - t)^(c - a - 1), one per distinct exponent
    for j, (aj, cj) in enumerate(pairs.tolist()):
        e = cj - aj - 1.0
        if e not in tails:
            tails[e] = (1.0 - t) ** e
        base = w * t ** (aj - 1.0) * tails[e]
        pref = math.exp(math.lgamma(cj) - math.lgamma(aj)
                        - math.lgamma(cj - aj))
        rows = np.flatnonzero(pi == j)
        # one dot product per point, summed the same way whatever the batch
        # (a BLAS matrix-vector product rounds a row differently by batch
        # size)
        out[rows] = pref * np.einsum("...j,j->...", kern[xi[rows]], base)
    return out.reshape(x.shape)


def fl_deriv(l, n: int, x, order: int = 1):
    """order-th derivative of f_l(x) = F_l(x) / F_l(1) for x in [0, 1], with
    F_l(x) = 2F1(l, 1 - n/2; l + n/2; x); order 0 is f_l itself, exactly 1
    at x = 1 and for l = 0. The degree l may be an integer array, broadcast
    against x, so one call gives every degree at every point; each value is
    bit for bit that of a call with its own scalar l and x.

    Uses the parameter-shift rule d/dx 2F1(a,b;c;x) = (ab/c)
    2F1(a+1, b+1; c+1; x). Each point is summed by the power series (a
    polynomial for even n), or by the Euler integral above _SERIES_X_MAX
    when the series does not terminate. The series points go to
    _series_2f1 in order of x, in slices small enough that its first block
    keeps all _SERIES_BLOCK terms. Raises ValueError for x outside [0, 1],
    NaN included.
    """
    l = np.asarray(l)
    if n < 3 or np.any(l < 0):
        raise ValueError("need l >= 0 and n >= 3")
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("fl_deriv needs x in [0, 1]")
    # the per-degree factors, before l is broadcast against x
    a = l.astype(float)
    b, c = 1.0 - n / 2.0, a + n / 2.0
    pref = np.ones(l.shape)
    for j in range(order):
        pref = pref * ((a + j) * (b + j) / (c + j))
    degrees, at = np.unique(l, return_inverse=True)
    norm = np.array([gauss_Fl_at_one(int(d), n) for d in degrees])[at]
    l, x, a, c, pref, norm = np.broadcast_arrays(l, x, a, c, pref,
                                                 norm.reshape(l.shape))
    out = np.ones(x.shape) if order == 0 else np.zeros(x.shape)
    todo = (l > 0) & (pref != 0.0)
    if order == 0:
        todo &= x != 1.0
    if todo.any():
        a, b, c = a[todo] + order, b + order, c[todo] + order
        xs, pref, norm = x[todo], pref[todo], norm[todo]
        vals = np.empty(xs.shape)
        terminating = b <= 0 and b.is_integer()
        euler = (xs > _SERIES_X_MAX) & (not terminating)
        if euler.any():
            vals[euler] = _euler_2f1(a[euler], b, c[euler], xs[euler])
        rows = np.flatnonzero(~euler)
        rows = rows[np.argsort(xs[rows])]
        step = _SERIES_CELLS // _SERIES_BLOCK
        for lo in range(0, rows.size, step):
            s = rows[lo:lo + step]
            vals[s] = _series_2f1(a[s], b, c[s], xs[s], SERIES_TOL,
                                  SERIES_CAP)
        out[todo] = pref * vals / norm
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# zonal harmonics


def gegenbauer_rows(lam: float, t, l0: int, m: int, prev, curr):
    """C_l0 .. C_(l0+m-1) of the Gegenbauer family with parameter lam at t,
    stacked along a new first axis, by the forward recurrence C_l =
    (2(l+lam-1) t C_(l-1) - (l+2lam-2) C_(l-2)) / l (stable on [-1, 1]) in
    the precision of t, from prev = C_(l0-2) and curr = C_(l0-1) (unread for
    l0 = 0). Returns (rows, C_(l0+m-2), C_(l0+m-1)): blocks chain exactly."""
    t = np.asarray(t)
    lam = t.dtype.type(lam)
    rows = np.empty((m,) + t.shape, t.dtype)
    for j, l in enumerate(range(l0, l0 + m)):
        if l == 0:
            prev, curr = np.zeros_like(t), np.ones_like(t)
        elif l == 1:
            prev, curr = curr, 2 * lam * t
        else:
            prev, curr = curr, (2 * (l + lam - 1) * t * curr
                                - (l + 2 * lam - 2) * prev) / l
        rows[j] = curr
    return rows, prev, curr


def zonal_all(lmax: int, n: int, t):
    """Z_0(t) .. Z_lmax(t) stacked along the first axis."""
    c = gegenbauer_rows((n - 2.0) / 2.0, np.asarray(t, dtype=float), 0,
                        lmax + 1, None, None)[0]
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
            * gegenbauer_rows(lam + 1.0, t, 0, lmax, None, None)[0]
    return out


def zonal_at_one(l: int, n: int) -> float:
    """Z_l(1), the dimension of the degree-l spherical-harmonic space."""
    lam = (n - 2.0) / 2.0
    # C_l^lam(1) = (2 lam)_l / l!, in log-gamma form to survive large l
    c1 = math.exp(math.lgamma(2.0 * lam + l) - math.lgamma(2.0 * lam)
                  - math.lgamma(l + 1.0))
    return (2.0 * l + n - 2.0) / (n - 2.0) * c1


def sph_harm(l: int, theta, phi):
    """Y_l^m(theta, phi) on the 2-sphere for m = -l..l along a new last
    axis (theta polar, phi azimuth): the fully normalized associated-Legendre
    recurrence in degree at fixed m from P_m^m ~ sin^m theta, with the
    Condon-Shortley phase and Y_l^-m = (-1)^m conj(Y_l^m)."""
    theta = np.asarray(theta, dtype=float)[..., None]
    x, m = np.cos(theta), np.arange(l + 1)
    seed = np.cumprod(np.where(m > 0, -np.sqrt((m + 0.5) / np.maximum(m, 1))
                               * np.sin(theta), 0.5 / math.sqrt(math.pi)),
                      axis=-1)  # P_m^m for every m
    p, q, b_prev = np.where(m == 0, seed, 0.0), 0.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for d in range(1, l + 1):
            b = np.sqrt(np.maximum(d * d - m * m, 0) / (4.0 * d * d - 1.0))
            p, q = np.where(m < d, (x * p - b_prev * q) / b,
                            np.where(m == d, seed, 0.0)), p
            b_prev = b
    pos = p * np.exp(1j * m * np.asarray(phi, dtype=float)[..., None])
    neg = np.where(m % 2, -1.0, 1.0) * np.conj(pos)
    return np.concatenate([neg[..., :0:-1], pos], axis=-1)


def lap_sigma_eigenvalue(l: int, n: int) -> float:
    """Eigenvalue of the tangential Laplacian on degree-l harmonics."""
    return -float(l * (l + n - 2))
