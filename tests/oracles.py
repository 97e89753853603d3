"""Reference implementations that only tests use: the isometry group of the
ball acting by Moebius maps, the hull quadratic behind the approach-region
cut, the finite-difference L, and the radial factor and zonal extension
evaluated one degree and one mode at a time. The program is checked against
them; no suite, command or workload runs them. Points are Cartesian
arrays."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sph_harm_y

from hyperharm import harmonic as hm
from hyperharm import specfun as sf
from hyperharm.errors import HyperharmError, OriginSingularity


class DegenerateDenominator(HyperharmError):
    """The Moebius-action denominator collapsed; the group element is
    malformed."""


def _minkowski_J(n: int) -> np.ndarray:
    J = np.eye(n + 1)
    J[0, 0] = -1.0
    return J


@dataclass(frozen=True)
class GroupElement:
    """Element of the identity component of the Lorentz group O(n,1),
    acting conformally on the ball."""

    matrix: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.matrix, dtype=float)
        J = _minkowski_J(g.shape[0] - 1)
        if not np.allclose(g.T @ J @ g, J, atol=1e-10):
            raise ValueError("matrix does not preserve the Lorentz form")
        if g[0, 0] < 1.0 - 1e-10:
            raise ValueError("matrix is not in the identity component")
        object.__setattr__(self, "matrix", g)

    def inverse(self) -> "GroupElement":
        J = _minkowski_J(self.matrix.shape[0] - 1)
        return GroupElement(J @ self.matrix.T @ J)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.matrix @ other.matrix)


def identity_element(n: int) -> GroupElement:
    return GroupElement(np.eye(n + 1))


def boost(t: float, n: int) -> GroupElement:
    """Hyperbolic translation along the first axis: cosh/sinh in the upper
    2x2 block, identity elsewhere. Moves the origin to radius tanh(t/2)."""
    g = np.eye(n + 1)
    g[0, 0] = g[1, 1] = math.cosh(t)
    g[0, 1] = g[1, 0] = math.sinh(t)
    return GroupElement(g)


def rotation_element(R: np.ndarray) -> GroupElement:
    """An SO(n) rotation as a block-diagonal element fixing the origin."""
    g = np.eye(R.shape[0] + 1)
    g[1:, 1:] = R
    return GroupElement(g)


def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SO(n) matrix via QR of a Gaussian sample."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def random_group_element(n: int, rng: np.random.Generator) -> GroupElement:
    """Random element as rotation * boost * rotation, boost up to 2."""
    k1 = rotation_element(random_rotation(n, rng))
    k2 = rotation_element(random_rotation(n, rng))
    return k1 @ boost(float(rng.uniform(0.0, 2.0)), n) @ k2


def mobius_act(g: GroupElement, x) -> np.ndarray:
    """Conformal action of g on the points x, of shape (n,) or (m, n):

    y_p = (1/2 (1+|x|^2) g_{p0} + sum_l g_{pl} x_l) /
          (1/2 (1-|x|^2) + 1/2 (1+|x|^2) g_{00} + sum_l g_{0l} x_l)
    """
    G = g.matrix
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    denom = 0.5 * (1.0 - r2) + 0.5 * (1.0 + r2) * G[0, 0] + x @ G[0, 1:]
    if np.any(denom < 1e-14):
        raise DegenerateDenominator("action denominator too small")
    y = 0.5 * (1.0 + r2)[..., None] * G[1:, 0] + x @ G[1:, 1:].T
    return y / denom[..., None]


def invariant_measure_weight(x, n: int, exponent: float | None = None):
    """Density of the isometry-invariant measure against Lebesgue measure at
    the points x, (1-|x|^2)^(-e). The invariance-validated exponent is
    e = n, the default."""
    e = float(n) if exponent is None else float(exponent)
    x = np.asarray(x, dtype=float)
    return (1.0 - np.sum(x * x, axis=-1)) ** (-e)


def cone_min_quadratic(alpha: float, r, t):
    """min over tau in [0,1] of |x - tau xi|^2 - (1-tau)^2 alpha^2 for
    x = r(t xi + ...), which depends on x only through (r, t); x lies in the
    approach region of aperture alpha at xi when it is negative."""
    A = 1.0 - alpha * alpha
    B = alpha * alpha - np.multiply(r, t)
    C = np.multiply(r, r) - alpha * alpha
    # quadratic A tau^2 + 2 B tau + C, A > 0
    tau = np.clip(-B / A, 0.0, 1.0)
    return A * tau * tau + 2.0 * B * tau + C


def apply_L_fd(f, x, n: int) -> float:
    """L at the Cartesian point x by finite differences, D/(1-r^2) with D
    from second differences of step 1e-4. Refuses |x| < 1e-3, where the
    1/r^2 prefactor is numerically hostile."""
    x = np.asarray(x, dtype=float)
    r2 = float(x @ x)
    if r2 < 1e-6:
        raise OriginSingularity("finite-difference L needs |x| >= 1e-3")
    return hm.d_residual(f, x, n, delta=1.0, h=1e-4) / (1.0 - r2)


def euler_2f1_scalar(a: float, b: float, c: float, x):
    """2F1(a, b; c; x) by the Euler integral for one scalar (a, b, c)."""
    t, w = sf._euler_panels()
    base = w * t ** (a - 1.0) * (1.0 - t) ** (c - a - 1.0)
    x = np.asarray(x, dtype=float)
    kern = (1.0 - x[..., None] * t) ** (-b)
    integral = np.einsum("...j,j->...", kern, base)
    pref = math.exp(math.lgamma(c) - math.lgamma(a) - math.lgamma(c - a))
    return pref * integral


def fl_deriv_one_degree(l: int, n: int, x, order: int = 1):
    """f_l^(order) at x for one scalar degree l, one series or Euler call
    per route: the per-degree reference for fl_deriv's array of degrees."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x) if order == 0 else np.zeros_like(x)
    a, b, c = float(l), 1.0 - n / 2.0, l + n / 2.0
    pref = 1.0
    for j in range(order):
        pref *= (a + j) * (b + j) / (c + j)
    if l > 0 and pref != 0.0:
        a, b, c = a + order, b + order, c + order
        norm = sf.gauss_Fl_at_one(l, n)
        todo = x != 1.0 if order == 0 else np.ones(x.shape, bool)
        terminating = b <= 0 and b.is_integer()
        euler = todo & (x > sf._SERIES_X_MAX) & (not terminating)
        series = todo & ~euler
        if series.any():
            out[series] = pref * sf._series_2f1(
                a, b, c, x[series], sf.SERIES_TOL, sf.SERIES_CAP) / norm
        if euler.any():
            out[euler] = pref * euler_2f1_scalar(a, b, c, x[euler]) / norm
    return float(out) if out.ndim == 0 else out


def radial_one_mode(rad, r):
    """A radial part's value at radii r, bucket by bucket, with one
    fl_deriv_one_degree call per bucket."""
    r = np.asarray(r, dtype=float)
    ru, inv = np.unique(r, return_inverse=True)
    x = (rad.delta * ru) ** 2
    powers = ru[:, None] ** np.arange(max(len(p) for p in rad.polys))
    out = np.zeros(ru.shape)
    for i, p in enumerate(rad.polys):
        if np.all(p == 0.0):
            continue
        poly = np.einsum("ij,j->i", powers[:, :len(p)], p)
        out = out + poly * fl_deriv_one_degree(rad.l, rad.n, x, i)
    return out[inv].reshape(r.shape) if r.shape else out[0]


def eval_rt_per_mode(u, r, t):
    """A zonal extension at radius r and cosine t, summed mode by mode."""
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast(r, t).shape)
    Z = sf.zonal_all(max(rad.l for rad, _ in u.modes), u.n, t)
    for rad, _ in u.modes:
        out = out + radial_one_mode(rad, r) * Z[rad.l]
    return out


def eval_points_per_mode(u, pts):
    """An extension at Cartesian points, summed mode by mode."""
    if u.kind == "zonal":
        return eval_rt_per_mode(u, *hm._radius_cosine(pts, u.pole))
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    safe = np.where(r > 0, r, 1.0)
    theta = np.arccos(np.clip(pts[:, 2] / safe, -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    out = np.zeros(len(pts), dtype=complex)
    for rad, coeff in u.modes:
        Y = sf.sph_harm(rad.l, theta, phi)
        out = out + radial_one_mode(rad, r) * np.einsum("ij,j->i", Y, coeff)
    return out.real


def gradient_sq_per_mode(u, pts):
    """|grad u|^2 of a zonal extension at Cartesian points, its radial and
    tangential sums taken mode by mode."""
    dr = u._map_radial(hm.RadialPart.diff_r)
    tang = [rad.div_r() for rad, _ in u.modes if rad.l >= 1]
    r, t = hm._radius_cosine(pts, u.pole)
    out = eval_rt_per_mode(dr, r, t) ** 2
    dZ = sf.zonal_deriv_all(max(rad.l for rad in tang), u.n, t)
    acc = np.zeros_like(r)
    for rad in tang:
        acc += radial_one_mode(rad, r) * dZ[rad.l]
    return out + (1.0 - t ** 2) * acc ** 2


def diff_r_polynomial(rad):
    """d/dr of a radial part through numpy.polynomial's polyder, polyadd
    and polymul."""
    P = np.polynomial.polynomial
    out = [np.zeros(1) for _ in range(len(rad.polys) + 1)]
    shift = 2.0 * rad.delta ** 2
    for i, p in enumerate(rad.polys):
        out[i] = P.polyadd(out[i], P.polyder(p))
        out[i + 1] = P.polyadd(out[i + 1], P.polymul(p, [0.0, shift]))
    return rad._with(out)



def gauss_jacobi_mp(m, a, b, nodes, dps=32):
    """The m-point Gauss-Jacobi rule for (1-x)^a (1+x)^b, polished in
    mpmath at dps digits: one Newton step from the given double nodes
    (accurate to about 1e-16, so the step leaves about 1e-32), then the
    weights from the derivative formula
    w = 2^(a+b+1) G(m+a+1) G(m+b+1) / (G(m+a+b+1) m! (1-x^2) P_m'(x)^2),
    with P_m = P_m^(a,b) and P_m' from the classical three-term recurrence
    in degree. Returns double arrays."""
    import mpmath as mp
    with mp.workdps(dps):
        a, b = mp.mpf(a), mp.mpf(b)
        coef = []  # P_k = (u_k + v_k x) P_{k-1} - z_k P_{k-2}
        for k in range(2, m + 1):
            s = 2 * k + a + b
            A = 2 * k * (k + a + b) * (s - 2)
            coef.append(((s - 1) * (a * a - b * b) / A,
                         (s - 1) * s * (s - 2) / A,
                         2 * (k + a - 1) * (k + b - 1) * s / A))

        def jacobi(x):  # P_m(x), P_m'(x)
            p0, p1 = mp.mpf(1), (a + 1) + (a + b + 2) * (x - 1) / 2
            d0, d1 = mp.mpf(0), (a + b + 2) / 2
            for u, v, z in coef:
                t = u + v * x
                p0, p1, d0, d1 = p1, t * p1 - z * p0, d1, \
                    v * p1 + t * d1 - z * d0
            return p1, d1

        c = (2 ** (a + b + 1) * mp.gamma(m + a + 1) * mp.gamma(m + b + 1)
             / (mp.gamma(m + a + b + 1) * mp.factorial(m)))
        xs, ws = [], []
        for x in nodes:
            x = mp.mpf(float(x))
            p, d = jacobi(x)
            x -= p / d
            d = jacobi(x)[1]
            xs.append(float(x))
            ws.append(float(c / ((1 - x * x) * d * d)))
    return np.array(xs), np.array(ws)
