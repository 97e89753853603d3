"""Reference implementations that only tests use: the isometry group of the
ball acting by Moebius maps, the hull quadratic behind the approach-region
cut, and the finite-difference L. The program is checked against them; no
suite, command or workload runs them. Points are Cartesian arrays."""

import math
from dataclasses import dataclass

import numpy as np

from hyperharm import harmonic as hm
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
