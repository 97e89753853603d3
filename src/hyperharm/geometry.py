"""Ball-model geometry: non-tangential approach regions and quadrature grids
on spheres, balls, and cones."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun as sf
from .errors import UnsupportedRequest


def sphere_area(d: int) -> float:
    """Surface area of the d-sphere S^d embedded in R^{d+1}."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


# ---------------------------------------------------------------------------
# approach regions


@dataclass(frozen=True)
class ConeRegion:
    """Non-tangential approach region: the interior of the convex hull of
    B(0, alpha) and the boundary point xi."""

    alpha: float
    xi: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("aperture must lie in (0, 1)")
        v = np.asarray(self.xi, dtype=float)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError("boundary point must be a unit vector")
        object.__setattr__(self, "xi", v)


def cone_polar_cut(region: ConeRegion, r: float) -> float:
    """Smallest t = <direction, xi> at radius r still inside the region;
    -1 if the whole sphere of radius r is inside (r < alpha).

    x lies in the region when the hull quadratic, the minimum over tau in
    [0, 1] of |x - tau xi|^2 - (1-tau)^2 alpha^2, is negative. For
    alpha <= r < 1 that happens exactly when
    r t - alpha^2 > sqrt((1 - alpha^2)(r^2 - alpha^2)), which gives the cut
    in closed form (1 when no direction qualifies)."""
    a = region.alpha
    if r < a:
        return -1.0
    if r >= 1.0:
        raise ValueError("r must be < 1")
    a2 = a * a
    return min(1.0, (a2 + math.sqrt((1.0 - a2) * (r * r - a2))) / r)


# ---------------------------------------------------------------------------
# quadrature grids


@dataclass(frozen=True)
class SphereGrid:
    """Nodes (unit vectors) and positive weights summing to 1, integrating
    against the normalized surface measure. zonal_only marks grids valid only
    for integrands of the form F(<xi, pole>)."""

    nodes: np.ndarray
    weights: np.ndarray
    zonal_only: bool = False
    pole: np.ndarray | None = None

    def integrate(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def orthonormal_frame(*axes, n: int) -> list[np.ndarray]:
    """Gram-Schmidt frame in R^n whose leading vectors follow the given axes
    (degenerate axes replaced by coordinate directions), padded to 3 vectors."""
    out: list[np.ndarray] = []
    cands = [np.asarray(a, dtype=float) for a in axes]
    cands += list(np.eye(n))
    for v in cands:
        if len(out) == max(3, len(axes)):
            break
        w = v.copy()
        for e in out:
            w -= (w @ e) * e
        nrm = float(np.linalg.norm(w))
        if nrm > 1e-9:
            out.append(w / nrm)
    return out


def _angular_weight_rule(n: int, m: int):
    """Nodes s_i and weights such that sum_i w_i f(s_i) approximates
    int_{S^{n-2}} f(<omega, e>) dOmega = A_{n-3} int f(s)(1-s^2)^{(n-4)/2} ds."""
    s, w = sf.gauss_jacobi(m, (n - 4) / 2.0, (n - 4) / 2.0)
    return s, w * (2.0 if n == 3 else sphere_area(n - 3))  # A_0 = 2


def sphere_quadrature(n: int, degree: int, full: bool = False,
                      pole: np.ndarray | None = None) -> SphereGrid:
    """Quadrature on the unit sphere against the normalized measure.

    full=True (n = 3 only): product Gauss-Legendre (polar) x uniform
    (azimuth) grid, exact for spherical polynomials up to the degree.
    Otherwise a zonal-reduction rule valid for integrands F(<xi, pole>).
    """
    if pole is None:
        pole = np.zeros(n)
        pole[0] = 1.0
    pole = np.asarray(pole, dtype=float)
    if full:
        if n != 3:
            raise UnsupportedRequest("full sphere grids exist only for n = 3")
        m = max(degree // 2 + 1, 2)
        tq, tw = sf.gauss_jacobi(m)
        naz = max(degree + 1, 4)
        phi = 2.0 * math.pi * np.arange(naz) / naz
        st = np.sqrt(1.0 - tq ** 2)
        nodes = np.empty((m * naz, 3))
        nodes[:, 0] = np.repeat(tq, naz)
        nodes[:, 1] = np.repeat(st, naz) * np.tile(np.cos(phi), m)
        nodes[:, 2] = np.repeat(st, naz) * np.tile(np.sin(phi), m)
        w = np.repeat(tw, naz) / (2.0 * naz)
        return SphereGrid(nodes, w, zonal_only=False, pole=pole)
    m = max(degree // 2 + 1, 2)
    t, w = sf.gauss_jacobi(m, (n - 3) / 2.0, (n - 3) / 2.0)
    w = w / 2.0 if n == 3 else w / w.sum()
    e1, e2, _ = orthonormal_frame(pole, n=n)
    nodes = np.outer(t, e1) + np.outer(np.sqrt(1.0 - t ** 2), e2)
    return SphereGrid(nodes, w, zonal_only=True, pole=pole)


@dataclass(frozen=True)
class VolumeGrid:
    """Points in the ball with Lebesgue weights, for volume integrals."""

    points: np.ndarray
    weights: np.ndarray

    def integrate(self, values) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


def ball_quadrature(n: int, center, radius: float, n_radial: int = 24,
                    n_psi: int = 12, n_theta: int = 24,
                    axis1=None, axis2=None) -> VolumeGrid:
    """Lebesgue quadrature over the ball B(center, radius).

    Exact (up to degree) for integrands depending on |x - center| and the
    components of (x - center) along two fixed directions axis1, axis2; for
    n = 3 this covers all integrands.
    """
    center = np.asarray(center, dtype=float)
    if axis1 is None:
        axis1 = np.eye(n)[0]
    if axis2 is None:
        axis2 = np.eye(n)[min(1, n - 1)]
    e1, e2, e3 = orthonormal_frame(axis1, axis2, n=n)

    rq, rw = sf.gauss_jacobi(n_radial)
    rho = 0.5 * radius * (rq + 1.0)
    rhow = 0.5 * radius * rw * rho ** (n - 1)

    # sphere directions via the two-direction disk reduction:
    # w = sin(psi)(cos th, sin th), remainder on +-e3 with half weight;
    # ordered psi, theta, sign. Trig and powers are taken per scalar, as
    # numpy's array versions may round differently.
    pq, pw = sf.gauss_jacobi(n_psi)
    psi = (0.25 * math.pi * (pq + 1.0)).tolist()
    psw = 0.25 * math.pi * pw
    th = (2.0 * math.pi * np.arange(n_theta) / n_theta).tolist()
    thw = 2.0 * math.pi / n_theta
    area_rest = sphere_area(n - 3) if n > 3 else 2.0
    s = np.array([math.sin(p) for p in psi])
    c = np.array([math.cos(p) for p in psi])
    ang = psw * thw * s * np.array([math.cos(p) ** (n - 3) for p in psi]) \
        * area_rest / 2.0
    circle = (np.array([math.cos(t) for t in th])[:, None] * e1
              + np.array([math.sin(t) for t in th])[:, None] * e2)
    base = s[:, None, None] * circle
    up = c[:, None, None] * e3
    dirs = np.stack([base + up, base - up], axis=2).reshape(-1, n)
    dw = np.repeat(ang, 2 * n_theta)

    pts = center[None, None, :] + rho[:, None, None] * dirs[None, :, :]
    wts = rhow[:, None] * dw[None, :]
    return VolumeGrid(pts.reshape(-1, n), wts.ravel())


def cone_quadrature(region: ConeRegion, n: int, r_max: float,
                    pole=None, shells: int = 18, n_radial: int = 4,
                    n_polar: int = 12, n_angular: int = 12) -> VolumeGrid:
    """Lebesgue quadrature over the approach region truncated at |x| <= r_max.

    Dyadic radial shells x Gauss-Legendre, polar nodes between the per-radius
    cone cut and 1, angular nodes against the (1-s^2)^{(n-4)/2} reduction.
    Exact only for integrands depending on |x|, <x, xi> and <x, pole>;
    for n = 3 with uniform-azimuth nodes this covers all integrands.

    Nodes are ordered shell, radial, polar, angular. The power factors are
    taken per scalar with float ** (array power may round differently).
    """
    xi = region.xi
    if pole is None:
        pole = xi
    pole = np.asarray(pole, dtype=float)
    # frame: first vector xi, second toward the part of pole orthogonal to xi
    _, e2, e3 = orthonormal_frame(xi, pole, n=n)

    gq, gw = sf.gauss_jacobi(n_radial)
    pq, pw = sf.gauss_jacobi(n_polar)
    s_nodes, s_w = _angular_weight_rule(n, n_angular)

    edges = [0.0] + [1.0 - 0.5 ** (j + 1) for j in range(shells)]
    edges = np.array([e for e in edges if e < r_max] + [r_max])
    lo = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - lo)
    r = (lo + half * (gq + 1.0)).ravel()
    wr = (half * gw).ravel() * np.array([x ** (n - 1) for x in r.tolist()])
    tmin = np.array([cone_polar_cut(region, x) for x in r.tolist()])
    keep = tmin < 1.0
    r, wr, tmin = r[keep], wr[keep], tmin[keep]

    th = 0.5 * (1.0 - tmin)[:, None]
    t = tmin[:, None] + th * (pq + 1.0)
    wt = th * pw * np.array([(1.0 - x * x) ** ((n - 3) / 2.0)
                             for x in t.ravel().tolist()]).reshape(t.shape)
    rt = np.sqrt(np.maximum(1.0 - t * t, 0.0))
    sq = np.sqrt(np.maximum(1.0 - s_nodes * s_nodes, 0.0))
    ang = s_nodes[:, None] * e2 + sq[:, None] * e3
    d = t[:, :, None, None] * xi + rt[:, :, None, None] * ang
    pts = r[:, None, None, None] * d
    wts = (wr[:, None] * wt)[:, :, None] * s_w
    return VolumeGrid(pts.reshape(-1, n), wts.ravel())
