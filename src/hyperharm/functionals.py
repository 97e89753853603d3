"""Maximal, area, and Littlewood-Paley functionals for harmonic extensions,
with L^p quasi-norms on the sphere.

Functionals are computed over a shared FunctionalGrid: a boundary grid, a
dyadic radial ladder approaching the boundary, and a cone-quadrature
resolution for the approach regions. Each evaluates u on the points of
many boundary nodes together (up to _POINT_BUDGET points; once per sweep of
the area integral's refinement). The maximal functionals also take a plain
callable u, which must act pointwise; the square functionals need a
HarmonicFunction, whose |grad u|^2 and Nu they take exactly.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import harmonic as hm
from . import specfun as sf
from .errors import QuadratureFailure, UnsupportedRequest
from .geometry import ConeRegion, SphereGrid


@dataclass(frozen=True)
class ConeSpec:
    """Node counts for approach-region quadrature."""

    shells: int = 12
    n_radial: int = 3
    n_polar: int = 8
    n_angular: int = 8

    def doubled(self) -> "ConeSpec":
        return ConeSpec(self.shells, self.n_radial, 2 * self.n_polar,
                        2 * self.n_angular)


@dataclass(frozen=True)
class FunctionalGrid:
    """Boundary grid, radial ladder, and cone resolution shared by the
    functionals. The ladder is dyadic, r_m = 1 - 2^-m, and every functional
    is truncated at r_M (the ladder top)."""

    boundary: SphereGrid
    radii: np.ndarray
    cone: ConeSpec = ConeSpec()

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if r.size == 0 or r[-1] >= 1.0 or np.any(np.diff(r) <= 0):
            raise ValueError("ladder must increase and stay below 1")
        object.__setattr__(self, "radii", r)

    @property
    def r_max(self) -> float:
        return float(self.radii[-1])


def functional_grid(n: int, degree: int = 48, ladder_depth: int = 18,
                    pole=None, full: bool = False,
                    cone: ConeSpec | None = None) -> FunctionalGrid:
    boundary = geo.sphere_quadrature(n, degree, full=full, pole=pole)
    radii = 1.0 - 0.5 ** np.arange(1, ladder_depth + 1)
    return FunctionalGrid(boundary, radii, cone or ConeSpec())


@dataclass
class FunctionalResult:
    """Per-boundary-node values of one functional."""

    kind: str
    grid: FunctionalGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.grid.boundary.nodes),):
            raise ValueError("one value per boundary node required")

    def quasinorm(self, p: float) -> float:
        if not 0.0 < p < math.inf:
            raise ValueError("p must be finite and positive")
        w = self.grid.boundary.weights
        # numpy pairwise summation keeps the reduction deterministic
        return float(np.sum(w * np.abs(self.values) ** p) ** (1.0 / p))

    def write_csv(self, path: str) -> None:
        nodes = self.grid.boundary.nodes
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["node"] + [f"x{i + 1}" for i in range(nodes.shape[1])]
                   + ["value"])
        for i, (xi, v) in enumerate(zip(nodes, self.values)):
            w.writerow([i] + [f"{c:.17g}" for c in xi] + [f"{v:.17g}"])
        write_atomic(path, buf.getvalue())


def write_atomic(path: str, text: str) -> None:
    """Write text to path through path.tmp and os.replace, so path never
    holds half a file; newline="" writes csv's \\r\\n row ends as they are."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# evaluator adapters


def _require_fit(u, grid: FunctionalGrid) -> None:
    """Refuse u that the grid's zonal-only rule cannot integrate (sph3 u, or
    zonal u about another pole); a plain callable must fit its grid."""
    b = grid.boundary
    if isinstance(u, hm.HarmonicFunction) and b.zonal_only and (
            u.kind != "zonal" or not np.allclose(u.pole, b.pole)):
        raise UnsupportedRequest("a zonal-only boundary grid integrates only "
                                 "functions zonal about its pole")


def _values(u, pts: np.ndarray) -> np.ndarray:
    if hasattr(u, "eval_points"):
        return np.asarray(u.eval_points(pts), dtype=float)
    return np.asarray(u(pts), dtype=float)


def _square_func(u, radial_only: bool):
    """|grad u|^2, or |Nu|^2 = (r d_r u)^2 when radial_only, as a point
    function, exact on u's mode form."""
    if not isinstance(u, hm.HarmonicFunction):
        raise TypeError("the square functionals need a HarmonicFunction u")
    if not radial_only:
        return hm.gradient_sq(u)
    Nu = hm.apply_N(u)
    return lambda pts: np.asarray(Nu.eval_points(pts)) ** 2


# ---------------------------------------------------------------------------
# maximal functionals


def radial_max(u, grid: FunctionalGrid) -> FunctionalResult:
    """Radial maximal function: per node, max |u| along the ladder."""
    _require_fit(u, grid)
    nodes = grid.boundary.nodes
    radii = grid.radii
    pts = (radii[:, None, None] * nodes[None, :, :]).reshape(-1, nodes.shape[1])
    vals = np.abs(_values(u, pts)).reshape(len(radii), len(nodes))
    return FunctionalResult("radial-max", grid, vals.max(axis=0))


# most points of one evaluation of u by the cone functionals (the largest
# sweep of the benchmark's cone-functionals workload has 8,640)
_POINT_BUDGET = 1 << 16


def _cone_grids(alpha: float, grid: FunctionalGrid, spec: ConeSpec,
                extra: int = 0):
    """The approach-region quadrature of every boundary node, as (grids,
    nodes) for runs of consecutive nodes whose points, at most the product
    of spec's counts plus extra per node, stay within _POINT_BUDGET (one
    node at least), so that memory stays bounded on large grids."""
    nodes, n = grid.boundary.nodes, grid.boundary.nodes.shape[1]
    per = max(1, _POINT_BUDGET // (spec.shells * spec.n_radial * spec.n_polar
                                   * spec.n_angular + extra))
    for run in (nodes[i:i + per] for i in range(0, len(nodes), per)):
        yield [geo.cone_quadrature(ConeRegion(alpha, xi), n, grid.r_max,
                                   pole=grid.boundary.pole, shells=spec.shells,
                                   n_radial=spec.n_radial,
                                   n_polar=spec.n_polar,
                                   n_angular=spec.n_angular)
               for xi in run], run


def _split(vals: np.ndarray, parts) -> list:
    """vals cut into consecutive pieces, one per array in parts."""
    return np.split(vals, np.cumsum([len(p) for p in parts])[:-1])


def cone_max(u, alpha: float, grid: FunctionalGrid) -> FunctionalResult:
    """Non-tangential maximal function over the approach region of aperture
    alpha, truncated at the ladder top."""
    _require_fit(u, grid)
    out = []
    for vgs, nodes in _cone_grids(alpha, grid, grid.cone, len(grid.radii)):
        # the radial ray lies in every approach region; include the ladder
        parts = [np.concatenate([vg.points, grid.radii[:, None] * xi[None, :]])
                 for vg, xi in zip(vgs, nodes)]
        vals = np.abs(_values(u, np.concatenate(parts)))
        out += [float(np.max(v)) for v in _split(vals, parts)]
    return FunctionalResult("cone-max", grid, out)


# ---------------------------------------------------------------------------
# square functionals


def area_integral(u, alpha: float, grid: FunctionalGrid,
                  radial_only: bool = False,
                  refine_tol: float = 1e-3) -> FunctionalResult:
    """Area functional: square root of the cone integral of |grad u|^2 (or
    |Nu|^2 when radial_only) against (1-|x|^2)^(-n+2). The cone resolution is
    doubled, at most twice, until the values settle to refine_tol."""
    _require_fit(u, grid)
    n = grid.boundary.nodes.shape[1]
    q = _square_func(u, radial_only)

    def sweep(spec):
        out = []
        for vgs, _ in _cone_grids(alpha, grid, spec):
            pts = [vg.points for vg in vgs]
            for vg, qv in zip(vgs, _split(q(np.concatenate(pts)), pts)):
                w = (1.0 - np.sum(vg.points ** 2, axis=1)) ** (-n + 2)
                # a 1-D dot per node; a matrix-vector product rounds apart
                out.append(float(vg.weights @ (qv * w)))
        return np.array(out)

    spec = grid.cone
    prev = sweep(spec)
    for _ in range(2):
        spec = spec.doubled()
        cur = sweep(spec)
        scale = max(float(np.max(cur)), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= refine_tol * scale:
            kind = "area-radial" if radial_only else "area"
            return FunctionalResult(kind, grid, np.sqrt(np.maximum(cur, 0.0)))
        prev = cur
    raise QuadratureFailure("cone integral did not settle under refinement")


def littlewood_paley_g(u, grid: FunctionalGrid,
                       radial_only: bool = False) -> FunctionalResult:
    """Ray square function: per node xi, the square root of the integral of
    |grad u(t xi)|^2 (1-t^2) dt (or |Nu|^2 when radial_only) over the ladder
    range [0, r_M]. The paper's formula is read with |grad u| squared, as
    for the area functional."""
    _require_fit(u, grid)
    nodes = grid.boundary.nodes
    n = nodes.shape[1]
    q = _square_func(u, radial_only)
    xg, wg = sf.gauss_jacobi(8)
    edges = np.concatenate([[0.0], grid.radii])
    ts, tw = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        ts.append(lo + half * (xg + 1.0))
        tw.append(half * wg)
    ts = np.concatenate(ts)
    tw = np.concatenate(tw)
    weight = tw * (1.0 - ts ** 2)
    pts = (ts[:, None, None] * nodes[None, :, :]).reshape(-1, n)
    vals = q(pts).reshape(len(ts), len(nodes))
    integ = weight @ vals
    kind = "g-radial" if radial_only else "g"
    return FunctionalResult(kind, grid, np.sqrt(np.maximum(integ, 0.0)))


# ---------------------------------------------------------------------------
# fractional ray integral


def ray_integral_Il(f, l: float, x) -> float:
    """I_l f at the Cartesian point x = r zeta: integral over [0, r] of
    f(t zeta) (1-t)^(l-1) dt, with panels refined toward t = r where the
    weight steepens for l < 1. f is a HarmonicFunction or a pointwise
    callable of (m, n) point arrays, evaluated once on all ray nodes of
    each pass. From 4 panels, the count doubles (at most 11 times) until
    successive values agree to 1e-10 times max(|value|, 1)."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r >= 1.0:
        raise ValueError("x must lie inside the unit ball")
    if r == 0.0:
        return 0.0
    zeta = x / r
    xg, wg = sf.gauss_jacobi(12)
    panels = 4
    prev = None
    for _ in range(12):
        edges = r * (1.0 - 0.5 ** np.arange(panels + 1))
        edges[-1] = r
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        t = edges[:-1, None] + half * (xg + 1.0)
        vals = _values(f, t.reshape(-1, 1) * zeta[None, :]).reshape(t.shape)
        total = 0.0
        for h, v, tp in zip(half[:, 0], vals, t):
            total += h * float(wg @ (v * (1.0 - tp) ** (l - 1.0)))
        if prev is not None and abs(total - prev) <= 1e-10 * max(abs(total),
                                                                1.0):
            return total
        prev = total
        panels *= 2
    raise QuadratureFailure("ray integral did not settle")
