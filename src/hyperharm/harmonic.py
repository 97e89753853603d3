"""Harmonic extension of boundary data on the unit ball and exact operator
calculus on mode representations.

A mode is c * f_l(delta^2 r^2) r^l (angular factor). The radial engine keeps
each mode as sum_i p_i(r) G_i(delta^2 r^2), where G_i is the i-th derivative
of the normalized radial factor f_l. This family is closed under the radial
derivative N = r d/dr, multiplication by polynomials in r, the tangential
Laplacian (an eigenvalue per mode), and dilation, so all the differential
operators used here act exactly (no finite differences on mode forms).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry as geo
from . import specfun as sf
from .errors import DataFileError, OriginSingularity, UnsupportedDimension

_P = np.polynomial.polynomial


def _trim(c: np.ndarray) -> np.ndarray:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1]


@dataclass(frozen=True)
class RadialPart:
    """Radial factor sum_i p_i(r) G_i(delta^2 r^2) of a degree-l mode.

    polys[i] holds ascending coefficients of p_i; G_i is the i-th derivative
    of f_l. For even n the buckets with i >= n/2 vanish identically and are
    dropped."""

    l: int
    n: int
    delta: float
    polys: tuple

    @classmethod
    def base(cls, l: int, n: int, coeff: float = 1.0) -> "RadialPart":
        """coeff r^l f_l(r^2); dilate sets delta."""
        p0 = np.zeros(l + 1)
        p0[l] = coeff
        return cls(l, n, 1.0, (p0,))

    def _with(self, polys) -> "RadialPart":
        if self.n % 2 == 0:
            polys = polys[: self.n // 2]  # G_i = 0 for i >= n/2
        polys = [_trim(p) for p in polys]
        while len(polys) > 1 and np.all(polys[-1] == 0.0):
            polys.pop()
        return replace(self, polys=tuple(polys))

    def evaluate(self, r):
        """Value at radii r (see _radial_values)."""
        out = next(_radial_values((self,), r))
        return out if out.shape else out[()]

    def scale(self, c: float) -> "RadialPart":
        return self._with([p * c for p in self.polys])

    def add(self, other: "RadialPart") -> "RadialPart":
        if (other.l, other.n) != (self.l, self.n) or \
                other.delta != self.delta:
            raise ValueError("incompatible radial parts")
        m = max(len(self.polys), len(other.polys))
        out = []
        for i in range(m):
            a = self.polys[i] if i < len(self.polys) else np.zeros(1)
            b = other.polys[i] if i < len(other.polys) else np.zeros(1)
            out.append(_P.polyadd(a, b))
        return self._with(out)

    def mul_poly(self, coeffs) -> "RadialPart":
        coeffs = np.asarray(coeffs, dtype=float)
        return self._with([_P.polymul(p, coeffs) for p in self.polys])

    def apply_N(self) -> "RadialPart":
        """N = r d/dr; multiplying by r shifts the coefficients exactly."""
        return self.diff_r().mul_poly([0.0, 1.0])

    def diff_r(self) -> "RadialPart":
        """d/dr: bucket i receives p_i' and feeds 2 delta^2 r p_i up. A
        sum adds the shorter polynomial into the longer, the feed trimmed
        of trailing zeros first and its zeros all +0, which gives the bits
        of numpy.polynomial's polyadd and polymul, signed zeros included."""
        shift = 2.0 * self.delta ** 2
        out, up = [], np.zeros(1)
        for p in self.polys:
            der = p[1:] * np.arange(1, len(p)) if len(p) > 1 else p * 0.0
            if len(der) > len(up):
                up, der = der, up
            acc = up.copy()
            acc[:len(der)] += der
            out.append(acc)
            up = _trim(np.concatenate(([0.0], p * shift + 0.0)))
        out.append(up)
        return self._with(out)

    def _shift_down(self, k: int) -> "RadialPart":
        scale = max((np.max(np.abs(p)) for p in self.polys), default=0.0)
        out = []
        for p in self.polys:
            head = p[:k]
            if scale > 0.0 and np.any(np.abs(head) > 1e-9 * scale):
                raise OriginSingularity(
                    "radial part does not vanish to the required order at 0")
            out.append(p[k:] if len(p) > k else np.zeros(1))
        return self._with(out)

    def div_r2(self) -> "RadialPart":
        """Exact division by r^2; valid when the low-order coefficients
        cancel, which they do for every operator combination used here."""
        return self._shift_down(2)

    def div_r(self) -> "RadialPart":
        return self._shift_down(1)

    def dilate(self, delta0: float) -> "RadialPart":
        """r -> delta0 r: rescale polynomials and the argument scale."""
        out = [p * delta0 ** np.arange(len(p)) for p in self.polys]
        return replace(self, delta=self.delta * delta0,
                       polys=tuple(_trim(p) for p in out))

    def is_zero(self) -> bool:
        return all(np.all(p == 0.0) for p in self.polys)


def _radial_values(parts, r):
    """Yields each radial part's values at radii r, in order. The parts
    share n. Each distinct radius is evaluated once, with one fl_deriv call
    per bucket order for every part holding that bucket; each part sums its
    buckets p_i(r) G_i(delta^2 r^2) in bucket order. So a part's value is
    the same whatever the other parts and radii evaluated with it. Each
    part is scattered back to r only when its turn comes, so memory holds
    one part at r at a time."""
    if not parts:
        return
    r = np.asarray(r, dtype=float)
    ru, inv = np.unique(r, return_inverse=True)
    table = np.zeros((len(parts), ru.size))
    powers = ru[:, None] ** np.arange(max(len(p) for rad in parts
                                          for p in rad.polys))
    for i in range(max(len(rad.polys) for rad in parts)):
        rows = [j for j, rad in enumerate(parts) if len(rad.polys) > i
                and not np.all(rad.polys[i] == 0.0)]
        if not rows:
            continue
        ls = np.array([parts[j].l for j in rows])
        deltas = np.array([parts[j].delta for j in rows])
        G = sf.fl_deriv(ls[:, None], parts[0].n, (deltas[:, None] * ru) ** 2,
                        i)
        for j, g in zip(rows, G):
            p = parts[j].polys[i]
            table[j] = table[j] + np.einsum("ij,j->i", powers[:, :len(p)],
                                            p) * g
    for row in table:
        yield row[inv].reshape(r.shape)


@dataclass(frozen=True)
class ZonalExpansion:
    """Boundary data phi(<xi, pole>) = sum_l c_l Z_l(<xi, pole>)."""

    n: int
    pole: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pole, dtype=float)
        if abs(np.linalg.norm(p) - 1.0) > 1e-12:
            raise ValueError("pole must be a unit vector")
        object.__setattr__(self, "pole", p)
        object.__setattr__(self, "coeffs",
                           np.asarray(self.coeffs, dtype=float))

    def boundary_value(self, t):
        t = np.asarray(t, dtype=float)
        L = len(self.coeffs) - 1
        Z = sf.zonal_all(L, self.n, t)
        return np.tensordot(self.coeffs, Z, axes=(0, 0))


@dataclass(frozen=True)
class Sph3Expansion:
    """Boundary data on the 2-sphere as complex spherical-harmonic
    coefficients a_{l,m} with the reality symmetry
    a_{l,-m} = (-1)^m conj(a_{l,m})."""

    coeffs: tuple  # coeffs[l] is a complex array of length 2l+1 (m = -l..l)


def _radius_cosine(pts, pole):
    """Radius r and cosine t to the pole of Cartesian points (m x n), t
    clipped to [-1, 1] and set to 1 at r = 0, where r^l kills every l > 0
    mode."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    safe = np.where(r > 0, r, 1.0)
    # einsum, not @: a BLAS matrix-vector product rounds a row differently
    # by batch size
    t = np.einsum("ij,j->i", pts, pole) / safe
    t[r == 0] = 1.0
    return r, np.clip(t, -1.0, 1.0)


@dataclass(frozen=True)
class HarmonicFunction:
    """Finite mode expansion on the ball: modes holds (RadialPart, coeff)
    pairs in increasing degree, the degree being the radial part's l.

    Zonal data (pole a unit vector): coeff is None, the coefficient is
    folded into the radial part and the angular factor is Z_l(<zeta, pole>).
    sph3 data (pole None, n = 3): coeff is the complex array over m = -l..l.
    """

    n: int
    pole: np.ndarray | None
    modes: tuple

    @property
    def kind(self) -> str:
        return "sph3" if self.pole is None else "zonal"

    # -- evaluation ---------------------------------------------------------

    def eval_rt(self, r, t):
        """Zonal fast path: value at radius r, cosine t to the pole."""
        if self.pole is None:
            raise ValueError("eval_rt applies to zonal expansions")
        r = np.asarray(r, dtype=float)
        t = np.asarray(t, dtype=float)
        out = np.zeros(np.broadcast(r, t).shape)
        if not self.modes:
            return out if out.shape else float(out)
        Z = sf.zonal_all(max(rad.l for rad, _ in self.modes), self.n, t)
        values = _radial_values([rad for rad, _ in self.modes], r)
        for (rad, _), rv in zip(self.modes, values):
            out = out + rv * Z[rad.l]
        return out if out.shape else float(out)

    def eval_points(self, pts):
        """Value at an array of Cartesian interior points (m x n)."""
        if self.pole is not None:
            return self.eval_rt(*_radius_cosine(pts, self.pole))
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        safe = np.where(r > 0, r, 1.0)
        theta = np.arccos(np.clip(pts[:, 2] / safe, -1.0, 1.0))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.zeros(len(pts), dtype=complex)
        values = _radial_values([rad for rad, _ in self.modes], r)
        for (rad, coeff), rv in zip(self.modes, values):
            Y = sf.sph_harm(rad.l, theta, phi)
            out = out + rv * np.einsum("ij,j->i", Y, coeff)  # not @, as above
        return out.real

    # -- structural helpers -------------------------------------------------

    def _map_radial(self, fn) -> "HarmonicFunction":
        """fn applied to every radial part; modes it sends to zero drop."""
        modes = ((fn(rad), coeff) for rad, coeff in self.modes)
        return replace(self, modes=tuple(m for m in modes
                                         if not m[0].is_zero()))

    def scale(self, c: float) -> "HarmonicFunction":
        return self._map_radial(lambda rad: rad.scale(c))

    def add(self, other: "HarmonicFunction") -> "HarmonicFunction":
        """A mode of other merges into the mode of the same degree with an
        equal coefficient (always, for zonal data) through RadialPart.add;
        otherwise the two modes sit side by side."""
        if self.n != other.n or (self.pole is None) != (other.pole is None):
            raise ValueError("incompatible expansions")
        if self.pole is not None and not np.allclose(self.pole, other.pole):
            raise ValueError("expansions have different poles")
        if len({rad.delta for rad, _ in self.modes + other.modes}) > 1:
            raise ValueError("expansions have different dilations")
        modes = list(self.modes)
        for rad, coeff in other.modes:
            for j, (r0, c0) in enumerate(modes):
                if r0.l == rad.l and (c0 is None or np.array_equal(c0, coeff)):
                    modes[j] = (r0.add(rad), c0)
                    break
            else:
                modes.append((rad, coeff))
        modes.sort(key=lambda m: m[0].l)
        return replace(self, modes=tuple(modes))


# ---------------------------------------------------------------------------
# extension and data ingestion


def extend(boundary, delta: float = 1.0) -> HarmonicFunction:
    """Harmonic extension: boundary sum c_l Z_l becomes
    sum c_l f_l(r^2) r^l Z_l (exact for finite expansions). delta < 1 builds
    the dilated extension directly (see dilate)."""
    if isinstance(boundary, ZonalExpansion):
        modes = tuple((RadialPart.base(l, boundary.n, float(c)), None)
                      for l, c in enumerate(boundary.coeffs) if c != 0.0)
        u = HarmonicFunction(boundary.n, boundary.pole, modes)
    elif isinstance(boundary, Sph3Expansion):
        modes = tuple((RadialPart.base(l, 3), np.asarray(c, dtype=complex))
                      for l, c in enumerate(boundary.coeffs)
                      if np.any(np.asarray(c) != 0.0))
        u = HarmonicFunction(3, None, modes)
    else:
        raise TypeError("boundary must be a ZonalExpansion or Sph3Expansion")
    if delta != 1.0:
        u = dilate(u, delta)
    return u


def dilate(u: HarmonicFunction, delta0: float) -> HarmonicFunction:
    """v(x) = u(delta0 x); annihilated by the interpolating operator with
    parameter delta0 when u is harmonic."""
    if not 0.0 < delta0 <= 1.0:
        raise ValueError("dilation parameter must lie in (0, 1]")
    return u._map_radial(lambda rad: rad.dilate(delta0))


def random_zonal(n: int, lmax: int, rng: np.random.Generator,
                 decay: float = 2.0, pole=None) -> ZonalExpansion:
    """Seeded test data: c_l = rho_l (l+1)^(-decay), rho_l uniform in
    [-1, 1]."""
    if pole is None:
        pole = np.zeros(n)
        pole[0] = 1.0
    rho = rng.uniform(-1.0, 1.0, lmax + 1)
    c = rho * (np.arange(lmax + 1) + 1.0) ** (-decay)
    return ZonalExpansion(n, pole, c)


def project_zonal(func, n: int, lmax: int) -> np.ndarray:
    """Coefficients of phi(t) in the zonal basis by quadrature of degree
    2 lmax + 16 against the projected sphere measure;
    c_l = int phi Z_l dnu / Z_l(1)."""
    grid = geo.sphere_quadrature(n, 2 * lmax + 16)
    t = grid.nodes @ grid.pole
    vals = np.asarray(func(t), dtype=float)
    Z = sf.zonal_all(lmax, n, t)
    c = (Z * vals) @ grid.weights
    z1 = np.array([sf.zonal_at_one(l, n) for l in range(lmax + 1)])
    return c / z1


def _finite_array(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataFileError(f"{name} must be numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise DataFileError(f"{name} must be finite")
    return arr


def load_boundary_data(source) -> "ZonalExpansion | Sph3Expansion":
    """Parse boundary data from a dict, JSON text (a string whose first
    non-blank character is '{') or a JSON file path into a ZonalExpansion
    or Sph3Expansion. Schema: {"n": int, "kind": "zonal-coeffs" |
    "zonal-samples" | "sph3-coeffs", "pole": [...], "coeffs" | "samples":
    ...}.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if not (isinstance(source, str) and source.lstrip().startswith("{")):
            try:
                with open(source) as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                why = getattr(exc, "strerror", None) or exc
                raise DataFileError(
                    f"cannot read boundary data {source}: {why}") from exc
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, TypeError) as exc:
            raise DataFileError(f"unreadable boundary data: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFileError("boundary data must be a JSON object")
    n, kind = doc.get("n"), doc.get("kind")
    if not isinstance(n, int) or isinstance(n, bool) or kind is None:
        raise DataFileError("boundary data needs integer 'n' and 'kind'")
    if n < 3:
        raise DataFileError("dimension must be at least 3")
    pole = _finite_array(doc.get("pole", [1.0] + [0.0] * (n - 1)), "pole")
    if pole.shape != (n,):
        raise DataFileError("pole length must match the dimension")
    nrm = float(np.linalg.norm(pole))
    if nrm == 0.0:
        raise DataFileError("pole must be nonzero")
    pole = pole / nrm
    if kind == "zonal-coeffs":
        if "coeffs" not in doc:
            raise DataFileError("kind zonal-coeffs requires 'coeffs'")
        coeffs = _finite_array(doc["coeffs"], "coeffs")
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DataFileError("coeffs must be a nonempty list of numbers")
        return ZonalExpansion(n, pole, coeffs)
    if kind == "zonal-samples":
        if "samples" not in doc:
            raise DataFileError("kind zonal-samples requires 'samples'")
        samples = _finite_array(doc["samples"], "samples")
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise DataFileError("samples must be rows of [t, value]")
        order = np.argsort(samples[:, 0])
        ts, vs = samples[order, 0], samples[order, 1]
        lmax = max(1, min(len(ts) // 2, 128))

        def interp(t):
            return np.interp(t, ts, vs)

        coeffs = project_zonal(interp, n, lmax)
        return ZonalExpansion(n, pole, coeffs)
    if kind == "sph3-coeffs":
        if n != 3:
            raise DataFileError("sph3-coeffs requires n = 3")
        if "coeffs" not in doc:
            raise DataFileError("kind sph3-coeffs requires 'coeffs'")
        rows = doc["coeffs"]
        try:
            packed = [np.asarray([complex(v[0], v[1]) if
                                  isinstance(v, (list, tuple)) else complex(v)
                                  for v in row], dtype=complex)
                      for row in rows]
        except (TypeError, IndexError, ValueError) as exc:
            raise DataFileError("sph3 coefficients must be rows of complex "
                                "pairs") from exc
        if not all(np.all(np.isfinite(row)) for row in packed):
            raise DataFileError("coeffs must be finite")
        for l, row in enumerate(packed):
            if len(row) != 2 * l + 1:
                raise DataFileError(f"degree {l} row must have {2*l+1} "
                                    "entries")
        return Sph3Expansion(tuple(packed))
    raise DataFileError(f"unknown boundary-data kind {kind!r}")


# ---------------------------------------------------------------------------
# exact operators on mode forms


def apply_N(u: HarmonicFunction, k: int = 1) -> HarmonicFunction:
    """k-fold radial derivative N = r d/dr, exact per mode."""
    out = u
    for _ in range(k):
        out = out._map_radial(RadialPart.apply_N)
    return out


def apply_lap_sigma(u: HarmonicFunction, j: int = 1) -> HarmonicFunction:
    """j-th power of the tangential Laplacian: each degree-l mode scales by
    (-l(l+n-2))^j."""
    return u._map_radial(
        lambda rad: rad.scale(sf.lap_sigma_eigenvalue(rad.l, u.n) ** j))


def apply_neg_lap_sigma_half(u: HarmonicFunction) -> HarmonicFunction:
    """Square root of minus the tangential Laplacian: scale by
    sqrt(l(l+n-2))."""
    return u._map_radial(lambda rad: rad.scale(
        math.sqrt(-sf.lap_sigma_eigenvalue(rad.l, u.n))))


def _mul_poly(u: HarmonicFunction, coeffs) -> HarmonicFunction:
    return u._map_radial(lambda rad: rad.mul_poly(coeffs))


def apply_L(u: HarmonicFunction) -> HarmonicFunction:
    """L = (1/r^2)[(1-r^2)N^2 + (n-2)(1+r^2)N + (1-r^2) tangential], exact
    on mode forms; the 1/r^2 divides out because the numerator coefficients
    cancel to machine precision at orders 0 and 1."""
    n = u.n
    one_minus = [1.0, 0.0, -1.0]
    one_plus = [1.0, 0.0, 1.0]
    part = _mul_poly(apply_N(u, 2), one_minus)
    part = part.add(_mul_poly(apply_N(u, 1), one_plus).scale(n - 2.0))
    part = part.add(_mul_poly(apply_lap_sigma(u), one_minus))
    return part._map_radial(RadialPart.div_r2)


def apply_D(u: HarmonicFunction) -> HarmonicFunction:
    """Invariant Laplacian D = (1-r^2) L."""
    return _mul_poly(apply_L(u), [1.0, 0.0, -1.0])


def gradient_sq(u: HarmonicFunction):
    """Returns a callable giving |grad u|^2 at Cartesian point arrays.

    Zonal: (d_r u)^2 + (1-t^2)(sum_l R_l(r) Z_l'(t))^2 / r^2, with the 1/r
    absorbed into the radial parts exactly. sph3: ((N u)^2 +
    sum_{i<j} (rotation-derivative u)^2) / r^2 with values combined at the
    evaluation points.
    """
    if u.pole is not None:
        dr = u._map_radial(RadialPart.diff_r)
        # tangential factor: modes l >= 1 with radial part divided by r
        tang = tuple(rad.div_r() for rad, _ in u.modes if rad.l >= 1)

        def grad2(pts):
            r, t = _radius_cosine(pts, u.pole)
            radial = dr.eval_rt(r, t)
            out = radial ** 2
            if tang:
                dZ = sf.zonal_deriv_all(max(rad.l for rad in tang), u.n, t)
                acc = np.zeros_like(r)
                for rad, rv in zip(tang, _radial_values(tang, r)):
                    acc += rv * dZ[rad.l]
                out = out + (1.0 - t ** 2) * acc ** 2
            return out

        return grad2
    # sph3: rotational derivatives plus N, all exact in coefficients
    Nu = apply_N(u)
    rots = [apply_Lij(u, i, j) for i, j in ((1, 2), (2, 3), (3, 1))]

    def grad2(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        if np.any(r < 1e-8):
            raise OriginSingularity("sph3 gradient needs r > 0")
        total = Nu.eval_points(pts) ** 2
        for v in rots:
            total = total + v.eval_points(pts) ** 2
        return total / r ** 2

    return grad2


def _ladder_coeff(l: int, m: int, up: bool) -> float:
    tgt = m + 1 if up else m - 1
    val = l * (l + 1) - m * tgt
    return math.sqrt(val) if val > 0 else 0.0


def apply_Lij(u: HarmonicFunction, i: int, j: int,
              k: int = 1) -> HarmonicFunction:
    """Rotation derivative x_i d_j - x_j d_i, k times, acting exactly on
    spherical-harmonic coefficients (n = 3). Preserves harmonicity and the
    degree l; mixes m through the ladder operators."""
    if u.pole is not None:
        if u.n != 3:
            raise UnsupportedDimension(
                "rotation derivatives need full coefficients; only n = 3 "
                "zonal data can be promoted")
        u = zonal_as_sph3(u)
    if (i, j) not in ((1, 2), (2, 3), (3, 1), (2, 1), (3, 2), (1, 3)):
        raise ValueError("axes must be distinct and in 1..3")
    sign = 1.0
    if (i, j) in ((2, 1), (3, 2), (1, 3)):
        i, j = j, i
        sign = -1.0

    def act(l: int, a: np.ndarray) -> np.ndarray:
        ms = np.arange(-l, l + 1)
        if (i, j) == (1, 2):
            return 1j * ms * a
        up = np.zeros_like(a)
        dn = np.zeros_like(a)
        for idx, m in enumerate(ms):
            cu = _ladder_coeff(l, m, True)
            cd = _ladder_coeff(l, m, False)
            if cu and idx + 1 < len(ms):
                up[idx + 1] += cu * a[idx]
            if cd and idx - 1 >= 0:
                dn[idx - 1] += cd * a[idx]
        if (i, j) == (2, 3):  # i Lx = i (L+ + L-)/2
            return 0.5j * (up + dn)
        # (3, 1): i Ly = (L+ - L-)/2
        return 0.5 * (up - dn)

    modes = u.modes
    for _ in range(k):
        modes = tuple((rad, sign * act(rad.l, coeff)) for rad, coeff in modes)
    return replace(u, modes=tuple(m for m in modes if np.any(m[1] != 0.0)))


def zonal_as_sph3(u: HarmonicFunction) -> HarmonicFunction:
    """Re-express an n = 3 zonal mode form in full coefficients, keeping the
    radial parts (so operator history survives the conversion)."""
    if u.pole is None or u.n != 3:
        raise UnsupportedDimension("conversion defined for n = 3 zonal forms")
    theta = math.acos(max(-1.0, min(1.0, u.pole[2])))
    phi = math.atan2(u.pole[1], u.pole[0])
    modes = []
    for rad, _ in u.modes:
        Y = sf.sph_harm(rad.l, theta, phi)
        modes.append((rad, 4.0 * math.pi * np.conj(Y)))
    return HarmonicFunction(3, None, tuple(modes))


# ---------------------------------------------------------------------------
# finite-difference oracles


def fd_gradient(f, x: np.ndarray, h: float) -> np.ndarray:
    n = len(x)
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_laplacian(f, x: np.ndarray, h: float) -> float:
    n = len(x)
    c = f(x)
    out = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out += (f(x + e) - 2.0 * c + f(x - e)) / h ** 2
    return out


def d_residual(f, x: np.ndarray, n: int, delta: float = 1.0,
               h: float = 1e-4) -> float:
    """Finite-difference residual of the interpolating invariant Laplacian
    (1-delta^2 r^2)^2 Lap + 2(n-2) delta^2 (1-delta^2 r^2) sum x_i d_i;
    O(h^2)-consistent, and zero through that order on dilated harmonic
    functions."""
    r2 = float(x @ x)
    w = 1.0 - delta ** 2 * r2
    lap = fd_laplacian(f, x, h)
    rad = float(x @ fd_gradient(f, x, h))
    return w * w * lap + 2.0 * (n - 2.0) * delta ** 2 * w * rad


def fd_order(f, points, n: int, delta: float = 1.0,
             h0: float = 1e-2) -> float:
    """Observed convergence order of the residual under step halving,
    aggregated over points by the median of log2 ratios."""
    orders = []
    for x in points:
        r1 = abs(d_residual(f, x, n, delta, h0))
        r2 = abs(d_residual(f, x, n, delta, h0 / 2.0))
        if r2 > 1e-14:
            orders.append(math.log2(r1 / r2))
    if not orders:
        raise ValueError("all residuals vanished; no order to measure")
    return float(np.median(orders))


# ---------------------------------------------------------------------------
# radial inversion of the derivative relation


def invert_N_from_ray(v_func, r: float, n: int, k: int) -> float:
    """Recover N^k u(r zeta) from v(t) = 2(n-1-k) N^k u(t zeta) +
    (1-t^2) N^{k+1} u(t zeta) by the integral formula

        N^k u(r) = ((1-r^2)/r^2)^(n-1-k)
                   int_0^r v(t) t^(2n-3-2k) (1-t^2)^(k-n) dt,

    on 16-node Gauss-Legendre panels graded toward t = r, four more panels
    per round, until two rounds agree to 1e-9 relative (ten rounds at most).
    """
    a = 2 * n - 3 - 2 * k

    def estimate(panels):
        edges = r * (1.0 - 0.5 ** np.arange(panels + 1))
        edges[-1] = r
        t, w = (x.ravel() for x in sf.gauss_legendre_on(edges[:-1], edges[1:],
                                                        16))
        return float(w @ (v_func(t) * t ** a * (1.0 - t ** 2) ** (k - n)))

    total = sf.settle(estimate, range(4, 44, 4), 1e-9, 1e-30,
                      "ray inversion integral")
    return ((1.0 - r ** 2) / r ** 2) ** (n - 1 - k) * total
