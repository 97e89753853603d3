"""Tests for the maximal, area, and Littlewood-Paley functionals and the
L^p quasi-norms."""

import csv

import numpy as np
import pytest

from hyperharm import functionals as fn
from hyperharm import geometry as geo
from hyperharm import harmonic as hm
from hyperharm import kernels as ker
from hyperharm.errors import QuadratureFailure, UnsupportedRequest
from hyperharm.geometry import ConeRegion


def e_vec(n, i=0):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def ones(pts):
    return np.ones(len(pts))


def constant_u(n, c=1.0):
    return hm.extend(hm.ZonalExpansion(n, e_vec(n), [c]))


def sample_u(n, lmax=4, seed=0):
    rng = np.random.default_rng(seed)
    return hm.extend(hm.random_zonal(n, lmax, rng))


def small_grid(n, **kw):
    kw.setdefault("degree", 24)
    kw.setdefault("ladder_depth", 10)
    kw.setdefault("cone", fn.ConeSpec(shells=8, n_radial=3, n_polar=6,
                                      n_angular=6))
    return fn.functional_grid(n, **kw)


def _node_cone(alpha, xi, grid, spec):
    return geo.cone_quadrature(ConeRegion(alpha, xi), len(xi), grid.r_max,
                               pole=grid.boundary.pole, shells=spec.shells,
                               n_radial=spec.n_radial, n_polar=spec.n_polar,
                               n_angular=spec.n_angular)


def cone_max_loop(u, alpha, grid):
    """The non-tangential maximal function, u evaluated node by node."""
    out = []
    for xi in grid.boundary.nodes:
        vg = _node_cone(alpha, xi, grid, grid.cone)
        best = float(np.max(np.abs(fn._values(u, vg.points))))
        ray = np.abs(fn._values(u, grid.radii[:, None] * xi[None, :]))
        out.append(max(best, float(np.max(ray))))
    return np.array(out)


def area_integral_loop(u, alpha, grid, radial_only=False, refine_tol=1e-3):
    """The area functional, each node's cone integral taken on its own."""
    n = grid.boundary.nodes.shape[1]
    q = fn._square_func(u, radial_only)

    def one(xi, spec):
        vg = _node_cone(alpha, xi, grid, spec)
        r2 = np.sum(vg.points ** 2, axis=1)
        w = (1.0 - r2) ** (-n + 2)
        return float(vg.weights @ (q(vg.points) * w))

    spec = grid.cone
    prev = np.array([one(xi, spec) for xi in grid.boundary.nodes])
    for _ in range(2):
        spec = spec.doubled()
        cur = np.array([one(xi, spec) for xi in grid.boundary.nodes])
        scale = max(float(np.max(cur)), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= refine_tol * scale:
            return np.sqrt(np.maximum(cur, 0.0))
        prev = cur
    raise QuadratureFailure("cone integral did not settle under refinement")


class TestGrid:
    def test_ladder(self):
        g = fn.functional_grid(3, ladder_depth=18)
        assert len(g.radii) == 18
        assert g.r_max == 1.0 - 2.0 ** -18
        assert 1.0 - g.r_max == 2.0 ** -18

    def test_invalid_ladder(self):
        with pytest.raises(ValueError):
            fn.FunctionalGrid(fn.functional_grid(3).boundary,
                              np.array([0.5, 0.4]))

    def test_zonal_grid_refuses_what_it_cannot_integrate(self):
        # a zonal-only grid meets sph3 u, or zonal u about another pole
        sph3 = hm.extend(hm.Sph3Expansion([np.zeros(1), np.array([0, 1, 0])]))
        other = hm.extend(hm.ZonalExpansion(3, e_vec(3, 1), [0.0, 1.0]))
        grid = small_grid(3, degree=8, ladder_depth=4)
        calls = (lambda u: fn.radial_max(u, grid),
                 lambda u: fn.cone_max(u, 0.5, grid),
                 lambda u: fn.area_integral(u, 0.5, grid),
                 lambda u: fn.littlewood_paley_g(u, grid))
        for call in calls:
            for u in (sph3, other):
                with pytest.raises(UnsupportedRequest):
                    call(u)
        # a plain callable is taken as fitting the grid it is given
        for call in calls[:2]:
            call(lambda pts, _u=other: _u.eval_points(pts))
        full = small_grid(3, degree=8, ladder_depth=4, full=True)
        for u in (sph3, other):
            assert fn.radial_max(u, full).quasinorm(1.0) > 0.1


class TestRadialMax:
    def test_constant(self):
        g = small_grid(3)
        res = fn.radial_max(constant_u(3, 2.5), g)
        assert np.allclose(res.values, 2.5)

    def test_single_mode_monotone(self):
        # for u = f_1(r^2) r Z_1(t), |u| grows along each ray, so the ladder
        # max sits at the top radius
        n = 3
        u = hm.extend(hm.ZonalExpansion(n, e_vec(n), [0.0, 1.0]))
        g = small_grid(n)
        res = fn.radial_max(u, g)
        t = g.boundary.nodes @ g.boundary.pole
        want = np.abs(u.eval_rt(g.r_max, t))
        assert np.allclose(res.values, want)

    def test_kernel_value_at_its_node(self):
        n = 3
        g = small_grid(n)
        xi0 = g.boundary.nodes[0]

        def u(pts):
            r = np.linalg.norm(pts, axis=1)
            return ker.poisson_hyp_rt(n, r, pts @ xi0 / r)

        res = fn.radial_max(u, g)
        rM = g.r_max
        want = ((1 + rM) / (1 - rM)) ** (n - 1)
        assert res.values[0] == pytest.approx(want, rel=1e-8)


class TestConeMax:
    def test_constant(self):
        g = small_grid(4)
        res = fn.cone_max(constant_u(4), 0.5, g)
        assert np.allclose(res.values, 1.0)

    def test_dominates_radial(self):
        for n in (3, 4):
            u = sample_u(n, seed=n)
            g = small_grid(n)
            rad = fn.radial_max(u, g)
            cone = fn.cone_max(u, 0.5, g)
            assert np.all(cone.values >= rad.values - 1e-12)

    def test_aperture_monotone(self):
        u = sample_u(3, seed=2)
        g = small_grid(3)
        small = fn.cone_max(u, 0.3, g)
        large = fn.cone_max(u, 0.7, g)
        assert np.all(large.values >= small.values - 1e-12)


class TestSquareFunctionals:
    def test_plain_callable_refused(self):
        # |grad u|^2 and Nu are taken from the mode form, which a plain
        # callable does not have
        u = sample_u(3)
        plain = lambda pts: u.eval_points(pts)
        grid = small_grid(3, degree=8, ladder_depth=4)
        for radial_only in (False, True):
            with pytest.raises(TypeError):
                fn.area_integral(plain, 0.5, grid, radial_only=radial_only)
            with pytest.raises(TypeError):
                fn.littlewood_paley_g(plain, grid, radial_only=radial_only)


class TestAreaIntegral:
    def test_constant_vanishes(self):
        g = small_grid(3)
        res = fn.area_integral(constant_u(3), 0.5, g)
        assert np.max(res.values) < 1e-12

    def test_radial_only_dominated(self):
        u = sample_u(3, seed=3)
        g = small_grid(3)
        full = fn.area_integral(u, 0.5, g)
        rad = fn.area_integral(u, 0.5, g, radial_only=True)
        assert np.all(rad.values <= full.values + 1e-10)

    def test_self_convergence(self):
        # refinement inside area_integral settles to 1e-3; an extra doubling
        # on top must not move the values by more than that scale
        n = 3
        u = hm.extend(hm.ZonalExpansion(n, e_vec(n), [0.0, 0.0, 1.0]))
        g1 = small_grid(n)
        g2 = fn.functional_grid(n, degree=24, ladder_depth=10,
                                cone=g1.cone.doubled())
        a = fn.area_integral(u, 0.5, g1)
        b = fn.area_integral(u, 0.5, g2)
        scale = max(np.max(b.values), 1e-12)
        assert np.max(np.abs(a.values - b.values)) < 5e-3 * scale


class TestLittlewoodPaley:
    def test_constant_vanishes(self):
        g = small_grid(4)
        res = fn.littlewood_paley_g(constant_u(4), g)
        assert np.max(res.values) < 1e-12

    def test_radial_only_dominated(self):
        u = sample_u(4, seed=4)
        g = small_grid(4)
        full = fn.littlewood_paley_g(u, g)
        rad = fn.littlewood_paley_g(u, g, radial_only=True)
        assert np.all(rad.values <= full.values + 1e-12)

    def test_bounded_by_area_functional(self):
        # the ray is contained in the cone and the weights compare, so the
        # measured envelope g <= C S_alpha should hold with a modest C
        u = sample_u(3, seed=5)
        g = small_grid(3)
        gv = fn.littlewood_paley_g(u, g)
        sv = fn.area_integral(u, 0.5, g)
        mask = sv.values > 1e-8
        assert np.all(gv.values[mask] <= 20.0 * sv.values[mask])

    def test_single_mode_closed_form(self):
        # u = r t (degree-1 mode, n=3): check g^N against direct quadrature
        n = 3
        u = hm.extend(hm.ZonalExpansion(n, e_vec(n), [0.0, 1.0 / 3.0]))
        g = small_grid(n)
        res = fn.littlewood_paley_g(u, g, radial_only=True)
        t = g.boundary.nodes @ g.boundary.pole
        Nu = hm.apply_N(u)
        from scipy.integrate import quad
        for idx in (0, len(t) // 2):
            want2, _ = quad(lambda s: Nu.eval_rt(s, t[idx]) ** 2
                            * (1 - s ** 2), 0, g.r_max)
            assert res.values[idx] == pytest.approx(np.sqrt(want2), rel=1e-6)


class TestRayIntegral:
    def test_constant_l1(self):
        got = fn.ray_integral_Il(ones, 1.0, 0.7 * e_vec(3))
        assert got == pytest.approx(0.7, abs=1e-10)
        with pytest.raises(ValueError):
            fn.ray_integral_Il(ones, 1.0, e_vec(3))

    def test_constant_l2(self):
        got = fn.ray_integral_Il(ones, 2.0, 0.6 * e_vec(4))
        assert got == pytest.approx(0.6 - 0.18, abs=1e-10)

    def test_weight_monotone_in_l(self):
        u = sample_u(3, seed=6)
        absu = lambda pts: np.abs(u.eval_points(pts))
        x = 0.9 * e_vec(3)
        lo = fn.ray_integral_Il(absu, 1.5, x)
        hi = fn.ray_integral_Il(absu, 0.5, x)
        assert lo <= hi + 1e-12

    def test_singular_weight(self):
        got = fn.ray_integral_Il(ones, 0.25, 0.999 * e_vec(3))
        want = (1.0 - (1.0 - 0.999) ** 0.25) / 0.25
        assert got == pytest.approx(want, rel=1e-8)


class TestQuasinorm:
    def test_constant(self):
        g = small_grid(3)
        res = fn.FunctionalResult("test", g, np.ones(len(g.boundary.nodes)))
        for p in (0.8, 1.0, 1.5, 2.0):
            assert res.quasinorm(p) == pytest.approx(1.0)

    def test_p2_rms(self):
        g = small_grid(3)
        vals = np.linspace(0.1, 2.0, len(g.boundary.nodes))
        res = fn.FunctionalResult("test", g, vals)
        want = np.sqrt(g.boundary.weights @ vals ** 2)
        assert res.quasinorm(2.0) == pytest.approx(want)

    def test_homogeneity(self):
        g = small_grid(4)
        vals = np.abs(np.sin(np.arange(len(g.boundary.nodes)) + 1.0))
        a = fn.FunctionalResult("test", g, vals)
        b = fn.FunctionalResult("test", g, 3.0 * vals)
        for p in (0.8, 1.5):
            assert b.quasinorm(p) == pytest.approx(3.0 * a.quasinorm(p),
                                                   rel=1e-12)

    def test_invalid_p(self):
        g = small_grid(3)
        res = fn.FunctionalResult("test", g, np.ones(len(g.boundary.nodes)))
        with pytest.raises(ValueError):
            res.quasinorm(0.0)

    @pytest.mark.parametrize("p", [np.inf, np.nan, -np.inf])
    def test_non_finite_p(self, p):
        g = small_grid(3)
        res = fn.FunctionalResult("test", g, np.ones(len(g.boundary.nodes)))
        with pytest.raises(ValueError):
            res.quasinorm(p)


class TestOutput:
    def test_csv_roundtrip(self, tmp_path):
        g = small_grid(3)
        vals = np.linspace(0, 1, len(g.boundary.nodes))
        res = fn.FunctionalResult("test", g, vals)
        path = tmp_path / "out.csv"
        res.write_csv(str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "x1", "x2", "x3", "value"]
        assert len(rows) == len(vals) + 1
        got = np.array([float(r[-1]) for r in rows[1:]])
        assert np.allclose(got, vals)


class TestBatchedMatchesLoop:
    """cone_max and area_integral evaluate u on many nodes' points at once
    (once per sweep, in chunks under a point budget); each value must equal
    the node-by-node computation."""

    CONE = fn.ConeSpec(shells=5, n_radial=2, n_polar=3, n_angular=3)

    def cases(self, plain=True):
        """(u, grid) pairs; with plain, also u as a plain pointwise
        callable, which only the maximal functionals take."""
        rng = np.random.default_rng(17)
        for n in (3, 4, 5):
            off = rng.standard_normal(n)
            off /= np.linalg.norm(off)
            u = hm.extend(hm.random_zonal(n, 4, rng, pole=off))
            for pole in (None, off):
                grid = fn.functional_grid(n, degree=6, ladder_depth=6,
                                          pole=pole, cone=self.CONE)
                if pole is off:  # u fits only the zonal grid about its pole
                    yield u, grid
                if plain:
                    yield lambda pts, _u=u: _u.eval_points(pts), grid
            # a boundary grid without a pole: each cone frames on its node
            b = grid.boundary
            bare = fn.FunctionalGrid(geo.SphereGrid(b.nodes, b.weights),
                                     grid.radii, self.CONE)
            yield u, bare

    def test_cone_max(self):
        for u, grid in self.cases():
            for alpha in (0.3, 0.7):
                got = fn.cone_max(u, alpha, grid).values
                assert np.array_equal(got, cone_max_loop(u, alpha, grid))

    def test_area_integral_settles(self):
        for u, grid in self.cases(plain=False):
            for radial_only in (False, True):
                kw = dict(radial_only=radial_only, refine_tol=0.5)
                got = fn.area_integral(u, 0.5, grid, **kw).values
                want = area_integral_loop(u, 0.5, grid, **kw)
                assert np.array_equal(got, want)

    def test_point_budget_chunks_alike(self, monkeypatch):
        # under a small point budget u is evaluated on a few nodes (or one)
        # at a time; every value stays the same
        for u, grid in list(self.cases(plain=False))[:5]:
            whole = (fn.cone_max(u, 0.5, grid).values,
                     fn.area_integral(u, 0.5, grid, refine_tol=0.5).values)
            for budget in (1, 200):
                monkeypatch.setattr(fn, "_POINT_BUDGET", budget)
                assert np.array_equal(fn.cone_max(u, 0.5, grid).values,
                                      whole[0])
                assert np.array_equal(
                    fn.area_integral(u, 0.5, grid, refine_tol=0.5).values,
                    whole[1])
                monkeypatch.undo()

    def test_area_integral_fails_alike(self):
        # two doublings leave every case short of bit-for-bit agreement
        # (some settle to 1e-14)
        for u, grid in self.cases(plain=False):
            for radial_only in (False, True):
                kw = dict(radial_only=radial_only, refine_tol=0.0)
                with pytest.raises(QuadratureFailure):
                    area_integral_loop(u, 0.5, grid, **kw)
                with pytest.raises(QuadratureFailure):
                    fn.area_integral(u, 0.5, grid, **kw)

    def test_sph3(self):
        rng = np.random.default_rng(4)
        coeffs = [rng.standard_normal(2 * l + 1)
                  + 1j * rng.standard_normal(2 * l + 1) for l in range(4)]
        u = hm.extend(hm.Sph3Expansion(coeffs))
        grid = fn.functional_grid(3, degree=4, ladder_depth=5, full=True,
                                  cone=self.CONE)
        assert np.array_equal(fn.cone_max(u, 0.5, grid).values,
                              cone_max_loop(u, 0.5, grid))
        for radial_only in (False, True):
            kw = dict(radial_only=radial_only, refine_tol=0.5)
            assert np.array_equal(fn.area_integral(u, 0.5, grid, **kw).values,
                                  area_integral_loop(u, 0.5, grid, **kw))
