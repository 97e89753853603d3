"""Tests for the verification-suite machinery: report structure, writing,
determinism, and the fast suites end to end."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from hyperharm import geometry as geo
from hyperharm import harmonic as hm
from hyperharm import verify as vf
from hyperharm import kernels as ker
from hyperharm.config import RunConfig
from hyperharm.errors import TruncationWarning


CFG = RunConfig(seed=0)


def ball_lp_mean(vals_fn, a, radius, p, pole):
    """L^p mean of |vals_fn| over one ball, on a grid of its own."""
    n = len(a)
    nrm = np.linalg.norm(a)
    axis = a / nrm if nrm > 0 else pole
    vg = geo.ball_quadrature(n, a, radius, n_radial=8, n_psi=6, n_theta=10,
                             axis1=axis, axis2=pole)
    return float(vg.integrate(np.abs(vals_fn(vg.points)) ** p)) ** (1.0 / p)


def mean_value_ratios_at(data, a, eps, pole):
    """The mean-value ratios at one point, one evaluation per (k, p)."""
    n = len(a)
    out = []
    r_a = float(np.linalg.norm(a))
    rad = 6.0 * (1.0 - r_a ** 2) * eps
    for Nk, g2 in data:
        lhs0 = abs(float(Nk.eval_points(a[None])[0]))
        lhs1 = math.sqrt(max(float(g2(a[None])[0]), 0.0))
        for p in (1.0, 2.0):
            avg = ball_lp_mean(Nk.eval_points, a, rad, p, pole)
            if avg < 1e-300:
                continue
            for d, lhs in ((0, lhs0), (1, lhs1)):
                bound = (1.0 - r_a) ** (-d - n / p) * avg
                out.append(lhs / bound)
    return out


class TestReportStructure:
    def test_to_text_is_json(self):
        rep = vf.SuiteReport(suite="demo",
                             checks=[vf.Check("c", 1.5, "<=", 2.0)],
                             constants={"c": 1.5}, seed=3)
        doc = json.loads(rep.to_text())
        assert doc["suite"] == "demo"
        assert doc["status"] == "pass"
        assert doc["constants"] == {"c": 1.5}
        assert doc["seed"] == 3
        assert doc["checks"] == [{"name": "c", "value": 1.5,
                                  "comparator": "<=", "bound": 2.0,
                                  "passed": True}]

    def test_runtime_excluded_from_text(self):
        assert "runtime" not in vf.SuiteReport(suite="demo").to_text()

    def test_csv_rows(self):
        rep = vf.SuiteReport(suite="demo", informational=True,
                             checks=[vf.Check("b", 2.0, "finite"),
                                     vf.Check("|b - 2|", 0.0, "<", 1e-7)],
                             constants={"b": 2.0, "a": 1.0})
        rows = rep.csv_rows()
        # sorted by name; a check named after a constant shares its row
        assert [r[2:] for r in rows] == [
            ["a", "1", "", "", ""], ["b", "2", "finite", "", "true"],
            ["|b - 2|", "0", "<", "1e-07", "true"]]
        assert all(r[0] == "demo" and r[1] == "info" for r in rows)


class TestStatusRule:
    def test_one_failing_check_fails(self):
        checks = [vf.Check("a", 0.5, "<=", 1.0), vf.Check("b", 2.0, "<", 1.0)]
        for informational in (False, True):
            rep = vf.SuiteReport(suite="demo", checks=checks,
                                 informational=informational)
            assert rep.status == "fail"

    def test_passing_checks(self):
        checks = [vf.Check("a", 0.5, "<=", 1.0), vf.Check("b", 1.0, "==", 1.0)]
        assert vf.SuiteReport(suite="demo", checks=checks).status == "pass"
        assert vf.SuiteReport(suite="demo", checks=checks,
                              informational=True).status == "info"

    @pytest.mark.parametrize("comparator", sorted(vf._COMPARATORS))
    def test_nan_fails_every_comparator(self, comparator):
        for bound in (-math.inf, 0.0, math.inf, math.nan):
            check = vf.Check("x", math.nan, comparator, bound)
            assert not check.passed
            assert vf.SuiteReport(suite="demo",
                                  checks=[check]).status == "fail"

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_value_not_finite(self, value):
        assert not vf.Check("x", value, "finite").passed


class TestRegistry:
    def test_all_suites_registered(self):
        assert set(vf.SUITES) == {
            "kernel-consistency", "green", "mean-value",
            "operator-identities", "prop18", "theorem-a",
            "hardy-sobolev", "lipschitz"}

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            vf.run_suite("nope", CFG)


class TestFastSuites:
    def test_operator_identities_passes(self):
        rep = vf.suite_operator_identities(CFG)
        assert rep.status == "pass"
        assert rep.constants["inversion_roundtrip_max"] <= 1e-6

    def test_green_passes(self):
        rep = vf.suite_green(CFG)
        assert rep.status == "pass"

    def test_green_other_dimension(self):
        rep = vf.suite_green(RunConfig(n=4, seed=1))
        assert rep.status == "pass"


def prop18_lower_bounds_on_nodes(n, alphas=(0.1, 0.3, 0.5, 0.7),
                                 deltas=(0.0, 0.25, 0.5, 0.75, 1.0)):
    """prop18's in-cone lower bounds taken on the n-dimensional cone grids:
    each node's polar cosine and radius, rounded to 12 digits, recovered
    from its coordinates."""
    xi = np.zeros(n)
    xi[0] = 1.0
    out = {}
    for alpha in alphas:
        vg = geo.cone_quadrature(geo.ConeRegion(alpha, xi), n, 0.95,
                                 shells=10, n_radial=3, n_polar=8,
                                 n_angular=8)
        r = np.linalg.norm(vg.points, axis=1)
        t = np.clip(vg.points @ xi / r, -1.0, 1.0)
        r = np.round(r, 12)
        vals = ker.poisson_hyp_series_rt(n, r, t, np.asarray(deltas)[:, None],
                                         mp_amplification=np.inf)
        weight = np.array([(1 - ri ** 2) ** (n - 1) for ri in r])
        out[alpha] = float(np.min(vals * weight))
    return out


class TestProp18LowerBound:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_node_oracle(self, n):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = vf.suite_prop18(RunConfig(n=n, seed=0))
            want = prop18_lower_bounds_on_nodes(n)
        # from n = 4 the upper-bound grids' pair (r 0.95, t -1) reaches the
        # series' degree cap
        assert any(issubclass(w.category, TruncationWarning)
                   for w in caught) == (n > 3)
        for alpha, v in want.items():
            got = rep.constants[f"lower_bound_alpha_{alpha}"]
            assert got == pytest.approx(v, rel=1e-10, abs=0.0)


class TestNanReachesGate:
    def test_nan_mass_error_fails(self, monkeypatch):
        # a NaN on the delta = 0.5 slice of the unit-mass grid must not
        # vanish in the running maximum
        series = vf.ker.poisson_hyp_series_rt

        def nan_at_half(n, r, t, delta, **kw):
            out = series(n, r, t, delta, **kw)
            out[np.broadcast_to(np.asarray(delta) == 0.5, out.shape)] = np.nan
            return out

        monkeypatch.setattr(vf.ker, "poisson_hyp_series_rt", nan_at_half)
        rep = vf.suite_kernel_consistency(CFG)
        assert math.isnan(rep.constants["max_unit_mass_error"])
        assert rep.status == "fail"


class TestDeterminism:
    def test_operator_suite_reports_identical(self):
        a = vf.suite_operator_identities(RunConfig(seed=5))
        b = vf.suite_operator_identities(RunConfig(seed=5))
        assert a.to_text() == b.to_text()

    def test_seed_changes_draws(self):
        a = vf.suite_operator_identities(RunConfig(seed=5))
        b = vf.suite_operator_identities(RunConfig(seed=6))
        assert a.constants != b.constants


class TestSingularProjection:
    def test_coefficients_decay(self):
        c = vf._project_singular_zonal(0.5, 0.2, 128)
        assert abs(c[128]) < 1e-4
        assert abs(c[1]) > abs(c[100])

    def test_reconstructs_profile(self):
        t0, gamma = 0.2, 0.5
        c = vf._project_singular_zonal(gamma, t0, 256)
        from hyperharm import specfun as sf
        t = np.array([-0.7, -0.1, 0.55, 0.9])
        Z = sf.zonal_all(256, 3, t)
        got = c @ Z
        want = np.abs(t - t0) ** gamma
        assert np.max(np.abs(got - want)) < 5e-3


class TestWriteReports:
    def _reports(self):
        return [
            vf.SuiteReport(suite="one",
                           checks=[vf.Check("x", 1.0, "<=", 1.5)],
                           constants={"x": 1.0}, seed=0),
            vf.SuiteReport(suite="two",
                           checks=[vf.Check("y", 1e-6, "<", 1e-7)], seed=0),
        ]

    def test_files_written(self, tmp_path):
        csv_path = vf.write_reports(self._reports(), str(tmp_path))
        assert (tmp_path / "report-one.txt").exists()
        assert (tmp_path / "report-two.txt").exists()
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite", "status", "name", "value", "comparator",
                           "bound", "passed"]
        assert rows[1] == ["one", "pass", "x", "1", "<=", "1.5", "true"]
        assert rows[2] == ["two", "fail", "y", "9.9999999999999995e-07", "<",
                           "1e-07", "false"]

    def test_bytes_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        vf.write_reports(self._reports(), str(d1))
        vf.write_reports(self._reports(), str(d2))
        for name in ("report-one.txt", "report-two.txt", "reports.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestMeanValueRatios:
    def test_batched_matches_per_point(self):
        # random points, a boundary ladder, the origin, and constant data
        # (whose N u and N^2 u vanish, so those ball means are skipped)
        rng = np.random.default_rng(8)
        for n in (3, 4, 5):
            pole = np.zeros(n)
            pole[0] = 1.0
            u = hm.extend(hm.random_zonal(n, 5, rng))
            const = hm.extend(hm.ZonalExpansion(n, pole, [1.0]))
            zeta = rng.standard_normal(n)
            zeta /= np.linalg.norm(zeta)
            pts = rng.standard_normal((4, n))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            pts *= rng.uniform(0.1, 0.95, (4, 1))
            ladder = np.array([(1.0 - 0.5 ** m) * zeta for m in (1, 5, 10)])
            points = np.concatenate([pts, ladder, np.zeros((1, n))])
            for f in (u, const):
                data = [(Nk, hm.gradient_sq(Nk)) for Nk in
                        (f, hm.apply_N(f), hm.apply_N(f, 2))]
                for eps in (1.0 / 13.0, 1.0 / 26.0):
                    got = vf._mean_value_ratios(data, points, eps, pole)
                    want = [mean_value_ratios_at(data, a, eps, pole)
                            for a in points]
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w)
