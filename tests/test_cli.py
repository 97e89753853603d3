"""End-to-end tests of the command-line interface: output formats, exit
codes, and cross-command consistency."""

import csv
import importlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from hyperharm import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_zonal(tmp_path, coeffs, n=3, name="data.json"):
    path = tmp_path / name
    pole = [0.0] * n
    pole[0] = 1.0
    path.write_text(json.dumps({"kind": "zonal-coeffs", "n": n,
                                "pole": pole, "coeffs": coeffs}))
    return str(path)


def parse_csv(text):
    return list(csv.reader(text.strip().splitlines()))


class TestKernel:
    def test_center_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, "kernel", "--kind", "hyp",
                               "--n", "3", "--r", "0", "--grid-degree", "8")
        rows = parse_csv(out)
        assert code == 0
        assert rows[0] == ["t", "value"]
        assert all(float(r[1]) == 1.0 for r in rows[1:])
        assert len(rows) == 10

    def test_delta_zero_matches_euclid(self, capsys):
        code1, out1, _ = run_cli(capsys, "kernel", "--kind", "hyp-delta",
                                 "--n", "3", "--r", "0.6", "--delta", "0")
        code2, out2, _ = run_cli(capsys, "kernel", "--kind", "euclid",
                                 "--n", "3", "--r", "0.6")
        assert code1 == code2 == 0
        v1 = [float(r[1]) for r in parse_csv(out1)[1:]]
        v2 = [float(r[1]) for r in parse_csv(out2)[1:]]
        assert np.allclose(v1, v2, atol=1e-8)

    def test_delta_one_matches_hyp(self, capsys):
        _, out1, _ = run_cli(capsys, "kernel", "--kind", "hyp-delta",
                             "--n", "4", "--r", "0.5")
        _, out2, _ = run_cli(capsys, "kernel", "--kind", "hyp",
                             "--n", "4", "--r", "0.5")
        v1 = [float(r[1]) for r in parse_csv(out1)[1:]]
        v2 = [float(r[1]) for r in parse_csv(out2)[1:]]
        assert np.allclose(v1, v2, atol=1e-8)

    def test_low_dimension_rejected(self, capsys):
        code, out, err = run_cli(capsys, "kernel", "--kind", "hyp",
                                 "--n", "2", "--r", "0.5")
        assert code == 2
        assert out == ""
        assert "dimension" in err

    def test_bad_radius_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "kernel", "--kind", "hyp",
                             "--n", "3", "--r", "1.0")
        assert code == 2

    @pytest.mark.parametrize("r", ["0.97", "0.99"])
    def test_truncated_series_exit_3(self, capsys, r):
        # past the radius the degree cap reaches, the cut series is wrong
        # (negative at r = 0.99): one error line and no rows, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "kernel", "--kind", "hyp-delta",
                                     "--n", "3", "--r", r, "--delta", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_radial_series_cap_exit_3(self, capsys):
        # at r = 0.9999 the odd-n F_l(r^2) series needs more terms than its
        # cap from degree 44 on: one error line naming that 2F1, no rows
        code, out, err = run_cli(capsys, "kernel", "--kind", "hyp-delta",
                                 "--n", "3", "--r", "0.9999", "--delta", "1")
        assert code == 3
        assert out == ""
        assert err == ("error: 2F1(44,-0.5;45.5) series did not converge "
                       "within 100000 terms\n")

    def test_series_below_radius_limit(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "kernel", "--kind", "hyp-delta",
                                   "--n", "3", "--r", "0.94", "--delta", "1")
        assert code == 0
        assert len(parse_csv(out)) == 202

    @pytest.mark.parametrize("n", ["9", "10", "11", "12"])
    def test_fallback_cut_at_cap_exit_3(self, capsys, n):
        # at t = -1 the high-precision fallback reaches the degree cap with
        # its tail above double rounding: one error line and no rows
        code, out, err = run_cli(capsys, "kernel", "--kind", "hyp-delta",
                                 "--n", n, "--r", "0.9", "--delta", "1",
                                 "--grid-degree", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_fallback_tail_below_rounding(self, capsys):
        # n = 8 reaches the cap too, with its tail below double rounding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "kernel", "--kind", "hyp-delta",
                                   "--n", "8", "--r", "0.9", "--delta", "1",
                                   "--grid-degree", "60")
        assert code == 0
        rows = parse_csv(out)
        assert rows[1][0] == "-1"
        assert float(rows[1][1]) == pytest.approx((0.1 / 1.9) ** 7,
                                                  rel=1e-15)

    def test_bad_flag_usage_exit(self, capsys):
        code, _, _ = run_cli(capsys, "kernel", "--kind", "nope",
                             "--n", "3", "--r", "0.5")
        assert code == 2


# out-of-range --grid-degree and --ladder-depth of extend and functional;
# from depth 54 on, the ladder top 1 - 2^-depth rounds to 1.0
GRID_FLAGS = [("--ladder-depth", "0"), ("--ladder-depth", "-2"),
              ("--grid-degree", "-4"), ("--ladder-depth", "54")]


def assert_grid_flag_refused(capsys, tmp_path, command, flag):
    data = write_zonal(tmp_path, [1.0, 0.5])
    out_path = tmp_path / "out.csv"
    argv = ["--kind", "M"] if command == "functional" else []
    code, out, err = run_cli(capsys, command, *argv, "--data", data,
                             "--out", str(out_path), *flag)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


class TestExtend:
    def test_constant_data(self, capsys, tmp_path):
        data = write_zonal(tmp_path, [1.0])
        out_path = tmp_path / "ext.csv"
        code, _, _ = run_cli(capsys, "extend", "--data", data,
                             "--out", str(out_path),
                             "--grid-degree", "6", "--ladder-depth", "4")
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "x1", "x2", "x3", "u"]
        assert all(float(r[-1]) == pytest.approx(1.0, abs=1e-12)
                   for r in rows[1:])

    def test_boundary_roundtrip(self, capsys, tmp_path):
        # extension at r = 0.999 reproduces a degree-8 profile to 1e-3
        rng = np.random.default_rng(3)
        coeffs = list(rng.normal(size=9) / (np.arange(9) + 1.0) ** 2)
        data = write_zonal(tmp_path, coeffs)
        out_path = tmp_path / "ext.csv"
        code, _, _ = run_cli(capsys, "extend", "--data", data,
                             "--out", str(out_path),
                             "--grid-degree", "8", "--ladder-depth", "10")
        assert code == 0
        from hyperharm import harmonic as hm
        exp = hm.load_boundary_data(data)
        with open(out_path) as fh:
            rows = [r for r in csv.reader(fh)][1:]
        checked = 0
        for r in rows:
            radius = float(r[0])
            if radius < 0.999:
                continue
            x = np.array([float(c) for c in r[1:4]])
            t = float(x @ exp.pole) / radius
            want = exp.boundary_value(np.array([t]))[0]
            assert float(r[4]) == pytest.approx(want, abs=1e-3)
            checked += 1
        assert checked > 0

    def test_sph3_data_on_full_grid(self, capsys, tmp_path):
        # u = Y_1^0 is proportional to x3, so samples confined to the
        # x1-x2 plane would all read zero
        path = tmp_path / "sph3.json"
        path.write_text(json.dumps({"kind": "sph3-coeffs", "n": 3,
                                    "coeffs": [[0], [0, 1, 0]]}))
        out_path = tmp_path / "ext.csv"
        code, _, err = run_cli(capsys, "extend", "--data", str(path),
                               "--out", str(out_path),
                               "--grid-degree", "8", "--ladder-depth", "2")
        assert code == 0, err
        with open(out_path) as fh:
            rows = np.array([[float(c) for c in r]
                             for r in list(csv.reader(fh))[1:]])
        assert np.max(np.abs(rows[:, 3])) > 0.0
        assert np.max(np.abs(rows[:, 4])) > 0.1

    def test_malformed_data_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "zonal-coeffs", "n": 3}))
        code, _, err = run_cli(capsys, "extend", "--data", str(path),
                               "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert err

    @pytest.mark.parametrize("delta", ["2", "0", "-0.5", "nan"])
    def test_delta_out_of_range_exit_2(self, capsys, tmp_path, delta):
        data = write_zonal(tmp_path, [1.0, 0.5])
        out_path = tmp_path / "ext.csv"
        code, out, err = run_cli(capsys, "extend", "--data", data,
                                 "--out", str(out_path), "--delta", delta)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", GRID_FLAGS)
    def test_grid_flags_out_of_range_exit_2(self, capsys, tmp_path, flag):
        assert_grid_flag_refused(capsys, tmp_path, "extend", flag)


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["functional", "extend"])
    def test_missing_directory_exit_3(self, capsys, tmp_path, command):
        data = write_zonal(tmp_path, [1.0, 0.5])
        argv = [command, "--data", data,
                "--out", str(tmp_path / "missing" / "x.csv"),
                "--grid-degree", "6", "--ladder-depth", "3"]
        if command == "functional":
            argv[1:1] = ["--kind", "M"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_verify_out_under_file_exit_3(self, capsys, tmp_path):
        blocker = tmp_path / "plain"
        blocker.write_text("")
        code, out, err = run_cli(capsys, "verify", "green",
                                 "--out", str(blocker / "reports"))
        # refused before the suite runs: no "[green] ..." progress line
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBoundaryData:
    @pytest.mark.parametrize("doc", [
        '{"kind": "zonal-coeffs", "n": 3, "coeffs": "abc"}',
        '{"kind": "zonal-coeffs", "n": 3, "coeffs": [[1.0], [1.0, 2.0]]}',
        '{"kind": "zonal-coeffs", "n": 3, "coeffs": [1.0, NaN]}',
        '{"kind": "zonal-coeffs", "n": 3.7, "coeffs": [1.0]}',
        '{"kind": "zonal-coeffs", "n": 3, "coeffs": [1.0], '
        '"pole": [1.0, Infinity, 0.0]}',
        '{"kind": "zonal-samples", "n": 3, '
        '"samples": [[-1.0, 0.5], [1.0, NaN]]}',
    ], ids=["coeffs-string", "coeffs-ragged", "coeffs-nan", "n-float",
            "pole-inf", "samples-nan"])
    def test_malformed_values_exit_3(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "functional", "--kind", "M",
                                 "--data", str(path),
                                 "--out", str(tmp_path / "f.csv"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["functional", "extend"])
    @pytest.mark.parametrize("what", ["missing", "directory", "binary"])
    def test_unreadable_data_path_exit_3(self, capsys, tmp_path, command,
                                         what):
        # a path that cannot be read is named, not parsed as JSON text
        path = tmp_path / "data.json"
        if what == "directory":
            path.mkdir()
        elif what == "binary":
            path.write_bytes(b"\xff\xfe{")
        out_path = tmp_path / "out.csv"
        argv = [command, "--data", str(path), "--out", str(out_path)]
        if command == "functional":
            argv[1:1] = ["--kind", "M"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err
        assert "Expecting value" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["functional", "extend"])
    def test_overflowing_data_exit_3(self, capsys, tmp_path, command):
        # finite coefficients whose extension overflows: one error line, no
        # numpy warning, no output file
        data = write_zonal(tmp_path, [1e308, 1e308, 1e308])
        out_path = tmp_path / "out.csv"
        argv = [command, "--data", data, "--out", str(out_path),
                "--grid-degree", "6", "--ladder-depth", "3"]
        if command == "functional":
            argv[1:1] = ["--kind", "M"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_readme_examples_load(self, capsys, tmp_path):
        # every boundary-data example in the README runs as printed there
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        block = readme.split("### Boundary data files")[1]
        block = block.split("```json")[1].split("```")[0]
        decoder, pos, kinds = json.JSONDecoder(), 0, []
        while block[pos:].strip():
            start = pos + len(block[pos:]) - len(block[pos:].lstrip())
            doc, pos = decoder.raw_decode(block, start)
            kinds.append(doc["kind"])
            path = tmp_path / "data.json"
            path.write_text(block[start:pos])
            code, out, err = run_cli(capsys, "functional", "--kind", "M",
                                     "--data", str(path),
                                     "--out", str(tmp_path / "f.csv"),
                                     "--grid-degree", "8",
                                     "--ladder-depth", "4")
            assert code == 0, err
        assert kinds == ["zonal-coeffs", "zonal-samples", "sph3-coeffs"]


class TestReadme:
    def test_cited_private_names_resolve(self):
        # a tuning constant the README cites as `module._NAME` still exists
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        cited = set(re.findall(r"`(\w+)\.(_\w+)`", readme))
        assert ("kernels", "_BLOCK_CELLS") in cited
        missing = [f"{mod}.{name}" for mod, name in sorted(cited)
                   if not hasattr(importlib.import_module(f"hyperharm.{mod}"),
                                  name)]
        assert not missing


class TestFunctional:
    def test_constant_norm_one(self, capsys, tmp_path):
        data = write_zonal(tmp_path, [1.0])
        out_path = tmp_path / "f.csv"
        for p in ("0.8", "1.5"):
            code, out, _ = run_cli(capsys, "functional", "--kind", "M",
                                   "--data", data, "--out", str(out_path),
                                   "--p", p, "--grid-degree", "12",
                                   "--ladder-depth", "8")
            assert code == 0
            lines = out.strip().splitlines()
            assert lines[0] == "norm,p,value"
            kind, pv, val = lines[1].split(",")
            assert kind == "M"
            assert float(val) == pytest.approx(1.0, abs=1e-10)

    def test_per_node_csv_written(self, capsys, tmp_path):
        data = write_zonal(tmp_path, [1.0, 0.5])
        out_path = tmp_path / "f.csv"
        code, _, _ = run_cli(capsys, "functional", "--kind", "gN",
                             "--data", data, "--out", str(out_path),
                             "--grid-degree", "12", "--ladder-depth", "8")
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "x1", "x2", "x3", "value"]
        assert len(rows) > 1

    def test_g_bounded_by_area(self, capsys, tmp_path):
        data = write_zonal(tmp_path, [0.0, 1.0, 0.4])
        gv, sv = {}, {}
        for kind, store in (("g", gv), ("S", sv)):
            code, out, _ = run_cli(capsys, "functional", "--kind", kind,
                                   "--data", data,
                                   "--out", str(tmp_path / f"{kind}.csv"),
                                   "--p", "1.0", "--grid-degree", "12",
                                   "--ladder-depth", "8")
            assert code == 0
            store["val"] = float(out.strip().splitlines()[1].split(",")[2])
        assert gv["val"] <= 20.0 * sv["val"]

    def test_unknown_kind_exit_2(self, capsys, tmp_path):
        data = write_zonal(tmp_path, [1.0])
        code, _, _ = run_cli(capsys, "functional", "--kind", "Z",
                             "--data", data, "--out", str(tmp_path / "f.csv"))
        assert code == 2

    def test_bad_aperture_exit_2(self, capsys, tmp_path):
        data = write_zonal(tmp_path, [1.0])
        code, _, _ = run_cli(capsys, "functional", "--kind", "Malpha",
                             "--data", data, "--alpha", "1.5",
                             "--out", str(tmp_path / "f.csv"))
        assert code == 2

    def _sph3_norm(self, capsys, tmp_path, kind, coeffs):
        path = tmp_path / "sph3.json"
        path.write_text(json.dumps({"kind": "sph3-coeffs", "n": 3,
                                    "coeffs": coeffs}))
        code, out, _ = run_cli(capsys, "functional", "--kind", kind,
                               "--data", str(path),
                               "--out", str(tmp_path / "f.csv"), "--p", "1",
                               "--grid-degree", "16")
        assert code == 0
        return float(out.strip().splitlines()[1].split(",")[2])

    def test_sph3_data_on_full_grid(self, capsys, tmp_path):
        # u proportional to x3 vanishes on every node of the zonal grid
        # about x1, where its M norm read 3e-17
        m = self._sph3_norm(capsys, tmp_path, "M", [[0], [0, 1, 0]])
        assert m == pytest.approx(0.2438, rel=1e-3)

    @pytest.mark.parametrize("kind,rel", [("M", 0.03), ("g", 1e-9)])
    def test_sph3_rotation_invariance(self, capsys, tmp_path, kind, rel):
        # the same degree-1 harmonic along x3, x1 and x2; M takes its
        # maximum at the nodes only, so it moves with the grid
        c = 2 ** -0.5
        norms = [self._sph3_norm(capsys, tmp_path, kind, coeffs) for coeffs in
                 ([[0], [0, 1, 0]], [[0], [c, 0, -c]],
                  [[0], [[0, c], 0, [0, c]]])]
        assert max(norms) == pytest.approx(min(norms), rel=rel)

    @pytest.mark.parametrize("flag", GRID_FLAGS)
    def test_grid_flags_out_of_range_exit_2(self, capsys, tmp_path, flag):
        assert_grid_flag_refused(capsys, tmp_path, "functional", flag)

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_non_finite_p_exit_2(self, capsys, tmp_path, p):
        data = write_zonal(tmp_path, [1.0])
        out_path = tmp_path / "f.csv"
        code, out, err = run_cli(capsys, "functional", "--kind", "M",
                                 "--data", data, "--p", p,
                                 "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_path.exists()


class TestVerify:
    def test_single_suite_pass(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "operator-identities",
                               "--out", str(tmp_path))
        assert code == 0
        assert out.strip().endswith("reports.csv")
        assert (tmp_path / "report-operator-identities.txt").exists()

    def test_unknown_suite_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "verify", "no-such-suite",
                               "--out", str(tmp_path))
        assert code == 2
        assert "unknown suite" in err

    def test_reports_deterministic(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, _, _ = run_cli(capsys, "verify", "operator-identities",
                                 "green", "--seed", "42", "--out", str(d))
            assert code == 0
        for name in ("report-operator-identities.txt", "report-green.txt",
                     "reports.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_config_file_seed(self, capsys, tmp_path):
        from hyperharm.config import RunConfig
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(RunConfig(seed=9).to_json())
        code, _, _ = run_cli(capsys, "verify", "operator-identities",
                             "--config", str(cfg_path),
                             "--out", str(tmp_path / "r"))
        assert code == 0
        doc = json.loads(
            (tmp_path / "r" / "report-operator-identities.txt").read_text())
        assert doc["seed"] == 9

    @pytest.mark.parametrize("flag", [("verify", "--tol", "1e-3"),
                                      ("verify", "--grid-degree", "8"),
                                      ("verify", "--ladder-depth", "4"),
                                      ("functional", "--config", "c.json")])
    def test_removed_flags_exit_2(self, capsys, tmp_path, flag):
        command, *rest = flag
        argv = {"verify": ["green"],
                "functional": ["--kind", "M", "--data",
                               write_zonal(tmp_path, [1.0])]}[command]
        code, _, err = run_cli(capsys, command, *argv, *rest,
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert "unrecognized arguments" in err

    def test_alpha_reaches_suite(self, capsys, tmp_path):
        reports = {}
        for alpha in (None, "0.5", "0.3"):
            out = tmp_path / str(alpha)
            flags = ["--alpha", alpha] if alpha else []
            code, _, _ = run_cli(capsys, "verify", "hardy-sobolev", *flags,
                                 "--out", str(out))
            assert code == 0
            reports[alpha] = (out / "report-hardy-sobolev.txt").read_bytes()
        assert reports["0.5"] == reports[None]
        assert reports["0.3"] != reports[None]

    @pytest.mark.parametrize("key", ["tol", "measure_exponent", "alphas",
                                     "grid_degree", "ladder_depth",
                                     "g_form"])
    def test_removed_config_keys_exit_3(self, capsys, tmp_path, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, key: 1}))
        code, _, err = run_cli(capsys, "verify", "green",
                               "--config", str(cfg_path),
                               "--out", str(tmp_path / "r"))
        assert code == 3
        assert "unknown configuration keys" in err

    def test_non_finite_p_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "green", "--p", "inf",
                                 "--out", str(tmp_path / "r"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_non_finite_p_config_exit_3(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"ps": [1.0, Infinity]}')
        code, out, err = run_cli(capsys, "verify", "green",
                                 "--config", str(cfg_path),
                                 "--out", str(tmp_path / "r"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_seed_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "verify", "green", "--seed", "-3",
                                 "--out", str(tmp_path / "r"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("suite", ["theorem-a", "hardy-sobolev", "all"])
    def test_lmax_zero_exit_2(self, capsys, tmp_path, suite):
        # degree-0 data is constant, so every band ratio would be 0/0
        code, out, err = run_cli(capsys, "verify", suite, "--lmax", "0",
                                 "--out", str(tmp_path / "r"))
        assert code == 2
        assert out == ""
        assert err == "error: lmax must be at least 1\n"
        assert not (tmp_path / "r").exists()

    def test_lmax_zero_config_exit_3(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lmax": 0}))
        code, out, err = run_cli(capsys, "verify", "theorem-a",
                                 "--config", str(cfg_path),
                                 "--out", str(tmp_path / "r"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lmax must be at least 1" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("doc", [{"n": 3.5}, {"lmax": 2.5},
                                     {"seed": 1.5}, {"seed": "7"},
                                     {"seed": -3}, {"out_dir": 5},
                                     {"alpha": 1.0}, {"alpha": "0.5"},
                                     {"ps": []}])
    def test_malformed_config_exit_3(self, capsys, tmp_path, doc):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "green",
                                 "--config", str(cfg_path),
                                 "--out", str(tmp_path / "r"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_binary_config_exit_3(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe{")
        code, out, err = run_cli(capsys, "verify", "green",
                                 "--config", str(cfg_path),
                                 "--out", str(tmp_path / "r"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_config_exit_3(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{broken")
        code, _, _ = run_cli(capsys, "verify", "operator-identities",
                             "--config", str(cfg_path),
                             "--out", str(tmp_path / "r"))
        assert code == 3
