"""Tests for the run-configuration bundle."""

import json
import re
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from hyperharm.config import RunConfig
from hyperharm.errors import DataFileError


class TestDefaults:
    def test_default_values(self):
        cfg = RunConfig()
        assert cfg.n == 3
        assert cfg.alpha == 0.5
        assert cfg.ps == (0.8, 1.0, 1.5)
        assert cfg.seed == 0

    def test_tuple_coercion(self):
        cfg = RunConfig(alpha=Fraction(1, 4), ps=[1])
        assert type(cfg.alpha) is float and cfg.alpha == 0.25
        assert cfg.ps == (1.0,)


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"n": 2},
        {"lmax": -1},
        {"alpha": float("nan")},
        {"alpha": -0.5},
        {"alpha": 0.0},
        {"alpha": 1.5},
        {"ps": (0.0,)},
        {"alpha": 1.0},
        {"alpha": float("inf")},
        {"ps": (float("inf"),)},
        {"ps": (1.0, float("nan"))},
        {"n": 3.5},
        {"lmax": 2.5},
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": -3},
        {"out_dir": 5},
        {"lmax": True},
        {"lmax": 8.0},
        {"n": True},
        {"seed": True},
        {"ps": []},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)


class TestSerialization:
    def test_roundtrip(self):
        cfg = RunConfig(n=4, seed=7, alpha=0.4, ps=(2.0,), out_dir="r")
        doc = json.loads(cfg.to_json())
        back = RunConfig.from_dict(doc)
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(DataFileError):
            RunConfig.from_dict({"n": 3, "mystery": 1})

    def test_non_object_rejected(self):
        with pytest.raises(DataFileError):
            RunConfig.from_dict([1, 2])

    def test_invalid_value_is_data_error(self):
        with pytest.raises(DataFileError):
            RunConfig.from_dict({"n": 1})

    def test_load(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(RunConfig(seed=11).to_json())
        assert RunConfig.load(str(path)).seed == 11

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(DataFileError):
            RunConfig.load(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataFileError):
            RunConfig.load(str(tmp_path / "absent.json"))


class TestReadme:
    def test_configuration_paragraph_names_the_fields(self):
        # the README's Configuration section names each RunConfig field in
        # backticks, and none that RunConfig has dropped
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        section = readme.split("### Configuration\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        named = set(re.findall(r"`(\w+)`", section))
        assert {f.name for f in fields(RunConfig)} <= named
        assert not named & {"alphas", "grid_degree", "ladder_depth", "g_form",
                            "tol", "measure_exponent"}
