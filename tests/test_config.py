"""Tests for the run-configuration bundle."""

import json

import pytest

from hyperharm.config import RunConfig
from hyperharm.errors import DataFileError


class TestDefaults:
    def test_default_values(self):
        cfg = RunConfig()
        assert cfg.n == 3
        assert cfg.alphas == (0.25, 0.5)
        assert cfg.ps == (0.8, 1.0, 1.5)
        assert cfg.seed == 0
        assert cfg.g_form == "squared"

    def test_tuple_coercion(self):
        cfg = RunConfig(alphas=[0.3], ps=[1])
        assert cfg.alphas == (0.3,)
        assert cfg.ps == (1.0,)


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"n": 2},
        {"lmax": -1},
        {"ladder_depth": 0},
        {"grid_degree": 1},
        {"alphas": (0.0,)},
        {"alphas": (1.5,)},
        {"ps": (0.0,)},
        {"alphas": (0.5, 1.0)},
        {"g_form": "other"},
        {"ps": (float("inf"),)},
        {"ps": (1.0, float("nan"))},
        {"n": 3.5},
        {"lmax": 2.5},
        {"seed": 1.5},
        {"seed": "7"},
        {"seed": -3},
        {"out_dir": 5},
        {"ladder_depth": 4.5},
        {"grid_degree": 48.0},
        {"n": True},
        {"alphas": ()},
        {"ps": []},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            RunConfig(**kw)


class TestSerialization:
    def test_roundtrip(self):
        cfg = RunConfig(n=4, seed=7, alphas=(0.4,), g_form="paper-literal")
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
