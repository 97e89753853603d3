"""Run configuration: a validated, JSON-serializable bundle of the knobs
shared by the CLI and the verification suites."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .errors import DataFileError

_G_FORMS = ("squared", "paper-literal")


@dataclass(frozen=True)
class RunConfig:
    n: int = 3
    lmax: int = 8
    alphas: tuple = (0.25, 0.5)
    ps: tuple = (0.8, 1.0, 1.5)
    grid_degree: int = 48
    ladder_depth: int = 18
    seed: int = 0
    g_form: str = "squared"
    out_dir: str = "."

    def __post_init__(self):
        for name in ("n", "lmax", "grid_degree", "ladder_depth", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not isinstance(self.out_dir, str):
            raise ValueError("out_dir must be a string")
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if self.lmax < 0 or self.ladder_depth < 1 or self.grid_degree < 2:
            raise ValueError("degrees and depths must be positive")
        if not self.alphas or not self.ps:
            raise ValueError("alphas and ps must be nonempty")
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise ValueError("apertures must lie in (0, 1)")
        if not all(0.0 < p < float("inf") for p in self.ps):
            raise ValueError("p values must be finite and positive")
        if self.g_form not in _G_FORMS:
            raise ValueError(f"g_form must be one of {_G_FORMS}")
        object.__setattr__(self, "alphas", tuple(float(a)
                                                 for a in self.alphas))
        object.__setattr__(self, "ps", tuple(float(p) for p in self.ps))

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise DataFileError("configuration must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise DataFileError(
                f"unknown configuration keys: {sorted(unknown)}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            raise DataFileError(f"invalid configuration: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DataFileError(f"unreadable configuration: {exc}") from exc
        return cls.from_dict(doc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)
