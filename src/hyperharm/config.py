"""Run configuration: a validated, JSON-serializable bundle of the values
the verification suites read."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .errors import DataFileError


@dataclass(frozen=True)
class RunConfig:
    n: int = 3
    lmax: int = 8
    alpha: float = 0.5
    ps: tuple = (0.8, 1.0, 1.5)
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self):
        for name in ("n", "lmax", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not isinstance(self.out_dir, str):
            raise ValueError("out_dir must be a string")
        if self.n < 3:
            raise ValueError("dimension must be at least 3")
        if self.lmax < 1:
            raise ValueError("lmax must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("aperture must lie in (0, 1)")
        if not self.ps:
            raise ValueError("ps must be nonempty")
        if not all(0.0 < p < float("inf") for p in self.ps):
            raise ValueError("p values must be finite and positive")
        object.__setattr__(self, "alpha", float(self.alpha))
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
        except (OSError, ValueError) as exc:  # not JSON, or not UTF-8
            raise DataFileError(f"unreadable configuration: {exc}") from exc
        return cls.from_dict(doc)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)
