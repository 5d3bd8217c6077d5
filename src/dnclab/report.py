"""Deterministic suite configuration and reporting.

Reports with equal configuration must be byte-identical across runs, so the
canonical JSON rendering carries no wall-clock data; per-check runtimes are
kept on the objects for console display only.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError

__all__ = ["SuiteConfig", "CheckResult", "SuiteReport", "canonical_json", "rng_for", "MAX_TRUNCATION", "MAX_DEPTH"]

# The truncation floors the first level of both index computations (see
# linalg.truncation_levels); n levels make 2n x 2n blocks, 1024 levels 32 MiB.
MAX_TRUNCATION = 1024
MAX_DEPTH = 5  # levels of the sphere towers, of dimensions 2, 4, ..., 2**depth


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = ""
    seed: int = 42
    truncation: int = 24
    depth: int = 4
    tol: float = 1e-7
    samples: int = 64

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tolerance must be finite and positive, got {self.tol}")
        if self.samples < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.samples}")
        if self.seed < 0 or self.seed >= 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if not 4 <= self.truncation <= MAX_TRUNCATION:
            raise ConfigError(f"truncation level must be between 4 and {MAX_TRUNCATION}, got {self.truncation}")
        if not 2 <= self.depth <= MAX_DEPTH:
            raise ConfigError(f"depth must be between 2 and {MAX_DEPTH}, got {self.depth}")

    def with_suite(self, suite: str) -> "SuiteConfig":
        return replace(self, suite=suite)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "truncation": self.truncation,
            "depth": self.depth,
            "tol": self.tol,
            "samples": self.samples,
        }


def rng_for(config: SuiteConfig, check_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, suite, check index) so every
    check is independently reproducible."""
    key = (int(config.seed) << 64) | (zlib.crc32(config.suite.encode()) << 32) | check_index
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class CheckResult:
    name: str
    claim: str
    status: str  # "pass" | "fail" | "error" (the suite raised)
    residuals: dict = field(default_factory=dict)
    runtime_ms: float = 0.0  # console only; not part of the canonical report

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "status": self.status,
            "residuals": _jsonable(self.residuals),
        }


@dataclass
class SuiteReport:
    suite: str
    config: SuiteConfig
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall(self) -> str:
        return "pass" if all(c.passed for c in self.checks) else "fail"

    @property
    def passed(self) -> bool:
        return self.overall == "pass"

    @property
    def runtime_ms(self) -> float:
        return sum(c.runtime_ms for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "overall": self.overall,
        }


def _jsonable(obj):
    """Convert residual payloads to canonical JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is a subclass of int
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"
