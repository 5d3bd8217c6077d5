"""Byte-compared golden canonical reports at seed 42 of the configurations
the benchmark's ``operator-sweep``, ``filtration-towers`` and ``dnc-charts``
workloads run: the four operator suites at 256 samples and truncation 24,
flag-laws with the six filtration suites at depth 5, and the eight dnc
suites at the defaults over seeds 42 .. 57.

A change that means to leave every verdict and residual as it was must
leave these bytes as they were.  Regenerate, after a change that moves a
residual on purpose, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import pathlib

import pytest

from dnclab import suites
from dnclab.report import SuiteConfig, canonical_json

GOLDEN = pathlib.Path(__file__).parent / "golden"

OPERATOR_SUITES = ("block-index-zero", "retraction", "block-transversality", "composition-transversality")
FILTRATION_SUITES = (
    "flag-laws",
    "filtration-sphere",
    "filtration-pair-groupoid",
    "filtration-tangent",
    "filtration-tangent-groupoid",
    "filtration-pullbacks",
    "filtration-negative",
)
DNC_SUITES = (
    "dnc-vspace-iso",
    "dnc-product",
    "trivial-bundle",
    "dnc-functoriality",
    "taylor-remainder",
    "normal-block-structure",
    "groupoid-axioms",
    "dnc-transversality",
)
DNC_SEEDS = 16

CASES = {
    "operator-sweep-seed42.json": [
        SuiteConfig(s, seed=42, samples=256, truncation=24) for s in OPERATOR_SUITES
    ],
    "filtration-towers-seed42.json": [SuiteConfig(s, seed=42, depth=5) for s in FILTRATION_SUITES],
    "dnc-charts-seed42.json": [SuiteConfig(s, seed=42 + k) for k in range(DNC_SEEDS) for s in DNC_SUITES],
}


def canonical_report(configs) -> bytes:
    return canonical_json({"suites": [suites.run_suite(c).to_json() for c in configs]}).encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_equals_golden(name):
    assert canonical_report(CASES[name]) == (GOLDEN / name).read_bytes(), f"report differs from {name}"


if __name__ == "__main__":
    for name, configs in CASES.items():
        (GOLDEN / name).write_bytes(canonical_report(configs))
        print(f"wrote {GOLDEN / name}")
