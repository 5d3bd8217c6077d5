"""The benchmark's workloads: how each builds its inputs from a seed and
what one pass over those inputs is.

A pass is the work a user waits for to get one verdict set. Checking the
verdicts (counting statuses, comparing reports) happens after the timed
region, in :func:`check_pass`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

OPERATOR_SUITES = (
    "block-index-zero",
    "retraction",
    "block-transversality",
    "composition-transversality",
)
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
# dnc-charts covers seeds S .. S+15: at one seed its suites are too short to
# rise above the timing noise.
DNC_SEEDS = 16

# Every suite some workload runs: each gets a suites.<suite>_s layer metric.
ALL_SUITES = tuple(sorted(OPERATOR_SUITES + FILTRATION_SUITES + DNC_SUITES))
NAMES = ("verify-all", "operator-sweep", "filtration-towers", "dnc-charts")


@dataclass
class PassOutput:
    """What one pass produced, before any of it is checked."""

    report: bytes  # the canonical report, or b"" when none was produced
    errors: list  # (suite, exception class name) for each suite that raised


@dataclass
class Workload:
    name: str
    root_layer: str  # the layer charged with time outside wrapped calls
    run: Callable[[], PassOutput]


def build(name: str, seed: int, scratch_dir: str) -> Workload:
    """Import the modules the workload calls and build its inputs from ``seed``."""
    if name == "verify-all":
        return _verify_all(seed, scratch_dir)
    from dnclab.report import SuiteConfig

    if name == "operator-sweep":
        configs = [SuiteConfig(s, seed=seed, samples=256, truncation=24) for s in OPERATOR_SUITES]
    elif name == "filtration-towers":
        configs = [SuiteConfig(s, seed=seed, depth=5) for s in FILTRATION_SUITES]
    elif name == "dnc-charts":
        configs = [SuiteConfig(s, seed=seed + k) for k in range(DNC_SEEDS) for s in DNC_SUITES]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return _suite_list(name, configs)


def _verify_all(seed: int, scratch_dir: str) -> Workload:
    from dnclab import cli

    path = os.path.join(scratch_dir, f"verify-all-{seed}.json")
    argv = ["verify-all", "--seed", str(seed), "--report", path]

    def run() -> PassOutput:
        if os.path.exists(path):
            os.remove(path)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        except Exception as exc:  # a raising suite is a failed check, not a crash
            return PassOutput(b"", [("verify-all", type(exc).__name__)])
        # cli.main writes no report when a suite raises; that pass then has
        # no report to compare, which check_pass counts as a failure.
        if not os.path.exists(path):
            return PassOutput(b"", [("verify-all", "no report")])
        with open(path, "rb") as fh:
            return PassOutput(fh.read(), [])

    return Workload("verify-all", "cli", run)


def _suite_list(name: str, configs: list) -> Workload:
    # Called through their modules, so a tracer installed later sees the calls.
    from dnclab import report, suites

    def run() -> PassOutput:
        results, errors = [], []
        for config in configs:
            try:
                results.append(suites.run_suite(config))
            except Exception as exc:  # a suite that raises is a failed check, not a crash
                errors.append((config.suite, type(exc).__name__))
        payload = {"suites": [r.to_json() for r in results], "errors": errors}
        return PassOutput(report.canonical_json(payload).encode(), errors)

    return Workload(name, "suites", run)


def check_pass(out: PassOutput, reference: bytes | None) -> tuple[int, int]:
    """(checks attempted, checks failed) for one pass.

    A check fails when its status is not ``pass``, when its suite raised, or
    when its pass's report differs from ``reference`` (the first pass of the
    run). A pass without a report counts as one failed check.
    """
    if not out.report:
        return max(1, len(out.errors)), max(1, len(out.errors))
    statuses = [c["status"] for s in json.loads(out.report)["suites"] for c in s["checks"]]
    attempted = len(statuses) + len(out.errors)
    if reference is not None and out.report != reference:
        return attempted, attempted
    return attempted, sum(st != "pass" for st in statuses) + len(out.errors)
