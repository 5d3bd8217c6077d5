"""Acceptance gate: every exit criterion at its stated tolerance and count,
one pass/fail line per criterion (run pytest -s to see them)."""

import contextlib
import io
import json
import os
import pathlib
import time

import numpy as np
import pytest

from dnclab import catalog, cli, filtration as filt, flags as fl, geometry as geo
from dnclab.report import SuiteConfig, canonical_json
from dnclab.suites import run_all, run_suite

# Regenerate with: dnclab verify-all --seed 42 --report tests/golden/verify-all-seed42.json
GOLDEN_REPORT = pathlib.Path(__file__).parent / "golden" / "verify-all-seed42.json"


def _run(name: str, budget_s: float, **overrides) -> tuple:
    config = SuiteConfig(name, **overrides)
    t0 = time.perf_counter()
    rep = run_suite(config)
    elapsed = time.perf_counter() - t0
    return rep, elapsed


def _line(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} [{label}]: {status} ({elapsed:.2f}s < {budget:.0f}s)", flush=True)


def test_criterion_01_block_index_zero():
    rep, dt = _run("block-index-zero", 5.0, samples=200)
    ok = rep.passed and dt < 5.0
    _line(1, "block index zero, 200 instances, exact integers", ok, dt, 5.0)
    assert rep.passed and dt < 5.0
    for c in rep.checks:
        assert c.residuals["failures"] == 0 and c.residuals["instances"] == 200


def test_criterion_02_retraction():
    rep, dt = _run("retraction", 5.0, samples=100)
    ok = rep.passed and dt < 5.0
    _line(2, "retraction path invertibility, 100 x 101 grid", ok, dt, 5.0)
    assert rep.passed and dt < 5.0
    r = rep.checks[0].residuals
    assert r["grid_points"] == 101 and r["min_singular_ratio"] >= 1e-8 and r["endpoints_exact"]


def test_criterion_03_block_transversality():
    rep, dt = _run("block-transversality", 10.0, samples=200)
    ok = rep.passed and dt < 10.0
    _line(3, "block transversality with witnesses, 200 instances", ok, dt, 10.0)
    assert rep.passed and dt < 10.0
    r = rep.checks[0].residuals
    assert r["max_witness_residual"] <= 1e-10 and r["complements_verified"]


def test_criterion_04_composition_transversality():
    rep, dt = _run("composition-transversality", 5.0, samples=100)
    ok = rep.passed and dt < 5.0
    _line(4, "composition-transversality iff, 100 fixtures", ok, dt, 5.0)
    assert rep.passed and dt < 5.0
    r = rep.checks[0].residuals
    assert r["mismatches"] == 0 and r["true_cases"] > 0 and r["false_cases"] > 0


def test_criterion_05_vspace_iso():
    rep, dt = _run("dnc-vspace-iso", 2.0, samples=500)
    ok = rep.passed and dt < 2.0
    _line(5, "linear-pair trivialization, 500 round trips", ok, dt, 2.0)
    assert rep.passed and dt < 2.0
    r = rep.checks[0].residuals
    assert r["max_roundtrip_error"] <= 1e-12 and r["fiber_preserved"]


def test_criterion_06_product_and_trivial_bundle():
    rep_p, dt_p = _run("dnc-product", 5.0, samples=200)
    rep_t, dt_t = _run("trivial-bundle", 5.0, samples=200)
    ok = rep_p.passed and rep_t.passed and dt_p + dt_t < 5.0
    _line(6, "product and trivial-bundle isomorphisms, 200 points", ok, dt_p + dt_t, 5.0)
    assert ok
    assert rep_p.checks[0].residuals["max_roundtrip_error"] <= 1e-10
    r = rep_t.checks[0].residuals
    assert r["max_roundtrip_error"] <= 1e-10 and r["max_linearity_defect"] <= 1e-10


def test_criterion_07_functoriality():
    rep, dt = _run("dnc-functoriality", 10.0)
    ok = rep.passed and dt < 10.0
    _line(7, "functoriality of induced maps, 50 sampled points", ok, dt, 10.0)
    assert rep.passed and dt < 10.0
    comp, hom = rep.checks
    assert comp.residuals["points"] == 50 and comp.residuals["max_composition_error"] <= 1e-6
    assert hom.residuals["max_homomorphism_error"] <= 1e-9


def test_criterion_08_taylor_remainder():
    rep, dt = _run("taylor-remainder", 5.0)
    ok = rep.passed and dt < 5.0
    _line(8, "remainder slopes >= 0.9, linear fixture at zero", ok, dt, 5.0)
    assert rep.passed and dt < 5.0
    fixtures = rep.checks[0].residuals["fixtures"]
    assert len(fixtures) == 3
    for data in fixtures.values():
        assert data["slope"] >= 0.9
    assert rep.checks[1].residuals["max_remainder"] <= 1e-10


def test_criterion_09_normal_block_structure():
    rep, dt = _run("normal-block-structure", 5.0)
    ok = rep.passed and dt < 5.0
    _line(9, "triangularity defect <= 1e-6, order >= 1.9", ok, dt, 5.0)
    assert rep.passed and dt < 5.0
    for v in rep.checks[0].residuals["max_defect"].values():
        assert v <= 1e-6
    for data in rep.checks[1].residuals["fixtures"].values():
        assert data["order"] >= 1.9


def test_criterion_10_groupoid_axioms():
    rep, dt = _run("groupoid-axioms", 2.0, samples=500)
    ok = rep.passed and dt < 2.0
    _line(10, "groupoid axioms exact on 500 triples", ok, dt, 2.0)
    assert rep.passed and dt < 2.0
    assert rep.checks[0].residuals["triples"] == 500 and rep.checks[0].residuals["exact"]


def test_criterion_11_dnc_transversality_membership():
    rep, dt = _run("dnc-transversality", 10.0, samples=100)
    ok = rep.passed and dt < 10.0
    _line(11, "membership equivalence on 100 points per fixture", ok, dt, 10.0)
    assert rep.passed and dt < 10.0
    per_fixture = [c for c in rep.checks if c.name.startswith("transversality-through-functor")]
    assert len(per_fixture) == 2
    for c in per_fixture:
        assert c.residuals["sampled_points"] == 100 and c.residuals["failures"] == 0


def test_criterion_12_filtration_dimension_laws():
    t0 = time.perf_counter()
    flag = fl.standard_flag([2, 4, 8])
    sphere = filt.make_filtration_sphere(flag)
    money = {
        "sphere": (sphere, [1, 3, 7]),
        "pair-groupoid": (filt.pair_groupoid_filtration(sphere), [2, 6, 14]),
        "tangent": (filt.tangent_filtration(sphere), [2, 6, 14]),
        "tangent-groupoid": (filt.tangent_groupoid_filtration(sphere), [3, 7, 15]),
    }
    ok = True
    for name, (f, want) in money.items():
        assert list(f.delta) == want
        rep = filt.verify_filtration(f, n_samples=8, seed=42)
        ok = ok and rep.conditions["a_dimensions"]["status"] == "pass"

    lin = filt.make_filtration_linear(fl.standard_flag([2, 4]))
    d, p = lin.total.ambient_dim, 2
    g = geo.SmoothMap(d + p, d, lambda z: z[:d], lambda z: np.hstack([np.eye(d), np.zeros((d, p))]))
    rng = np.random.Generator(np.random.Philox(key=5))
    pulled = filt.pullback_filtration_fredholm(
        g,
        filt._full_space(d + p, [rng.normal(size=d + p) for _ in range(6)]),
        p,
        lin,
        seeds=[rng.normal(size=d + p) for _ in range(6)],
    )
    assert list(pulled.delta) == [dd + p for dd in lin.delta]
    ok = ok and filt.verify_filtration(pulled, n_samples=8).conditions["a_dimensions"]["status"] == "pass"

    rp1 = catalog.projective_space(1, big_n=3, seed=41)
    rp2 = catalog.projective_space(2, big_n=3, seed=42)
    rpf = filt.Filtration(fl.DimensionSequence([1, 2]), [rp1, rp2], rp2)
    covered = filt.pullback_filtration_covering(catalog.antipodal_cover(2, big_n=3), rpf)
    assert list(covered.delta) == [1, 2]
    ok = ok and filt.verify_filtration(covered, n_samples=4).conditions["a_dimensions"]["status"] == "pass"

    dt = time.perf_counter() - t0
    ok = ok and dt < 15.0
    _line(12, "filtration dimension laws via jacobian ranks", ok, dt, 15.0)
    assert ok


def test_criterion_13_negative_fixtures():
    rep, dt = _run("filtration-negative", 5.0)
    ok = rep.passed and dt < 5.0
    _line(13, "negative fixtures report honest failures", ok, dt, 5.0)
    assert rep.passed and dt < 5.0
    by_name = {c.name: c for c in rep.checks}
    assert by_name["shifted-product-fails-density"].residuals["density_status"] == "fail"
    assert by_name["witness-free-product-unverified"].residuals["normality_status"] == "unverified"
    assert by_name["non-transverse-pullback-rejected"].residuals["raised"]


def test_criterion_14_end_to_end_deterministic(tmp_path, monkeypatch):
    # the second run goes through the CLI, whose report must equal the
    # committed golden file byte for byte (flags only, no DNCLAB_* defaults)
    for name in [k for k in os.environ if k.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(name)
    config = SuiteConfig("")
    path = tmp_path / "verify-all.json"
    t0 = time.perf_counter()
    first = run_all(config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify-all", "--seed", str(config.seed), "--report", str(path)])
    dt = time.perf_counter() - t0
    second = path.read_bytes()
    bytes_first = canonical_json([r.to_json() for r in first])
    bytes_second = canonical_json(json.loads(second)["suites"])
    all_pass = all(r.passed for r in first) and code == 0
    matches_golden = second == GOLDEN_REPORT.read_bytes()
    ok = all_pass and bytes_first == bytes_second and matches_golden and dt < 60.0
    _line(14, "verify-all deterministic at defaults, equal to the golden report", ok, dt, 60.0)
    assert all_pass
    assert bytes_first == bytes_second
    assert matches_golden, f"report differs from {GOLDEN_REPORT.name}"
    assert dt < 60.0
