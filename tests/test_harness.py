"""Harness surface: registry, determinism, configuration, CLI exit codes."""

import json
import os
import subprocess
import sys

import pytest

from dnclab import cli
from dnclab.errors import ConfigError, NoConvergence, UnknownSuite
from dnclab.report import MAX_TRUNCATION, CheckResult, SuiteConfig, SuiteReport, canonical_json, rng_for
from dnclab.suites import SUITES, list_suites, run_suite


class TestRegistry:
    REQUIRED = [
        "block-index-zero",
        "retraction",
        "block-transversality",
        "dnc-vspace-iso",
        "dnc-product",
        "trivial-bundle",
        "dnc-functoriality",
        "taylor-remainder",
        "normal-block-structure",
        "groupoid-axioms",
        "dnc-transversality",
        "flag-laws",
        "filtration-sphere",
        "filtration-pair-groupoid",
        "filtration-tangent",
        "filtration-tangent-groupoid",
        "filtration-pullbacks",
    ]

    def test_at_least_seventeen(self):
        assert len(SUITES) >= 17
        for name in self.REQUIRED:
            assert name in SUITES

    def test_every_entry_carries_a_claim(self):
        for entry in list_suites():
            assert entry["claim"].strip()

    def test_unknown_suite(self):
        with pytest.raises(UnknownSuite):
            run_suite(SuiteConfig("no-such-suite"))


class TestConfig:
    def test_defaults(self):
        c = SuiteConfig("x")
        assert (c.seed, c.truncation, c.depth, c.tol, c.samples) == (42, 24, 4, 1e-7, 64)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SuiteConfig("x", tol=0.0)
        with pytest.raises(ConfigError):
            SuiteConfig("x", tol=float("nan"))
        with pytest.raises(ConfigError):
            SuiteConfig("x", samples=0)
        with pytest.raises(ConfigError):
            SuiteConfig("x", seed=-1)
        with pytest.raises(ConfigError):
            SuiteConfig("x", truncation=MAX_TRUNCATION + 1)
        assert SuiteConfig("x", truncation=MAX_TRUNCATION).truncation == MAX_TRUNCATION

    def test_rng_keyed_by_suite_and_index(self):
        c1 = SuiteConfig("a")
        c2 = SuiteConfig("b")
        x1 = rng_for(c1, 0).normal(size=4)
        x1b = rng_for(c1, 0).normal(size=4)
        x2 = rng_for(c2, 0).normal(size=4)
        x3 = rng_for(c1, 1).normal(size=4)
        assert (x1 == x1b).all()
        assert not (x1 == x2).all()
        assert not (x1 == x3).all()


class TestDeterminism:
    def test_same_config_identical_bytes(self):
        c = SuiteConfig("dnc-vspace-iso", samples=16)
        a = canonical_json(run_suite(c).to_json())
        b = canonical_json(run_suite(c).to_json())
        assert a == b

    def test_seed_changes_instances_not_structure(self):
        a = run_suite(SuiteConfig("groupoid-axioms", seed=1, samples=16))
        b = run_suite(SuiteConfig("groupoid-axioms", seed=2, samples=16))
        assert a.passed and b.passed

    def test_runtime_not_in_canonical_report(self):
        rep = run_suite(SuiteConfig("dnc-product", samples=8))
        assert rep.checks[0].runtime_ms >= 0.0
        assert "runtime" not in canonical_json(rep.to_json())


class TestReportShape:
    def test_overall_semantics(self):
        rep = SuiteReport(
            "x",
            SuiteConfig("x"),
            [CheckResult("a", "c", "pass"), CheckResult("b", "c", "fail")],
        )
        assert rep.overall == "fail"
        rep2 = SuiteReport("x", SuiteConfig("x"), [CheckResult("a", "c", "pass")])
        assert rep2.overall == "pass"

    def test_json_fields(self):
        rep = run_suite(SuiteConfig("flag-laws", samples=8))
        obj = rep.to_json()
        assert set(obj) == {"suite", "config", "checks", "overall"}
        for c in obj["checks"]:
            assert set(c) == {"name", "claim", "status", "residuals"}


class TestCli:
    def test_list_suites_exit_zero(self):
        assert cli.main(["list-suites"]) == 0

    def test_verify_pass_exit_zero(self, capsys):
        code = cli.main(["verify", "--suite", "dnc-vspace-iso", "--samples", "16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dnc-vspace-iso: pass" in out

    def test_unknown_suite_exit_two(self, capsys):
        assert cli.main(["verify", "--suite", "bogus"]) == 2

    def test_bad_config_exit_two(self):
        assert cli.main(["verify", "--suite", "dnc-product", "--tol", "0"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_exit_two(self, tol):
        assert cli.main(["verify", "--suite", "flag-laws", f"--tol={tol}"]) == 2

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["verify", "--suite", "flag-laws"], {"DNCLAB_SEED": "abc"}),
            (["verify-all"], {"DNCLAB_TOL": "x"}),
            # rejected by SuiteConfig before any operator is truncated
            (["verify", "--suite", "block-index-zero", "--truncation", "100000"], {}),
            (["demo", "sphere-filtration", "--delta", "2,2"], {}),
            (["demo", "sphere-filtration", "--delta", "x"], {}),
            (["demo", "sphere-filtration", "--delta", ""], {}),
            (["demo", "sphere-filtration", "--depth", "0"], {}),
            (["demo", "sphere-filtration", "--samples", "0"], {}),
            (["demo", "sphere-filtration", "--seed", "-1"], {}),
            # a first sphere level needs dimension >= 2
            (["demo", "sphere-filtration", "--delta", "1,2"], {}),
            # more levels asked for than --delta gives
            (["demo", "sphere-filtration", "--delta", "2,4", "--depth", "9"], {}),
        ],
    )
    def test_bad_input_exit_two(self, argv, env, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert cli.main(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_suite_error_is_reported_not_raised(self, monkeypatch, tmp_path):
        def broken(config):
            raise NoConvergence("projection did not converge")

        monkeypatch.setitem(SUITES["dnc-product"], "fn", broken)
        path = tmp_path / "all.json"
        assert cli.main(["verify-all", "--samples", "8", "--report", str(path)]) == 1
        obj = json.loads(path.read_text())
        assert obj["overall"] == "fail"
        assert len(obj["suites"]) == len(SUITES) == 19
        failing = [s for s in obj["suites"] if s["overall"] != "pass"]
        assert [s["suite"] for s in failing] == ["dnc-product"]
        (check,) = failing[0]["checks"]
        assert check["status"] == "error"
        assert check["residuals"] == {
            "exception": "NoConvergence",
            "message": "projection did not converge",
        }

    def test_non_lab_error_in_suite_propagates(self, monkeypatch):
        def broken(config):
            raise ZeroDivisionError("bug")

        monkeypatch.setitem(SUITES["dnc-product"], "fn", broken)
        with pytest.raises(ZeroDivisionError):
            run_suite(SuiteConfig("dnc-product", samples=8))

    def test_report_file_written(self, tmp_path):
        path = tmp_path / "rep.json"
        code = cli.main(
            ["verify", "--suite", "dnc-product", "--samples", "8", "--report", str(path)]
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["suite"] == "dnc-product" and obj["overall"] == "pass"

    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DNCLAB_SAMPLES", "8")
        path = tmp_path / "rep.json"
        assert cli.main(["verify", "--suite", "dnc-product", "--report", str(path)]) == 0
        obj = json.loads(path.read_text())
        assert obj["config"]["samples"] == 8

    def test_demo_emits_filtration_report(self, tmp_path):
        path = tmp_path / "demo.json"
        code = cli.main(
            ["demo", "sphere-filtration", "--delta", "2,4,8", "--depth", "3", "--report", str(path)]
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["level_dimensions"] == [1, 3, 7]
        assert obj["report"]["passed"]

    def test_console_script_entrypoint(self):
        # the child imports the same dnclab as the tests, installed or not
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dnclab.cli", "list-suites"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0 and "taylor-remainder" in proc.stdout
