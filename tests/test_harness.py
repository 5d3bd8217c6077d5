"""Harness surface: registry, determinism, configuration, CLI exit codes."""

import ast
import dataclasses
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import dnclab
from dnclab import cli, filtration, flags
from dnclab.errors import ConfigError, NoConvergence, UnknownSuite
from dnclab.report import (
    MAX_TRUNCATION,
    CheckResult,
    ConditionReport,
    SuiteConfig,
    SuiteReport,
    canonical_json,
    condition,
    rng_for,
)
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

    def test_config_flags_are_the_config_fields(self):
        fields = {f.name for f in dataclasses.fields(SuiteConfig)}
        assert {name for name, *_ in cli._CONFIG_FLAGS} == fields - {"suite"}

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

    def test_booleans_stay_booleans(self):
        assert canonical_json({"x": True, "n": 1}) == '{"n":1,"x":true}\n'
        assert canonical_json([np.bool_(False), np.int64(0)]) == "[false,0]\n"


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

    @pytest.mark.parametrize(
        "status", ["pass", "fail", "by_construction", "unverified", "out_of_scope", "not_claimed", "measured"]
    )
    def test_condition_report_fails_exactly_on_fail(self, status):
        rep = ConditionReport({"a": condition(True, {}), "b": {"status": status, "evidence": {}}})
        assert rep.passed == (status != "fail")
        assert rep.statuses() == {"a": "pass", "b": status}
        assert rep.to_json() == {"conditions": rep.conditions, "passed": rep.passed}

    def test_flags_and_filtrations_share_one_condition_record(self):
        flag = flags.standard_flag([2, 4])
        assert type(flags.verify_flag(flag)) is ConditionReport
        lin = filtration.make_filtration_linear(flag)
        assert type(filtration.verify_filtration(lin, n_samples=4)) is ConditionReport

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

    @pytest.mark.parametrize("tol", ["1e-9", "1e-7", "0.1", "0.5"])
    def test_tol_sweep_gets_verdicts_in_dnc_transversality(self, tol, tmp_path):
        # --tol bounds the normal-vector residual only; memberships are decided
        # at 1e-8, so a loose value cannot admit a point no frame exists at
        path = tmp_path / "rep.json"
        assert cli.main(["verify", "--suite", "dnc-transversality", "--tol", tol, "--report", str(path)]) == 0
        obj = json.loads(path.read_text())
        assert obj["overall"] == "pass"
        assert "suite-error" not in [c["name"] for c in obj["checks"]]

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
            # the sphere towers run from 2 to MAX_DEPTH levels
            (["verify", "--suite", "flag-laws", "--depth", "1"], {}),
            (["verify", "--suite", "flag-laws", "--depth", "6"], {}),
            # a report path that cannot be written
            (["verify-all", "--samples", "8", "--report", "/nonexistent/dir/x.json"], {}),
            (["verify", "--suite", "dnc-product", "--samples", "8", "--report", "."], {}),
            # a level beyond MAX_TRUNCATION, rejected before any array is built
            (["demo", "sphere-filtration", "--delta", "2,4,100000"], {}),
        ],
    )
    def test_bad_input_exit_two(self, argv, env, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        too_big = argv == ["demo", "sphere-filtration", "--delta", "2,4,100000"]
        if too_big:
            def unbuilt(*args):
                raise AssertionError("a flag was built for an oversized --delta")

            monkeypatch.setattr(flags, "standard_flag", unbuilt)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        if too_big or argv == ["demo", "sphere-filtration", "--delta", ""]:
            # the default depth is taken from --delta, so an empty or oversized list is blamed on --delta
            assert "--delta" in err and "depth" not in err

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

    @pytest.mark.parametrize("name, cast", [(name, cast) for name, cast, *_ in cli._CONFIG_FLAGS])
    def test_each_config_flag_reaches_the_report(self, name, cast, tmp_path):
        raw = {"seed": "7", "truncation": "30", "depth": "3", "tol": "1e-6", "samples": "5"}[name]
        path = tmp_path / "rep.json"
        argv = ["verify", "--suite", "dnc-product", "--samples", "8", f"--{name}", raw, "--report", str(path)]
        assert cli.main(argv) == 0
        assert json.loads(path.read_text())["config"][name] == cast(raw) != getattr(SuiteConfig(), name)

    @pytest.mark.parametrize("argv", [["list-suites"], ["demo", "sphere-filtration", "--delta", "2,4"]])
    def test_commands_without_config_flags_ignore_a_bad_variable(self, argv, monkeypatch):
        monkeypatch.setenv("DNCLAB_SEED", "abc")
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("argv", [["verify", "--suite", "flag-laws"], ["verify-all"]])
    def test_config_commands_reject_a_bad_variable(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("DNCLAB_SEED", "abc")
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "configuration error: bad DNCLAB_SEED='abc'\n"

    @pytest.mark.parametrize("command", [["verify", "--suite", "x"], ["verify-all"]])
    def test_help_names_each_default(self, command, capsys):
        with pytest.raises(SystemExit):
            cli._parser().parse_args(command + ["--help"])
        text = " ".join(capsys.readouterr().out.split())
        for name, _, fallback, _ in cli._CONFIG_FLAGS:
            assert f"(default {fallback}; also DNCLAB_{name.upper()})" in text
        assert "(also DNCLAB_REPORT)" in text

    def test_demo_reads_no_environment_variable(self, monkeypatch, tmp_path):
        argv = ["demo", "sphere-filtration", "--delta", "2,4", "--report"]
        assert cli.main(argv + [str(tmp_path / "a.json")]) == 0
        monkeypatch.setenv("DNCLAB_SAMPLES", "4")
        assert cli.main(argv + [str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_demo_emits_filtration_report(self, tmp_path):
        path = tmp_path / "demo.json"
        code = cli.main(
            ["demo", "sphere-filtration", "--delta", "2,4,8", "--depth", "3", "--report", str(path)]
        )
        assert code == 0
        obj = json.loads(path.read_text())
        assert obj["level_dimensions"] == [1, 3, 7]
        assert obj["report"]["passed"]

    def test_demo_report_equals_golden(self, tmp_path):
        # Regenerate with: dnclab demo sphere-filtration --delta 2,4,8 --depth 3
        #   --report tests/golden/demo-sphere-seed42.json
        path = tmp_path / "demo.json"
        argv = ["demo", "sphere-filtration", "--delta", "2,4,8", "--depth", "3", "--report", str(path)]
        assert cli.main(argv) == 0
        golden = pathlib.Path(__file__).parent / "golden" / "demo-sphere-seed42.json"
        assert path.read_bytes() == golden.read_bytes()

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


class TestKnobs:
    def test_pullbacks_suite_passes_the_seed_to_every_verification(self, monkeypatch):
        seeds = []
        real = filtration.verify_filtration

        def spy(f, n_samples=32, seed=42):
            seeds.append(seed)
            return real(f, n_samples=n_samples, seed=seed)

        monkeypatch.setattr(filtration, "verify_filtration", spy)
        config = SuiteConfig("filtration-pullbacks", seed=31337, samples=8)
        assert run_suite(config).overall == "pass"
        assert len(seeds) == 3 and set(seeds) == {config.seed}


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(dnclab.__path__)))
def test_star_import_resolves_every_public_name(module):
    # `import *` raises AttributeError for a name left in __all__ after its
    # definition went
    exec(f"from dnclab.{module} import *", {})


# Public names that nothing in src/dnclab or perfbench reads, each with the
# reason it stays.  A name that gains a caller leaves this list.
UNREAD_PUBLIC_NAMES = {
    "make_filtration_open_subset": "perfbench/layertrace.py pins it by name in FILTRATION_CONSTRUCTORS",
    "is_glk_tilde": "the structure-group test of the lower triangular group, awaiting a tangent-lift verdict",
    "shift_op": "statutory constructor of the operator model, next to identity, rank_one and finite_rank",
    "retraction_path": "reference that tests compare the batched retraction_paths against",
    "verify_analytic_jacobian": "reference that tests check every exact Jacobian against",
}


def test_every_public_name_has_a_reader():
    # an identifier counts outside its own top-level definition, so a
    # recursive helper does not read itself
    root = pathlib.Path(__file__).resolve().parent.parent
    modules = sorted((root / "src" / "dnclab").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in modules + sorted((root / "perfbench").glob("*.py"))}
    home = {}
    for path in modules:
        for node in trees[path].body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                home.update((name, path) for name in ast.literal_eval(node.value))
    read = set()
    for path, tree in trees.items():
        for node in tree.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, (ast.Attribute, ast.alias)):
                    name = sub.attr if isinstance(sub, ast.Attribute) else sub.name
                else:
                    continue
                if name in home and (home[name], getattr(node, "name", None)) != (path, name):
                    read.add(name)
    assert set(home) - read == set(UNREAD_PUBLIC_NAMES)


class TestBenchmarkTracer:
    def test_traced_constructor_names_are_filtration_callables(self):
        # read without installing: the benchmark's per-layer timings wrap
        # these names, so a renamed constructor must fail here first
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location("layertrace", os.path.join(root, "perfbench", "layertrace.py"))
        layertrace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layertrace)
        names = sorted(layertrace.FILTRATION_CONSTRUCTORS)
        assert names and all(callable(getattr(filtration, n, None)) for n in names), names

    def test_tracer_installs_and_wraps_every_named_function(self):
        # in a child, so that no wrapper leaks into the other tests; a renamed
        # constructor would otherwise drop out of filtration.construct_s unseen
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = (
            "import importlib, layertrace\n"
            "layertrace.Tracer().install()\n"
            "names = [f'filtration.{n}' for n in layertrace.FILTRATION_CONSTRUCTORS]\n"
            "names += sorted(layertrace.PRIVATE_CHOKE_POINTS)\n"
            "for name in names:\n"
            "    layer, attr = name.split('.', 1)\n"
            "    fn = getattr(importlib.import_module('dnclab.' + layer), attr, None)\n"
            "    state = 'missing' if fn is None else 'ok' if hasattr(fn, '__wrapped__') else 'unwrapped'\n"
            "    print(name, state)\n"
        )
        paths = [src, os.path.join(root, "perfbench"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.split("\n")[:-1]
        assert len(lines) >= 14 and all(line.endswith(" ok") for line in lines), proc.stdout
