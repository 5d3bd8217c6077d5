"""Command-line surface: run verification suites, list them, and emit
deterministic JSON reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
The flags of verify and verify-all can also be set through environment
variables with the DNCLAB_ prefix (DNCLAB_SEED, DNCLAB_TRUNCATION,
DNCLAB_DEPTH, DNCLAB_TOL, DNCLAB_SAMPLES, DNCLAB_REPORT), read after the
command line is parsed and only by those two commands, so a malformed one
cannot break list-suites or demo; the demo flags read none.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import ConfigError, LabError, UnknownSuite
from .report import MAX_DEPTH, MAX_TRUNCATION, SuiteConfig, canonical_json
from .suites import list_suites, run_all, run_suite

ENV_PREFIX = "DNCLAB_"


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad {ENV_PREFIX}{name.upper()}={raw!r}") from exc


# (flag, type, default, help) of every suite configuration flag
_CONFIG_FLAGS = (
    ("seed", int, SuiteConfig.seed, "seed of the random instances; each check draws from (seed, suite, check)"),
    (
        "truncation",
        int,
        SuiteConfig.truncation,
        "first truncation level of both index computations (single and block operators) in "
        "block-index-zero, the only suite that reads it, raised where the operators' support "
        f"needs a deeper one; 4 to {MAX_TRUNCATION}",
    ),
    ("depth", int, SuiteConfig.depth, f"flag levels of the sphere towers in the flag and filtration suites; 2 to {MAX_DEPTH}"),
    (
        "tol",
        float,
        SuiteConfig.tol,
        "finite positive tolerance of the residual checks that take one: the normal-vector residual only in "
        "dnc-transversality (which decides every membership at 1e-8 and projects an accepted boundary base "
        "point onto the source submanifold), filtration-pair-groupoid, filtration-tangent and filtration-tangent-groupoid",
    ),
    (
        "samples",
        int,
        SuiteConfig.samples,
        "random instances per check, capped at 32 (verification) and 16 (profiles) in filtration-sphere, "
        "at max(10, min(N, 50)) in dnc-functoriality and at 32 in the pullback cross-check, and raised to "
        "max(N, 2) in dnc-vspace-iso, dnc-product, trivial-bundle and groupoid-axioms and to max(N, 3) in "
        "dnc-transversality; fixed counts: 8 in the lift suites and the subsequence check of "
        "filtration-sphere, 16 and 8 in filtration-negative, 4 and 8 besides the cross-check in "
        "filtration-pullbacks, 20 fixture samples in normal-block-structure; flag-laws, "
        "normal-block-structure and taylor-remainder draw nothing it sizes, and the last two nothing --seed keys",
    ),
)


# --report goes with the config flags but is not a SuiteConfig field
_REPORT_FLAG = ("report", str, None, "write the JSON report here")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    # a flag left off the command line parses to None, and _config_from fills
    # it in after parsing, so no other command reads DNCLAB_*
    for name, cast, fallback, text in _CONFIG_FLAGS + (_REPORT_FLAG,):
        shown = "" if fallback is None else f"default {fallback}; "
        p.add_argument(f"--{name}", type=cast, default=None, help=f"{text} ({shown}also {ENV_PREFIX}{name.upper()})")


def _resolve_env_defaults(args) -> None:
    """Set each config flag not given on the command line from its DNCLAB_*
    variable, or else from its default; a malformed variable is a ConfigError."""
    for name, cast, fallback, _ in _CONFIG_FLAGS + (_REPORT_FLAG,):
        if getattr(args, name) is None:
            setattr(args, name, _env_default(name, cast, fallback))


def _config_from(args, suite: str = "") -> SuiteConfig:
    """The suite configuration of a command with config flags; it resolves
    their DNCLAB_* values first, --report included."""
    _resolve_env_defaults(args)
    return SuiteConfig(suite, **{name: getattr(args, name) for name, *_ in _CONFIG_FLAGS})


def _print_report(rep) -> None:
    for c in rep.checks:
        print(f"  [{c.status.upper():4s}] {c.name}  ({c.runtime_ms:.0f} ms)")
    print(f"{rep.suite}: {rep.overall} ({rep.runtime_ms:.0f} ms)")


def _write(path: str | None, payload) -> None:
    text = canonical_json(payload)
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {path!r}: {exc.strerror or exc}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnclab",
        description="desk-scale verification laboratory for deformation spaces, "
        "tangent groupoids, flags and filtrations",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run one named suite")
    p_verify.add_argument("--suite", required=True, help="suite name, as printed by list-suites")
    _add_config_flags(p_verify)

    p_all = subs.add_parser("verify-all", help="run every suite and aggregate")
    _add_config_flags(p_all)

    subs.add_parser("list-suites", help="print the suite registry")

    p_demo = subs.add_parser("demo", help="build and verify a demonstration filtration")
    p_demo.add_argument("kind", choices=["sphere-filtration"])
    p_demo.add_argument("--delta", default="2,4,8", help="comma-separated dimension sequence")
    p_demo.add_argument("--depth", type=int, default=None)
    p_demo.add_argument("--report", default=None)
    p_demo.add_argument("--seed", type=int, default=42)
    p_demo.add_argument("--samples", type=int, default=32)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "list-suites":
            for entry in list_suites():
                print(f"{entry['suite']}: {entry['claim']}")
            return 0

        if args.command == "verify":
            config = _config_from(args, args.suite)
            rep = run_suite(config)
            _print_report(rep)
            if args.report:
                _write(args.report, rep.to_json())
            return 0 if rep.passed else 1

        if args.command == "verify-all":
            config = _config_from(args)
            t0 = time.perf_counter()
            reports = run_all(config)
            total_ms = (time.perf_counter() - t0) * 1000
            for rep in reports:
                _print_report(rep)
            overall = all(r.passed for r in reports)
            print(f"overall: {'pass' if overall else 'fail'} ({len(reports)} suites, {total_ms:.0f} ms)")
            payload = {
                "config": config.to_json(),
                "suites": [r.to_json() for r in reports],
                "overall": "pass" if overall else "fail",
            }
            _write(args.report, payload)
            return 0 if overall else 1

        if args.command == "demo":
            from .filtration import filtration_from_spec, verify_filtration

            SuiteConfig(seed=args.seed, samples=args.samples)  # the same bounds as verify
            try:
                delta = [int(x) for x in args.delta.split(",") if x.strip()]
            except ValueError as exc:
                raise ConfigError(f"--delta must be comma-separated integers, got {args.delta!r}") from exc
            if not delta:
                raise ConfigError(f"--delta must name at least one dimension, got {args.delta!r}")
            if max(delta) > MAX_TRUNCATION:  # before any array of that size is built
                raise ConfigError(f"--delta entries must be at most {MAX_TRUNCATION}, got {max(delta)}")
            depth = len(delta) if args.depth is None else args.depth
            spec = {"kind": "sphere", "delta": delta, "depth": depth}
            filtr = filtration_from_spec(spec)
            report = verify_filtration(filtr, n_samples=args.samples, seed=args.seed)
            payload = {
                "demo": spec,
                "level_dimensions": list(filtr.delta),
                "report": report.to_json(),
            }
            _write(args.report, payload)
            for name, cond in report.conditions.items():
                print(f"  [{cond['status'].upper():12s}] {name}", file=sys.stderr)
            return 0 if report.passed else 1

        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, UnknownSuite) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
