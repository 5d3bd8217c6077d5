"""One workload in its own fresh process: a closed loop with one client.

    python3 perfbench/worker.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

It imports dnclab from the checkout's ``src/``, builds the workload's inputs
from the seed and runs passes back to back for ``--seconds``, checking every
pass. Each pass is timed in wall seconds and in seconds normalised to a
reference machine speed by ``speed.Probe``. With ``--trace 1`` the first half
of that time runs untraced and the second half traced, and the traced
reports must equal the untraced one. ``--setup-only`` stops once the inputs
are built and prints the monotonic clock, from which ``run.py`` takes the
set-up time, and the factor that normalises it, from the speed kernel's time
just after. The result is one JSON
line on stdout; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the benchmark is sized for a shared 2-CPU machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# The CLI takes defaults from DNCLAB_* variables; the inputs come from the seed alone.
for _name in [k for k in os.environ if k.startswith("DNCLAB_")]:
    del os.environ[_name]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import speed  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2  # untraced; a traced run needs one untraced and one traced pass
LOOP_LIMIT_S = 120.0  # no pass starts after this, so the process ends in time


def import_dnclab() -> None:
    import dnclab

    if not os.path.abspath(dnclab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dnclab was imported from {dnclab.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


class Checks:
    """Check counts over a run; the first pass's report is the reference."""

    def __init__(self):
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add_pass(self, out: workloads.PassOutput, label: str) -> None:
        attempted, failed = workloads.check_pass(out, self.reference)
        if self.reference is None:
            self.reference = out.report
        elif out.report != self.reference:
            self.problems.append(f"{label} pass report differs from the first pass")
        for suite, error in out.errors:
            self.problems.append(f"{suite} raised {error}")
        self.attempted += attempted
        self.failed += failed

    def require(self, ok: bool, problem: str) -> None:
        """One self-check of the benchmark, counted as a check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def run_passes(run, checks: Checks, label: str, seconds: float, min_passes: int, start: float,
               probe: speed.Probe):
    """Normalised seconds of each pass of ``run()``, run back to back: at
    least ``min_passes``, and no further pass once a pass of the median wall
    time so far would end more than ``seconds`` after the first began."""
    walls, norms, first = [], [], time.perf_counter()
    while len(walls) < min_passes or (
        time.perf_counter() - first + statistics.median(walls) <= seconds
    ):
        if walls and time.perf_counter() - start + walls[-1] > LOOP_LIMIT_S:
            break
        t0 = time.perf_counter()
        out = run()
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        norms.append(probe.normalised(t0, t1))
        checks.add_pass(out, label)
    return walls, norms


def measure(wl: workloads.Workload, args, start: float) -> dict:
    checks = Checks()
    with speed.Probe() as probe:
        walls, norms = run_passes(wl.run, checks, "untraced", args.seconds, MIN_PASSES, start, probe)
    return {
        "pass_times": norms,
        "pass_wall_times": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_summary(checks),
    }


def attribution(workload: str, layers: tuple) -> list:
    """Checks that the trace charges work to the layer doing it: the layer a
    workload exists to exercise is seen working, and one it never calls is
    charged nothing. Each is (metric, test, what went wrong)."""
    return {
        "verify-all": [
            (f"{layer}.self_s", lambda v: v > 0, "verify-all calls every layer, but none of its time was charged here")
            for layer in layers
        ],
        "operator-sweep": [
            ("operators.seqop_built", lambda v: v > 0, "no SequenceOperator construction was traced"),
            ("geometry.self_s", lambda v: v == 0, "time was charged to geometry, which these suites never call"),
        ],
        "filtration-towers": [
            ("geometry.newton_calls", lambda v: v > 0, "no newton_project call was traced: an alias escaped the wrappers"),
            ("filtration.verify_s", lambda v: v > 0, "no verify_filtration call was traced"),
        ],
        "dnc-charts": [
            ("dnc.chart_inverse_calls", lambda v: v > 0, "no tubular inverse was traced"),
            ("dnc.self_s", lambda v: v > 0, "no time was charged to dnc"),
        ],
    }[workload]


def measure_traced(wl: workloads.Workload, args, start: float) -> dict:
    import layertrace

    checks = Checks()
    tracer = layertrace.Tracer()
    with speed.Probe(on_sample=tracer.exclude) as probe:
        _, untraced = run_passes(wl.run, checks, "untraced", args.seconds / 2, 1, start, probe)
        tracer.install()
        per_pass = []

        def traced_pass():
            out, metrics = tracer.run_pass(wl.run, wl.root_layer)
            per_pass.append(metrics)
            return out

        _, traced = run_passes(traced_pass, checks, "traced", args.seconds / 2, 1, start, probe)
    units = layertrace.metric_units(workloads.ALL_SUITES)
    metrics = {
        name: statistics.median(p.get(name, 0) for p in per_pass) for name in units
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.pass_s"] = statistics.median(traced)
    for name, ok, problem in attribution(wl.name, layertrace.LAYERS):
        checks.require(ok(metrics[name]), f"{name} = {metrics[name]}: {problem}")
    tracer.dump(
        os.path.join(OUT, f"trace-{wl.name}-{args.seed}.json"),
        {"workload": wl.name, "seed": args.seed, "metrics": metrics},
    )
    return {
        "pass_times": untraced,
        "traced_pass_times": traced,
        "layer_metrics": metrics,
        "layer_units": {**units, "trace.overhead_s": "s", "trace.pass_s": "s"},
        **_summary(checks),
    }


def _summary(checks: Checks) -> dict:
    return {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
        "report_sha256": hashlib.sha256(checks.reference or b"").hexdigest(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        p.error("--seconds is required unless --setup-only is given")

    start = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        import_dnclab()
        wl = workloads.build(args.workload, args.seed, scratch)
        if args.setup_only:
            ready = time.monotonic()
            print(json.dumps({"ready": ready, "speed_scale": speed.REFERENCE_S / speed.kernel_median()}))
            return 0
        result = (measure_traced if args.trace else measure)(wl, args, start)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
