"""The dnclab benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a checkout. ``--seconds`` defaults to ``run_seconds`` in
BENCHMARK.json. Each workload runs in its own fresh process (``worker.py``).
With ``--trace 0`` this prints, per workload, the end-to-end metrics:
``pass_s`` (median seconds of one pass, normalised to a reference machine
speed by ``speed.py``), ``setup_s`` (median, over fresh interpreters, of
the seconds to import dnclab and build the inputs, normalised the same
way), ``peak_rss_mb`` and ``fail_ratio``. With
``--trace 1`` it prints the per-layer metrics of a traced run instead. The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (checks) and ``metrics``. The exit code is 1 when a verdict is
wrong, a suite raised or a pass's report differs from the first pass's.
See README.md in this directory for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 170.0  # one workload's processes end within 180 s
# A timing percentile is reported only with at least this many passes beyond it.
TAIL_SAMPLES = 10


class BenchmarkError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py with ``args``; its last stdout line, parsed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchmarkError(f"workload process ran past the deadline: {args}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"workload process failed with exit code {proc.returncode}: {args}")
    return json.loads(lines[-1])


def setup_seconds(name: str, seed: int, deadline: float) -> list[float]:
    """Seconds from starting a fresh interpreter until dnclab is imported and
    the workload's inputs are built, once per probe, each normalised by the
    speed kernel's time in that interpreter just after."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        res = _worker(["--workload", name, "--seed", str(seed), "--setup-only"], deadline)
        samples.append((res["ready"] - spawned) * res["speed_scale"])
    return samples


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p90/p95/p99 with TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= TAIL_SAMPLES:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def run_workload(name: str, args, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        res = _worker(common + ["--trace", "1"], deadline)
        metrics = {k: {"value": v, "unit": res["layer_units"][k]} for k, v in res["layer_metrics"].items()}
    else:
        setup = setup_seconds(name, args.seed, deadline)
        res = _worker(common + ["--trace", "0"], deadline)
        metrics = {
            "pass_s": {"value": statistics.median(res["pass_times"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        res["setup_times"] = setup
    res["metrics"] = metrics
    return res


def describe(name: str, res: dict, trace: bool) -> list[str]:
    """Human-readable lines for one workload."""
    times = res["pass_times"]
    ratio = res["failed"] / res["attempted"]
    lines = [f"{name}:"]
    if trace:
        traced = res["traced_pass_times"]
        lines.append(
            f"  traced pass_s {statistics.median(traced):.4f} s (median of {len(traced)}), "
            f"untraced {statistics.median(times):.4f} s (median of {len(times)}), normalised"
        )
        for k, m in res["metrics"].items():
            lines.append(f"  {k} {m['value']:.6g} {m['unit']}")
    else:
        m = res["metrics"]
        lines.append(f"  pass_s {m['pass_s']['value']:.4f} s (median of {len(times)} passes, normalised)")
        tail = tail_percentile(times)
        if tail:
            lines.append(f"  pass_p{tail[0]}_s {tail[1]:.4f} s")
        lines.append(f"  pass_wall_s {statistics.median(res['pass_wall_times']):.4f} s (median, not normalised)")
        lines.append(f"  setup_s {m['setup_s']['value']:.4f} s (median of {len(res['setup_times'])})")
        lines.append(f"  peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB")
    lines.append(f"  fail_ratio {ratio:.6g} ratio ({res['failed']} of {res['attempted']} checks)")
    lines.append(f"  report_sha256 {res['report_sha256']}")
    lines.append(f"  environment {json.dumps(res['environment'], sort_keys=True)}")
    lines += [f"  PROBLEM {p}" for p in res["problems"]]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dnclab benchmark")
    p.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=42)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dnclab", "__init__.py")):
        print(f"no dnclab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, time.monotonic() + DEADLINE_S)
            print("\n".join(describe(name, results[name], bool(args.trace))), flush=True)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
