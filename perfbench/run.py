"""Benchmark for dcograph: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload classify-small --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client sends its next request when the
previous one has returned. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a separate traced pass with `--trace 1`.
Times are in seconds at a reference speed (see speed.py); the unscaled pass
time goes to stderr. The package is imported from `src/` beside this
directory; without it the run exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import gen
import spans
from speed import SpeedProbe
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ("core", "construct", "decompose", "recognize", "mine")

# Set-up is repeated this many times per run and its median reported.
SETUP_ROUNDS = 3
SETUP_ROUNDS_WITHOUT_WARMUP = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
RUN_LEVEL_UNITS = {"trace.overhead_frac": "ratio", "run.cpu_frac": "ratio"}
_STAT_UNITS = {
    "calls": "count", "rows": "count", "induced_per_call": "count",
    "self_s": "s", "total_s": "s", "distinct_frac": "ratio", "hit_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {name: _STAT_UNITS[name.rsplit(".", 1)[1]] for name in spans.metric_names()}
    units.update(RUN_LEVEL_UNITS)
    return units


class SetupError(Exception):
    """The package under test cannot be found or imported from this checkout."""


def load_api() -> SimpleNamespace:
    """Import dcograph.cli afresh, as a `dcograph` command does, so every module cache starts empty."""
    for name in [m for m in sys.modules if m == "dcograph" or m.startswith("dcograph.")]:
        del sys.modules[name]
    cli = importlib.import_module("dcograph.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "dcograph").resolve():
        raise SetupError(f"dcograph was imported from {cli.__file__}, not from {SRC}")
    api = SimpleNamespace(**{m: sys.modules.get(f"dcograph.{m}") for m in MODULES})
    api.constructive = [api.recognize.ClassId(c) for c in gen.CONSTRUCTIVE_CLASSES]
    return api


def run_requests(api, workload, cases, probe: SpeedProbe, tracer: spans.Tracer | None = None) -> tuple[list[tuple[float, float]], list[str]]:
    """Send each case in turn; return each request's (start, end) and failure reasons."""
    intervals: list[tuple[float, float]] = []
    failures: list[str] = []
    for i, case in enumerate(cases):
        probe.maybe_sample()
        if tracer is not None:
            tracer.current_request = i
        start = time.perf_counter()
        try:
            out = workload.request(api, case)
        except Exception as exc:  # a raising request, RouteDisagreement included, is a failure
            intervals.append((start, time.perf_counter()))
            failures.append(f"request {i}: {type(exc).__name__}: {str(exc)[:200]}")
            continue
        intervals.append((start, time.perf_counter()))
        error = workload.check(case, out)
        if error is not None:
            failures.append(f"request {i}: {error}")
    return intervals, failures


def timed_setup(workload, warmup, probe: SpeedProbe) -> tuple[SimpleNamespace, tuple[float, float]]:
    """Fresh import plus the warm-up batch; warm-up outputs are not checked."""
    probe.maybe_sample()
    start = time.perf_counter()
    api = load_api()
    for case in warmup:
        workload.request(api, case)
    return api, (start, time.perf_counter())


def timed_pass(api, workload, cases, probe: SpeedProbe, tracer: spans.Tracer | None = None):
    """One pass over the cases: request seconds at the reference speed, failures, CPU share."""
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    intervals, failures = run_requests(api, workload, cases, probe, tracer)
    cpu_frac = (time.process_time() - cpu_start) / (time.perf_counter() - wall_start)
    probe.maybe_sample()  # a probe after the last request
    latencies = [probe.scaled(start, end) for start, end in intervals]
    scale = sum(latencies) / sum(end - start for start, end in intervals)
    return latencies, failures, scale, cpu_frac


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    cases = workload.cases(seed, seconds)
    warmup = workload.warmup_cases()
    load_api()  # untimed: loads third-party modules and writes bytecode once
    rounds = SETUP_ROUNDS if warmup else SETUP_ROUNDS_WITHOUT_WARMUP
    probe = SpeedProbe()
    setups = []
    for _ in range(rounds):
        api, interval = timed_setup(workload, warmup, probe)
        setups.append(interval)
    latencies, failures, scale, cpu_frac = timed_pass(api, workload, cases, probe)
    setup_times = [probe.scaled(start, end) for start, end in setups]
    if trace:
        api, _ = timed_setup(workload, warmup, probe)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_failures, traced_scale, _ = timed_pass(api, workload, cases, probe, tracer)
        finally:
            tracer.restore()
    wall_s = sum(latencies)
    print(
        f"speed scale {scale:.4f}, unscaled wall {wall_s / scale:.3f} s, "
        f"median probe {statistics.median(probe.seconds) * 1000:.3f} ms",
        file=sys.stderr,
    )
    attempted = len(cases)

    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        failures += traced_failures
        attempted += len(cases)
        values = {
            name: value * traced_scale if name.endswith("_s") else value
            for name, value in tracer.metrics().items()
        }
        values["trace.overhead_frac"] = sum(traced) / wall_s - 1
        values["run.cpu_frac"] = cpu_frac
        units = per_layer_units()
        if tracer.absent:
            print(f"absent targets (metrics dropped): {', '.join(tracer.absent)}", file=sys.stderr)

    for reason in failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "dcograph" / "cli.py").is_file():
        print(f"error: no dcograph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
