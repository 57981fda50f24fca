"""Self-test of the benchmark: output schema, metric names and units, failure accounting.

    python3 perfbench/selftest.py

Runs every workload briefly through run.py as the benchmark command would,
checks the last stdout line against BENCHMARK.json, and checks that a request
whose expected verdict is deliberately wrong is counted as failed. Takes
about a minute; exits 1 with a message on the first failed check.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)


def run_benchmark(workload: str, trace: int, seconds: int = 1) -> tuple[dict, str]:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    expect(bool(lines), f"{workload} trace={trace} printed nothing")
    return json.loads(lines[-1]), proc.stderr


def check_result(workload: str, trace: int, result: dict, stderr: str) -> None:
    where = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}")
    expect(type(result["attempted"]) is int and result["attempted"] >= 1, f"{where}: attempted")
    expect(type(result["failed"]) is int and result["failed"] == 0, f"{where}: failed {result['failed']}")
    expect(result["correct"] is True, f"{where}: not correct")

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    absent = []
    for line in stderr.splitlines():
        if line.startswith("absent targets (metrics dropped): "):
            absent = line.split(": ", 1)[1].split(", ")
    missing = [
        name for name in declared
        if name not in result["metrics"] and not any(name.startswith(a + ".") for a in absent)
    ]
    expect(not missing, f"{where}: metrics missing {missing}")
    extra = sorted(set(result["metrics"]) - set(declared))
    expect(not extra, f"{where}: undeclared metrics {extra}")
    for name, metric in result["metrics"].items():
        expect(set(metric) == {"value", "unit"}, f"{where}: {name} keys {sorted(metric)}")
        expect(metric["unit"] == declared[name], f"{where}: {name} unit {metric['unit']} != {declared[name]}")
        value = metric["value"]
        expect(type(value) in (int, float) and math.isfinite(value), f"{where}: {name} value {value!r}")
    if not trace:
        for name in declared:
            expect(result["metrics"][name]["value"] > 0, f"{where}: {name} is not positive")


def check_wrong_verdict_counts() -> None:
    """A case whose expected verdict is false must show up in `failed`."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import run
    from workloads import WORKLOADS

    workload = WORKLOADS["classify-small"]
    good = workload.cases(7, 1)[:3]
    # a directed triangle beside a member is in no grammar class, DC included
    planted = gen.planted_case(random.Random(7), "DC", 6)
    wrong = replace(planted, members=frozenset({"DC"}), non_members=frozenset())

    class Tampered:
        request = staticmethod(workload.request)
        check = staticmethod(workload.check)

        def cases(self, seed, seconds):
            return good + [wrong]

        def warmup_cases(self):
            return []

    for trace in (False, True):
        report = io.StringIO()
        with contextlib.redirect_stderr(report):
            result = run.measure(Tampered(), 7, 1, trace)
        passes = 2 if trace else 1
        expect("planted-D5: missing ['DC']" in report.getvalue(), "tampered case not reported on stderr")
        expect(result["attempted"] == 4 * passes, f"tampered run attempted {result['attempted']}")
        expect(result["failed"] == passes, f"tampered run failed {result['failed']}, want {passes}")
        expect(result["correct"] is False, "tampered run reported correct")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        check_result(workload, 0, *run_benchmark(workload, 0))
    check_result("classify-small", 1, *run_benchmark("classify-small", 1))
    check_wrong_verdict_counts()
    print(f"selftest ok: {', '.join(names)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
