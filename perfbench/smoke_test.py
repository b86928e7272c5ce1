#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run is correct, fails no operation and emits every
declared metric, finite and with its declared unit. perfbench/layers.json
must describe every per-layer metric. The negative case perturbs one
expected result inside the oracle: that run must fail.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--tiny", *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        layers = json.load(f)["metrics"]
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)

    per_layer = {m["name"] for m in bench["per_layer"]}
    expect(per_layer == set(layers), f"layers.json differs from per_layer: {per_layer ^ set(layers)}")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{workload} --trace {trace}"
            code, result, stderr = run(workload, trace)
            if result is None:
                failures.append(f"{where}: no result (exit {code}): {stderr[-500:]}")
                continue
            expect(code == 0, f"{where}: exit {code}: {stderr[-500:]}")
            expect(result.get("correct") is True, f"{where}: not correct")
            expect(result.get("failed") == 0, f"{where}: {result.get('failed')} failed")
            expect(result.get("attempted", 0) >= 1, f"{where}: nothing attempted")
            metrics = result.get("metrics", {})
            names = {m["name"] for m in declared}
            expect(set(metrics) == names, f"{where}: metrics differ: {set(metrics) ^ names}")
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                value = got.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       f"{where}: {m['name']} is not finite: {value}")
                expect(got.get("unit") == m["unit"],
                       f"{where}: {m['name']} unit {got.get('unit')} != {m['unit']}")
            if trace == 1:
                expect(metrics.get("error_rate", {}).get("value") == 0, f"{where}: error_rate != 0")
            print(f"ok   {where}: {len(metrics)} metrics, {result.get('attempted')} operations")

    code, result, _ = run("cold_archive", 0, "--corrupt-oracle")
    expect(code != 0, "corrupted oracle: the run did not fail")
    expect(result is not None and result.get("correct") is False and result.get("failed", 0) >= 1,
           f"corrupted oracle: result not marked failed: {result}")
    print("ok   cold_archive --corrupt-oracle: the oracle caught the wrong expected value")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
