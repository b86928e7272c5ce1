#!/usr/bin/env python3
"""Builds and runs the HEAVEN end-to-end benchmark.

    python3 perfbench/run.py --workload cold_archive --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, relative to the
repository root, then runs one workload. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}. Build output goes
to standard error. Arguments the script does not know (--tiny,
--corrupt-oracle) are passed to the benchmark program.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# The benchmark itself stops its timed phase in time; this only bounds a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def check_call(cmd):
    subprocess.run(cmd, check=True, stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno())


def build(out):
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.exists(os.path.join(out, "build.ninja")) and not os.path.exists(
        os.path.join(out, "Makefile")
    ):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        check_call(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "heaven_perfbench")


def fingerprint(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", results,
        "--fingerprint", fingerprint(binary),
    ] + extra
    proc = subprocess.Popen(cmd, stdout=sys.stdout.fileno())
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
