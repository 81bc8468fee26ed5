#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 edgebench/run.py --workload steady_top --seed 1 --seconds 20 \
        --trace 0 --build-type RelWithDebInfo

Run from the repository root. The program and the benchmark are built from
source into $CARGO_TARGET_DIR (default .bench_build) under the current
directory; the checker tests run after every build that changed the
binary. The workload's population is prepared once per seed and build and
cached there too. The last line of standard output is the result as one
JSON object; any failure exits non-zero without printing one.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
# Prepared populations kept per build; older ones are prepared again when
# asked for.
CACHE_KEEP = 12


def log(message):
    print(f"edgebench: {message}", file=sys.stderr, flush=True)


def call(cmd, log_path, timeout):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        result = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, timeout=timeout)
    return result.returncode == 0


def tail(path, lines=30):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build(build_dir, build_type):
    """Configures once, builds incrementally; returns the binary or None."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        if not call(["cmake", "-S", HERE, "-B", build_dir,
                     f"-DCMAKE_BUILD_TYPE={build_type}"], log_path, 600):
            log("configure failed:\n" + tail(log_path))
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not call(["cmake", "--build", build_dir, "-j", jobs, "--target", "edgebench",
                 "edgebench_checks_test"], log_path, 900):
        log("build failed:\n" + tail(log_path))
        return None
    binary = os.path.join(build_dir, "edgebench")
    stamp = os.path.join(build_dir, "tested.stamp")
    identity = f"{os.path.getmtime(binary)}:{os.path.getsize(binary)}"
    if not os.path.exists(stamp) or open(stamp).read() != identity:
        if not call([os.path.join(build_dir, "edgebench_checks_test")], log_path, 300):
            log("checker tests failed:\n" + tail(log_path))
            return None
        # A new binary may write another snapshot format: drop what the
        # previous one prepared.
        cache = os.path.join(build_dir, "cache")
        if os.path.isdir(cache):
            for name in os.listdir(cache):
                os.remove(os.path.join(cache, name))
        with open(stamp, "w") as f:
            f.write(identity)
    return binary


def trim_cache(cache):
    prepared = {}
    for name in os.listdir(cache):
        stem, _, ext = name.rpartition(".")
        if ext == "snap":
            prepared[stem] = os.path.getmtime(os.path.join(cache, name))
    for stem in sorted(prepared, key=prepared.get)[:-CACHE_KEEP]:
        for ext in ("snap", "side"):
            path = os.path.join(cache, f"{stem}.{ext}")
            if os.path.exists(path):
                os.remove(path)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-type", required=True)
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "edgebench")
    build_dir = os.path.abspath(build_dir)
    binary = build(build_dir, args.build_type)
    if binary is None:
        return 1

    cache = os.path.join(build_dir, "cache")
    os.makedirs(cache, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--cache", cache]
    started = time.time()
    prepared = subprocess.run([binary, "prepare"] + common, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    if prepared.returncode != 0:
        log("preparation failed")
        return 1
    log(f"population ready in {time.time() - started:.1f} s")
    for name in os.listdir(cache):
        if f"-s{args.seed}." in name:
            os.utime(os.path.join(cache, name))
    trim_cache(cache)

    run = subprocess.run(
        [binary, "run"] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                    "--build-type", args.build_type,
                                    "--spans", os.path.join(build_dir, "spans")],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        log(f"run failed with exit code {run.returncode}")
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as timeout:
        log(f"timed out: {timeout.cmd[0]}")
        sys.exit(1)
