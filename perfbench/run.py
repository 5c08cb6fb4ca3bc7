#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds perfbench/ as its own CMake
project into $CARGO_TARGET_DIR (default .bench_build), pins the
environment (HYPATIA_THREADS=2, every other HYPATIA_* variable unset),
runs the workload binary and relays its output. The last line of
standard output is the result JSON. The exit code is non-zero when the
build fails (no result), a check fails (the result says "correct": false)
or the binary reports other metrics than BENCHMARK.json lists (no result).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def pinned_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPATIA_")}
    env["HYPATIA_THREADS"] = "2"
    return env


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    scratch = os.path.join(build_dir, f"scratch-{os.getpid()}")
    binaries = ["perfbench_traced" if args.trace else "perfbench"]
    if args.selftest:
        binaries = ["perfbench", "perfbench_traced"]
    try:
        for binary in binaries:
            cmd = [os.path.join(build_dir, binary), "--scratch", scratch]
            if args.selftest:
                cmd.append("--selftest")
            else:
                cmd += ["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds)]
            try:
                proc = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                                      text=True, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                print(f"perfbench: {binary} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            if args.selftest:
                print("\n".join(lines))
                if proc.returncode != 0:
                    return proc.returncode
                continue
            print(f"git_describe {git_describe()}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                # A failed check still reports its result ("correct": false).
                if lines and lines[-1].startswith("{"):
                    print(lines[-1])
                print(f"perfbench: {binary} exited with {proc.returncode}", file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected_metrics(args.trace):
                print("perfbench: reported metrics differ from BENCHMARK.json",
                      file=sys.stderr)
                return 1
            print(lines[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
