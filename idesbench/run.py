#!/usr/bin/env python3
"""Build and run the IDES benchmark.

    python3 idesbench/run.py --workload design --seed 1 --seconds 15 --trace 0
    python3 idesbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
benchmark package (idesbench/CMakeLists.txt: the library from src/, the
ides_serve daemon and the benchmark program) into .bench_build; later calls rebuild
incrementally. The last line of standard output is the result JSON; build
output goes to standard error. See idesbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "idesbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def build(targets):
    """Configure once, then build `targets`; build output to stderr."""
    for needed in ("src/CMakeLists.txt", "examples/ides_serve.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"idesbench: {needed} not found; run from a checkout")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", PACKAGE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    *targets], stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_benchmark(cmd):
    """Runs the benchmark program in its own process group; kills the group
    on timeout so a daemon it started cannot outlive it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("idesbench: run timed out")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["design", "sweep", "lifecycle", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.self_test:
        build(["idesbench_tests"])
        return subprocess.run([os.path.join(BUILD, "idesbench_tests")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    build(["idesbench", "ides_serve"])
    name = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work_dir = os.path.join(WORK, name)
    trace_file = os.path.join(WORK, "traces", f"{name}.json")
    os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    cmd = [os.path.join(BUILD, "idesbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--serve-binary", os.path.join(BUILD, "ides_serve"),
           "--trace-file", trace_file]
    try:
        code, out = run_benchmark(cmd)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    if code != 0:
        print("\n".join(lines))
        return code
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        print("\n".join(lines[:-1]))
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        print(f"idesbench: metrics differ from BENCHMARK.json "
              f"(missing {missing}, extra {extra})", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
