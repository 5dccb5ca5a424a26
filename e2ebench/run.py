#!/usr/bin/env python3
"""End-to-end benchmark of the Costas solver system.

Builds the program (untimed) into .bench_build/e2ebench and runs one
workload with the benchmark driver:

    python3 e2ebench/run.py --workload paper --seed 1 --trace 0
    python3 e2ebench/run.py --self-test

--seconds defaults to run_seconds in BENCHMARK.json. The last line of
standard output is the result JSON. With --trace 1 it holds every
per-layer metric of BENCHMARK.json; a layer the workload does not exercise
reads 0. Workloads: paper, serve, dist (see e2ebench/README.md).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "e2e_driver", "cas_serve", "cas_run"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("build failed: " + " ".join(cmd))


def complete_layers(result, per_layer):
    """Reports every per-layer metric, in BENCHMARK.json's order."""
    measured = result["metrics"]
    unknown = set(measured) - {m["name"] for m in per_layer}
    if unknown:
        sys.exit("driver reported metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    result["metrics"] = {m["name"]: measured.get(m["name"], {"value": 0, "unit": m["unit"]})
                         for m in per_layer}
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true", help="prove every output check can fail")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    build()
    driver = os.path.join(BUILD, "e2e_driver")
    if args.self_test:
        sys.exit(subprocess.call([driver, "--self-test"]))

    work = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", os.path.join(BUILD, "cas"), "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    # A stop request reaches the driver, which stops its own children.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, _frame: proc.send_signal(signum))
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
                sys.stdout.flush()
            last = line
        code = proc.wait()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0 or last is None:
        if last is not None:
            sys.stdout.write(last)
        sys.exit(code or 1)
    result = json.loads(last)
    if args.trace:
        result = complete_layers(result, bench["per_layer"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
