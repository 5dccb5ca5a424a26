#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

Runs every workload repeatedly, one seed per round and the workload order
rotated each round, then reports for each end-to-end metric its median,
quartiles and spread (inter-quartile distance / median) against the bound
in BENCHMARK.json. A metric is steady when its spread stays below a third
of its bound, and within its bound when below the bound itself. With
--traced N it also makes N traced runs per workload and reports the
per-layer medians and the tracing overhead (traced against untraced
end-to-end medians). The report is written to .bench_out/steady.json; the
exit code is 0 only when every metric on every workload is steady.

    python3 e2ebench/steady.py --runs 10 --seed 101 --traced 2
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, expected):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if set(result["metrics"]) != expected:
        sys.exit("%s seed %d: metrics %s, expected %s" % (workload, seed, sorted(result["metrics"]),
                                                           sorted(expected)))
    traced = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "traced":
            traced[parts[1]] = float(parts[2])
    return result, traced, wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first round")
    ap.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    seconds = bench["run_seconds"]

    runs = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            result, _, wall = run_once(w, args.seed + r, seconds, 0, set(e2e))
            runs[w].append(result)
            print("%-6s seed %-5d %5.1fs correct=%s attempted=%d failed=%d %s" % (
                w, args.seed + r, wall, result["correct"], result["attempted"], result["failed"],
                " ".join("%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)

    traced = {w: [] for w in workloads}
    for r in range(args.traced):
        for w in workloads:
            result, tr, wall = run_once(w, args.seed + args.runs + r, seconds, 1, layer_names)
            traced[w].append((result, tr))
            print("%-6s seed %-5d %5.1fs traced correct=%s" % (w, args.seed + args.runs + r, wall,
                                                               result["correct"]), flush=True)

    report = {"seconds": seconds, "workloads": {}}
    steady = True
    for w in workloads:
        rows = {}
        shares = sorted({r["failed"] / r["attempted"] for r in runs[w]})
        correct = all(r["correct"] for r in runs[w] + [t[0] for t in traced[w]])
        print("\n%s: correct=%s failed shares=%s" % (w, correct, shares))
        print("  %-12s %12s %12s %12s %8s %6s  %s" % ("metric", "median", "q1", "q3", "spread",
                                                       "bound", "verdict"))
        for name, spec in e2e.items():
            if len(runs[w]) < 2:
                continue
            s = summary([r["metrics"][name]["value"] for r in runs[w]])
            if s["spread"] < spec["bound"] / 3:
                verdict = "steady"
            else:
                verdict = "within bound" if s["spread"] < spec["bound"] else "OUT OF BOUND"
                steady = False
            s["verdict"] = verdict
            if traced[w]:
                t = statistics.median(tr[name] for _, tr in traced[w])
                s["traced_median"] = t
                s["trace_overhead"] = (t - s["median"]) / s["median"]
            rows[name] = s
            print("  %-12s %12.6g %12.6g %12.6g %8.4f %6.3f  %s%s" % (
                name, s["median"], s["q1"], s["q3"], s["spread"], spec["bound"], verdict,
                "  traced %+.1f%%" % (100 * s["trace_overhead"]) if "trace_overhead" in s else ""))
        layers = {}
        if traced[w]:
            for name in traced[w][0][0]["metrics"]:
                layers[name] = statistics.median(t[0]["metrics"][name]["value"] for t in traced[w])
            print("  per-layer medians over %d traced run(s):" % len(traced[w]))
            for name, v in layers.items():
                print("    %-34s %.6g %s" % (name, v, traced[w][0][0]["metrics"][name]["unit"]))
        report["workloads"][w] = {"correct": correct, "failed_shares": shares, "end_to_end": rows,
                                  "per_layer_medians": layers}
    out = os.path.join(ROOT, ".bench_out", "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("\nwrote %s; %s" % (out, "all steady" if steady else "NOT all steady"))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
