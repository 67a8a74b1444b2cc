#!/usr/bin/env python3
"""Steadiness study: runs the benchmark on several seeds per workload and
reports, for each end-to-end metric, the quartile spread (Q3 - Q1) as a
share of the median, next to the metric's bound from BENCHMARK.json.

Run from the repository root after building the benchmark once:

    python3 recvbench/steadiness.py --runs 10 --set a
    python3 recvbench/steadiness.py --runs 10 --set b --first-seed 101

Each run's metadata and result are appended to --out (JSON lines) under
the label --set, so a study can be resumed or re-analysed with
--analyse-only. With two or more sets in the file, each later set's
medians are compared with the first set's: "worse" is the share by which
a median moved in the metric's bad direction. Runs whose host
fingerprints differ are not compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def run_one(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    started = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    lines = out.stdout.strip().splitlines()
    meta = next(json.loads(l)["meta"] for l in lines if l.startswith('{"meta"'))
    return {"meta": meta, "result": json.loads(lines[-1]),
            "run_s": time.monotonic() - started}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--set", default="a")
    parser.add_argument("--out", default=".bench_build/steadiness.jsonl")
    parser.add_argument("--analyse-only", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    if not args.analyse_only:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        for workload in workloads:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                rec = run_one(bench, workload, seed)
                rec.update(workload=workload, seed=seed, set=args.set)
                with open(args.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")
                ok = "correct" if rec["result"]["correct"] else "INCORRECT"
                print(f"{args.set} {workload} {seed} {ok} {rec['run_s']:.1f} s", file=sys.stderr)

    groups = {}
    with open(args.out) as f:
        for line in f:
            rec = json.loads(line)
            key = (rec["workload"], rec["meta"]["host_fingerprint"])
            groups.setdefault(key, {}).setdefault(rec["set"], []).append(rec)
    for (workload, fingerprint), sets in sorted(groups.items()):
        first_medians = None
        for label, recs in sorted(sets.items()):
            results = [r["result"] for r in recs]
            run_s = [r["run_s"] for r in recs]
            print(f"{workload} set {label} host {fingerprint}: {len(results)} runs, "
                  f"all correct: {all(r['correct'] for r in results)}, "
                  f"run time {min(run_s):.0f}-{max(run_s):.0f} s")
            medians = {}
            for name, m in metrics.items():
                values = [r["metrics"][name]["value"] for r in results]
                if len(values) < 2:
                    continue
                s, medians[name] = spread(values)
                note = "" if s < m["bound"] / 3 else "  <-- spread >= bound/3"
                line = (f"  {name:22s} median {medians[name]:12.4f}  spread {s:7.4f}"
                        f"  bound {m['bound']:5.2f}")
                if first_medians is not None and first_medians.get(name):
                    sign = 1 if m["better"] == "lower" else -1
                    worse = sign * (medians[name] - first_medians[name]) / first_medians[name]
                    line += f"  worse {worse:+.4f}"
                    if worse > m["bound"]:
                        note += "  <-- median worse than bound"
                print(line + note)
            if first_medians is None:
                first_medians = medians


if __name__ == "__main__":
    main()
