#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/steady.py

Run i of set A, then run i of set B, for each workload in turn, ten runs
per set, each with its own seed (set A uses seeds 1..10, set B 101..110)
and BENCHMARK.json's run length. For every workload and end-to-end metric
it prints each set's median and quartiles, the spread (quartile distance
over the median), and the drift of set B's median from set A's in the
metric's worse direction, against the metric's bound in BENCHMARK.json. A
spread or a drift beyond the bound, or failed-op shares that differ
between sets, is marked FAIL and makes the exit code 1. Prints a markdown
table to stdout.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write("\n".join(lines[-8:]) + "\n")
        sys.exit("steady: %s seed %d exited %d" %
                 (workload, seed, out.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {}  # (set, workload) -> list of result objects
    for i in range(RUNS):
        for s in range(SETS):
            for workload in workloads:
                seed = 100 * s + i + 1
                result = run_once(workload, seed, bench["run_seconds"])
                results.setdefault((s, workload), []).append(result)
                print("set %s run %d %s seed %d done" %
                      ("AB"[s], i + 1, workload, seed), file=sys.stderr)

    ok = True
    print("| workload | metric | set A median [q1, q3] | spread A |"
          " set B median [q1, q3] | spread B | drift | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        shares = []
        for s in range(SETS):
            runs = results[(s, workload)]
            shares.append(sum(r["failed"] for r in runs) /
                          sum(r["attempted"] for r in runs))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells, verdict = [], "ok"
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"]
                          for r in results[(s, workload)]]
                q1, q2, q3, spread = summary(values)
                medians.append(q2)
                cells += ["%.6g [%.6g, %.6g]" % (q2, q1, q3),
                          "%.1f%%" % (100 * spread)]
                if spread > bound:
                    verdict = "FAIL"
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            cells.append("%+.1f%%" % (100 * worse))
            if worse > bound:
                verdict = "FAIL"
            if verdict != "ok":
                ok = False
            print("| %s | %s | %s | %.0f%% | %s |" %
                  (workload, name, " | ".join(cells), 100 * bound, verdict))
        line = "failed-op share per set: " + ", ".join(
            "%.6f" % share for share in shares)
        if len(set(shares)) > 1:
            ok = False
            line += " FAIL"
        print("\n%s: %s\n" % (workload, line))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
