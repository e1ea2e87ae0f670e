#!/usr/bin/env python3
"""Performance gate: paired perfbench runs of two checkouts.

    python3 tools/perf_gate.py BASE_DIR HEAD_DIR

BASE_DIR is the parent commit's checkout, HEAD_DIR the change's. For each
workload in BASE_DIR's BENCHMARK.json the gate runs 5 pairs of the
benchmark command (`perfbench/run.py --trace 0` at the declared run
length), one run in each checkout. Both runs of a pair use the same seed;
which side runs first alternates from pair to pair. Each end-to-end
metric's median is then compared with the parent's against the metric's
bound.

Prints a markdown table to stdout (progress goes to stderr) and exits 1
when:
  - a run exits non-zero, or its last stdout line is not a result;
  - the change's failed-op share on a workload exceeds the parent's;
  - a metric's median is worse than the parent's by more than its bound.
A metric whose parent runs spread (quartile distance over median) wider
than its bound is reported `unresolved` rather than failed: five runs of
the parent cannot tell such a move from noise. The spread is set aside
when the runs do not overlap: the metric reads `ok` when every run of the
change is better than every run of the parent, and `FAIL` when every run
is worse and the median is worse by more than the bound.
"""
import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SIDES = ("base", "head")


def fail(message):
    sys.exit("perf_gate: " + message)


def host_line():
    mhz = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("cpu MHz"):
                    mhz = "%.0f" % float(line.split(":")[1])
                    break
    except OSError:
        pass
    return "nproc %d, %s MHz" % (os.cpu_count() or 0, mhz)


def run_side(side, root, bench, workload, seed):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, check=False)
    where = "%s (%s) %s seed %d" % (side, root, workload, seed)
    lines = out.stdout.strip().splitlines()
    tail = "\n".join((out.stdout + out.stderr).strip().splitlines()[-8:])
    if out.returncode != 0:
        sys.stderr.write(tail + "\n")
        fail("%s exited %d" % (where, out.returncode))
    try:
        result = json.loads(lines[-1])
        names = [m["name"] for m in bench["end_to_end"]]
        if not all(name in result["metrics"] for name in names) or \
                result["attempted"] <= 0:
            raise ValueError
    except (IndexError, ValueError, TypeError, KeyError):
        sys.stderr.write(tail + "\n")
        fail("%s: last stdout line is not a result" % where)
    return result


def verdict(metric, base, head):
    """(relative change in the worse direction, verdict) for one metric."""
    lower = metric["better"] == "lower"
    q1, median, q3 = statistics.quantiles(base, n=4)
    head_median = statistics.median(head)
    change = (head_median - median) / median
    worse = change if lower else -change
    if lower:
        all_better, all_worse = max(head) < min(base), min(head) > max(base)
    else:
        all_better, all_worse = min(head) > max(base), max(head) < min(base)
    bound = metric["bound"]
    if (q3 - q1) / median > bound and not (all_better or all_worse):
        return worse, "unresolved"
    return worse, "FAIL" if worse > bound else "ok"


def main():
    if len(sys.argv) != 3:
        sys.stderr.write(__doc__)
        sys.exit(2)
    roots = dict(zip(SIDES, (os.path.abspath(d) for d in sys.argv[1:])))
    with open(os.path.join(roots["base"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]

    results = {}  # (side, workload) -> [result per pair]
    for pair in range(PAIRS):
        seed = pair + 1
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_side(side, roots[side], bench, workload, seed)
                results.setdefault((side, workload), []).append(result)
            print("pair %d %s seed %d done (%s first)" %
                  (pair + 1, workload, seed, order[0]), file=sys.stderr)

    failures = []
    print("Host: %s. %d pairs, %s s runs; base %s, head %s.\n" %
          (host_line(), PAIRS, bench["run_seconds"], roots["base"],
           roots["head"]))
    print("| workload | metric | base median [q1, q3] | head median [q1, q3]"
          " | worse by | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    shares = {}
    for workload in workloads:
        for side in SIDES:
            runs = results[(side, workload)]
            shares[side] = (sum(r["failed"] for r in runs) /
                            sum(r["attempted"] for r in runs))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"]
                             for r in results[(side, workload)]]
                      for side in SIDES}
            worse, word = verdict(metric, values["base"], values["head"])
            if word == "FAIL":
                failures.append("%s %s" % (workload, name))
            cells = ["%.6g [%.6g, %.6g]" % (q2, q1, q3) for q1, q2, q3 in
                     (statistics.quantiles(values[side], n=4)
                      for side in SIDES)]
            print("| %s | %s | %s | %+.1f%% | %.0f%% | %s |" %
                  (workload, name, " | ".join(cells), 100 * worse,
                   100 * metric["bound"], word))
        word = "FAIL" if shares["head"] > shares["base"] else "ok"
        if word == "FAIL":
            failures.append("%s failed-op share" % workload)
        print("| %s | failed-op share | %.6f | %.6f | | | %s |" %
              (workload, shares["base"], shares["head"], word))
    if failures:
        fail("worse than the parent: " + ", ".join(failures))


if __name__ == "__main__":
    main()
