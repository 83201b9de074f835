#!/usr/bin/env python3
"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Runs every workload in one JVM, untraced, traced, and each again with one
result deliberately corrupted. Checks that an untraced run prints exactly
the end-to-end metrics of BENCHMARK.json and a traced run exactly its
per-layer metrics, each with its unit; that no operation fails on correct
results; and that a corrupted result is counted as a failed operation.
Exits 0 when every check holds.
"""
import json
import os
import sys

import run

MODES = ("untraced", "traced", "corrupt", "corrupt-traced")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    lines = run.run_jvm(run.classpath(), ["--selftest"], run.RUN_TIMEOUT_S * 2)
    results = {}
    for line in lines:
        if line.startswith("selftest "):
            _, workload, mode, payload = line.split(" ", 3)
            results[(workload, mode)] = run.parse_result(payload)
        else:
            print(line)
    problems = []
    for workload in run.WORKLOADS:
        for mode in MODES:
            r = results.get((workload, mode))
            if r is None:
                problems.append("%s %s: no result" % (workload, mode))
                continue
            traced = mode in ("traced", "corrupt-traced")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want[traced]:
                missing = sorted(set(want[traced]) - set(got))
                extra = sorted(set(got) - set(want[traced]))
                units = sorted(k for k in got if k in want[traced] and got[k] != want[traced][k])
                problems.append("%s %s: missing %s, unexpected %s, wrong unit %s"
                                % (workload, mode, missing, extra, units))
            if not traced:
                zero = [k for k, v in r["metrics"].items() if v["value"] == 0]
                if zero:
                    problems.append("%s %s: end-to-end metrics at 0: %s" % (workload, mode, zero))
            if mode.startswith("corrupt"):
                if r["failed"] < 1 or r["correct"]:
                    problems.append("%s %s: corrupted result not counted as failed" % (workload, mode))
            elif r["failed"] != 0 or not r["correct"]:
                problems.append("%s %s: %d of %d operations failed"
                                % (workload, mode, r["failed"], r["attempted"]))
            print("%-16s %-15s attempted=%-5d failed=%d" % (workload, mode, r["attempted"], r["failed"]))
    for p in problems:
        print("FAIL " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
