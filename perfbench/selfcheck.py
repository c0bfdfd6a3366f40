#!/usr/bin/env python3
"""Tiny-size self-check of the release benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json on tiny inputs, untraced and traced,
and asserts that each run exits 0, reports correct with no failures, emits
every named metric with its unit, and (traced) prints a ledger for each
path. Takes about a minute and a half from a clean checkout, build
included.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines, json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, lines, result = run(workload, trace)
            where = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d" % (where, code))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: checksum mismatch or failed operations "
                                "(%d of %d)" % (where, result["failed"],
                                                result["attempted"]))
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append("%s: metric %s missing or mis-united"
                                    % (where, metric["name"]))
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            if extra:
                problems.append("%s: unlisted metrics %s" % (where, sorted(extra)))
            if trace and not any(l.startswith("ledger ") for l in lines):
                problems.append("%s: no ledger printed" % where)
            print("%-22s ok=%s attempted=%d" % (where, code == 0,
                                                result["attempted"]))
    for p in problems:
        print("FAIL " + p)
    print("self-check %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
