#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Runs every workload of BENCHMARK.json in gcube_bench's short mode, untraced
and traced, and checks that each run is correct, that its last line is the
JSON summary with exactly the expected keys, that it prints the workload's
name, and that the metric names and units it prints are exactly the ones
BENCHMARK.json declares for that mode.
Also checks that every declared name fits [A-Za-z0-9_.-]+ and that an
unknown workload is refused without a summary. Run from the repository
root (takes about a minute, most of it the first build):

    python3 perfbench/selftest.py
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)


def check_run(workload, trace, declared):
    out = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit {out.returncode}: {out.stderr.strip()[-400:]}"]
    lines = out.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last line is not a JSON summary"]
    errors = []
    if f"workload = {workload}  (seed 1)" not in lines:
        errors.append(f"{where}: workload name not printed")
    if set(summary) != SUMMARY_KEYS:
        errors.append(f"{where}: summary keys {sorted(summary)}")
    if summary.get("correct") is not True:
        errors.append(f"{where}: correct is {summary.get('correct')}")
    attempted, failed = summary.get("attempted"), summary.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1):
        errors.append(f"{where}: attempted is {attempted!r}")
    if not isinstance(failed, int):
        errors.append(f"{where}: failed is {failed!r}")
    printed = {name: m.get("unit") for name, m in summary.get("metrics", {}).items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(printed) & set(declared)
                       if printed[n] != declared[n])
        errors.append(f"{where}: missing {missing}, undeclared {extra}, "
                      f"unit mismatch {units}")
    for name, m in summary.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{where}: {name} value {m.get('value')!r}")
        if not any(line.startswith(f"{name} = ") for line in lines[:-1]):
            errors.append(f"{where}: {name} not printed with its unit")
    return errors


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    errors = [f"bad name {n!r}" for n in
              workloads + list(declared[0]) + list(declared[1])
              if not NAME.fullmatch(n)]
    for workload in workloads:
        for trace in (0, 1):
            errors += check_run(workload, trace, declared[trace])
    bogus = run("no_such_workload", 0)
    if bogus.returncode == 0 or bogus.stdout.strip():
        errors.append("an unknown workload was not refused")
    for e in errors:
        print("FAIL:", e)
    print("selftest:", "FAILED" if errors else "ok",
          f"({len(workloads)} workloads x 2 modes)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
