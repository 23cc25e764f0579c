#!/usr/bin/env python3
"""Perf gate: run the repository benchmark on two trees and judge the second.

    python3 scripts/perf_gate.py BASE HEAD

BASE and HEAD are two source trees of this repository, for instance a pull
request's merge base (extracted with `git archive`) and its head. The gate
copies HEAD's perfbench/ and BENCHMARK.json into BASE, so both sides run the
same benchmark code, and lets perfbench/run.py build each tree in its own
.bench_build/ (CARGO_TARGET_DIR is removed from the children's environment:
run.py joins it onto the tree path, so an absolute value would give both
trees one build directory and compare a binary with itself). It then runs
every BENCHMARK.json workload once per side with --trace 1 at seed 1, and as
PAIRS base/head pairs with --trace 0 on seeds 1..PAIRS, the side that goes
first alternating by pair. Every run lasts --seconds SECONDS.

HEAD fails when
  1. a head run is not correct, or a larger share of its attempted packets
     fails than in its base pair;
  2. a simulated metric (EXACT_SIMULATED) differs on any seed, or a traced
     work count (EXACT_COUNTS) differs. HEAD's CHANGES.md may exempt some
     of these metrics with a line it adds: the text after MARKER starts
     with a comma-separated list of their names, as in
     "Behaviour change: sim.reroutes, avg_hops. Why they move ...". A named
     simulated metric is judged against its bound instead, like host time;
     a named work count, which has no bound, is only reported. A MARKER
     followed by anything else exempts every one of them;
  3. the median of a host-time metric's per-pair head/base ratios is worse
     than its BENCHMARK.json bound, in the metric's "better" direction
     (every other end-to-end metric of BENCHMARK.json is host time).
     Pair ratios, not a ratio of the two sides' medians: the runs of a pair
     go back to back, so the host's drift mostly cancels;
  4. BASE does not build against HEAD's perfbench/: a change to the
     benchmark lands on its own, before the code it measures.
A metric missing from a summary fails too.

Output: each run's JSON summary as it finishes, then one row per (workload,
metric) with the base and head medians, the median pair ratio, the min-max
pair ratio and the verdict. Exit status 0 when HEAD passes, 1 when it fails,
2 on a usage error.
"""
import filecmp
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

PAIRS = 5
SECONDS = 8
TRACE_SEED = 1
MARKER = "Behaviour change:"
EXACT_SIMULATED = ("delivery_ratio", "avg_latency_cycles",
                   "p99_latency_cycles", "avg_hops")
EXACT_COUNTS = ("routing.plan_cache.lookups", "routing.plan_cache.misses",
                "routing.plan_cache.stale", "fault.events", "sim.reroutes",
                "sim.parked_retries", "sim.service_ops", "sim.hops")
EXACT = EXACT_SIMULATED + EXACT_COUNTS
# One exact-rule metric name, bare or in backticks, not running on into a
# longer name.
_EXACT_NAME = re.compile(
    r"\s*(`?)(" + "|".join(re.escape(n) for n in sorted(EXACT, key=len,
                                                       reverse=True))
    + r")\1(?![\w.]*\w)")
_LIST_COMMA = re.compile(r"\s*,")


def pair_ratio(base, head):
    """head / base, with equal values (zeros included) at exactly 1."""
    if head == base:
        return 1.0
    return head / base if base != 0 else math.copysign(math.inf, head)


def worse_than_bound(ratio, metric):
    """True when `ratio` (head / base) is worse than the metric's bound."""
    if metric["better"] == "higher":
        return ratio < 1.0 - metric["bound"]
    return ratio > 1.0 + metric["bound"]


def limit_text(metric):
    if metric["better"] == "higher":
        return f">= {1.0 - metric['bound']:.2f}"
    return f"<= {1.0 + metric['bound']:.2f}"


def judge(spec, pairs, traces, behaviour_change):
    """Applies the gate's rules to finished runs.

    spec is BENCHMARK.json as parsed. pairs maps each workload to its
    (base, head) pairs of perfbench JSON summaries in seed order, traces
    each workload to its (base, head) --trace 1 summaries; a run that
    printed no summary is None. behaviour_change is what HEAD declares
    (see declares_behaviour_change): True exempts every exact-rule metric,
    a collection of names exempts those, False none. Returns (rows,
    failures): rows are (workload, metric, base median, head median,
    median pair ratio, min pair ratio, max pair ratio, verdict) tuples,
    failures a list of messages, empty when HEAD passes.
    """
    rows = []
    failures = []

    def exact(name):
        if behaviour_change is True:
            return False
        return not (behaviour_change and name in behaviour_change)

    def check_runs(workload, where, base, head):
        if base is None or head is None:
            side = "base" if base is None else "head"
            failures.append(f"{workload} {where}: {side} run printed no "
                            "summary")
            return False
        if head.get("correct") is not True:
            failures.append(f"{workload} {where}: head run not correct")
        shares = [s.get("failed", 0) / max(s.get("attempted", 0), 1)
                  for s in (base, head)]
        if shares[1] > shares[0]:
            failures.append(
                f"{workload} {where}: head failed {head.get('failed')} of "
                f"{head.get('attempted')} packets, base {base.get('failed')} "
                f"of {base.get('attempted')}")
        return True

    def values(workload, metric, runs, where):
        """(base values, head values), or None when a summary lacks one."""
        found = ([], [])
        for (base, head), label in zip(runs, where):
            for side, summary, out in (("base", base, found[0]),
                                       ("head", head, found[1])):
                entry = summary.get("metrics", {}).get(metric)
                if not isinstance(entry, dict) or not isinstance(
                        entry.get("value"), (int, float)):
                    failures.append(f"{workload} {label}: {side} summary "
                                    f"lacks {metric}")
                    return None
                out.append(entry["value"])
        return found

    def row(workload, name, base_values, head_values, verdict):
        ratios = [pair_ratio(b, h) for b, h in zip(base_values, head_values)]
        rows.append((workload, name, statistics.median(base_values),
                     statistics.median(head_values),
                     statistics.median(ratios), min(ratios), max(ratios),
                     verdict))

    def judge_exact(workload, metric, base_values, head_values, seeds):
        differs = [(s, b, h) for s, b, h in
                   zip(seeds, base_values, head_values) if b != h]
        for seed, b, h in differs:
            failures.append(f"{workload}: {metric} differs on {seed} "
                            f"(base {b}, head {h})")
        row(workload, metric, base_values, head_values,
            "FAIL (exact)" if differs else "ok (exact)")

    def judge_bound(workload, metric, base_values, head_values):
        name = metric["name"]
        verdict = f"ok ({limit_text(metric)})"
        median = statistics.median(
            [pair_ratio(b, h) for b, h in zip(base_values, head_values)])
        if worse_than_bound(median, metric):
            verdict = f"FAIL ({limit_text(metric)})"
            failures.append(
                f"{workload}: {name} median pair ratio {median:.3f} is worse "
                f"than its bound ({limit_text(metric)}, {metric['better']} "
                "is better)")
        row(workload, name, base_values, head_values, verdict)

    for workload in [w["name"] for w in spec["workloads"]]:
        runs = pairs.get(workload, [])
        seeds = [f"seed {i}" for i in range(1, len(runs) + 1)]
        if not runs:
            failures.append(f"{workload}: no untraced pairs ran")
        complete = [check_runs(workload, s, b, h)
                    for s, (b, h) in zip(seeds, runs)]
        if runs and all(complete):
            for metric in spec["end_to_end"]:
                found = values(workload, metric["name"], runs, seeds)
                if found is None:
                    continue
                if metric["name"] in EXACT_SIMULATED and exact(metric["name"]):
                    judge_exact(workload, metric["name"], *found, seeds)
                else:
                    judge_bound(workload, metric, *found)

        where = f"trace seed {TRACE_SEED}"
        trace = traces.get(workload, (None, None))
        if not check_runs(workload, where, *trace):
            continue
        for metric in spec["per_layer"]:
            found = values(workload, metric["name"], [trace], [where])
            if found is None:
                continue
            if metric["name"] in EXACT_COUNTS and exact(metric["name"]):
                judge_exact(workload, metric["name"], *found, [where])
            else:
                row(workload, metric["name"], *found, "reported")
    return rows, failures


def exempted_names(text):
    """The exact-rule metric names a comma-separated list at the start of
    `text` gives, as a frozenset; empty when `text` does not start with
    one."""
    names = []
    pos = 0
    while True:
        name = _EXACT_NAME.match(text, pos)
        if name is None:
            break
        names.append(name.group(2))
        comma = _LIST_COMMA.match(text, name.end())
        if comma is None:
            break
        pos = comma.end()
    return frozenset(names)


def declares_behaviour_change(base, head):
    """What HEAD's CHANGES.md declares in the lines containing MARKER that
    BASE's CHANGES.md does not have: False without such a line, the
    frozenset of exempted names when every MARKER in them is followed by a
    list of exact-rule metric names, True (every exact rule) otherwise."""
    def lines(tree):
        try:
            with open(os.path.join(tree, "CHANGES.md")) as f:
                return set(f.read().splitlines())
        except FileNotFoundError:
            return set()
    named = set()
    found = False
    for line in lines(head) - lines(base):
        for after in line.split(MARKER)[1:]:
            found = True
            names = exempted_names(after)
            if not names:
                return True
            named |= names
    return frozenset(named) if found else False


def give_head_benchmark(head, base):
    """Copies HEAD's perfbench/ and BENCHMARK.json over BASE's. A file that
    already matches is left alone, so a kept BASE build stays warm; one
    that differs gets a fresh mtime, so the build sees it changed."""
    def copy_if_changed(src, dst):
        if not (os.path.isfile(dst) and filecmp.cmp(src, dst, shallow=False)):
            shutil.copy(src, dst)

    shutil.copytree(os.path.join(head, "perfbench"),
                    os.path.join(base, "perfbench"), dirs_exist_ok=True,
                    copy_function=copy_if_changed)
    copy_if_changed(os.path.join(head, "BENCHMARK.json"),
                    os.path.join(base, "BENCHMARK.json"))


def run_bench(tree, workload, seed, trace):
    """One perfbench/run.py process in `tree`: (summary or None, exit
    status, stderr, seconds)."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                         text=True)
    elapsed = time.monotonic() - t0
    summary = None
    lines = out.stdout.strip().splitlines()
    if lines:
        try:
            summary = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return summary, out.returncode, out.stderr, elapsed


def print_rows(rows):
    def num(v):
        return f"{v:.6g}"
    header = ("workload", "metric", "base", "head", "ratio", "pair ratios",
              "verdict")
    table = [header] + [
        (w, m, num(b), num(h), f"{r:.3f}", f"{lo:.3f}-{hi:.3f}", v)
        for w, m, b, h, r, lo, hi, v in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)).rstrip())


class BuildFailed(Exception):
    def __init__(self, side):
        super().__init__(side)
        self.side = side


def main(argv):
    if len(argv) != 3 or any(a.startswith("-") for a in argv[1:]):
        print("usage: perf_gate.py BASE HEAD", file=sys.stderr)
        return 2
    base, head = (os.path.realpath(p) for p in argv[1:])
    if base == head:
        print("perf_gate: BASE and HEAD are the same tree", file=sys.stderr)
        return 2
    for tree in (base, head):
        if not os.path.isfile(os.path.join(tree, "CMakeLists.txt")):
            print(f"perf_gate: {tree} is not a source tree", file=sys.stderr)
            return 2
    if not os.path.isfile(os.path.join(head, "perfbench", "run.py")):
        print(f"perf_gate: {head} has no perfbench/", file=sys.stderr)
        return 2
    with open(os.path.join(head, "BENCHMARK.json")) as f:
        spec = json.load(f)
    give_head_benchmark(head, base)
    behaviour_change = declares_behaviour_change(base, head)
    print(f"perf_gate: base {base}, head {head}, {os.cpu_count()} cores")
    if behaviour_change is True:
        print(f"perf_gate: HEAD's CHANGES.md adds a '{MARKER}' line: "
              "simulated metrics are judged against their bounds and work "
              "counts are reported only")
    elif behaviour_change:
        print(f"perf_gate: HEAD's CHANGES.md adds a '{MARKER}' line "
              f"naming {', '.join(sorted(behaviour_change))}: those are "
              "judged against their bounds (simulated metrics) or reported "
              "only (work counts); every other exact rule stays on")

    t0 = time.monotonic()
    sides = {"base": base, "head": head}

    def run(side, workload, seed, trace):
        summary, status, stderr, elapsed = run_bench(sides[side], workload,
                                                     seed, trace)
        print(f"{side} {workload} seed {seed} trace {trace}: exit {status}, "
              f"{elapsed:.1f} s: {json.dumps(summary)}", flush=True)
        if summary is None:
            print(stderr.strip()[-2000:], flush=True)
            if status == 2 and "build failed" in stderr:
                raise BuildFailed(side)
        return summary

    workloads = [w["name"] for w in spec["workloads"]]
    traces = {}
    pairs = {w: [] for w in workloads}
    try:
        # The traced runs go first: the first run in each tree builds it.
        for i, workload in enumerate(workloads):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            got = {side: run(side, workload, TRACE_SEED, 1) for side in order}
            traces[workload] = (got["base"], got["head"])
        for workload in workloads:
            for seed in range(1, PAIRS + 1):
                order = ("base", "head") if seed % 2 == 1 else ("head", "base")
                got = {side: run(side, workload, seed, 0) for side in order}
                pairs[workload].append((got["base"], got["head"]))
    except BuildFailed as e:
        if e.side == "base":
            print("perf_gate: FAIL: BASE does not build against HEAD's "
                  "perfbench/ and BENCHMARK.json; a change to the benchmark "
                  "lands on its own, before the code it measures")
        else:
            print("perf_gate: FAIL: HEAD does not build")
        return 1

    rows, failures = judge(spec, pairs, traces, behaviour_change)
    print()
    print_rows(rows)
    print()
    for failure in failures:
        print("FAIL:", failure)
    runs = 2 * len(workloads) * (PAIRS + 1)
    print(f"perf_gate: {'FAIL' if failures else 'PASS'} ({runs} runs, "
          f"{time.monotonic() - t0:.0f} s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
