#!/usr/bin/env python3
"""Tests of the perf gate's decision rules (scripts/perf_gate.py).

judge() gets hand-made perfbench summaries carrying the metric names of the
repository's BENCHMARK.json and is judged with that file's bounds and
directions. Nothing is built or run; the whole file takes well under a
second:

    python3 tests/perf_gate_test.py
"""
import copy
import importlib.util
import json
import os
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(REPO, "scripts", "perf_gate.py"))
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def summary(metrics):
    """A correct run's summary with a distinct value for every metric."""
    return {"correct": True, "attempted": 100000, "failed": 0,
            "metrics": {m["name"]: {"value": 1000.0 + 17 * i,
                                    "unit": m["unit"]}
                        for i, m in enumerate(metrics)}}


def identical_runs():
    """(pairs, traces) where head reproduces base exactly."""
    untraced = summary(BENCH["end_to_end"])
    traced = summary(BENCH["per_layer"])
    pairs = {w: [(copy.deepcopy(untraced), copy.deepcopy(untraced))
                 for _ in range(gate.PAIRS)] for w in WORKLOADS}
    traces = {w: (copy.deepcopy(traced), copy.deepcopy(traced))
              for w in WORKLOADS}
    return pairs, traces


def scale_head(pairs, workload, metric, factors):
    """Multiplies the head's `metric` on each pair by its factor."""
    for (base, head), factor in zip(pairs[workload], factors):
        head["metrics"][metric]["value"] = (
            base["metrics"][metric]["value"] * factor)


def set_values(pairs, workload, metric, base, head):
    """Sets `metric` on each pair to the given base and head values."""
    for (b, h), bv, hv in zip(pairs[workload], base, head):
        b["metrics"][metric]["value"] = bv
        h["metrics"][metric]["value"] = hv


def failures(pairs, traces, behaviour_change=False, spec=BENCH):
    return gate.judge(spec, pairs, traces, behaviour_change)[1]


class PerfGateTest(unittest.TestCase):
    def assertFailsNaming(self, found, *words):
        self.assertTrue(found, "expected the gate to fail")
        self.assertTrue(any(all(w in f for w in words) for f in found),
                        f"no failure names {words}: {found}")

    def test_identical_summaries_pass(self):
        pairs, traces = identical_runs()
        rows, found = gate.judge(BENCH, pairs, traces, False)
        self.assertEqual(found, [])
        per_workload = len(BENCH["end_to_end"]) + len(BENCH["per_layer"])
        self.assertEqual(len(rows), len(WORKLOADS) * per_workload)
        self.assertTrue(all(row[4] == 1.0 for row in rows))

    def test_throughput_down_by_30_percent_fails_naming_workload_and_metric(
            self):
        pairs, traces = identical_runs()
        scale_head(pairs, "churn_ftgcr", "pkts_per_s",
                   [0.68, 0.72, 0.70, 0.74, 0.69])
        found = failures(pairs, traces)
        self.assertEqual(len(found), 1, found)
        self.assertFailsNaming(found, "churn_ftgcr", "pkts_per_s")

    def test_throughput_down_by_10_percent_passes(self):
        pairs, traces = identical_runs()
        scale_head(pairs, "churn_ftgcr", "pkts_per_s",
                   [0.88, 0.92, 0.90, 0.87, 0.93])
        self.assertEqual(failures(pairs, traces), [])

    def test_judged_on_the_median_pair_ratio(self):
        # The host slows by 40 % during pair 2. Two pairs straddle the
        # slowdown, but the median pair ratio stays near 1, while the
        # ratio of the two sides' medians would read 0.6.
        pairs, traces = identical_runs()
        set_values(pairs, "static_ftgcr", "warm_pkts_per_s",
                   base=[1.00e6, 1.00e6, 1.00e6, 0.60e6, 0.60e6],
                   head=[0.98e6, 0.60e6, 0.60e6, 0.59e6, 0.59e6])
        self.assertEqual(failures(pairs, traces), [])

    def test_work_count_off_by_one_fails_naming_it(self):
        pairs, traces = identical_runs()
        traces["static_ftgcr"][1]["metrics"]["sim.reroutes"]["value"] += 1
        found = failures(pairs, traces)
        self.assertEqual(len(found), 1, found)
        self.assertFailsNaming(found, "static_ftgcr", "sim.reroutes")

    def test_simulated_metric_differing_on_one_seed_fails(self):
        pairs, traces = identical_runs()
        scale_head(pairs, "faultfree_ffgcr_t4", "avg_hops",
                   [1.0, 1.0, 1.0, 1.001, 1.0])
        found = failures(pairs, traces)
        self.assertEqual(len(found), 1, found)
        self.assertFailsNaming(found, "faultfree_ffgcr_t4", "avg_hops",
                               "seed 4")

    def test_behaviour_change_swaps_the_exact_rule_for_the_bound(self):
        pairs, traces = identical_runs()
        # Inside avg_hops' 0.03 bound, and one work count moved.
        scale_head(pairs, "static_ftgcr", "avg_hops", [1.01] * gate.PAIRS)
        traces["static_ftgcr"][1]["metrics"]["sim.reroutes"]["value"] += 1
        exact = failures(pairs, traces)
        self.assertFailsNaming(exact, "avg_hops")
        self.assertFailsNaming(exact, "sim.reroutes")
        self.assertEqual(failures(pairs, traces, behaviour_change=True), [])
        # Beyond the bound the simulated metric fails again.
        scale_head(pairs, "static_ftgcr", "avg_hops", [1.05] * gate.PAIRS)
        found = failures(pairs, traces, behaviour_change=True)
        self.assertEqual(len(found), 1, found)
        self.assertFailsNaming(found, "static_ftgcr", "avg_hops", "bound")

    def test_incorrect_head_run_fails(self):
        pairs, traces = identical_runs()
        pairs["static_ftgcr"][2][1]["correct"] = False
        self.assertFailsNaming(failures(pairs, traces), "static_ftgcr",
                               "seed 3", "not correct")
        pairs, traces = identical_runs()
        traces["churn_ftgcr"][1]["correct"] = False
        self.assertFailsNaming(failures(pairs, traces), "churn_ftgcr",
                               "trace", "not correct")

    def test_larger_failed_share_fails(self):
        pairs, traces = identical_runs()
        pairs["churn_ftgcr"][0][1]["failed"] = 3
        self.assertFailsNaming(failures(pairs, traces), "churn_ftgcr",
                               "seed 1", "failed 3")
        # The same share as the base pair passes.
        pairs["churn_ftgcr"][0][0]["failed"] = 3
        self.assertEqual(failures(pairs, traces), [])

    def test_missing_metric_fails(self):
        pairs, traces = identical_runs()
        del pairs["static_ftgcr"][4][1]["metrics"]["warm_pkts_per_s"]
        self.assertFailsNaming(failures(pairs, traces), "static_ftgcr",
                               "warm_pkts_per_s")
        pairs, traces = identical_runs()
        del traces["churn_ftgcr"][0]["metrics"]["routing.plan_cache.stale"]
        self.assertFailsNaming(failures(pairs, traces), "churn_ftgcr",
                               "routing.plan_cache.stale")

    def test_run_without_summary_fails(self):
        pairs, traces = identical_runs()
        pairs["static_ftgcr"][1] = (pairs["static_ftgcr"][1][0], None)
        self.assertFailsNaming(failures(pairs, traces), "static_ftgcr",
                               "seed 2", "no summary")

    def test_bounds_and_directions_come_from_benchmark_json(self):
        pairs, traces = identical_runs()
        scale_head(pairs, "static_ftgcr", "wall_s", [1.3] * gate.PAIRS)
        self.assertFailsNaming(failures(pairs, traces), "static_ftgcr",
                               "wall_s")
        # A looser bound in the spec lets the same runs pass.
        loose = copy.deepcopy(BENCH)
        next(m for m in loose["end_to_end"]
             if m["name"] == "wall_s")["bound"] = 0.5
        self.assertEqual(failures(pairs, traces, spec=loose), [])
        # Lower is better for wall_s: 30 % down passes.
        scale_head(pairs, "static_ftgcr", "wall_s", [0.7] * gate.PAIRS)
        self.assertEqual(failures(pairs, traces), [])

    def test_behaviour_change_is_a_marker_line_the_head_adds(self):
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as head:
            def changes(tree, text):
                with open(os.path.join(tree, "CHANGES.md"), "w") as f:
                    f.write(text)
            old = "First change.\nSecond change. " + gate.MARKER + " hops rise.\n"
            changes(base, old)
            changes(head, old + "Third change: nothing moves.\n")
            self.assertFalse(gate.declares_behaviour_change(base, head))
            changes(head, old + "Third change. " + gate.MARKER + " latency rises.\n")
            self.assertTrue(gate.declares_behaviour_change(base, head))


if __name__ == "__main__":
    unittest.main()
