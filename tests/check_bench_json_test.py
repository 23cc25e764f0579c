#!/usr/bin/env python3
"""Self-test for scripts/check_bench_json.py.

The checker is itself a CI gate, so it gets the same treatment as the
code it gates: craft well-formed and deliberately broken reports and
assert the checker accepts or rejects each for the stated reason. Run
directly or via ctest (registered in tests/CMakeLists.txt).
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

CHECKER = Path(__file__).resolve().parent.parent / "scripts" / \
    "check_bench_json.py"

FAILURES = []


def cell(name, threads=1, generated=1000, delivered=900, seconds=0.5,
         **extra):
    c = {
        "name": name,
        "topology": "GC(10, 4)",
        "router": "FTGCR",
        "static_faults": 12,
        "injection_rate": 0.05,
        "warmup_cycles": 300,
        "measure_cycles": 4000,
        "threads": threads,
        "seconds": seconds,
        "cycles_per_sec": 4300 / seconds,
        "generated": generated,
        "delivered": delivered,
        "carryover_delivered": 10,
        "total_hops": delivered * 8,
        "packets_per_sec": delivered / seconds,
        "hops_per_sec": delivered * 8 / seconds,
        "phase_breakdown": {
            "drain_ns": 1_000_000,
            "inject_ns": 5_000_000,
            "advance_ns": 14_000_000,
            "commit_ns": 100_000,
        },
        "simd": "avx2",
        "timed_seconds": seconds * 1.1,
    }
    c.update(extra)
    return c


def good_report():
    """A schema-5 report: the headline cell, its t2/t4 scaling points and
    its _simd_scalar twin, plus the top-level provenance block."""
    base = cell("gc10x4_ftgcr_static", headline=True,
                baseline_packets_per_sec=1000.0,
                speedup_vs_baseline=1.8,
                speedup_vs_simd_scalar=0.6 / 0.5)
    t2 = cell("gc10x4_ftgcr_static_t2", threads=2, seconds=0.4,
              scaling_base="gc10x4_ftgcr_static",
              speedup_vs_threads1=0.5 / 0.4)
    t4 = cell("gc10x4_ftgcr_static_t4", threads=4, seconds=0.3,
              scaling_base="gc10x4_ftgcr_static",
              speedup_vs_threads1=0.5 / 0.3)
    twin = cell("gc10x4_ftgcr_static_simd_scalar", seconds=0.6,
                simd="scalar")
    return {
        "bench": "perf_simcore",
        "schema_version": 5,
        "mode": "quick",
        "baseline": {
            "label": "self-test",
            "headline_cell": "gc10x4_ftgcr_static",
            "packets_per_sec": 1000.0,
        },
        "provenance": {
            "seed": 4242,
            "topology": "GC(10, 4)",
            "router": "FTGCR",
            "simd": "avx2",
            "threads": 1,
            "schema_version": 5,
            "build_type": "optimized",
        },
        "cells": [base, t2, t4, twin],
    }


def run_checker(report, *flags):
    """Returns (exit_code, stderr) of the checker on `report` (dict or
    raw string)."""
    with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False) as fh:
        if isinstance(report, str):
            fh.write(report)
        else:
            json.dump(report, fh)
        path = fh.name
    try:
        proc = subprocess.run(
            [sys.executable, str(CHECKER), *flags, path],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stderr
    finally:
        Path(path).unlink()


def expect(label, report, *flags, ok=True, message=""):
    code, stderr = run_checker(report, *flags)
    if ok and code != 0:
        FAILURES.append(f"{label}: expected PASS, got exit {code}: "
                        f"{stderr.strip()}")
    elif not ok and code == 0:
        FAILURES.append(f"{label}: expected FAIL, checker passed it")
    elif not ok and message and message not in stderr:
        FAILURES.append(f"{label}: failed for the wrong reason — wanted "
                        f"{message!r} in: {stderr.strip()}")
    else:
        print(f"  ok: {label}")


def main():
    expect("well-formed report passes", good_report())

    r = good_report()
    r["cells"][0]["delivered"] = r["cells"][0]["generated"] + 1
    r["cells"][0]["packets_per_sec"] = \
        r["cells"][0]["delivered"] / r["cells"][0]["seconds"]
    expect("delivered > generated rejected", r, ok=False, message="exceeds")

    r = good_report()
    r["cells"][1]["delivered"] -= 5  # drift from the threads=1 base
    r["cells"][1]["total_hops"] = r["cells"][1]["delivered"] * 8
    r["cells"][1]["packets_per_sec"] = \
        r["cells"][1]["delivered"] / r["cells"][1]["seconds"]
    r["cells"][1]["hops_per_sec"] = \
        r["cells"][1]["total_hops"] / r["cells"][1]["seconds"]
    expect("scaling-cell counter drift rejected", r, ok=False,
           message="determinism")

    r = good_report()
    del r["cells"][2]["speedup_vs_threads1"]
    expect("scaling cell without curve point rejected", r, ok=False,
           message="speedup_vs_threads1")

    # --min-scaling: the good report's curve is t2=1.25x, t4=1.67x.
    expect("curve above the floor passes the gate", good_report(),
           "--min-scaling", "1.0")
    r = good_report()
    slow = copy.deepcopy(r["cells"][0])
    slow["name"] = "gc10x4_ftgcr_static_t2"
    slow["threads"] = 2
    slow["seconds"] = 0.7  # slower than threads=1
    slow["cycles_per_sec"] = 4300 / 0.7
    slow["packets_per_sec"] = slow["delivered"] / 0.7
    slow["hops_per_sec"] = slow["total_hops"] / 0.7
    slow["scaling_base"] = "gc10x4_ftgcr_static"
    slow["speedup_vs_threads1"] = 0.5 / 0.7
    del slow["headline"]
    del slow["baseline_packets_per_sec"]
    del slow["speedup_vs_baseline"]
    r["cells"][1] = slow
    expect("regressed curve point fails the gate", r,
           "--min-scaling", "1.0", ok=False, message="below required")
    expect("same report passes without the gate", r)

    r = good_report()
    r["cells"][0]["packets_per_sec"] *= 2  # not delivered / seconds
    expect("throughput inconsistent with counters rejected", r, ok=False,
           message="inconsistent")

    expect("truncated JSON rejected", '{"bench": "perf_simcore", "ce',
           ok=False, message="cannot read")

    # perf_simcore emits schema 5 only; older reports are refused.
    for version in (1, 4):
        r = good_report()
        r["schema_version"] = version
        r["provenance"]["schema_version"] = version
        expect(f"schema {version} rejected", r, ok=False,
               message="schema_version")

    # --min-throughput-ratio: the good report's headline is 1.8x.
    expect("headline above the ratio floor passes", good_report(),
           "--min-throughput-ratio", "1.15")
    expect("headline below the ratio floor fails", good_report(),
           "--min-throughput-ratio", "2.0", ok=False,
           message="below required")
    expect("ratio gate ungated report still passes", good_report())

    # phase breakdown: required per cell, all four fields.
    r = good_report()
    del r["cells"][1]["phase_breakdown"]
    expect("cell without phase_breakdown rejected", r, ok=False,
           message="phase_breakdown")
    r = good_report()
    del r["cells"][0]["phase_breakdown"]["advance_ns"]
    expect("phase_breakdown missing a phase rejected", r, ok=False,
           message="advance_ns")
    r = good_report()
    r["cells"][0]["phase_breakdown"]["drain_ns"] = -1
    expect("negative phase time rejected", r, ok=False, message="drain_ns")

    # simd level, timed_seconds, float-typed cycles_per_sec, phase-sum
    # budget, and the _simd_scalar twin pairing.
    r = good_report()
    r["cells"][0]["cycles_per_sec"] = int(r["cells"][0]["cycles_per_sec"])
    expect("int-typed cycles_per_sec rejected", r, ok=False,
           message="float")

    r = good_report()
    r["cells"][0]["cycles_per_sec"] = 4300 / 0.5 * 3  # wrong denominator
    expect("cycles_per_sec inconsistent with seconds rejected", r, ok=False,
           message="inconsistent")

    r = good_report()
    del r["cells"][1]["timed_seconds"]
    expect("cell without timed_seconds rejected", r, ok=False,
           message="timed_seconds")

    r = good_report()
    r["cells"][0]["simd"] = "avx512"
    expect("unknown simd level rejected", r, ok=False, message="simd")

    # cell() carries ~20.1 ms of phase time; 12 ms of timed_seconds only
    # covers that inside a 2-worker budget.
    r = good_report()
    r["cells"][0]["timed_seconds"] = 0.012
    expect("phase sum beyond timed_seconds rejected", r, ok=False,
           message="budget")
    r = good_report()
    r["cells"][1]["timed_seconds"] = 0.012  # threads=2 cell
    expect("multi-thread phase sum within worker budget passes", r)

    r = good_report()
    del r["cells"][0]["speedup_vs_simd_scalar"]
    expect("simd twin without attribution ratio rejected", r, ok=False,
           message="speedup_vs_simd_scalar")

    r = good_report()
    r["cells"][3]["simd"] = "avx2"  # the twin must actually run scalar
    expect("simd twin not pinned scalar rejected", r, ok=False,
           message="not 'scalar'")

    r = good_report()
    r["cells"][3]["delivered"] -= 5
    r["cells"][3]["total_hops"] = r["cells"][3]["delivered"] * 8
    r["cells"][3]["packets_per_sec"] = \
        r["cells"][3]["delivered"] / r["cells"][3]["seconds"]
    r["cells"][3]["hops_per_sec"] = \
        r["cells"][3]["total_hops"] / r["cells"][3]["seconds"]
    expect("simd twin counter drift rejected", r, ok=False,
           message="SIMD dispatch determinism")

    # The top-level provenance block, the checkpoint header's identifying
    # tuple mirrored into the report.
    r = good_report()
    del r["provenance"]
    expect("report without provenance rejected", r, ok=False,
           message="provenance")

    r = good_report()
    del r["provenance"]["build_type"]
    expect("provenance missing a field rejected", r, ok=False,
           message="build_type")

    r = good_report()
    r["provenance"]["simd"] = "neon"
    expect("provenance unknown simd level rejected", r, ok=False,
           message="simd")

    r = good_report()
    r["provenance"]["schema_version"] = 4
    expect("provenance schema_version disagreement rejected", r, ok=False,
           message="disagrees")

    r = good_report()
    r["provenance"]["build_type"] = "release"
    expect("provenance unknown build_type rejected", r, ok=False,
           message="build_type")

    r = good_report()
    r["provenance"]["threads"] = 0
    expect("provenance nonpositive threads rejected", r, ok=False,
           message="threads")

    if FAILURES:
        print("check_bench_json_test: FAIL", file=sys.stderr)
        for f in FAILURES:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("check_bench_json_test: all cases passed")


if __name__ == "__main__":
    main()
