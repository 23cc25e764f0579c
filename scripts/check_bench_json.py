#!/usr/bin/env python3
"""Schema and sanity check for the JSON benchmark reports.

CI runs this right after each benchmark. Wall-clock throughput is NOT
gated (shared runners make absolute numbers indicative only); what IS
gated is that the benchmark produced a well-formed report. The file's
"bench" field selects the checker:

  perf_simcore   the headline cell exists and carries its speedup field,
                 scaling and simd_scalar-twin cells carry theirs, per-cell
                 counters are internally consistent (delivered can never
                 exceed offered load, throughput must match
                 delivered / seconds), and every scaling cell's packet
                 counters are bit-identical to its threads=1 base cell —
                 the determinism contract, visible in the report itself;
  abl_recovery   all four recovery cells are present with closed packet
                 accounting, the transient-with-retries cell recovered to
                 a delivery ratio >= 0.99, and the same churn made
                 permanent stayed strictly degraded.

A malformed or truncated JSON fails the build.

--min-scaling X additionally requires every speedup_vs_threads1 to be
>= X. CI passes it only on runners with enough cores for the worker
counts being gated; on smaller machines the scaling cells are
oversubscribed by design and only their shape is checked.

--min-throughput-ratio X additionally requires the headline cell's
speedup_vs_baseline to be >= X. Like --min-scaling it is opt-in: the
committed BENCH_simcore.json is regenerated on a quiet machine and gated
at the PR's target ratio, while CI's shared runners check shape only.

perf_simcore reports must declare schema_version 5, the only schema
perf_simcore emits. Every cell carries a "phase_breakdown" object (drain /
inject / advance / commit wall-clock attribution in nanoseconds), "simd"
(the dispatch level the cell's kernels ran at) and "timed_seconds" (wall
time of the one instrumented pass that produced phase_breakdown), and
every floating-point field is serialized as a float. Each cell is checked
for: cycles_per_sec being an actual float consistent with (warmup +
measure) / seconds, the phase_breakdown components summing to at most
threads * timed_seconds (phases are accumulated across workers, so a
multi-thread cell's sum may legitimately exceed wall time but never the
worker-time budget), and _simd_scalar twin cells carrying bit-identical
packet counters to their vectorized partner — the SIMD dispatch
determinism contract, visible in the report itself.

The report also carries a top-level "provenance" object — the same
identifying tuple the simulator's checkpoint header carries (seed,
topology, router, simd, threads, schema_version, build_type) — so a
report is attributable to the run that produced it. Every provenance
field must be present, its simd level must be a known dispatch level, its
schema_version must match the top-level one, and its build_type must be
"optimized" or "debug".

Usage: check_bench_json.py [--min-scaling X] [--min-throughput-ratio X]
                           BENCH_simcore.json
       check_bench_json.py BENCH_recovery.json
"""

import argparse
import json
import sys

REQUIRED_CELL_FIELDS = (
    "name", "topology", "router", "static_faults", "injection_rate",
    "warmup_cycles", "measure_cycles", "threads", "seconds",
    "cycles_per_sec", "generated", "delivered", "carryover_delivered",
    "total_hops", "packets_per_sec", "hops_per_sec",
)

REQUIRED_RECOVERY_FIELDS = (
    "name", "delivery_ratio", "generated", "delivered", "repairs_applied",
    "fault_events", "parked_retries", "retransmits", "gave_up",
    "dropped_no_route", "dropped_hop_limit", "orphaned", "in_flight_at_end",
    "accounting_closed",
)

RECOVERY_CELLS = (
    "fault_free", "transient_retry", "transient_no_retry", "permanent",
)

# packets_per_sec is serialized with %.6g; allow generous rounding slack.
THROUGHPUT_REL_TOL = 0.02

PHASE_BREAKDOWN_FIELDS = ("drain_ns", "inject_ns", "advance_ns", "commit_ns")

SIMD_LEVELS = ("scalar", "avx2")

# cycles_per_sec must reproduce (warmup + measure) / seconds; both come
# from the same run so only float-formatting slack applies.
CYCLES_REL_TOL = 0.02

# phase sum <= threads * timed_seconds, plus slack for the clock reads
# bracketing run() sitting outside the per-phase windows.
PHASE_SUM_REL_TOL = 0.05


def fail(msg):
    print(f"check_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_cell(cell):
    name = cell.get("name", "<unnamed>")
    for field in REQUIRED_CELL_FIELDS:
        if field not in cell:
            fail(f"cell {name}: missing field '{field}'")
    phases = cell.get("phase_breakdown")
    if not isinstance(phases, dict):
        fail(f"cell {name}: missing phase_breakdown object")
    for field in PHASE_BREAKDOWN_FIELDS:
        value = phases.get(field)
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"cell {name}: phase_breakdown.{field} missing or "
                 "negative")
    if cell.get("simd") not in SIMD_LEVELS:
        fail(f"cell {name}: simd {cell.get('simd')!r} not one of "
             f"{SIMD_LEVELS}")
    timed = cell.get("timed_seconds")
    if not isinstance(timed, float) or timed <= 0:
        fail(f"cell {name}: timed_seconds missing, non-float, or "
             "nonpositive")
    # %g serialization once emitted cycles_per_sec as an int in some cells
    # and a float in others.
    if not isinstance(cell["cycles_per_sec"], float):
        fail(f"cell {name}: cycles_per_sec {cell['cycles_per_sec']!r} "
             "must be serialized as a float")
    expect_cps = (cell["warmup_cycles"] + cell["measure_cycles"]) \
        / cell["seconds"]
    got_cps = cell["cycles_per_sec"]
    if abs(got_cps - expect_cps) > CYCLES_REL_TOL * expect_cps:
        fail(f"cell {name}: cycles_per_sec {got_cps} inconsistent with "
             f"(warmup + measure) / seconds = {expect_cps:.0f}")
    phase_sum_sec = sum(phases[f] for f in PHASE_BREAKDOWN_FIELDS) / 1e9
    budget = cell["threads"] * timed * (1.0 + PHASE_SUM_REL_TOL)
    if phase_sum_sec > budget:
        fail(f"cell {name}: phase_breakdown sum {phase_sum_sec:.4f}s "
             f"exceeds threads * timed_seconds budget {budget:.4f}s")
    if cell["seconds"] <= 0:
        fail(f"cell {name}: nonpositive seconds {cell['seconds']}")
    if cell["carryover_delivered"] < 0:
        fail(f"cell {name}: negative carryover_delivered")
    # delivered counts only measurement-window-born packets; carryover
    # deliveries are tallied separately, so this must hold exactly.
    if cell["delivered"] > cell["generated"]:
        fail(f"cell {name}: delivered {cell['delivered']} exceeds "
             f"generated {cell['generated']}")
    if cell["delivered"] > cell["generated"] + cell["carryover_delivered"]:
        fail(f"cell {name}: delivered exceeds generated + carryover")
    expect_pps = cell["delivered"] / cell["seconds"]
    got_pps = cell["packets_per_sec"]
    if expect_pps > 0 and abs(got_pps - expect_pps) > THROUGHPUT_REL_TOL * expect_pps:
        fail(f"cell {name}: packets_per_sec {got_pps} inconsistent with "
             f"delivered/seconds = {expect_pps:.0f}")


PROVENANCE_FIELDS = (
    "seed", "topology", "router", "simd", "threads", "schema_version",
    "build_type",
)

BUILD_TYPES = ("optimized", "debug")


def check_provenance(report):
    prov = report.get("provenance")
    if not isinstance(prov, dict):
        fail("missing provenance object")
    for field in PROVENANCE_FIELDS:
        if field not in prov:
            fail(f"provenance: missing field '{field}'")
    if not isinstance(prov["seed"], int) or prov["seed"] < 0:
        fail(f"provenance: seed {prov['seed']!r} must be a nonnegative int")
    for field in ("topology", "router"):
        if not isinstance(prov[field], str) or not prov[field]:
            fail(f"provenance: {field} must be a nonempty string")
    if prov["simd"] not in SIMD_LEVELS:
        fail(f"provenance: simd {prov['simd']!r} not one of {SIMD_LEVELS}")
    if not isinstance(prov["threads"], int) or prov["threads"] < 1:
        fail(f"provenance: threads {prov['threads']!r} must be a positive "
             "int")
    if prov["schema_version"] != report.get("schema_version"):
        fail(f"provenance: schema_version {prov['schema_version']!r} "
             f"disagrees with the report's {report.get('schema_version')!r}")
    if prov["build_type"] not in BUILD_TYPES:
        fail(f"provenance: build_type {prov['build_type']!r} not one of "
             f"{BUILD_TYPES}")


def check_perf_simcore(report, min_scaling=None, min_throughput_ratio=None):
    if report.get("schema_version") != 5:
        fail(f"schema_version {report.get('schema_version')!r} != 5")
    check_provenance(report)

    baseline = report.get("baseline")
    if not isinstance(baseline, dict):
        fail("missing baseline object")
    headline_name = baseline.get("headline_cell")
    if not headline_name:
        fail("baseline.headline_cell missing")
    if baseline.get("packets_per_sec", 0) <= 0:
        fail("baseline.packets_per_sec missing or nonpositive")

    cells = report.get("cells")
    if not isinstance(cells, list) or not cells:
        fail("cells missing or empty")
    by_name = {}
    for cell in cells:
        check_cell(cell)
        by_name[cell["name"]] = cell

    headline = by_name.get(headline_name)
    if headline is None:
        fail(f"headline cell {headline_name!r} not in report")
    if "speedup_vs_baseline" not in headline:
        fail(f"headline cell {headline_name!r} lacks speedup_vs_baseline")
    if headline["speedup_vs_baseline"] <= 0:
        fail("headline speedup_vs_baseline must be positive")
    if min_throughput_ratio is not None and \
            headline["speedup_vs_baseline"] < min_throughput_ratio:
        fail(f"headline speedup_vs_baseline "
             f"{headline['speedup_vs_baseline']:.3f} below required "
             f"{min_throughput_ratio:.3f}")

    for name, cell in by_name.items():
        # A <name>_simd_scalar twin runs the same workload with kernels
        # pinned scalar. The vectorized cell must report the attribution
        # ratio, and the twin's packet counters must match bit for bit —
        # SIMD dispatch may change wall time, never a decision.
        twin = by_name.get(f"{name}_simd_scalar")
        if twin is not None:
            if "speedup_vs_simd_scalar" not in cell:
                fail(f"cell {name}: has a simd_scalar twin but no "
                     "speedup_vs_simd_scalar")
            if twin.get("simd") != "scalar":
                fail(f"cell {name}_simd_scalar: simd level "
                     f"{twin.get('simd')!r} is not 'scalar'")
            for counter in ("generated", "delivered", "total_hops"):
                if cell[counter] != twin[counter]:
                    fail(f"cell {name}: {counter} {cell[counter]} differs "
                         f"from simd_scalar twin ({twin[counter]}) — "
                         "SIMD dispatch determinism violated")
        # Thread-scaling cells (threads > 1 against a named 1-thread base)
        # must report their curve point.
        if cell["threads"] > 1 and "speedup_vs_threads1" not in cell:
            fail(f"cell {name}: threads={cell['threads']} but no "
                 "speedup_vs_threads1")
        base_name = cell.get("scaling_base")
        if base_name is not None:
            base = by_name.get(base_name)
            if base is None:
                fail(f"cell {name}: scaling_base {base_name!r} not in report")
            # The simulator guarantees bit-identical metrics for any worker
            # count; a scaling cell whose counters drift from its threads=1
            # base is a determinism break, not a perf result.
            for counter in ("generated", "delivered", "total_hops"):
                if cell[counter] != base[counter]:
                    fail(f"cell {name}: {counter} {cell[counter]} differs "
                         f"from base {base_name} ({base[counter]}) — "
                         "thread-count determinism violated")
            if min_scaling is not None and \
                    cell["speedup_vs_threads1"] < min_scaling:
                fail(f"cell {name}: speedup_vs_threads1 "
                     f"{cell['speedup_vs_threads1']:.2f} below required "
                     f"{min_scaling:.2f} — threads={cell['threads']} must "
                     "beat threads=1 on this machine")

    scaled = [c for c in cells if "speedup_vs_threads1" in c]
    curve = ", ".join(f"t{c['threads']}={c['speedup_vs_threads1']:.2f}x"
                      for c in scaled)
    print(f"check_bench_json: OK: {len(cells)} cells, headline "
          f"{headline_name} speedup_vs_baseline="
          f"{headline['speedup_vs_baseline']:.2f}"
          + (f", scaling {curve}" if curve else ""))


def check_recovery_cell(cell):
    name = cell.get("name", "<unnamed>")
    for field in REQUIRED_RECOVERY_FIELDS:
        if field not in cell:
            fail(f"cell {name}: missing field '{field}'")
    if not 0.0 <= cell["delivery_ratio"] <= 1.0:
        fail(f"cell {name}: delivery_ratio {cell['delivery_ratio']} "
             "outside [0, 1]")
    if cell["delivered"] > cell["generated"]:
        fail(f"cell {name}: delivered {cell['delivered']} exceeds "
             f"generated {cell['generated']}")
    # The benchmark runs with warmup 0 precisely so the accounting identity
    # closes exactly; an open identity means the retry machinery leaked or
    # double-counted a packet.
    if cell["accounting_closed"] is not True:
        fail(f"cell {name}: packet accounting identity did not close")


def check_abl_recovery(report):
    if report.get("schema_version", 0) < 1:
        fail(f"schema_version {report.get('schema_version')!r} < 1")
    cells = report.get("cells")
    if not isinstance(cells, list) or not cells:
        fail("cells missing or empty")
    by_name = {}
    for cell in cells:
        check_recovery_cell(cell)
        by_name[cell["name"]] = cell
    for name in RECOVERY_CELLS:
        if name not in by_name:
            fail(f"recovery cell {name!r} not in report")

    healed = by_name["transient_retry"]["delivery_ratio"]
    broken = by_name["permanent"]["delivery_ratio"]
    if healed < 0.99:
        fail(f"transient_retry delivery_ratio {healed} below 0.99 — "
             "retries over healing faults failed to recover")
    if healed <= broken:
        fail(f"permanent churn should stay degraded: transient_retry "
             f"{healed} vs permanent {broken}")
    if by_name["transient_retry"]["repairs_applied"] == 0:
        fail("transient_retry applied no repairs — schedule broken")
    if by_name["permanent"]["repairs_applied"] != 0:
        fail("permanent cell applied repairs — without_repairs() broken")

    print(f"check_bench_json: OK: {len(cells)} cells, transient_retry "
          f"delivery={healed:.4f} vs permanent {broken:.4f}")


def main():
    parser = argparse.ArgumentParser(
        description="schema/sanity check for BENCH_*.json reports")
    parser.add_argument("report", help="BENCH_<name>.json to check")
    parser.add_argument(
        "--min-scaling", type=float, default=None, metavar="X",
        help="require every speedup_vs_threads1 >= X (perf_simcore only; "
        "pass on runners with enough cores for the gated worker counts)")
    parser.add_argument(
        "--min-throughput-ratio", type=float, default=None, metavar="X",
        help="require the headline cell's speedup_vs_baseline >= X "
        "(perf_simcore only; pass when gating a report regenerated on a "
        "quiet machine, not on shared CI runners)")
    args = parser.parse_args()
    try:
        with open(args.report, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read {args.report}: {err}")

    bench = report.get("bench")
    if bench == "perf_simcore":
        check_perf_simcore(report, min_scaling=args.min_scaling,
                           min_throughput_ratio=args.min_throughput_ratio)
    elif bench == "abl_recovery":
        if args.min_scaling is not None:
            fail("--min-scaling only applies to perf_simcore reports")
        if args.min_throughput_ratio is not None:
            fail("--min-throughput-ratio only applies to perf_simcore "
                 "reports")
        check_abl_recovery(report)
    else:
        fail(f"unexpected bench id {bench!r}")


if __name__ == "__main__":
    main()
