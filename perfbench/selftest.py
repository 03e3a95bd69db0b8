#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For each workload it makes one
untraced and two traced runs of one seed over the head of the op list, and
asserts that

  * every op passes its checks in all three runs;
  * the traced composition reproduces Pom.compile's design, op for op;
  * every count the traced run records repeats exactly across the two
    traced runs (allocated words, synthesis calls, DSE evaluations, memo,
    projection-cache and dependence-memo counts, simulated instances,
    result bytes).

Exits 1 on the first workload that breaks one of these.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
# (workload, ops from the head of the seeded order)
CASES = (("dnn-dse", 1), ("kernel-signoff", 8), ("serve-mixed", 12))
COUNTS = (
    "minor_words", "synth_calls", "dse_stage2_words", "dse_evaluations",
    "dse_cold_syntheses", "dse_pruned", "scalehls_evaluations",
    "memo_schedule_hits", "memo_schedule_misses", "memo_plan_hits",
    "memo_plan_misses", "memo_report_hits", "memo_report_misses",
    "proj_hits", "proj_lookups", "dep_hits", "dep_lookups", "sim_instances",
    "sim_words", "wire_result_bytes", "emit_c_loc", "poly_fm_projections",
)


def records(lines):
    """Traced compiles keyed by what they compiled, and served replies by
    request id (hits excluded: how many arrive depends on timing)."""
    keyed = {}
    for d in lines:
        if d["kind"] == "op" and d.get("class") in ("cold", "recompile"):
            keyed[("reply", d["id"])] = d
        elif d["kind"] == "reference" or (d["kind"] == "op" and "span_ms" in d
                                          and d.get("class") != "hit"):
            keyed[("compile", d["input"])] = d
    return keyed


def check(workload, n_ops):
    deadline = time.time() + 600
    extra = ("--ops", str(n_ops))
    trace = os.path.join(run.WORK, "selftest-%s.json" % workload)
    plain = run.run_workload(workload, SEED, 600, deadline, extra=extra)
    a = run.run_workload(workload, SEED, 600, deadline, trace, extra)
    b = run.run_workload(workload, SEED, 600, deadline, trace, extra)
    problems = []
    for lines in (plain, a, b):
        _, failed = run.checks(lines)
        if failed:
            problems.append("%d op(s) failed their checks" % failed)
    _, failed = run.checks(a, traced_against=plain)
    if failed:
        problems.append("traced composition differs from Pom.compile")
    ra, rb = records(a), records(b)
    if set(ra) != set(rb) or not ra:
        problems.append("the two traced runs recorded different compiles")
    for key in sorted(set(ra) & set(rb), key=str):
        for c in COUNTS:
            if ra[key].get(c) != rb[key].get(c):
                problems.append("%s %s: %s vs %s" % (key, c, ra[key].get(c), rb[key].get(c)))
    return problems, len(set(ra) & set(rb))


def main():
    run.build()
    ok = True
    for workload, n_ops in CASES:
        problems, compared = check(workload, n_ops)
        print("%-15s %s (%d records compared)"
              % (workload, "ok" if not problems else "FAIL", compared))
        for p in problems:
            print("  " + p)
        ok = ok and not problems
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
