#!/usr/bin/env python3
"""The repo's benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the in-process runner
(perfbench/pb.ml) and the compiler CLI with dune into .bench_build/, runs
the workload, checks every op, and prints as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of an untraced run; --trace 1 makes an untraced and a
traced run of the same inputs and reports the per-layer metrics of the
traced one, plus the tracing overhead.  perfbench/README.md explains the
workloads and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("dnn-dse", "kernel-signoff", "serve-mixed")
BUILD = ".bench_build"
WORK = os.path.join(BUILD, "perfbench")
PB = os.path.join(BUILD, "default", "perfbench", "pb.exe")
DAEMON = os.path.join(BUILD, "default", "bin", "pom_compile.exe")
# What a run may take in all, builds excepted (a run must end within 180 s).
RUN_BUDGET_S = 170.0
# A first build of a fresh checkout may take this long.
BUILD_BUDGET_S = 700.0
# Workloads that run each op in a fresh process.
PER_OP_PROCESS = ("dnn-dse", "kernel-signoff")
# The calibration chunk's median time on the reference host (2 vCPUs of a
# shared x86-64 host, OCaml 5.1.1).  Host-speed-normalised times are
# "what this would take on the reference host": the wall time times this
# constant over the chunk times measured next to it (pb.ml, host speed).
CALIB_REF_S = 0.009
# Sources whose digest identifies the measured program when the checkout
# carries no git metadata.
SOURCES = ("dune-project", "lib", "bin", "perfbench")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Build the runner and the daemon from the checkout's sources."""
    for need in ("dune-project", "lib", "bin/pom_compile.ml", "perfbench/pb.ml"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a POM source checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD,
           "--profile", "release", "./perfbench/pb.exe", "./bin/pom_compile.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build did not complete: %s" % e)
    if r.returncode != 0:
        die("build failed")
    os.makedirs(WORK, exist_ok=True)


def run_pb(workload, seed, seconds, deadline, trace_file=None, extra=()):
    """One pb process; returns its JSON lines.  pb and the daemon it starts
    share a process group, which is killed if pb overruns the deadline."""
    cmd = [PB, "run", workload, str(seed), str(seconds), "--dir", WORK,
           "--daemon", DAEMON] + list(extra)
    if trace_file:
        cmd += ["--trace", trace_file]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die("%s did not finish within the run budget" % workload)
    if p.returncode != 0:
        die("pb exited with %d on %s" % (p.returncode, workload))
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def run_workload(workload, seed, seconds, deadline, trace_file=None, extra=()):
    """The workload's pb processes, their lines merged.  The in-process
    workloads give each op a fresh process, as the CLI does: a process that
    already compiled one input compiles the next faster (the dependence
    memo and the intern table persist and have no reset), which would make
    the seed's order part of the measurement."""
    if workload not in PER_OP_PROCESS:
        return run_pb(workload, seed, seconds, deadline, trace_file, extra)
    parts, events = [], []
    t0, k, n = time.time(), 0, 1
    while k < n and time.time() - t0 < seconds:
        part = trace_file and "%s.op%d" % (trace_file, k)
        left = max(seconds - (time.time() - t0), 0.001)
        lines = run_pb(workload, seed, left, deadline, part,
                       tuple(extra) + ("--op", str(k)))
        n = len(one(lines, "order")["ops"])
        parts.append(lines)
        if part:
            with open(part) as f:
                events += [dict(e, pid=k + 1) for e in json.load(f)["traceEvents"]]
            os.remove(part)
        k += 1
    if trace_file:
        with open(trace_file, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    setups = [one(p, "setup") for p in parts]
    runs = [one(p, "run") for p in parts]
    return ([d for d in parts[0] if d["kind"] in ("host", "order")]
            + [d for p in parts for d in p
               if d["kind"] not in ("host", "order", "setup", "run")]
            + [{"kind": "setup",
                "samples_s": [x for s in setups for x in s["samples_s"]],
                "calib_s": [x for s in setups for x in s["calib_s"]]},
               {"kind": "run", "timed_s": sum(r["timed_s"] for r in runs),
                "rss_kb": max(r["rss_kb"] for r in runs)}])


def one(lines, kind):
    return next(d for d in lines if d["kind"] == kind)


def ops(lines):
    return [d for d in lines if d["kind"] == "op"]


def primary(lines):
    """The ops whose latency and QoR the end-to-end metrics report: every
    op in-process, the miss client's cold requests in serve-mixed."""
    return [d for d in ops(lines) if d.get("class") in ("dnn", "signoff", "cold")]


def geomean(xs):
    return math.exp(statistics.fmean(math.log(x) for x in xs)) if xs else float("nan")


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def hd_median(xs, grid=16384):
    """The Harrell-Davis estimate of the median: a weighted mean of all the
    order statistics, the weights given by a Beta((n+1)/2, (n+1)/2)
    distribution.  The sample median of a mixed population sits where
    latencies are sparse and jumps with the one or two ops nearest the
    middle; this estimate of the same median moves less."""
    xs = sorted(xs)
    n = len(xs)
    if n < 2:
        return median(xs)
    a = (n + 1) / 2.0
    lbeta = 2 * math.lgamma(a) - math.lgamma(2 * a)
    cdf = [0.0]
    for j in range(grid):
        t = (j + 0.5) / grid
        cdf.append(cdf[-1] + math.exp((a - 1) * math.log(t * (1 - t)) - lbeta) / grid)
    w = [cdf[grid * (i + 1) // n] - cdf[grid * i // n] for i in range(n)]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def ops_per_s(lines):
    done = [d for d in ops(lines) if "latency_s" in d]
    return len(done) / one(lines, "run")["timed_s"]


def speed(calib):
    """How much slower than the reference host the host ran, from the
    calibration chunks timed next to a measurement."""
    return statistics.median(calib) / CALIB_REF_S


def norm_ops_per_s(lines):
    """ops_per_s at the reference host's speed: in-process, each op's
    latency is scaled by its own chunks; serve-mixed's timed phase by the
    median of the miss client's chunks."""
    done = [d for d in ops(lines) if "latency_s" in d]
    if any(d.get("class") in ("dnn", "signoff") for d in done):
        return len(done) / sum(d["latency_s"] / speed(d["calib_s"]) for d in done)
    calib = [x for d in done for x in d.get("calib_s", [])]
    return len(done) / (one(lines, "run")["timed_s"] / speed(calib))


def setup_samples(lines):
    """Set-up samples at the reference host's speed, each scaled by the
    chunk timed after it."""
    s = one(lines, "setup")
    return [x / speed([c]) for x, c in zip(s["samples_s"], s["calib_s"])]


def end_to_end(lines):
    prim = [d for d in primary(lines) if "latency_s" in d]
    lat = [d["latency_s"] / speed(d["calib_s"]) for d in prim]
    speedups = [d["speedup"] for d in prim if "speedup" in d]
    setup = setup_samples(lines)
    return {
        "setup_s": (median(setup), "s", len(setup)),
        "norm_ops_per_s": (norm_ops_per_s(lines), "1/s", len(ops(lines))),
        "norm_latency_p50_ms": (1e3 * hd_median(lat), "ms", len(lat)),
        "peak_rss_mb": (one(lines, "run")["rss_kb"] / 1024.0, "MB", 1),
        "qor_speedup_geomean": (geomean(speedups), "x", len(speedups)),
    }


def wall(lines):
    """The end-to-end times as the wall clock read them, for the report."""
    s = one(lines, "setup")
    lat = [d["latency_s"] for d in primary(lines) if "latency_s" in d]
    return {"setup_s": median(s["samples_s"]), "ops_per_s": ops_per_s(lines),
            "latency_p50_ms": 1e3 * hd_median(lat),
            "host_speed": speed([x for d in ops(lines) for x in d.get("calib_s", [])]
                                + s["calib_s"])}


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(lines, untraced):
    """Per-op layer numbers of a traced run.  Times and counts are means
    over the traced compiles (ops, or serve-mixed's in-process reference
    compiles); ratios pool their numerators and denominators."""
    comp = [d for d in lines if d["kind"] in ("op", "reference") and "span_ms" in d
            and d.get("class") not in SERVED]
    served = [d for d in ops(lines) if d.get("class") in SERVED]
    n = max(1, len(comp))

    def total(key):
        return sum(d.get(key, 0) for d in comp)

    def mean(key):
        return total(key) / n

    def span(*names):
        return sum(d["span_ms"].get(s, 0.0) for d in comp for s in names) / n

    def self_ms(layer):
        return sum(d["self_ms"].get(layer, 0.0) for d in comp) / n

    def med(key):
        return median([d[key] for d in comp if key in d])

    m = {}
    m["dse.stage1_ms"] = (span("dse.stage1"), "ms")
    m["dse.stage2_ms"] = (span("dse.stage2"), "ms")
    m["dse.stage2_mwords"] = (mean("dse_stage2_words") / 1e6, "Mwords")
    m["dse.evaluations"] = (mean("dse_evaluations"), "count")
    m["dse.cold_syntheses"] = (mean("dse_cold_syntheses"), "count")
    m["dse.pruned"] = (mean("dse_pruned"), "count")
    m["hls.synth_ms"] = (med("hls_synth_ms"), "ms")
    m["hls.synth_calls"] = (mean("synth_calls"), "count")
    m["hls.dep_cache_hit_ratio"] = (ratio(total("dep_hits"), total("dep_lookups")), "ratio")
    m["poly.projcache_lookups"] = (mean("proj_lookups"), "count")
    m["poly.projcache_hit_ratio"] = (ratio(total("proj_hits"), total("proj_lookups")), "ratio")
    m["poly.fm_project_us"] = (med("poly_fm_project_us"), "us")
    # the memo ratios of the process that compiled: the daemon's for
    # serve-mixed (its replies carry the deltas), this process's otherwise
    memo_src = [d for d in ops(lines) if d.get("served") == "computed"] or comp
    for table in ("schedule", "plan", "report"):
        hits = sum(d.get("memo_%s_hits" % table, 0) for d in memo_src)
        misses = sum(d.get("memo_%s_misses" % table, 0) for d in memo_src)
        m["pipeline.memo_%s_hit_ratio" % table] = (ratio(hits, hits + misses), "ratio")
    m["polyir.legality_ms"] = (span("polyir.legality", "polyir.check_legality"), "ms")
    m["polyir.schedule_apply_ms"] = (med("polyir_schedule_apply_ms"), "ms")
    m["affine.lower_ms"] = (span("affine.lower"), "ms")
    m["affine.simplify_ms"] = (span("affine.simplify"), "ms")
    m["analysis.verify_ms"] = (span("analysis.verify"), "ms")
    m["analysis.lint_ms"] = (span("analysis.lint"), "ms")
    m["emit.hls_c_ms"] = (span("emit.hls_c"), "ms")
    m["emit.c_loc"] = (mean("emit_c_loc"), "count")
    m["baselines.scalehls_ms"] = (span("baselines.scalehls"), "ms")
    m["sim.structural_ms"] = (span("sim.structural"), "ms")
    m["sim.affine_ms"] = (span("sim.affine"), "ms")
    m["sim.instances"] = (mean("sim_instances"), "count")
    m["sim.ns_per_instance"] = (
        ratio(1e6 * (span("sim.structural") + span("sim.affine")), mean("sim_instances")), "ns")
    m["sim.mwords"] = (mean("sim_words") / 1e6, "Mwords")
    m["sim.cycles_bound_ms"] = (span("sim.cycles_bound"), "ms")
    # the result codec on every design the run produced: in serve-mixed the
    # computed replies (how many hits arrive depends on timing, and the
    # counts must repeat exactly)
    wire = [d for d in ops(lines)
            if "wire_result_bytes" in d and d.get("class") != "hit"] or comp
    m["wire.result_bytes"] = (
        statistics.fmean(d["wire_result_bytes"] for d in wire) if wire else 0.0, "bytes")
    m["wire.encode_mb_per_s"] = (median([d["wire_encode_mb_per_s"] for d in wire]), "MB/s")
    m["wire.decode_mb_per_s"] = (median([d["wire_decode_mb_per_s"] for d in wire]), "MB/s")
    for cls in SERVED:
        rs = [d for d in ops(lines) if d.get("class") == cls and "wall_s" in d]
        m["server.%s_exec_ms" % cls] = (1e3 * median([d["wall_s"] for d in rs]) if rs else 0.0, "ms")
        m["server.%s_queue_wait_ms" % cls] = (
            1e3 * median([d["latency_s"] - d["wall_s"] for d in rs]) if rs else 0.0, "ms")
    hits = [d["latency_s"] for d in ops(lines) if d.get("class") == "hit"]
    recs = [d["latency_s"] for d in ops(lines) if d.get("class") == "recompile"]
    m["server.hit_rtt_p50_ms"] = (1e3 * median(hits) if hits else 0.0, "ms")
    m["server.recompile_p50_ms"] = (1e3 * median(recs) if recs else 0.0, "ms")
    srv = [d for d in lines if d["kind"] == "server"]
    if srv:
        s = srv[0]
        m["server.cache_hit_ratio"] = (
            ratio(s["cache_hits"], s["cache_hits"] + s["cache_misses"]), "ratio")
        m["server.journal_replay_ms"] = (s["journal_replay_ms"], "ms")
    else:
        m["server.cache_hit_ratio"] = (0.0, "ratio")
        m["server.journal_replay_ms"] = (0.0, "ms")
    for layer in LAYERS:
        m["%s.self_ms" % layer] = (self_ms(layer), "ms")
    # the client's request spans, per request
    m["server.self_ms"] = (
        statistics.fmean(d["self_ms"].get("server", 0.0) for d in served)
        if served else 0.0, "ms")
    m["trace.overhead_ratio"] = (ratio(ops_per_s(untraced), ops_per_s(lines)), "ratio")
    return {k: (v, unit, len(comp)) for k, (v, unit) in m.items()}


# The layers whose public calls the traced run wraps in spans (the server
# layer's spans are the clients' requests).
LAYERS = ("dse", "hls", "polyir", "analysis", "affine", "emit", "baselines", "sim")
# The request classes of serve-mixed.
SERVED = ("hit", "cold", "recompile")


def checks(lines, traced_against=None):
    """Every op must have passed pb's checks; a traced run must also have
    reproduced the untraced run's design, op for op."""
    attempted = ops(lines)
    failed = [d for d in attempted if not d["ok"]]
    if traced_against is not None:
        want = {d["id"]: d.get("digest") for d in ops(traced_against)}
        for d in attempted:
            if d["ok"] and d["id"] in want and d.get("class") != "hit" \
                    and want[d["id"]] != d.get("digest"):
                d["ok"], d["why"] = False, "traced composition differs from Pom.compile"
                failed.append(d)
    for d in failed:
        print("perfbench: op %s %s failed: %s" % (d["id"], d.get("input"), d.get("why")),
              file=sys.stderr)
    return len(attempted), len(failed)


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host(lines):
    commit = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = r.stdout.strip() or None
    h = one(lines, "host")
    return {"nproc": os.cpu_count(), "commit": commit, "source_digest": source_digest(),
            "ocaml": h["ocaml"], "jobs": h["jobs"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    deadline = time.time() + RUN_BUDGET_S
    untraced = run_workload(a.workload, a.seed, a.seconds, deadline)
    attempted, failed = checks(untraced)
    if a.trace:
        trace_file = os.path.join(WORK, "trace-%s-%d.json" % (a.workload, a.seed))
        traced = run_workload(a.workload, a.seed, a.seconds, deadline, trace_file)
        t_attempted, t_failed = checks(traced, traced_against=untraced)
        attempted, failed = attempted + t_attempted, failed + t_failed
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced)
    report = {
        "host": host(untraced),
        "workload": a.workload,
        "seed": a.seed,
        "trace": a.trace,
        "order": one(untraced, "order")["ops"],
        "wall": wall(untraced),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    stem = os.path.join(WORK, "%s-%d-trace%d" % (a.workload, a.seed, a.trace))
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    with open(stem + ".lines.jsonl", "w") as f:
        for d in untraced + (traced if a.trace else []):
            f.write(json.dumps(d) + "\n")
    print(json.dumps(report))
    bad = [k for k, (v, _, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        die("metrics not measured: " + ", ".join(bad))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
