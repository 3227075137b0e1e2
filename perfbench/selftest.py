#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small size (--scale 0.05) and checks:
  * the same seed twice gives identical simulated end-to-end metrics and
    identical exact per-layer counts;
  * cluster_degraded gives the same at 1 thread as at its configured
    thread count;
  * another seed changes the generated inputs (inputs_digest), so the seed
    reaches the generators;
  * the traced run's Chrome trace parses as JSON, holds a host span for
    every layer the workload exercises (and, across the workloads, for
    every layer), and obs.trace_dropped is 0;
  * cache.filter_ns_per_query is measured (non-zero) on the workloads
    whose executor plans through a sector filter.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # no __pycache__ beside the sources
import run  # noqa: E402  (build_dir: where traced runs write their trace)

SCALE = "0.05"
WORKLOADS = ("paper_beams", "skewed_cached", "cluster_degraded", "store_olap")
SIM = ("sim_p50_ms", "sim_p99_ms", "sim_disk_ms_per_cell")
EXACT_LAYER = (
    "query.plan_requests_per_query", "query.plan_template_hit_ratio",
    "cache.hit_ratio", "cache.evictions_per_query",
    "cache.resident_sector_ratio", "lvm.route_pieces_per_request",
    "lvm.retries_per_query", "lvm.redirects_per_query", "lvm.rebuild_ms",
    "lvm.rebuild_chunks", "disk.seek_ms_per_request",
    "disk.rot_ms_per_request", "disk.xfer_ms_per_request",
    "disk.queue_wait_ms_per_request", "disk.utilization",
    "disk.buffer_hit_ratio", "disk.order_holds_per_request",
    "sim.events_per_query", "store.skip_ratio", "store.bulk_runs_spilled",
    "store.bulk_sort_passes", "obs.trace_events_per_query",
    "obs.trace_dropped", "failed_frac")
# Workloads whose executor plans through a SectorFilter (pool, occupancy).
FILTERED = ("skewed_cached", "store_olap")
COMMON_LAYERS = {"query", "sim", "disk", "lvm", "core", "obs"}
LAYERS = {
    "paper_beams": COMMON_LAYERS,
    "skewed_cached": COMMON_LAYERS | {"cache"},
    "cluster_degraded": COMMON_LAYERS,
    "store_olap": COMMON_LAYERS | {"cache", "store"},
}

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, *extra):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--scale", SCALE, *extra],
        cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"]
    digest = next(l.split("inputs_digest=")[1] for l in lines
                  if "inputs_digest=" in l)
    return {k: v["value"] for k, v in result["metrics"].items()}, digest


def pick(metrics, names):
    return {k: metrics[k] for k in names if k in metrics}


def main():
    seen_layers = set()
    for w in WORKLOADS:
        a, digest_a = bench(w, 1, 0)
        b, _ = bench(w, 1, 0)
        expect(pick(a, SIM) == pick(b, SIM),
               f"{w}: same seed, same simulated metrics")
        _, digest_c = bench(w, 2, 0)
        expect(digest_a != digest_c, f"{w}: another seed, other inputs")

        la, _ = bench(w, 1, 1)
        lb, _ = bench(w, 1, 1)
        expect(pick(la, EXACT_LAYER) == pick(lb, EXACT_LAYER),
               f"{w}: same seed, same exact per-layer counts")
        expect(la["obs.trace_dropped"] == 0, f"{w}: no trace events dropped")
        if w in FILTERED:
            expect(la["cache.filter_ns_per_query"] != 0,
                   f"{w}: filtered PlanInto timed with the executor's filter")
        path = os.path.join(run.build_dir(), "traces", f"{w}-seed1.json")
        check = subprocess.run([sys.executable, "-m", "json.tool", path],
                               capture_output=True)
        expect(check.returncode == 0, f"{w}: trace JSON parses")
        with open(path) as f:
            trace = json.load(f)
        layers = {e["cat"] for e in trace["traceEvents"]
                  if e.get("pid") == 1000 and e.get("ph") == "X"}
        seen_layers |= layers
        missing = LAYERS[w] - layers
        expect(not missing, f"{w}: host spans for {sorted(LAYERS[w])}"
               + (f" (missing {sorted(missing)})" if missing else ""))

        if w == "cluster_degraded":
            one, _ = bench(w, 1, 0, "--threads", "1")
            expect(pick(one, SIM) == pick(a, SIM),
                   f"{w}: 1 thread matches the configured thread count")
            lone, _ = bench(w, 1, 1, "--threads", "1")
            expect(pick(lone, EXACT_LAYER) == pick(la, EXACT_LAYER),
                   f"{w}: 1-thread exact per-layer counts match")

    expect(seen_layers >= set().union(*LAYERS.values()),
           "every layer has a host span in some traced run")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
