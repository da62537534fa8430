"""Benchmark for kdl: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload plat-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root.  kdl is imported from ``src/`` of the same
tree; without it the benchmark exits with code 2 and prints no result.
Workloads are defined in ``workloads.py`` and documented in README.md.

``--trace 0`` measures the end-to-end metrics: ops run back to back (a
closed loop with one caller) until ``--seconds`` have passed, and set-up
time is the median of several fresh processes that do only the set-up.
Times are scaled to the host's nominal speed, measured in the same run
by a reference kernel that runs no kdl code (``speed.py``); the raw
figures are printed as well.
``--trace 1`` measures the per-layer metrics in three equal parts of the
time: untraced ops, ops with timed spans, and ops with spans that also
trace peak memory.  Layer times and counts come from the second part,
peaks from the third; the difference between the first two parts'
ops_per_s is the tracing overhead.  Spans go to
``perfbench/out/spans-<workload>-<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "distortion.certified.s": "s",
    "distortion.certified.cells": "count",
    "distortion.certified.peak_mb": "MB",
    "distortion.certified.grid_s": "s",
    "distortion.certified.grid_cells": "count",
    "distortion.certified.bisect_s": "s",
    "distortion.certified.bisect_cells": "count",
    "distortion.certified.width": "ratio",
    "distortion.sampled.s": "s",
    "distortion.sampled.pairs": "count",
    "distortion.sampled.peak_mb": "MB",
    "plat.build_plat.s": "s",
    "plat.build_plat.vertices": "count",
    "plat.build_plat.peak_mb": "MB",
    "geom.min_clearance.s": "s",
    "bounds.make_report.s": "s",
    "geom.build_polycurve.s": "s",
    "refine.s": "s",
    "refine.iters_per_s": "1/s",
    "refine.peak_mb": "MB",
    "refine.ratio_drop": "ratio",
    "trace.overhead_ops_per_s": "1/s",
}


def import_program():
    """Put ``src/`` and this directory first on the module path."""
    if not os.path.isfile(os.path.join(SRC, "kdl", "__init__.py")):
        print(f"kdl sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, HERE]


def run_op(wl, tr, k):
    """Run and check op ``k``; returns (seconds, CPU seconds of the
    process, list of failed checks).

    The times cover the op and its checks; the traced grid probe runs
    after they are taken.
    """
    c0 = time.process_time()
    t0 = time.perf_counter()
    tr.op = k
    try:
        with tr.span("op"):
            res = wl.op(k, tr)
        bad = wl.check(k, res)
    except Exception as exc:  # an op that raises counts as failed
        bad = [f"{type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    cpu = time.process_time() - c0
    tr.finish_op()
    return dt, cpu, bad


def run_ops(wl, tr, start_k, seconds, ref=None):
    """Run ops back to back (at least one) until ``seconds`` have passed.

    ``ref``, a ``speed.SpeedReference``, is sampled before every op and
    after the last, outside the ops' time.  Returns (latencies of correct
    ops, attempted, failures, wall seconds, CPU seconds).
    """
    lat, failures = [], []
    wall = cpu = 0.0
    k = start_k
    while k == start_k or wall < seconds:
        if ref is not None:
            ref.sample()
        dt, dc, bad = run_op(wl, tr, k)
        wall += dt
        cpu += dc
        if bad:
            failures.append((k, bad))
        else:
            lat.append(dt)
        k += 1
    if ref is not None:
        ref.sample()
    return lat, k - start_k, failures, wall, cpu


def setup_seconds(workload, seed, ref):
    """Median wall time of fresh processes doing interpreter start, import
    and input generation, up to the point where the first op would run.
    ``ref`` is sampled before every process and after the last."""
    times = []
    for _ in range(SETUP_PROBES):
        ref.sample()
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]) - t0)
    ref.sample()
    return statistics.median(times)


def tail_percentile(lat):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(lat)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, statistics.quantiles(lat, n=1000, method="inclusive")[int(p * 10) - 1]
    return None, None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tr):
    """Per-layer metrics: medians over traced ops, times and counts from
    the timing phase, peaks from the memory phase; 0 for a layer the
    workload does not call."""
    per_op = tr.per_op()
    timed = [layers for k, (mem, layers) in sorted(per_op.items()) if not mem]
    mem = [layers for k, (m, layers) in sorted(per_op.items()) if m]

    def col(name, count=None, ops=timed):
        recs = [layers[name] for layers in ops if name in layers]
        return [r["counts"].get(count, 0) if count else r["s"] for r in recs]

    def peak(name):
        return [layers[name]["peak_mb"] for layers in mem if name in layers]

    def diff(a, b):
        return [x - y for x, y in zip(a, b)] if len(a) == len(b) else []

    def noted(key):
        return [n[key] for k, n in sorted(tr.notes.items()) if key in n]

    cert_s, grid_s = col("distortion.certified"), col("distortion.certified.grid")
    cert_c = col("distortion.certified", "cells")
    grid_c = col("distortion.certified.grid", "cells")
    refine_s = col("refine")
    out = {
        "distortion.certified.s": cert_s,
        "distortion.certified.cells": cert_c,
        "distortion.certified.peak_mb": peak("distortion.certified"),
        "distortion.certified.grid_s": grid_s,
        "distortion.certified.grid_cells": grid_c,
        "distortion.certified.bisect_s": diff(cert_s, grid_s),
        "distortion.certified.bisect_cells": diff(cert_c, grid_c),
        "distortion.certified.width": noted("distortion.certified.width"),
        "distortion.sampled.s": col("distortion.sampled"),
        "distortion.sampled.pairs": col("distortion.sampled", "pairs"),
        "distortion.sampled.peak_mb": peak("distortion.sampled"),
        "plat.build_plat.s": col("plat.build_plat"),
        "plat.build_plat.vertices": col("plat.build_plat", "vertices"),
        "plat.build_plat.peak_mb": peak("plat.build_plat"),
        "geom.min_clearance.s": col("geom.min_clearance"),
        "bounds.make_report.s": col("bounds.make_report"),
        "geom.build_polycurve.s": col("geom.build_polycurve"),
        "refine.s": refine_s,
        "refine.iters_per_s": [i / s for i, s in zip(col("refine", "iterations"), refine_s)],
        "refine.peak_mb": peak("refine"),
        "refine.ratio_drop": noted("refine.ratio_drop"),
    }
    return {k: statistics.median(v) if v else 0.0 for k, v in out.items()}


def print_self_times(tr):
    for memory in (False, True):
        times = tr.self_times(memory)
        n_ops = times.get("op", (1,))[0]
        phase = "memory traced, slower" if memory else "timed"
        print(f"per-layer time, {phase}, over {n_ops} ops (self = minus child spans):")
        print(f"  {'span':30s} {'calls':>6s} {'total_s':>10s} {'self_s':>10s} {'self_s/op':>10s}")
        for name, (calls, total, self_s) in sorted(times.items()):
            print(f"  {name:30s} {calls:6d} {total:10.4f} {self_s:10.4f} {self_s / n_ops:10.4f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import spans
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, args.seed)

    # One untimed, checked op first, so that one-off costs of a fresh
    # process (lazy imports, first use of newly mapped memory) stay out of
    # the timed ops; set-up time is measured on its own.
    _, _, bad = run_op(wl, spans.NullTracer(), 0)
    failures = [(0, bad)] if bad else []

    if args.trace == 0:
        setup_ref = speed.SpeedReference()
        setup_s = setup_seconds(args.workload, args.seed, setup_ref)
        ref = speed.SpeedReference()
        lat, attempted, fails, wall, cpu = run_ops(wl, spans.NullTracer(), 1, args.seconds, ref)
        failures += fails
        raw = {
            "ops_per_s": len(lat) / wall,
            "op_p50_s": statistics.median(lat) if lat else wall / attempted,
            "cpu_per_op_s": cpu / attempted,
            "setup_s": setup_s,
        }
        scale, setup_scale = ref.scale(), setup_ref.scale()
        metrics = {
            "ops_per_s": raw["ops_per_s"] / scale,
            "op_p50_s": raw["op_p50_s"] * scale,
            "cpu_per_op_s": raw["cpu_per_op_s"] * scale,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s * setup_scale,
        }
        p, pv = tail_percentile(lat)
        tail = (f"p{p:g} = {pv:.4f} s" if p is not None
                else "no percentile has >= 10 samples beyond it")
        print(f"workload {args.workload}, seed {args.seed}: {attempted} ops timed in "
              f"{wall:.2f} s after 1 warm-up op, {len(failures)} failed; raw latency "
              f"{tail} (n={len(lat)}): " + " ".join(f"{x:.3f}" for x in lat))
        print(f"host speed x{scale:.4f} of nominal during ops, x{setup_scale:.4f} during "
              f"set-up; raw " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        attempted += 1
    else:
        third = args.seconds / 3.0
        lat_u, att_u, fail_u, wall_u, _ = run_ops(wl, spans.NullTracer(), 1, third)
        with spans.Tracer() as tr:
            lat_t, att_t, fail_t, wall_t, _ = run_ops(wl, tr, 1 + att_u, third)
            tr.set_memory(True)
            lat_m, att_m, fail_m, wall_m, _ = run_ops(wl, tr, 1 + att_u + att_t, third)
        metrics = layer_metrics(tr)
        metrics["trace.overhead_ops_per_s"] = len(lat_u) / wall_u - len(lat_t) / wall_t
        attempted = 1 + att_u + att_t + att_m
        failures += fail_u + fail_t + fail_m
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tr.write(spans_path)
        print(f"workload {args.workload}, seed {args.seed}: 1 warm-up op, untraced {att_u} in "
              f"{wall_u:.2f} s, timed {att_t} in {wall_t:.2f} s, memory traced "
              f"{att_m} in {wall_m:.2f} s; {len(failures)} failed; spans in "
              f"{os.path.relpath(spans_path, ROOT)}")
        print_self_times(tr)

    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    for k, bad in failures[:5]:
        print(f"op {k} FAILED: {'; '.join(bad)}")
    error_rate = len(failures) / attempted
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6g} {units[name]}")
    print(f"  {'error_rate':34s} {error_rate:16.6g} ratio  ({len(failures)}/{attempted})")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: metric(v, units[k]) for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
