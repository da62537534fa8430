"""Per-layer wall time and peak RSS of kdl, written to a BENCH file.

    python3 scripts/bench_layers.py --label NAME

Run it from the repository root; it imports kdl from ``src/`` of the same
tree.  It writes ``.benchmarks/BENCH_NAME.json`` and prints the layer
table as markdown.

The inputs are the uniform plats at b = 3..6 (n = 4b(b-2)+1, three
half-twists a region, certified at eps = 0.05) and one near-round loop
of 2,048 vertices (a unit circle whose radius and height carry Fourier
modes 2..4, certified at eps = 1e-3).  Each input runs in a fresh
process, which calls its layers once each, in this order: the build
(``build_plat``, or ``build_polycurve`` for the loop), clearance
(``geom._closest_edges``, the computation ``min_clearance`` caches per
curve, so the layer times it even when the build already has),
``distortion_sampled(curve, 1024)``, the vertex scan
(``distortion._initial_vertex_scan``) and ``distortion_certified``.  A
last input, the jittered 64-gon of acceptance criterion 09 (radial
noise 0.05, numpy seed 12345), has one layer: ``refine`` for 2,000 moves
(step 0.05, clearance floor 0.05, seed 7), recording the sampled ratio
of the result over its own vertex count of samples, the refiner's
objective, and a SHA-256 of its vertices.

Every input runs 5 times, each time in a fresh process, the inputs taking
turns so that a slow spell of a shared host spreads over all of them.
Each record is one layer of one input: the median of its 5 wall times in
seconds, with their least and largest value as the spread and all 5
times in run order, and the median of the process's peak RSS in MB once
the layer has returned (the high-water mark, so it never falls from one
layer to the next), plus what the layer computed, so two files can be
checked for equal results.  The computed values must agree across the 5
runs, or the script stops.  On a shared host, compare files made on the
same machine close together in time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from kdl import (  # noqa: E402
    build_plat,
    build_polycurve,
    distortion_certified,
    distortion_sampled,
    make_uniform_jm_spec,
)
from kdl.distortion import _initial_vertex_scan  # noqa: E402
from kdl.geom import _closest_edges  # noqa: E402
from kdl.refine import RefineConfig, refine  # noqa: E402

PLAT_BS = (3, 4, 5, 6)
PLAT_EPS = 0.05
ROUND_M = 2048
ROUND_EPS = 1e-3
SAMPLES = 1024
RING = "refine 64-gon"
RING_CONFIG = RefineConfig(iterations=2000, step=0.05, clearance_floor=0.05, seed=7)
RUNS = 5


def round_loop(m: int = ROUND_M) -> np.ndarray:
    """Unit circle with Fourier modes 2..4 in radius and height (fixed
    amplitudes and phases): distortion close to pi/2."""
    rng = np.random.default_rng(1)
    th = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    r, z = np.ones(m), np.zeros(m)
    for f in (2, 3, 4):
        a_r, a_z = 0.02 * rng.uniform(0.5, 1.0, size=2) / f
        p_r, p_z = rng.uniform(0.0, 2.0 * math.pi, size=2)
        r += a_r * np.cos(f * th + p_r)
        z += a_z * np.cos(f * th + p_z)
    return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)


def jittered_ring(m: int = 64, seed: int = 12345, amp: float = 0.05) -> np.ndarray:
    """Planar m-gon with radial noise, the start of acceptance criterion 09."""
    rng = np.random.default_rng(seed)
    th = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    r = 1.0 + amp * (2.0 * rng.random(m) - 1.0)
    return np.stack([r * np.cos(th), r * np.sin(th), np.zeros(m)], axis=1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str) -> list[dict]:
    """Run every layer of one input once; one record per layer."""
    records = []

    def layer(label, call, describe):
        t0 = time.perf_counter()
        out = call()
        records.append({"input": name, "layer": label, "s": time.perf_counter() - t0,
                        "peak_rss_mb": peak_rss_mb(), **describe(out)})
        return out

    if name == RING:
        layer("refine", lambda: refine(build_polycurve(jittered_ring()), RING_CONFIG),
              lambda c: {"iterations": RING_CONFIG.iterations,
                         "ratio": distortion_sampled(c, c.m).ratio,
                         "vertices_sha256": hashlib.sha256(c.vertices.tobytes()).hexdigest()})
        return records
    if name == "round":
        curve = layer("build", lambda: build_polycurve(round_loop()),
                      lambda c: {"call": "build_polycurve", "m": c.m})
        eps = ROUND_EPS
    else:
        b = int(name.removeprefix("plat b="))
        spec = make_uniform_jm_spec(b, 4 * b * (b - 2) + 1, 3)
        curve = layer("build", lambda: build_plat(spec), lambda c: {"call": "build_plat", "m": c.m})
        eps = PLAT_EPS
    layer("clearance", lambda: _closest_edges(curve), lambda d: {"alpha": d[0]})
    layer("distortion_sampled", lambda: distortion_sampled(curve, SAMPLES),
          lambda w: {"ratio": w.ratio, "witness": [w.s, w.t]})
    layer("initial_vertex_scan", lambda: _initial_vertex_scan(curve),
          lambda v: {"ratio": v[0], "witness": [v[1], v[2]]})
    layer("distortion_certified", lambda: distortion_certified(curve, eps=eps),
          lambda cert: {"eps": eps, "lo": cert.lo, "hi": cert.hi, "cells": cert.cells,
                        "witness": [cert.witness.s, cert.witness.t],
                        "budget_exceeded": cert.budget_exceeded})
    return records


def machine_note() -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "note": f"median and spread of {RUNS} runs per figure, each run of an input in a fresh process",
    }


def summarize(runs: list[list[dict]]) -> list[dict]:
    """One record per layer of one input from its runs' records: the
    median time, its spread and the run times, and the median peak RSS.
    The layer's computed values must agree across the runs."""
    out = []
    for recs in zip(*runs):
        values = [{k: v for k, v in r.items() if k not in ("s", "peak_rss_mb")} for r in recs]
        if any(v != values[0] for v in values):
            raise SystemExit(f"{values[0]['input']} {values[0]['layer']}: runs computed different values")
        times = [r["s"] for r in recs]
        out.append({**values[0], "runs": len(recs), "s": statistics.median(times),
                    "s_spread": [min(times), max(times)], "s_runs": times,
                    "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in recs)})
    return out


def table(records: list[dict]) -> str:
    """The records as a markdown table, one row per layer."""
    inputs = list(dict.fromkeys(r["input"] for r in records))
    layers = list(dict.fromkeys(r["layer"] for r in records))
    cell = {(r["input"], r["layer"]): r for r in records}
    lines = ["| layer | " + " | ".join(inputs) + " |", "|---" * (len(inputs) + 1) + "|"]
    for name in layers:
        row = []
        for inp in inputs:
            r = cell.get((inp, name))
            text = "" if r is None else f"{r['s']:.3f} s ({r['s_spread'][0]:.3f}–{r['s_spread'][1]:.3f})"
            if r is not None and "cells" in r:
                text += f", {r['cells']:,} cells"
            row.append(text)
        lines.append(f"| {name} | " + " | ".join(row) + " |")
    peaks = [max(r["peak_rss_mb"] for r in records if r["input"] == inp) for inp in inputs]
    lines.append("| peak RSS | " + " | ".join(f"{p:.0f} MB" for p in peaks) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="names the output .benchmarks/BENCH_<label>.json")
    args = ap.parse_args(argv)
    names = [f"plat b={b}" for b in PLAT_BS] + ["round", RING]
    runs = {name: [] for name in names}
    ctx = get_context("spawn")
    for run in range(RUNS):
        for name in names:
            # a fresh worker per run of an input, so each peak RSS is that run's alone
            with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
                runs[name].append(pool.submit(measure, name).result())
        print(f"run {run + 1} of {RUNS} done", file=sys.stderr, flush=True)
    records = [r for name in names for r in summarize(runs[name])]
    out_dir = os.path.join(ROOT, ".benchmarks")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump({"label": args.label, "machine": machine_note(), "records": records}, fh, indent=1)
        fh.write("\n")
    print(table(records))
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
