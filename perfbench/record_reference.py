"""Record the reference values the workloads' checks compare against.

    python3 perfbench/record_reference.py [--refine-seeds N]

Writes ``perfbench/reference.json``:

* ``plat-sweep``: certified lo and hi (eps=0.05) and the sampled ratio
  (1024 extra points) of the uniform (3, 13, 3) plat as built, untransformed;
* ``refine-ring``: for seeds 0..N-1, the end sampled ratio of every input
  in the workload's pool.

Run it only at a commit whose results are trusted; a later commit must
reproduce these values, it must not re-record them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import import_program

import_program()
import spans  # noqa: E402
import workloads  # noqa: E402
from kdl import build_plat, distortion_certified, distortion_sampled  # noqa: E402


def plat_sweep_reference() -> dict:
    wl = workloads.PlatSweep
    curve = build_plat(workloads.make_uniform_jm_spec(wl.b, wl.n, wl.t))
    cert = distortion_certified(curve, eps=wl.eps)
    return {
        "lo": cert.lo,
        "hi": cert.hi,
        "sampled": distortion_sampled(curve, wl.samples).ratio,
        "cells": cert.cells,
    }


def refine_ring_reference(n_seeds: int) -> dict:
    table = {}
    tr = spans.NullTracer()
    for seed in range(n_seeds):
        wl = workloads.RefineRing(seed, {"refine-ring": {"end_ratio": {}}})
        table[str(seed)] = [wl.op(j, tr)["end"] for j in range(wl.pool)]
        print(f"refine-ring seed {seed}: {table[str(seed)]}", file=sys.stderr)
    return {"end_ratio": table}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--refine-seeds", type=int, default=64)
    args = ap.parse_args()
    ref = {
        "plat-sweep": plat_sweep_reference(),
        "refine-ring": refine_ring_reference(args.refine_seeds),
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(workloads.REFERENCE_PATH)}")


if __name__ == "__main__":
    main()
