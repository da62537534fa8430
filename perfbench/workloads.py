"""The benchmark's four workloads: seeded inputs, one op each, and its checks.

Every workload is a class with the same shape:

* the constructor takes the benchmark seed and generates all inputs (this
  is the part of set-up that belongs to the workload);
* ``op(k, tr)`` runs op number ``k`` through kdl's public API, wrapping
  each call into a layer in a span of the tracer ``tr``;
* ``check(k, result)`` returns a list of failed checks (empty when the op
  is correct).

kdl only ever sees the generated inputs; the seed stays here.  Inputs may
vary with the seed, but each workload keeps the cost of an op the same
for every seed (fixed sizes, fixed counts), so runs on different seeds
measure the same amount of work.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from kdl import (
    PlatSpec,
    RefineConfig,
    build_plat,
    build_polycurve,
    component_count,
    distortion_certified,
    distortion_sampled,
    make_report,
    make_uniform_jm_spec,
    min_clearance,
    refine,
    regions_for,
    twist_region_count,
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# relative tolerance for values that must reproduce a recorded reference
REF_REL = 1e-9


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, *stream])


def _rel_close(got: float, want: float, rel: float = REF_REL) -> bool:
    return abs(got - want) <= rel * abs(want)


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class PlatSweep:
    """One ``kdl sweep`` row at b=3, on a seeded similar copy of the plat.

    The op builds the uniform (3, 13, 3) plat and its bounds report, moves
    the curve by a seeded similarity (rotation, scale, shift) and measures
    the moved copy: sampled with 1024 extra points, certified to eps=0.05.
    Distortion is similarity invariant, so lo, hi and the sampled ratio
    equal the recorded values for every seed.
    """

    name = "plat-sweep"
    b, n, t = 3, 13, 3
    samples = 1024
    eps = 0.05

    def __init__(self, seed: int, reference: dict | None = None):
        ref = (reference or load_reference())[self.name]
        self.ref = {k: float(ref[k]) for k in ("lo", "hi", "sampled")}
        self.spec = make_uniform_jm_spec(self.b, self.n, self.t)
        self.seed = seed

    def similarity(self, k: int):
        rng = _rng(self.seed, 1, k)
        rot = random_rotation(rng)
        scale = float(rng.uniform(0.5, 2.0))
        shift = rng.uniform(-5.0, 5.0, size=3)
        return rot, scale, shift

    def op(self, k: int, tr) -> dict:
        rot, scale, shift = self.similarity(k)
        with tr.span("plat.build_plat") as sp:
            curve = build_plat(self.spec)
            sp.count("vertices", curve.m)
        with tr.span("bounds.make_report"):
            report = make_report(self.spec, curve)
        with tr.span("geom.build_polycurve"):
            moved = build_polycurve(scale * curve.vertices @ rot.T + shift)
        with tr.span("distortion.sampled") as sp:
            sampled = distortion_sampled(moved, self.samples)
            n = moved.m + self.samples
            sp.count("pairs", n * (n - 1) // 2)
        with tr.span("distortion.certified") as sp:
            cert = distortion_certified(moved, eps=self.eps)
            sp.count("cells", cert.cells)
        tr.note("distortion.certified.width", cert.width)
        tr.probe_certified(moved, self.eps)
        return {"report": report, "sampled": sampled.ratio, "cert": cert}

    def check(self, k: int, res: dict) -> list[str]:
        rep, cert, s = res["report"], res["cert"], res["sampled"]
        bad = []
        for key, got in (("lo", cert.lo), ("hi", cert.hi), ("sampled", s)):
            if not _rel_close(got, self.ref[key]):
                bad.append(f"{key} {got!r} != recorded {self.ref[key]!r}")
        if not (rep.lower_bound <= cert.lo <= cert.hi <= rep.upper_bound):
            bad.append(
                f"sandwich fails: {rep.lower_bound!r} <= {cert.lo!r} <= "
                f"{cert.hi!r} <= {rep.upper_bound!r}"
            )
        if not cert.width <= self.eps * (1.0 + REF_REL):
            bad.append(f"width {cert.width!r} > eps {self.eps!r}")
        if cert.budget_exceeded:
            bad.append("certified budget exceeded")
        return bad


class RoundCertify:
    """Certify a seeded smooth near-round loop: low distortion, no pruning.

    Each op takes a fresh loop of m=2048 vertices: a unit circle whose
    radius and height carry Fourier modes 2..4 with seeded phases and
    amplitudes, then runs the sampled scan with 1024 extra points and the
    certified engine at eps=1e-3.  Distortion stays near pi/2, so a
    radius bound (L/2)/r is about the loop's diameter and prunes no pair.
    """

    name = "round-certify"
    m = 2048
    samples = 1024
    eps = 1e-3
    modes = (2, 3, 4)
    amp = 0.02

    def __init__(self, seed: int, reference: dict | None = None):
        self.seed = seed
        self.theta = np.linspace(0.0, 2.0 * math.pi, self.m, endpoint=False)

    def loop(self, k: int) -> np.ndarray:
        rng = _rng(self.seed, 2, k)
        th = self.theta
        r = np.ones_like(th)
        z = np.zeros_like(th)
        for f in self.modes:
            a_r, a_z = self.amp * rng.uniform(0.5, 1.0, size=2) / f
            p_r, p_z = rng.uniform(0.0, 2.0 * math.pi, size=2)
            r += a_r * np.cos(f * th + p_r)
            z += a_z * np.cos(f * th + p_z)
        return np.stack([r * np.cos(th), r * np.sin(th), z], axis=1)

    def op(self, k: int, tr) -> dict:
        verts = self.loop(k)
        with tr.span("geom.build_polycurve"):
            curve = build_polycurve(verts)
        with tr.span("distortion.sampled") as sp:
            sampled = distortion_sampled(curve, self.samples)
            n = curve.m + self.samples
            sp.count("pairs", n * (n - 1) // 2)
        with tr.span("distortion.certified") as sp:
            cert = distortion_certified(curve, eps=self.eps)
            sp.count("cells", cert.cells)
        tr.note("distortion.certified.width", cert.width)
        tr.probe_certified(curve, self.eps)
        return {"sampled": sampled.ratio, "cert": cert}

    def check(self, k: int, res: dict) -> list[str]:
        cert, s = res["cert"], res["sampled"]
        bad = []
        if not s <= cert.hi:
            bad.append(f"sampled {s!r} > hi {cert.hi!r}")
        if not cert.hi >= math.pi / 2.0:
            bad.append(f"hi {cert.hi!r} below the Gromov floor pi/2")
        if not cert.width <= self.eps * (1.0 + REF_REL):
            bad.append(f"width {cert.width!r} > eps {self.eps!r}")
        if cert.budget_exceeded:
            bad.append("certified budget exceeded")
        return bad


class PlatBuild:
    """Build a seeded mixed-twist plat at b=5, n=61 and its bounds report.

    Each op's spec gives every region a half-twist magnitude of 3 or 5,
    signs as in ``make_uniform_jm_spec``.  Exactly a quarter of the regions
    (rounded down) get 5, in a seeded order, so the vertex count (30,878)
    is the same for every seed and op.  All counts are odd, so the closure
    is the same knot as the uniform t=3 spec.
    """

    name = "plat-build"
    b, n = 5, 61
    vertices = 30_878

    def __init__(self, seed: int, reference: dict | None = None):
        self.seed = seed
        self.keys = regions_for(self.b, self.n)

    def spec(self, k: int) -> PlatSpec:
        rng = _rng(self.seed, 3, k)
        n_keys = len(self.keys)
        mags = np.full(n_keys, 3)
        mags[: n_keys // 4] = 5
        rng.shuffle(mags)
        tw = {
            key: int(w) if key[0] % 2 == 1 else -int(w)
            for key, w in zip(self.keys, mags)
        }
        return PlatSpec(b=self.b, n=self.n, twists=tw)

    def op(self, k: int, tr) -> dict:
        spec = self.spec(k)
        with tr.span("plat.build_plat") as sp:
            curve = build_plat(spec)
            sp.count("vertices", curve.m)
        with tr.span("bounds.make_report"):
            report = make_report(spec, curve)
        return {"spec": spec, "curve": curve, "report": report}

    def check(self, k: int, res: dict) -> list[str]:
        spec, curve, rep = res["spec"], res["curve"], res["report"]
        b, n = self.b, self.n
        bad = []
        comps = component_count(spec)
        if comps != 1:
            bad.append(f"{comps} components")
        if curve.m != self.vertices:
            bad.append(f"{curve.m} vertices, expected {self.vertices}")
        kinds = [a.kind for a in curve.arcs]
        want = {"bridge": 2 * b, "vertical": n + 1, "twist": 2 * twist_region_count(b, n)}
        for kind, count in want.items():
            if kinds.count(kind) != count:
                bad.append(f"{kinds.count(kind)} {kind} arcs, expected {count}")
        if not (rep.alpha is not None and rep.alpha > 0.0):
            bad.append(f"alpha {rep.alpha!r} is not positive")
        return bad


class RefineRing:
    """Refine a seeded jittered 64-gon for 2000 iterations.

    The op anneals a planar 64-gon with radial noise (amplitude 0.05),
    then measures the result with the sampled scan at 64 extra points and
    its clearance.  Ops cycle through ``pool`` inputs per seed; refine is
    deterministic, so a repeated input must give the same result, and the
    results for the recorded seeds must equal ``reference.json``.
    """

    name = "refine-ring"
    m = 64
    amp = 0.05
    iterations = 2000
    step = 0.05
    floor = 0.05
    samples = 64
    pool = 2

    def __init__(self, seed: int, reference: dict | None = None):
        self.seed = seed
        table = (reference or load_reference())[self.name]["end_ratio"]
        self.recorded = table.get(str(seed))
        self.seen: dict[int, float] = {}
        th = np.linspace(0.0, 2.0 * math.pi, self.m, endpoint=False)
        self.inputs = []
        for j in range(self.pool):
            rng = _rng(seed, 4, j)
            r = 1.0 + self.amp * (2.0 * rng.random(self.m) - 1.0)
            verts = np.stack([r * np.cos(th), r * np.sin(th), np.zeros(self.m)], axis=1)
            self.inputs.append(build_polycurve(verts))

    def config(self, j: int) -> RefineConfig:
        return RefineConfig(
            iterations=self.iterations,
            step=self.step,
            clearance_floor=self.floor,
            seed=int(_rng(self.seed, 5, j).integers(2**31)),
        )

    def op(self, k: int, tr) -> dict:
        j = k % self.pool
        c0 = self.inputs[j]
        with tr.span("distortion.sampled") as sp:
            start = distortion_sampled(c0, self.samples).ratio
            n = c0.m + self.samples
            sp.count("pairs", n * (n - 1) // 2)
        with tr.span("refine") as sp:
            out = refine(c0, self.config(j))
            sp.count("iterations", self.iterations)
        with tr.span("distortion.sampled") as sp:
            end = distortion_sampled(out, self.samples).ratio
            sp.count("pairs", n * (n - 1) // 2)
        with tr.span("geom.min_clearance"):
            clear = min_clearance(out)
        tr.note("refine.ratio_drop", start - end)
        return {"j": j, "start": start, "end": end, "clearance": clear}

    def check(self, k: int, res: dict) -> list[str]:
        j, start, end = res["j"], res["start"], res["end"]
        bad = []
        if not res["clearance"] >= self.floor - 1e-12:
            bad.append(f"clearance {res['clearance']!r} below floor {self.floor!r}")
        if not end <= start:
            bad.append(f"ratio rose from {start!r} to {end!r}")
        want = self.seen.setdefault(j, end)
        if self.recorded is not None:
            want = float(self.recorded[j])
        if not _rel_close(end, want):
            bad.append(f"end ratio {end!r} != recorded {want!r} for input {j}")
        return bad


WORKLOADS = {w.name: w for w in (PlatSweep, RoundCertify, PlatBuild, RefineRing)}


def make(name: str, seed: int, reference: dict | None = None):
    return WORKLOADS[name](seed, reference)

