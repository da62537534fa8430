"""Stochastic vertex-jiggling to push sampled distortion down.

Simulated annealing over single-vertex moves.  Safety comes from two
mechanisms: the per-move displacement is clamped to half the clearance
floor (so no single move can cross strands), and any candidate whose
clearance would dip below the floor is rejected outright.  Together they
keep every accepted state isotopic to the start, so the knot type never
changes.

The objective is the sampled distortion with a fixed sample count (the
vertex count itself plus that many equally spaced points, the same set
``distortion_sampled(curve, m)`` uses); the recorded best-so-far is what
:func:`refine` returns, so the output is never worse than the input
under the run's own objective.

The vertex count is fixed for a run, so the pair indices of the
objective's point set (the pair triangle, while it fits one block) and
the next-vertex index are built once per run, not once per move.  The
objective itself is not incremental: one move shifts every equally
spaced sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import _RATIO_PAIR_BYTES, _max_ratio, _triangle
from .errors import InfeasibleStart
from .geom import PolyCurve, _block_pairs, _seg_seg_dist, build_polycurve, min_clearance

__all__ = ["RefineConfig", "refine"]

_COOLING = 0.999  # temperature factor per iteration


@dataclass(frozen=True)
class RefineConfig:
    iterations: int
    step: float
    clearance_floor: float
    seed: int

    def __post_init__(self):
        if not isinstance(self.iterations, int) or self.iterations < 0:
            raise ValueError(f"iterations must be a nonnegative integer, got {self.iterations!r}")
        if not (self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step!r}")
        if not (self.clearance_floor > 0.0):
            raise ValueError(f"clearance_floor must be positive, got {self.clearance_floor!r}")


def _sampled_max_ratio(verts: np.ndarray, nxt: np.ndarray, n_samples: int, blocks) -> float:
    """Worst arc/chord ratio over vertices plus n_samples spaced points.

    Same sample set and ratio kernel as distortion_sampled, built from the
    raw vertex array so the annealing loop needs no PolyCurve per move.
    nxt[k] is the vertex after vertex k, and blocks the pair blocks of
    the run (None streams them; see refine).
    """
    m = len(verts)
    deltas = verts.take(nxt, axis=0) - verts
    lens = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    L = float(lens.sum())
    cum = np.empty(m + 1)
    cum[0] = 0.0
    np.cumsum(lens, out=cum[1:])
    sp = np.arange(n_samples) * (L / n_samples)
    k = np.searchsorted(cum, sp, side="right") - 1
    np.clip(k, 0, m - 1, out=k)
    frac = (sp - cum[k]) / lens[k]
    X = np.empty((3, m + n_samples))
    X[:, :m] = verts.T
    X[:, m:] = (verts.take(k, axis=0) + frac[:, None] * deltas.take(k, axis=0)).T
    params = np.concatenate([cum[:m], sp])
    return _max_ratio(X, params, L, blocks)[0]


def _moved_clearance(verts: np.ndarray, nxt: np.ndarray, vi: int) -> float:
    """Least distance from the two edges at vertex vi to the edges that
    share no vertex with them (inf when there are none); nxt[k] is the
    vertex after vertex k."""
    m = len(verts)
    deltas = verts.take(nxt, axis=0) - verts
    edges = [(vi - 1) % m, vi]
    rows = _seg_seg_dist(verts[edges, None], deltas[edges, None], verts, deltas)
    for row, e in zip(rows, edges):
        row[[(e - 1) % m, e, (e + 1) % m]] = math.inf
    return float(rows.min())


def refine(c: PolyCurve, cfg: RefineConfig, log_path=None) -> PolyCurve:
    """Anneal vertex positions; returns the best curve seen.

    Deterministic for a fixed seed.  Raises InfeasibleStart when the
    input already violates the clearance floor.  The returned curve
    carries no arc tags (vertex moves invalidate nominal lengths).
    Optional ``log_path`` writes a CSV of (iteration, best_ratio,
    clearance) every 100 iterations.
    """
    clear0 = min_clearance(c)
    if clear0 < cfg.clearance_floor:
        raise InfeasibleStart(
            f"initial clearance {clear0:.6g} is below the floor "
            f"{cfg.clearance_floor:.6g}"
        )
    if cfg.iterations == 0:
        return c

    rng = np.random.default_rng(cfg.seed)
    m = c.m
    verts = c.vertices.copy()
    n_samples = m
    # the triangle is held only while it fits one block; a larger one is
    # streamed on every move, so memory stays bounded
    n = m + n_samples
    blocks = tuple(_triangle(n)) if (n - 1) ** 2 <= _block_pairs(_RATIO_PAIR_BYTES) else None
    nxt = (np.arange(m) + 1) % m

    step_eff = min(cfg.step, 0.5 * cfg.clearance_floor)
    cur_obj = _sampled_max_ratio(verts, nxt, n_samples, blocks)
    best_obj = cur_obj
    best_verts = verts.copy()
    T = 0.01
    log_rows = [(0, best_obj, clear0)]

    for it in range(1, cfg.iterations + 1):
        vi = int(rng.integers(m))
        direction = rng.normal(size=3)
        nrm = float(np.linalg.norm(direction))
        if nrm < 1e-30:
            continue
        radius = step_eff * float(rng.random()) ** (1.0 / 3.0)
        cand_v = verts[vi] + direction * (radius / nrm)

        prev_v = verts[vi - 1]
        next_v = verts[(vi + 1) % m]
        # refuse moves that collapse an edge; the clearance check ignores
        # adjacent pairs, so this is the only degeneracy the floor misses
        if min(np.linalg.norm(cand_v - prev_v), np.linalg.norm(cand_v - next_v)) < 1e-9:
            T *= _COOLING
            continue

        cand_verts = verts.copy()
        cand_verts[vi] = cand_v
        cand_obj = _sampled_max_ratio(cand_verts, nxt, n_samples, blocks)
        delta = cand_obj - cur_obj
        if delta > 0.0 and not (float(rng.random()) < math.exp(-delta / max(T, 1e-300))):
            T *= _COOLING
            continue
        # objective accepted the move; the clearance floor has the veto.
        # Pairs away from the two moved edges are unchanged and cleared the
        # floor when their state was accepted, so only the moved ones count.
        if _moved_clearance(cand_verts, nxt, vi) >= cfg.clearance_floor:
            verts = cand_verts
            cur_obj = cand_obj
            if cur_obj < best_obj:
                best_obj = cur_obj
                best_verts = verts.copy()
        T *= _COOLING
        if it % 100 == 0 and log_path is not None:
            log_rows.append((it, best_obj, min_clearance(build_polycurve(verts))))

    if log_path is not None:
        with open(log_path, "w") as fh:
            fh.write("iteration,best_ratio,clearance\n")
            for row in log_rows:
                fh.write(f"{row[0]},{row[1]!r},{row[2]!r}\n")
    return build_polycurve(best_verts)
