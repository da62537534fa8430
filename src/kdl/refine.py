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

The next-vertex index is built once per run, and each move computes its
edge vectors and lengths once, for both the objective and the clearance
veto.  The objective scans its point pairs by cyclic offset
(distortion._max_ratio), so no pair triangle is built.  It is not
incremental: one move shifts every equally spaced sample.  The veto
measures only the edge pairs that a half-edge sphere bound cannot clear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distortion import _max_ratio
from .errors import InfeasibleStart
from .geom import PolyCurve, _seg_seg_dist, build_polycurve, min_clearance

__all__ = ["RefineConfig", "refine"]

_COOLING = 0.999  # temperature factor per iteration
# the centres of an edge's two half-edge spheres, as fractions of the edge
_QUARTERS = np.array([0.25, 0.75])[:, None, None]
# the edges sharing a vertex with edge vi - 1 (row 0: vi - 2 .. vi) and
# with edge vi (row 1: vi - 1 .. vi + 1), as offsets from vi
_SHARED_ROWS = np.array([0, 0, 0, 1, 1, 1])
_SHARED_OFFSETS = np.array([-2, -1, 0, -1, 0, 1])


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


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float array, bit for bit (it takes the same
    sqrt(v.dot(v))), without its Python overhead."""
    return math.sqrt(v.dot(v))


def _edges(verts: np.ndarray, nxt: np.ndarray):
    """Edge vectors and lengths of the loop verts; nxt[k] is the vertex
    after vertex k."""
    deltas = verts.take(nxt, axis=0) - verts
    return deltas, np.sqrt(np.einsum("ij,ij->i", deltas, deltas))


def _sampled_max_ratio(verts: np.ndarray, deltas: np.ndarray, lens: np.ndarray, n_samples: int) -> float:
    """Worst arc/chord ratio over vertices plus n_samples spaced points.

    Same sample set and ratio kernel as distortion_sampled, built from the
    raw vertex array and its _edges, so the annealing loop needs no
    PolyCurve per move.
    """
    m = len(verts)
    L = float(lens.sum())
    cum = np.empty(m + 1)
    cum[0] = 0.0
    np.cumsum(lens, out=cum[1:])
    sp = np.arange(n_samples) * (L / n_samples)
    # sp >= 0 = cum[0] puts k at 0 or above; float dust on the last edge
    # can put it at m
    k = np.searchsorted(cum, sp, side="right") - 1
    np.minimum(k, m - 1, out=k)
    frac = (sp - cum.take(k)) / lens.take(k)
    X = np.empty((3, m + n_samples))
    X[:, :m] = verts.T
    X[:, m:] = (verts.take(k, axis=0) + frac[:, None] * deltas.take(k, axis=0)).T
    params = np.concatenate([cum[:m], sp])
    return _max_ratio(X, params, L)[0]


def _moved_edges_clear(verts, deltas, lens, vi: int, floor: float) -> bool:
    """Whether the two edges at vertex vi lie at least floor, as
    _seg_seg_dist measures it, from every edge sharing no vertex with
    them (true when there is none).

    Each edge is covered by two spheres of radius len/4, centred at a
    quarter and three quarters of its length.  An edge pair whose spheres
    lie at least floor apart, after a _pad-style margin for rounding in
    the points and spheres, is cleared without a distance; only the rest
    are measured, as (moved, other), the call the full row of the moved
    edge makes, so each distance is that row's bit for bit.
    """
    m = len(verts)
    e = np.array([(vi - 1) % m, vi])
    C = verts + _QUARTERS * deltas  # (half, edge, 3)
    diff = C.take(e, axis=1)[:, None, :, None] - C[:, None]
    # least centre distance over both halves of either edge, per (moved, other)
    dist = np.sqrt(np.einsum("...k,...k->...", diff, diff).reshape(4, 2, m).min(axis=0))
    R = 0.25 * lens
    near = dist - R.take(e)[:, None] - R < floor + 1e-12 * (1.0 + float(np.abs(verts).max()))
    near[_SHARED_ROWS, (vi + _SHARED_OFFSETS) % m] = False
    a, b = np.nonzero(near)
    if not len(a):
        return True
    a = e.take(a)
    return bool(_seg_seg_dist(verts.take(a, axis=0), deltas.take(a, axis=0),
                              verts.take(b, axis=0), deltas.take(b, axis=0)).min() >= floor)


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
    nxt = (np.arange(m) + 1) % m

    step_eff = min(cfg.step, 0.5 * cfg.clearance_floor)
    cur_obj = _sampled_max_ratio(verts, *_edges(verts, nxt), n_samples)
    best_obj = cur_obj
    best_verts = verts.copy()
    T = 0.01
    log_rows = [(0, best_obj, clear0)]

    for it in range(1, cfg.iterations + 1):
        vi = int(rng.integers(m))
        direction = rng.normal(size=3)
        nrm = _norm(direction)
        # a zero direction makes no move and leaves the temperature as is
        if nrm >= 1e-30:
            radius = step_eff * float(rng.random()) ** (1.0 / 3.0)
            cand_v = verts[vi] + direction * (radius / nrm)
            prev_v = verts[vi - 1]
            next_v = verts[(vi + 1) % m]
            # refuse moves that collapse an edge; the clearance check ignores
            # adjacent pairs, so this is the only degeneracy the floor misses
            if min(_norm(cand_v - prev_v), _norm(cand_v - next_v)) >= 1e-9:
                cand_verts = verts.copy()
                cand_verts[vi] = cand_v
                deltas, lens = _edges(cand_verts, nxt)
                cand_obj = _sampled_max_ratio(cand_verts, deltas, lens, n_samples)
                delta = cand_obj - cur_obj
                # the objective accepts the move, then the clearance floor has
                # the veto.  Pairs away from the two moved edges are unchanged
                # and cleared the floor when their state was accepted, so only
                # the moved ones count.
                if (
                    not delta > 0.0
                    or float(rng.random()) < math.exp(-delta / max(T, 1e-300))
                ) and _moved_edges_clear(cand_verts, deltas, lens, vi, cfg.clearance_floor):
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
