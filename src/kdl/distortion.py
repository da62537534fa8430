"""Metric distortion of closed polygonal curves.

The quantity of interest is the supremum over point pairs of
(shorter-way arclength) / (chord length).  Three estimators live here:

* :func:`distortion_sampled` -- a plain sampled maximum, fast, always a
  lower bound on the true supremum;
* :func:`cell_upper_bound` -- a rigorous upper bound for the restriction
  of the ratio to a product of two parameter intervals, each inside a
  single edge;
* :func:`distortion_certified` -- branch and bound over edge-interval
  cells, returning an interval [lo, hi] guaranteed to contain the true
  supremum, with hi - lo <= eps unless the cell budget runs out.

Pairs on the same edge or on two edges sharing a vertex never enter the
cell queue: for straight segments the ratio there is maximized at the
shared corner in the equal-arm limit, where it equals
:func:`corner_ratio` of the interior angle, and that value is both
added to the upper bound and realized (up to rounding) by explicit
near-corner sample pairs, so the analytic bound is tight.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateCurve, NotEmbedded, OutOfRange
from .geom import (
    PolyCurve,
    _arc_tree,
    _block_pairs,
    _descend,
    _edge_pairs,
    _interior_angles,
    _min_clearance_pair,
    _pad,
    _points_at,
    _seg_seg_dist,
    _u0,
)

__all__ = [
    "WitnessPair",
    "DistortionCertificate",
    "corner_ratio",
    "helix_ratio_bound",
    "distortion_sampled",
    "cell_upper_bound",
    "distortion_certified",
    "max_pair_ratio_open",
]

_CHORD_FLOOR = 1e-12
_MAX_EXPANSIONS = 5_000_000  # default bisection cap, the CLI's too
# working memory per pair of a block, indices included: a _ratios block
# and a _cell_upper block (about ten 3-vector temporaries)
_RATIO_PAIR_BYTES = 160
_CELL_PAIR_BYTES = 400


@dataclass(frozen=True)
class WitnessPair:
    """A concrete pair of curve parameters and the ratio they achieve."""

    s: float
    t: float
    ratio: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DistortionCertificate:
    """Output of the certified engine.

    ``lo`` is achieved by ``witness``; ``hi`` is a rigorous upper bound
    for the supremum.  ``cells`` counts every cell whose upper bound was
    evaluated: the candidate edge pairs of the initial grid plus all
    bisection children.  The candidates are the vertex-disjoint edge
    pairs that the bounding-sphere descent keeps at ``lo + eps``; pairs
    it rules out, whose arc bound over their gap cannot beat
    ``lo + eps``, are not counted.  When ``budget_exceeded`` is set the
    interval is still valid but may be wider than ``eps``.
    """

    lo: float
    hi: float
    eps: float
    witness: WitnessPair
    cells: int
    budget_exceeded: bool

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return asdict(self)


def corner_ratio(phi: float) -> float:
    """Worst arclength/chord ratio near a corner with interior angle phi.

    For two straight edges meeting at angle phi, points at equal small
    arm lengths a on either side have path length 2a through the corner
    and chord 2*a*sin(phi/2), so the ratio is 1/sin(phi/2) independent of
    a; unequal arms only do worse.  phi must lie in (0, pi]; a flat
    vertex gives exactly 1.0.
    """
    if not (0.0 <= phi <= math.pi):
        raise OutOfRange(f"interior angle {phi!r} outside [0, pi]")
    if phi < 1e-15:
        return math.inf
    return 1.0 / math.sin(0.5 * phi)


def helix_ratio_bound(t) -> float:
    """Closed-form distortion ceiling for one coupled strand.

    A strand winding t half-turns at radius 1/2 while climbing unit
    height has length sqrt((pi*t/2)^2 + 1).  Its worst pair sits one
    whole turn apart, where the chord is pure height, and has ratio
    sqrt((pi*t/2)^2 + 1); no pair does worse.  Such a pair exists only
    for t >= 2, where this value is the exact supremum of the strand's
    pair ratio.  At t = 1 it is a strict upper bound.
    """
    t = abs(int(t))
    if t < 1:
        raise OutOfRange("half-twist count must be a nonzero integer")
    return math.sqrt((math.pi * t / 2.0) ** 2 + 1.0)


def _ratio_of(dx, dy, dz, ds, L) -> np.ndarray:
    """Arc/chord ratio of point pairs from their coordinate and parameter
    differences, elementwise, on a loop of length L (inf for an open
    polyline, whose arc is plain |ds|).  Chords below the floor give 0.
    The difference arrays are overwritten.

    The chord sums its squares as (dx^2 + dz^2) + dy^2, the order in
    which numpy 2.4's einsum sums a length-3 axis, so every ratio is ==
    the row form arc / sqrt(_dot(p - q, p - q)); spelled out, it no
    longer depends on einsum's inner loop.  A pair's differences taken
    the other way round are the exact negations, so its ratio is the
    same either way.
    """
    chord = np.multiply(dx, dx, out=dx)
    chord += np.multiply(dz, dz, out=dz)
    chord += np.multiply(dy, dy, out=dy)
    np.sqrt(chord, out=chord)
    arc = np.abs(ds, out=ds)
    np.minimum(arc, L - arc, out=arc)
    return np.divide(arc, chord, out=np.zeros(arc.shape), where=chord >= _CHORD_FLOOR)


def _ratios(X, S, i, j, L) -> np.ndarray:
    """Arc/chord ratio of the point pairs (i[k], j[k]), elementwise: X
    holds the points' coordinate columns, shape (3, n), and S their
    parameters on a loop of length L (see _ratio_of)."""
    return _ratio_of(*(x.take(i) - x.take(j) for x in (*X, S)), L)


def _pair_ratios(c: PolyCurve, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Ratio for parameter arrays on curve c."""
    n = len(s)
    S = np.concatenate([s, t])
    k = np.arange(n)
    return _ratios(_points_at(c, S).T, S, k, k + n, c.total_len)


def _max_ratio(X: np.ndarray, S: np.ndarray, L: float):
    """Largest ratio over all pairs i < j of the points with coordinate
    columns X at parameters S on a loop of length L (inf for an open
    polyline).  Returns (ratio, i, j), the smallest (i, j) among the
    maximal pairs; ratio is -1 for fewer than two points.

    The pairs go by cyclic offset: offset k pairs point i with point
    (i + k) % n, and the offsets 1 .. n // 2 reach every pair (at n / 2,
    for even n, each pair twice, once from either end).  The columns and
    parameters are stored twice over, so a block of consecutive offsets
    is one strided view of them, with no index arrays; each block holds
    _block_pairs(_RATIO_PAIR_BYTES) // n offsets, at least one.
    """
    n = len(S)
    if n < 2:
        return -1.0, 0, 0
    A = np.empty((4, 2 * n))
    A[:3, :n] = X
    A[3, :n] = S
    A[:, n:] = A[:, :n]
    s0, s1 = A.strides
    step = max(1, _block_pairs(_RATIO_PAIR_BYTES) // n)
    best = (-1.0, 0)  # (ratio, -(i * n + j)) with i < j
    for k0 in range(1, n // 2 + 1, step):
        nk = min(step, n // 2 + 1 - k0)
        # W[:, a, i] = A[:, k0 + a + i], the partners of i at offset k0 + a
        W = np.ndarray((4, nk, n), A.dtype, A, k0 * s1, (s0, s1, s1))
        r = _ratio_of(*(A[:, None, :n] - W), L)
        top = float(r.max())
        if top >= best[0]:
            a, ii = np.divmod(np.flatnonzero(r == top), n)
            jj = (ii + k0 + a) % n
            best = max(best, (top, -int((np.minimum(ii, jj) * n + np.maximum(ii, jj)).min())))
    i, j = divmod(-best[1], n)
    return best[0], int(i), int(j)


def _arc_keep(c: PolyCurve, t: float):
    """_descend's keep test for pairs of points of c whose arc/chord ratio
    is at least t.

    For a node pair A <= B every member pair has s <= t' with s in
    [S0[A], S1[A]] and t' in [S0[B], S1[B]], so its arc is at most
    num = min(S1[B] - S0[A], L - (S0[B] - S1[A]), L/2), and its chord is
    at least the gap between the spheres less _pad, a margin for
    rounding in the points and spheres.  A pair is kept while the gap is
    not positive or num >= t * gap (relative margin 1e-9).
    """
    L, pad = c.total_len, _pad(c)

    def keep(gap, level, a, b):
        _, _, S0, S1 = level
        gap = gap - pad
        num = np.minimum(np.minimum(S1[b] - S0[a], L - (S0[b] - S1[a])), 0.5 * L)
        return (gap <= 0.0) | (num * (1.0 + 1e-9) >= t * gap)

    return keep


def _curve_max_ratio(c: PolyCurve, params: np.ndarray):
    """_max_ratio over the points of closed curve c at params, visiting
    only the pairs that can still beat the best ratio found.

    The points, sorted by parameter, are the leaves of an _arc_tree.
    best starts from each point's two partners half the loop away.  Each
    round visits every pair _descend keeps at t = max((L/2)/u0 halved
    once a round, best), and the rounds stop once best >= t.  Once the
    halved value is 1 or less (no pair of distinct points has a ratio
    below 1) t is best itself, so that round is the last.  Every pair
    that can tie the best is then visited, and ties go to the smallest
    pair (i, j) of indices into params, so the result is _max_ratio's.
    When all pairs fit in one block _max_ratio runs instead.
    """
    L, n = c.total_len, len(params)
    points = _points_at(c, params)
    if (n - 1) ** 2 <= _block_pairs(_RATIO_PAIR_BYTES):
        return _max_ratio(points.T, params, L)
    order = np.argsort(params, kind="stable")
    ps, P = params[order], points[order]
    X = np.ascontiguousarray(P.T)
    best = (-1.0, 0)  # (ratio, -(i * n + j)) with i < j indices into params

    def visit(a, b):
        """Fold the pairs a[k], b[k] (indices into ps) into best."""
        nonlocal best
        ratio = _ratios(X, ps, a, b, L)
        top = float(ratio.max(initial=-np.inf))
        if top >= best[0]:
            k = np.flatnonzero(ratio == top)
            i, j = order[a[k]], order[b[k]]
            best = max(best, (top, -int((np.minimum(i, j) * n + np.maximum(i, j)).min())))

    x = np.arange(n)
    half = np.searchsorted(ps, (ps + 0.5 * L) % L)
    for y in ((half - 1) % n, half % n):
        visit(x[y != x], y[y != x])
    levels = _arc_tree(P, ps, 0)
    u0 = _u0(c)
    t = 0.5 * L / u0 if u0 > 0.0 else 0.0
    while True:
        t = max(t, best[0]) if t > 1.0 else max(best[0], 0.0)
        for a, b in _descend(levels, _arc_keep(c, t)):
            visit(a[a < b], b[a < b])
        if best[0] >= t:
            break
        t *= 0.5
    i, j = divmod(-best[1], n)
    return best[0], int(i), int(j)


def distortion_sampled(c: PolyCurve, n_samples: int = 1024) -> WitnessPair:
    """Maximum ratio over all pairs drawn from a fixed sample set.

    The sample set is the curve's vertices plus ``n_samples`` points
    equally spaced in arclength.  The result is always a lower bound on
    the true distortion; the returned witness reproduces its ratio
    through the scalar evaluation path.
    """
    if n_samples < 0:
        raise OutOfRange("n_samples must be nonnegative")
    params = np.concatenate(
        [c.cum_len[: c.m], np.arange(n_samples) * (c.total_len / max(n_samples, 1))]
    )
    params = params[params < c.total_len]
    if len(params) < 2:
        raise DegenerateCurve("not enough sample points for a pair")
    best, i, j = _curve_max_ratio(c, params)
    if best <= 0.0:
        raise DegenerateCurve("every sampled pair was chord-degenerate")
    return WitnessPair(s=float(params[i]), t=float(params[j]), ratio=best)


def _subsegment_endpoints(c: PolyCurve, edge: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Points at params a and b, both known to lie on ``edge``."""
    base = c.vertices[edge]
    dirs = c.edge_dirs[edge]
    p0 = base + (a - c.cum_len[edge])[:, None] * dirs
    p1 = base + (b - c.cum_len[edge])[:, None] * dirs
    return p0, p1


def _cell_upper(c: PolyCurve, ei, ej, s0, s1, t0, t1) -> np.ndarray:
    """Vectorized sup bound for cells; intervals assumed ordered s1 <= t0
    along the loop (callers normalize).  Touching or overlapping
    subsegments give +inf."""
    L = c.total_len
    fwd_max = t1 - s0
    fwd_min = t0 - s1
    num = np.minimum(np.minimum(fwd_max, L - fwd_min), 0.5 * L)
    a0, a1 = _subsegment_endpoints(c, ei, s0, s1)
    b0, b1 = _subsegment_endpoints(c, ej, t0, t1)
    den = _seg_seg_dist(a0, a1 - a0, b0, b1 - b0)
    out = np.full_like(num, math.inf)
    pos = den > 0.0
    out[pos] = num[pos] / den[pos]
    return out


def cell_upper_bound(c: PolyCurve, interval_i, interval_j) -> float:
    """Rigorous sup bound of the ratio over one pair of parameter
    intervals, each contained in a single edge.

    The arclength numerator is the exact supremum of the shorter-way
    distance over the cell (capped at half the total length); the
    denominator is the exact minimum distance between the two
    subsegments.  Intervals that touch or overlap give +inf.
    """
    a0, a1 = (float(v) for v in interval_i)
    b0, b1 = (float(v) for v in interval_j)
    L = c.total_len
    for lo_, hi_ in ((a0, a1), (b0, b1)):
        if not (0.0 <= lo_ < hi_ <= L):
            raise OutOfRange(
                f"interval [{lo_!r}, {hi_!r}] is not an increasing pair inside [0, {L!r}]"
            )
    if a0 > b0:
        a0, a1, b0, b1 = b0, b1, a0, a1
    ea = int(np.searchsorted(c.cum_len, a0, side="right") - 1)
    eb = int(np.searchsorted(c.cum_len, b0, side="right") - 1)
    ea = min(ea, c.m - 1)
    eb = min(eb, c.m - 1)
    if a1 > c.cum_len[ea + 1] + 1e-9 * L or b1 > c.cum_len[eb + 1] + 1e-9 * L:
        raise OutOfRange("each interval must stay within a single edge")
    if a1 > b0:  # overlap: shared points, denominator is zero
        return math.inf
    val = _cell_upper(
        c,
        np.array([ea]),
        np.array([eb]),
        np.array([a0]),
        np.array([a1]),
        np.array([b0]),
        np.array([b1]),
    )
    return float(val[0])


def max_pair_ratio_open(points):
    """Max (path length along an OPEN polyline) / chord over vertex pairs.

    Used for strand-level checks where the path between two points is
    forced to stay inside one arc assembly.  Returns (ratio, i, j).
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 3 or len(P) < 2:
        raise DegenerateCurve("need an (n, 3) array with n >= 2")
    seg = np.linalg.norm(P[1:] - P[:-1], axis=1)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    return _max_ratio(P.T, cum, math.inf)


# ---------------------------------------------------------------------------
# Certified branch and bound


def _initial_vertex_scan(c: PolyCurve):
    """Best ratio over all vertex pairs plus equal-arm near-corner pairs.

    Vertex pairs seed the lower bound with every cell corner of the
    initial grid.  The near-corner pairs realize (to rounding) the
    analytic corner bound at each vertex, which keeps the corner term
    from dominating the reported interval.
    """
    m, L = c.m, c.total_len
    params = c.cum_len[:m]
    best, i, j = _curve_max_ratio(c, params)
    bs, bt = float(params[i]), float(params[j])
    arm = 0.5 * np.minimum(np.minimum(np.roll(c.edge_lens, 1), c.edge_lens), 0.25 * L)
    ss = params - arm
    ss[ss < 0.0] += L
    tt = params + arm  # arm <= edge length / 2 < L - params[i] for i < m
    r = _pair_ratios(c, ss, tt)
    k = int(np.argmax(r))
    if r[k] > best:
        best, bs, bt = float(r[k]), float(ss[k]), float(tt[k])
    return best, bs, bt


def _corner_sup(c: PolyCurve) -> float:
    """Sup of the ratio over all same-edge and adjacent-edge pairs.

    Same-edge pairs have ratio exactly 1.  For adjacent edges with
    interior angle phi at the shared vertex, path <= a + b and
    chord >= (a + b) * sin(phi/2) for arm lengths a, b, so the corner
    ratio dominates the whole cell; no such cell is ever queued.
    """
    # corner_ratio falls as the angle opens, so the sharpest corner wins
    return corner_ratio(float(_interior_angles(c.vertices).min()))


def distortion_certified(
    c: PolyCurve, eps: float = 1e-2, max_expansions: int = _MAX_EXPANSIONS
) -> DistortionCertificate:
    """Interval certification of the distortion by branch and bound.

    The initial cells are the unordered pairs of edges sharing no vertex,
    each taken as a full parameter rectangle.  A cell whose upper bound
    is at most lo + eps is discarded, as is, unevaluated, every pair of
    edge runs whose longest arc over the gap between their bounding
    spheres is at most lo + eps.  Survivors are bisected along their
    longer parameter side, and the fresh corner/midpoint pairs feed the
    sampled lower bound.  On normal termination the reported interval is
    [lo, max(lo + eps, analytic corner sup)], which always contains the
    true supremum.  ``max_expansions`` caps the number of bisections;
    when it trips, surviving cells widen ``hi`` accordingly and
    ``budget_exceeded`` is set.

    Raises NotEmbedded when two vertex-disjoint edges touch, since the
    ratio is then unbounded.
    """
    if not (eps > 0.0) or not math.isfinite(eps):
        raise OutOfRange(f"eps must be a positive finite number, got {eps!r}")
    if max_expansions < 0:
        raise OutOfRange("max_expansions must be nonnegative")
    clear, ci, cj = _min_clearance_pair(c)
    if clear <= 0.0:
        raise NotEmbedded(
            f"edges {ci} and {cj} touch or cross; distortion is unbounded"
        )
    L = c.total_len

    lo, ws, wt = _initial_vertex_scan(c)
    corner_hi = _corner_sup(c)
    floor_pruned_hi = 0.0

    # initial cell grid: a cell's bound has the numerator of its leaf
    # pair in the descent over a denominator of at least its gap, so the
    # descent at lo + eps keeps every cell that can beat lo + eps
    survivors = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
    cells_seen = 0
    for ii, jj in _edge_pairs(c, _arc_keep(c, lo + eps)):
        cells_seen += len(ii)
        u = _cell_upper(c, ii, jj, c.cum_len[ii], c.cum_len[ii + 1], c.cum_len[jj], c.cum_len[jj + 1])
        survivors.append(tuple(a[u > lo + eps] for a in (ii, jj, u)))
    ii, jj, u = (np.concatenate(parts) for parts in zip(*survivors))
    k = np.lexsort((jj, ii))  # bisection takes the cells in row-major order
    ii, jj, u = ii[k], jj[k], u[k]
    cells = (ii, jj, c.cum_len[ii], c.cum_len[ii + 1], c.cum_len[jj], c.cum_len[jj + 1], u)

    expansions = 0
    budget_exceeded = False
    while len(cells[0]) > 0:
        ei, ej, s0, s1, t0, t1, _u = cells
        n = len(ei)
        if expansions + n > max_expansions:
            budget_exceeded = True
            break
        expansions += n

        span_s = s1 - s0
        span_t = t1 - t0
        split_s = span_s >= span_t
        smid = 0.5 * (s0 + s1)
        tmid = 0.5 * (t0 + t1)

        # fresh sample pairs: the two new child corners and the center
        samp_s = np.concatenate(
            [
                np.where(split_s, smid, s0),
                np.where(split_s, smid, s1),
                smid,
            ]
        )
        samp_t = np.concatenate(
            [
                np.where(split_s, t0, tmid),
                np.where(split_s, t1, tmid),
                tmid,
            ]
        )
        r = _pair_ratios(c, samp_s, samp_t)
        k = int(np.argmax(r))
        if r[k] > lo:
            lo = float(r[k])
            ws, wt = float(samp_s[k]), float(samp_t[k])

        child_ei = np.concatenate([ei, ei])
        child_ej = np.concatenate([ej, ej])
        child_s0 = np.concatenate([s0, np.where(split_s, smid, s0)])
        child_s1 = np.concatenate([np.where(split_s, smid, s1), s1])
        child_t0 = np.concatenate([t0, np.where(split_s, t0, tmid)])
        child_t1 = np.concatenate([np.where(split_s, t1, tmid), t1])
        cells_seen += 2 * n

        u = _cell_upper(c, child_ei, child_ej, child_s0, child_s1, child_t0, child_t1)
        alive = u > lo + eps
        # guard against float-resolution stalls: a cell too small to split
        # meaningfully is retired into the upper bound instead
        res = 1e-13 * L
        stuck = alive & (child_s1 - child_s0 < res) & (child_t1 - child_t0 < res)
        if np.any(stuck):
            floor_pruned_hi = max(floor_pruned_hi, float(u[stuck].max()))
            alive &= ~stuck
        cells = (
            child_ei[alive],
            child_ej[alive],
            child_s0[alive],
            child_s1[alive],
            child_t0[alive],
            child_t1[alive],
            u[alive],
        )

    hi = max(lo + eps, corner_hi, floor_pruned_hi)
    if budget_exceeded:
        hi = max(hi, float(cells[6].max()))
    witness = WitnessPair(s=ws, t=wt, ratio=lo)
    return DistortionCertificate(
        lo=lo,
        hi=hi,
        eps=eps,
        witness=witness,
        cells=cells_seen,
        budget_exceeded=budget_exceeded,
    )
