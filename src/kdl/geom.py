"""Closed polygonal space curves and the metric primitives built on them.

Everything downstream (the distortion engine, the plat builder, the
refiner) works with one concrete object: a closed polyline in R^3 with an
arclength parametrization.  Vertices are an (m, 3) float64 array;
parameters live in the half-open interval [0, L) where L is the total
length.

Conventions
-----------
* edge k joins vertex k to vertex (k + 1) % m
* ``cum_len`` has m + 1 entries, ``cum_len[0] == 0``, ``cum_len[m] == L``
* parameters are never wrapped implicitly -- values outside [0, L) raise
  :class:`~kdl.errors.OutOfRange`.  :func:`wrap_param` is the one
  documented place that reduces mod L.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateCurve, OutOfRange

__all__ = [
    "PolyCurve",
    "build_polycurve",
    "point_at",
    "wrap_param",
    "arclength_distance",
    "chord_distance",
    "interior_angle",
    "segment_min_distance",
    "min_clearance",
    "curve_to_json",
    "curve_from_json",
    "load_curve",
    "save_curve",
]

@dataclass(frozen=True)
class PolyCurve:
    """A closed polyline with cached arclength data.

    Construct through :func:`build_polycurve`, which validates and
    precomputes; the constructor itself trusts its inputs.  ``arcs`` is
    an optional tuple of tag objects attached by the plat builder; the
    geometry code treats them as opaque.
    """

    vertices: np.ndarray
    cum_len: np.ndarray
    total_len: float
    edge_dirs: np.ndarray   # unit vectors, shape (m, 3)
    edge_lens: np.ndarray   # shape (m,)
    arcs: tuple = field(default=())

    def __post_init__(self):
        self.vertices.setflags(write=False)
        self.cum_len.setflags(write=False)
        self.edge_dirs.setflags(write=False)
        self.edge_lens.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def _clearance(self):
        """_closest_edges(self), computed on first use; the vertices are
        read-only, so it never goes stale.  cached_property writes the
        instance __dict__, which a frozen dataclass leaves writable."""
        return _closest_edges(self)


def _as_vertex_array(points) -> np.ndarray:
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DegenerateCurve(f"vertices are not an (m, 3) array of numbers: {exc}")
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DegenerateCurve(f"expected an (m, 3) vertex array, got shape {arr.shape}")
    return arr


def build_polycurve(points, arcs=()) -> PolyCurve:
    """Validate a closed vertex loop and precompute its arclength tables.

    Consecutive exact-duplicate vertices are dropped (including a
    duplicated first/last vertex).  After deduplication the loop needs at
    least 3 vertices, all coordinates finite, and every edge strictly
    shorter than half the total length; otherwise DegenerateCurve.
    """
    arr = _as_vertex_array(points)
    if not np.all(np.isfinite(arr)):
        raise DegenerateCurve("vertex coordinates must be finite")
    if len(arr) >= 2 and np.array_equal(arr[0], arr[-1]):
        arr = arr[:-1]
    if len(arr) >= 2:
        keep = np.ones(len(arr), dtype=bool)
        same = np.all(arr[1:] == arr[:-1], axis=1)
        keep[1:] = ~same
        arr = arr[keep]
    if len(arr) < 3:
        raise DegenerateCurve(
            f"a closed curve needs at least 3 distinct vertices, got {len(arr)}"
        )
    deltas = np.roll(arr, -1, axis=0) - arr
    lens = np.linalg.norm(deltas, axis=1)
    total = float(lens.sum())
    worst = int(np.argmax(lens))
    if lens[worst] >= 0.5 * total:
        raise DegenerateCurve(
            f"edge {worst} has length {lens[worst]:.6g} >= half the total "
            f"length {total:.6g}; the loop is metrically degenerate"
        )
    cum = np.zeros(len(arr) + 1)
    np.cumsum(lens, out=cum[1:])
    cum[-1] = total  # guard against rounding drift in the last entry
    dirs = deltas / lens[:, None]
    return PolyCurve(
        vertices=arr.copy(),
        cum_len=cum,
        total_len=total,
        edge_dirs=dirs,
        edge_lens=lens,
        arcs=tuple(arcs),
    )


def _check_params(c: PolyCurve, s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    bad = (s < 0.0) | (s >= c.total_len) | ~np.isfinite(s)
    if np.any(bad):
        val = float(np.atleast_1d(s)[np.argmax(np.atleast_1d(bad))])
        raise OutOfRange(
            f"parameter {val!r} outside [0, {c.total_len!r}); use wrap_param() "
            "to reduce mod the total length first"
        )
    return s


def _points_at(c: PolyCurve, s: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; assumes parameters already validated."""
    k = np.searchsorted(c.cum_len, s, side="right") - 1
    # s == some cum_len entry lands exactly on a vertex; searchsorted can
    # only overshoot past m-1 through float dust on the last edge
    k = np.clip(k, 0, c.m - 1)
    local = s - c.cum_len[k]
    # take gathers whole rows some 3x faster than fancy indexing
    return c.vertices.take(k, axis=0) + local[..., None] * c.edge_dirs.take(k, axis=0)


def point_at(c: PolyCurve, s: float) -> np.ndarray:
    """Point at arclength parameter ``s`` in [0, total_len), shape (3,)."""
    s = _check_params(c, float(s))
    return _points_at(c, np.atleast_1d(s))[0]


def wrap_param(c: PolyCurve, s: float) -> float:
    """Reduce an arbitrary finite parameter into [0, total_len)."""
    if not math.isfinite(s):
        raise OutOfRange(f"cannot wrap non-finite parameter {s!r}")
    out = math.fmod(float(s), c.total_len)
    if out < 0.0:
        out += c.total_len
    if out >= c.total_len:  # fmod dust, e.g. s = -1e-18
        out = 0.0
    return out


def arclength_distance(c: PolyCurve, s: float, t: float) -> float:
    """Shorter-way-around distance between two parameters on the loop."""
    st = _check_params(c, np.array([s, t], dtype=float))
    d = abs(float(st[0]) - float(st[1]))
    return min(d, c.total_len - d)


def chord_distance(c: PolyCurve, s: float, t: float) -> float:
    """Straight-line (ambient) distance between the two curve points."""
    st = _check_params(c, np.array([s, t], dtype=float))
    p = _points_at(c, st)
    return float(np.linalg.norm(p[0] - p[1]))


def interior_angle(c: PolyCurve, i: int) -> float:
    """Angle at vertex i between its two incident edges, in (0, pi].

    pi means the vertex is flat (collinear neighbours); small values mean
    a sharp corner.
    """
    if not (0 <= i < c.m):
        raise OutOfRange(f"vertex index {i} outside 0..{c.m - 1}")
    # vertex i is the middle one of its own three-vertex loop
    return float(_interior_angles(c.vertices[[i - 1, i, (i + 1) % c.m]])[1])


def _dot(u, v):
    return np.einsum("...k,...k->...", u, v)


def _interior_angles(V: np.ndarray) -> np.ndarray:
    """Interior angle at every vertex of the closed loop V, in [0, pi]."""
    a = np.roll(V, 1, axis=0) - V
    b = np.roll(V, -1, axis=0) - V
    cross = np.cross(a, b)
    # atan2 is stable near both 0 and pi, unlike arccos of the normalized dot.
    # A return of exactly 0.0 only happens for a cusp (the curve doubles back
    # along itself), which downstream treats as infinitely sharp.
    return np.arctan2(np.sqrt(_dot(cross, cross)), _dot(a, b))


def _seg_seg_dist(p1, d1, p2, d2):
    """Minimum distance between segment batches  p1 + s*d1  and  p2 + t*d2.

    Clamped coordinate descent on the convex quadratic: the joint interior
    formula, then four alternating exact 1-D minimizations; degenerate
    (zero-length) inputs collapse to point-segment problems.  The result
    is the distance of two points on the segments, so up to rounding
    never below the true minimum, but not exact: on nearly parallel
    segments it can stop above the smallest endpoint-to-segment distance,
    by up to 2.2e-7 relative over 20,000 random near-parallel pairs (numpy
    seed 0).  ROADMAP item 2 replaces it with the closed form.
    """
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    b = _dot(d1, d2)
    r = p1 - p2
    c = _dot(d1, r)
    f = _dot(d2, r)
    denom = a * e - b * b
    tiny = 1e-300
    safe_denom = np.where(denom > tiny, denom, 1.0)
    s = np.where(denom > tiny, np.clip((b * f - c * e) / safe_denom, 0.0, 1.0), 0.0)
    safe_a = np.where(a > tiny, a, 1.0)
    safe_e = np.where(e > tiny, e, 1.0)
    t = np.zeros_like(s)
    for _ in range(4):
        t = np.clip((b * s + f) / safe_e, 0.0, 1.0)
        t = np.where(e > tiny, t, 0.0)
        s = np.clip((b * t - c) / safe_a, 0.0, 1.0)
        s = np.where(a > tiny, s, 0.0)
    t = np.clip((b * s + f) / safe_e, 0.0, 1.0)
    t = np.where(e > tiny, t, 0.0)
    diff = (p1 + s[..., None] * d1) - (p2 + t[..., None] * d2)
    return np.sqrt(_dot(diff, diff))


def segment_min_distance(a0, a1, b0, b1) -> float:
    """Minimum distance between segments [a0, a1] and [b0, b1].

    Accepts any array-likes of shape (3,).  Computed by _seg_seg_dist, so
    up to rounding never below the true minimum, but not exact: on nearly
    parallel segments it can lie above it, by up to some 2e-7 relative
    (see ROADMAP item 2).
    """
    a0, a1, b0, b1 = (np.asarray(p, dtype=float) for p in (a0, a1, b0, b1))
    return float(
        _seg_seg_dist(
            a0[None, :], (a1 - a0)[None, :], b0[None, :], (b1 - b0)[None, :]
        )[0]
    )


# working memory of one block in every chunked pair scan; each caller
# states its own bytes per pair, so heavy kernels take fewer pairs a block
_BLOCK_BYTES = 64 << 20
# a _descend block, its pending frontier included; a block's leaf pairs
# then also fit the segment-distance, ratio and cell kernels
_NODE_PAIR_BYTES = 512
# the child pairs (2A + _CHILD_A, 2B + _CHILD_B) of a node pair (A, B)
_CHILD_A = np.array([0, 0, 1, 1])
_CHILD_B = np.array([0, 1, 0, 1])


def _block_pairs(pair_bytes: int) -> int:
    """Pairs in one block of a kernel using pair_bytes per pair."""
    return max(1, _BLOCK_BYTES // pair_bytes)


def _pad(c: PolyCurve) -> float:
    """Absolute rounding margin for distances between points of c: the
    coordinates, not the distances, set the size of the rounding."""
    return 1e-12 * (1.0 + float(np.abs(c.vertices).max()))


def _arc_tree(X: np.ndarray, S: np.ndarray, extra: int):
    """Bounding spheres over runs of consecutive curve points, leaves first.

    X holds points in parameter order and S their parameters.  Leaf k
    holds X[k : k + 1 + extra]: with extra = 1 it is the edge from X[k]
    to X[k + 1], which its sphere contains because it contains both
    endpoints.  A node of level l holds the points of 2^l consecutive
    leaves.  Each level is (centre, radius, S0, S1): the centre of the
    node's bounding box, the largest distance from it to the node's
    points, and the parameters of its first and last point.  The levels
    stop at 16 nodes or fewer.
    """
    N = len(X) - extra
    owner = np.arange(len(X))
    levels = []
    w = 1
    while True:
        starts = np.arange(0, N, w)
        last = np.minimum(starts + w, N) + (extra - 1)
        lo = np.minimum(np.minimum.reduceat(X, starts), X[last])
        hi = np.maximum(np.maximum.reduceat(X, starts), X[last])
        C = 0.5 * (lo + hi)
        d = X - C[np.minimum(owner // w, len(starts) - 1)]
        e = X[last] - C
        R = np.maximum(np.maximum.reduceat(np.sqrt(_dot(d, d)), starts), np.sqrt(_dot(e, e)))
        levels.append((C, R, S[starts], S[last]))
        if len(starts) <= 16:
            return levels
        w *= 2


def _descend(levels, keep):
    """Blocks (a, b) of the leaf pairs a <= b of the tree levels (from
    _arc_tree) that keep holds for, a dual-tree descent (Gray and Moore
    2001).

    keep(gap, level, a, b) is a bool mask over a block of node pairs
    a <= b of one level, gap = |cA - cB| - rA - rB the distance between
    their spheres (negative when they overlap).  It must hold for a node
    pair whenever it holds for some pair of leaves below it; a NaN gap
    compares false and drops the pair.  A kept pair splits into its
    child pairs with A <= B.  Node pairs are taken in blocks of at most
    _block_pairs(_NODE_PAIR_BYTES), depth first, so memory stays bounded.
    """
    step = _block_pairs(_NODE_PAIR_BYTES)
    a, b = np.triu_indices(len(levels[-1][0]))
    stack = [(len(levels) - 1, a, b)]
    while stack:
        lv, a, b = stack.pop()
        if len(a) > step:
            stack.append((lv, a[step:], b[step:]))
            a, b = a[:step], b[:step]
        C, R = levels[lv][:2]
        diff = C[a] - C[b]
        k = keep(np.sqrt(_dot(diff, diff)) - R[a] - R[b], levels[lv], a, b)
        a, b = a[k], b[k]
        if not len(a):
            continue
        if lv == 0:
            yield a, b
            continue
        ca, cb = 2 * a[:, None] + _CHILD_A, 2 * b[:, None] + _CHILD_B
        ok = (ca <= cb) & (cb < len(levels[lv - 1][0]))
        stack.append((lv - 1, ca[ok], cb[ok]))


def _edge_pairs(c: PolyCurve, keep):
    """Nonempty blocks (i, j) of vertex-disjoint edge pairs i < j, each
    pair once: the leaf pairs _descend keeps over the edge tree of c (one
    leaf an edge), less those sharing a vertex.

    Node pairs whose leaf pairs all share a vertex stop a level early:
    self pairs of level 1 (two consecutive edges each) and self and
    adjacent pairs of level 0.  Only the wrap pair (0, m - 1) is left to
    drop from the leaf pairs."""
    m = c.m
    V = c.vertices
    levels = _arc_tree(np.concatenate([V, V[:1]]), c.cum_len, 1)

    def disjoint(gap, level, a, b):
        k = keep(gap, level, a, b)
        if level is levels[0]:
            return k & (b > a + 1)
        if len(levels) > 1 and level is levels[1]:
            return k & (b > a)
        return k

    for i, j in _descend(levels, disjoint):
        ok = ~((i == 0) & (j == m - 1))
        if ok.any():
            yield i[ok], j[ok]


def _u0(c: PolyCurve) -> float:
    """Smallest distance between edges i and i + 2: the radius clearance
    searches within, and as (L/2)/u0 the ratio the point-pair scan starts
    from; for m >= 4 it bounds the clearance from above."""
    V = c.vertices
    D = c.edge_lens[:, None] * c.edge_dirs
    skip = (np.arange(c.m) + 2) % c.m
    return float(_seg_seg_dist(V, D, V[skip], D[skip]).min())


def _closest_edges(c: PolyCurve):
    """Clearance, as _seg_seg_dist measures it, and the edge pair attaining
    it, (d, i, j) with i < j;
    (inf, -1, -1) when no two edges are vertex-disjoint.  Among pairs at
    exactly the minimum distance, the lexicographically smallest (i, j)
    is returned.  Uncached: PolyCurve._clearance keeps its result.

    u0, the smallest distance between edges i and i + 2, bounds the answer,
    so the edge pairs whose spheres lie within u0 (plus _pad for rounding)
    hold every closest pair.  Each is measured as (V[i], V[j]) with i < j,
    the call an all-pairs scan makes, so the distance is the all-pairs
    minimum bit for bit."""
    m = c.m
    V = c.vertices
    D = c.edge_lens[:, None] * c.edge_dirs
    r = _u0(c) + _pad(c)
    best = (math.inf, -1, -1)
    for i, j in _edge_pairs(c, lambda gap, *_: gap <= r):
        d = _seg_seg_dist(V[i], D[i], V[j], D[j])
        k = np.flatnonzero(d == d.min())
        k = k[np.argmin(i[k] * m + j[k])]
        best = min(best, (float(d[k]), int(i[k]), int(j[k])))
    return best


def _min_clearance_pair(c: PolyCurve):
    """(d, i, j) of _closest_edges, computed once per curve."""
    return c._clearance


def min_clearance(c: PolyCurve) -> float:
    """Minimum distance over all pairs of edges that share no vertex.

    Returns 0.0 when such a pair touches or crosses (the curve is not
    embedded), and +inf for a triangle, which has no eligible pairs.
    """
    return c._clearance[0]


# ---------------------------------------------------------------------------
# JSON round-tripping


def curve_to_json(c: PolyCurve) -> dict:
    out = {
        "closed": True,
        "vertices": [[float(x), float(y), float(z)] for x, y, z in c.vertices],
    }
    if c.arcs:
        out["arcs"] = [tag.to_json() for tag in c.arcs]
    return out


def curve_from_json(data: dict) -> PolyCurve:
    if not isinstance(data, dict) or data.get("closed") is not True:
        raise DegenerateCurve('curve JSON must be an object with "closed": true')
    if "vertices" not in data:
        raise DegenerateCurve('curve JSON is missing "vertices"')
    rows = data["vertices"]
    # numpy would also take strings and booleans as numbers
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(x) in (int, float) for x in row) for row in rows
    ):
        raise DegenerateCurve("vertices must be a list of rows of JSON numbers")
    if not data.get("arcs"):
        return build_polycurve(rows)
    from .plat import ArcTag  # deferred: geometry stays tag-agnostic

    try:
        arcs = tuple(ArcTag.from_json(d) for d in data["arcs"])
        curve = build_polycurve(rows, arcs=arcs)
        for tag in arcs:
            tag.check(curve)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DegenerateCurve(f"malformed arc tag: {exc!r}")
    return curve


def save_curve(c: PolyCurve, path) -> None:
    with open(path, "w") as fh:
        json.dump(curve_to_json(c), fh)
        fh.write("\n")


def load_curve(path) -> PolyCurve:
    with open(path) as fh:
        return curve_from_json(json.load(fh))
