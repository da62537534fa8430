import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jittered_polygon, random_rotation, regular_polygon
from kdl.errors import DegenerateCurve, OutOfRange
from kdl.geom import (
    arclength_distance,
    build_polycurve,
    chord_distance,
    curve_from_json,
    curve_to_json,
    interior_angle,
    load_curve,
    min_clearance,
    point_at,
    save_curve,
    segment_min_distance,
    wrap_param,
)
from kdl import geom
from kdl.geom import _min_clearance_pair, _seg_seg_dist
from kdl.plat import build_plat, make_uniform_jm_spec


# ---------------------------------------------------------------------------
# oracles

def seg_dist_oracle(p1, p2, q1, q2):
    """Dense grid over both parameters, then local refinement, plus a 1-D
    search along each side of the parameter square: the squared distance
    is convex, so its minimum is interior or on a side, and L-BFGS-B alone
    can stall short of a side minimum in a long, thin valley (near-parallel
    segments).

    Good to ~1e-9 on unit-scale segments; used to cross-check the
    closed-form segment distance on random inputs.
    """
    from scipy.optimize import minimize, minimize_scalar

    p1, p2, q1, q2 = (np.asarray(v, dtype=float) for v in (p1, p2, q1, q2))
    d1, d2 = p2 - p1, q2 - q1

    def f(x):
        s, t = x
        diff = (p1 + s * d1) - (q1 + t * d2)
        return float(diff @ diff)

    grid = np.linspace(0.0, 1.0, 101)
    best, best_x = np.inf, (0.0, 0.0)
    for s in grid:
        a = p1 + s * d1
        diff = a[None, :] - (q1[None, :] + grid[:, None] * d2[None, :])
        vals = np.einsum("ij,ij->i", diff, diff)
        k = int(np.argmin(vals))
        if vals[k] < best:
            best, best_x = float(vals[k]), (float(s), float(grid[k]))
    res = minimize(f, best_x, bounds=[(0.0, 1.0), (0.0, 1.0)], method="L-BFGS-B")
    best = min(best, float(res.fun))
    for side in (lambda u: (0.0, u), lambda u: (1.0, u), lambda u: (u, 0.0), lambda u: (u, 1.0)):
        r = minimize_scalar(lambda u: f(side(u)), bounds=(0.0, 1.0), method="bounded",
                            options={"xatol": 1e-12})
        best = min(best, float(r.fun))
    return math.sqrt(best)


def clearance_oracle(verts):
    """All non-adjacent edge pairs, one at a time, via the scalar API."""
    m = len(verts)
    best = np.inf
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            d = segment_min_distance(
                verts[i], verts[(i + 1) % m], verts[j], verts[(j + 1) % m]
            )
            best = min(best, d)
    return best


# ---------------------------------------------------------------------------
# construction

def test_square_perimeter(square):
    assert square.m == 4
    assert square.total_len == pytest.approx(4.0, abs=0)
    assert np.array_equal(square.cum_len, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_triangle_perimeter():
    tri = build_polycurve([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
    assert tri.total_len == pytest.approx(3.0)


def test_consecutive_duplicates_removed():
    a = build_polycurve([[0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    b = build_polycurve([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    assert np.array_equal(a.vertices, b.vertices)


def test_closing_duplicate_removed():
    a = build_polycurve([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]])
    assert a.m == 3


def test_too_few_distinct_vertices():
    with pytest.raises(DegenerateCurve):
        build_polycurve([[0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 0]])


def test_doubled_back_segment_rejected():
    # collinear out-and-back: the long edge is half the perimeter
    with pytest.raises(DegenerateCurve):
        build_polycurve([[0, 0, 0], [10, 0, 0], [10.5, 0, 0]])


def test_nonfinite_rejected():
    with pytest.raises(DegenerateCurve):
        build_polycurve([[0, 0, 0], [1, 0, 0], [np.nan, 1, 0]])


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0], [1, 0], [0, 1]],
        [[0, 0, 0, 1], [1, 0, 0, 1], [1, 1, 0, 1], [0, 1, 0, 1]],
        [[0, 0, 0], [1, 0], [1, 1, 0], [0, 1, 0]],
        [[0, 0, 0], None, [1, 1, 0], [0, 1, 0]],
        [[0, 0, 0], [1, "a", 0], [1, 1, 0], [0, 1, 0]],
    ],
    ids=["two-coordinates", "four-coordinates", "ragged", "none-row", "non-numeric"],
)
def test_malformed_rows_rejected(rows):
    with pytest.raises(DegenerateCurve):
        build_polycurve(rows)


def test_vertices_write_locked(square):
    with pytest.raises(ValueError):
        square.vertices[0, 0] = 5.0


# ---------------------------------------------------------------------------
# parametrization

def test_point_at_square(square):
    assert point_at(square, 0.5).shape == (3,)
    assert np.allclose(point_at(square, 0.0), [0, 0, 0])
    assert np.allclose(point_at(square, 2.0), [1, 1, 0])
    assert np.allclose(point_at(square, 0.5), [0.5, 0, 0])


def test_point_at_reproduces_vertices():
    verts = jittered_polygon(17, seed=3)
    c = build_polycurve(verts)
    for i in range(c.m):
        p = point_at(c, float(c.cum_len[i]))
        assert p.shape == (3,)
        assert np.array_equal(p, verts[i])


def test_point_at_out_of_range(square):
    with pytest.raises(OutOfRange):
        point_at(square, 4.0)
    with pytest.raises(OutOfRange):
        point_at(square, -0.1)


def test_wrap_param(square):
    assert wrap_param(square, 4.0) == 0.0
    assert wrap_param(square, -0.25) == pytest.approx(3.75)
    assert wrap_param(square, 4.5) == pytest.approx(0.5)
    assert wrap_param(square, 1.0) == 1.0


def test_arclength_distance_examples(square):
    assert arclength_distance(square, 0.0, 3.0) == pytest.approx(1.0)
    assert arclength_distance(square, 1.0, 1.0) == 0.0
    assert arclength_distance(square, 0.0, 2.0) == pytest.approx(2.0)


def test_chord_distance_examples(square):
    assert chord_distance(square, 0.0, 2.0) == pytest.approx(math.sqrt(2.0))
    assert chord_distance(square, 0.5, 2.5) == pytest.approx(1.0)
    assert chord_distance(square, 1.25, 1.25) == 0.0


@given(st.floats(0.0, 3.999), st.floats(0.0, 3.999), st.floats(0.0, 3.999))
def test_arclength_distance_is_metric(s, t, u):
    square = build_polycurve([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
    dst = arclength_distance(square, s, t)
    assert dst == arclength_distance(square, t, s)
    assert dst <= 2.0 + 1e-12
    # triangle inequality on the circle metric
    assert dst <= (
        arclength_distance(square, s, u) + arclength_distance(square, u, t) + 1e-12
    )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_chord_below_arclength(seed):
    rng = np.random.default_rng(seed)
    c = build_polycurve(jittered_polygon(12, seed=seed))
    s, t = rng.random(2) * c.total_len
    assert chord_distance(c, s, t) <= arclength_distance(c, s, t) + 1e-12


# ---------------------------------------------------------------------------
# angles

def test_interior_angle_square(square):
    for i in range(4):
        assert interior_angle(square, i) == pytest.approx(math.pi / 2)


def test_interior_angle_triangle():
    tri = build_polycurve([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
    assert interior_angle(tri, 1) == pytest.approx(math.pi / 3)


def test_interior_angle_collinear():
    c = build_polycurve([[0, 0, 0], [1, 0, 0], [2, 0, 0], [1, 1, 0]])
    assert interior_angle(c, 1) == pytest.approx(math.pi)


def test_interior_angle_hexagon(hexagon):
    assert interior_angle(hexagon, 2) == pytest.approx(2 * math.pi / 3)


# ---------------------------------------------------------------------------
# segment distance

def test_segment_distance_parallel():
    assert segment_min_distance((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)) == 1.0


def test_segment_distance_overlapping():
    assert segment_min_distance((0, 0, 0), (1, 0, 0), (0.5, 0, 0), (2, 0, 0)) == 0.0


def test_segment_distance_skew():
    d = segment_min_distance((0, 0, 0), (1, 0, 0), (0.5, 1, -1), (0.5, 1, 1))
    assert d == pytest.approx(1.0, abs=1e-15)


def test_segment_distance_point_segment():
    # degenerate first segment
    assert segment_min_distance((0, 3, 0), (0, 3, 0), (-1, 0, 0), (1, 0, 0)) == 3.0


def test_segment_distance_collinear_gap():
    assert segment_min_distance((0, 0, 0), (1, 0, 0), (4, 0, 0), (6, 0, 0)) == 3.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_segment_distance_vs_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(4, 3))
    if seed % 3 == 0:
        pts[3] = pts[2] + (pts[1] - pts[0]) * rng.normal()  # force parallel
    got = segment_min_distance(pts[0], pts[1], pts[2], pts[3])
    want = seg_dist_oracle(pts[0], pts[1], pts[2], pts[3])
    assert got == pytest.approx(want, abs=2e-6)
    assert got <= want + 1e-12  # never above the true minimum


# ---------------------------------------------------------------------------
# clearance

def test_clearance_square(square):
    assert min_clearance(square) == pytest.approx(1.0)
    # both opposite pairs tie at exactly 1; the smaller pair is named
    assert _min_clearance_pair(square) == (1.0, 0, 2)
    assert clearance_all_pairs(square)[0] == (1.0, 0, 2)


def test_clearance_hexagon(hexagon):
    # 1.0, frozen from the 9-pair brute force below: the closest
    # non-adjacent pairs are edges two apart, which meet the skipped
    # vertex at distance one side length; opposite edges are sqrt(3)
    # apart and never the minimum.
    assert min_clearance(hexagon) == pytest.approx(1.0, abs=1e-12)
    assert clearance_oracle(regular_polygon(6)) == pytest.approx(1.0, abs=1e-12)


def test_clearance_computed_once_per_curve(clearance_calls):
    c = build_polycurve(jittered_polygon(40, seed=5, amp=0.3))
    assert min_clearance(c) == _min_clearance_pair(c)[0] == min_clearance(c)
    assert len(clearance_calls) == 1 and clearance_calls[0] is c
    # a curve built from the same vertices computes its own
    fresh = build_polycurve(c.vertices)
    assert min_clearance(fresh) == min_clearance(c)
    assert len(clearance_calls) == 2 and clearance_calls[1] is fresh


def test_clearance_triangle_has_no_pairs():
    tri = build_polycurve([[0, 0, 0], [1, 0, 0], [0.5, 1, 0]])
    assert min_clearance(tri) == math.inf


def test_clearance_figure_eight_is_zero():
    # two lobes pinched at a shared, non-consecutive vertex
    c = build_polycurve(
        [[0, 0, 0], [1, 0, 0], [0.5, 0.5, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]]
    )
    assert min_clearance(c) == 0.0


def clearance_all_pairs(c):
    """((d, i, j), (iu, ju, dist)): the closest vertex-disjoint edge pair by
    scanning them all, 256 edges i at a time, where the first minimum in
    row-major order wins; and every such pair iu < ju with its distance."""
    m, rows = c.m, 256
    D = c.edge_lens[:, None] * c.edge_dirs
    best = (math.inf, -1, -1)
    scan = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
    for r0 in range(0, m, rows):
        iu = np.repeat(np.arange(r0, min(r0 + rows, m)), m)
        ju = np.tile(np.arange(m), min(rows, m - r0))
        keep = (ju >= iu + 2) & ~((iu == 0) & (ju == m - 1))
        iu, ju = iu[keep], ju[keep]
        if len(iu) == 0:
            continue
        d = _seg_seg_dist(c.vertices[iu], D[iu], c.vertices[ju], D[ju])
        scan.append((iu, ju, d))
        k = int(np.argmin(d))
        if d[k] < best[0]:
            best = (float(d[k]), int(iu[k]), int(ju[k]))
    return best, tuple(np.concatenate(a) for a in zip(*scan))


def assert_descent_covers(c, r, iu, ju, dist):
    # the edge pairs the descent keeps at radius r, as clearance keeps
    # them at u0, are vertex-disjoint, i < j, each once, and hold every
    # pair at most r apart
    m, pad = c.m, geom._pad(c)
    blocks = geom._edge_pairs(c, lambda gap, *_: gap <= r + pad)
    got = np.concatenate([np.empty(0, dtype=np.int64)] + [i * m + j for i, j in blocks])
    i, j = divmod(got, m)
    assert np.all(j >= i + 2) and not np.any((i == 0) & (j == m - 1))
    assert len(np.unique(got)) == len(got)
    near = dist <= r
    assert np.isin(iu[near] * m + ju[near], got).all()


def clearance_in_small_blocks(verts):
    """_min_clearance_pair of a fresh curve on verts, with blocks of 4
    node pairs, and the number of leaf blocks its descent yielded.  Four
    lets a 4-gon, whose descent keeps only its leaf pairs (0, 2), (0, 3)
    and (1, 3), yield two blocks."""
    yielded = []
    descend = geom._descend

    def recorded(*args):
        for blk in descend(*args):
            yielded.append(blk)
            yield blk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geom, "_BLOCK_BYTES", 4 * geom._NODE_PAIR_BYTES)
        mp.setattr(geom, "_descend", recorded)
        return _min_clearance_pair(build_polycurve(verts)), len(yielded)


def assert_clearance_matches_all_pairs(c, radii=("u0", "mid", "diameter")):
    best, (iu, ju, dist) = clearance_all_pairs(c)
    assert _min_clearance_pair(c) == best
    # u0: the closest pair of edges two apart, the radius clearance uses;
    # the diameter radius takes in every pair
    u0 = dist[(ju - iu == 2) | (ju - iu == c.m - 2)].min()
    diameter = np.linalg.norm(np.ptp(c.vertices, axis=0))
    r = {"u0": u0, "mid": math.sqrt(u0 * diameter), "diameter": diameter}
    for name in radii:
        assert_descent_covers(c, r[name], iu, ju, dist)
    # a fresh curve, so the cached clearance of c does not stand in
    got, blocks = clearance_in_small_blocks(c.vertices)
    assert got == best and blocks > 1


@pytest.mark.parametrize("m", [4, 5, 40, 900])
def test_clearance_descent_matches_all_pairs(m):
    assert_clearance_matches_all_pairs(build_polycurve(jittered_polygon(m, seed=11, amp=0.2)))


def test_clearance_skewed_edge_lengths():
    # a 2000-gon keeping every vertex on one half and every 20th on the
    # other: the long edges are 20x the median, so the edge spheres
    # differ widely in size
    verts = jittered_polygon(2000, seed=3, amp=0.2)
    c = build_polycurve(np.concatenate([verts[:1000], verts[1000::20]]))
    assert c.edge_lens.max() > 3.0 * np.median(c.edge_lens)
    assert_clearance_matches_all_pairs(c)


def test_clearance_mixed_huge_and_tiny_edges():
    # a triangle of ~1e3 sides whose corners are zigzags of 1e-3 edges
    # climbing out of the plane: a node sphere over a long edge holds
    # whole zigzags, six orders of magnitude smaller
    corners = np.array([[0.0, 0.0, 0.0], [1000.0, 0.0, 0.0], [500.0, 800.0, 0.0]])
    step = 1e-3 / math.sqrt(3.0)
    zig = np.array([[step * (k % 2), step * (k % 2), step * k] for k in range(41)])
    c = build_polycurve(np.concatenate([p + zig for p in corners]))
    assert c.edge_lens.min() == pytest.approx(1e-3) and c.edge_lens.max() > 0.9e3
    assert_clearance_matches_all_pairs(c)


def test_clearance_far_from_origin():
    verts = jittered_polygon(200, seed=0)
    far = build_polycurve(verts + np.array([1e8, -1e8, 1e8]))
    # rounding the coordinates at 1e8 alone moves the clearance by ~7e-8 (rel)
    assert min_clearance(far) == pytest.approx(min_clearance(build_polycurve(verts)), rel=1e-5)
    assert_clearance_matches_all_pairs(far)


def test_clearance_b3_plat_matches_all_pairs():
    # m = 3182: about 5 M edge pairs, which the reference scans in row blocks
    assert_clearance_matches_all_pairs(build_plat(make_uniform_jm_spec(3, 13, 3)), radii=("mid",))


def test_clearance_matches_scalar_oracle():
    verts = jittered_polygon(40, seed=5, amp=0.3)
    c = build_polycurve(verts)
    assert min_clearance(c) == pytest.approx(clearance_oracle(verts), abs=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_clearance_rigid_motion_invariant(seed):
    verts = jittered_polygon(24, seed=seed)
    q = random_rotation(seed + 1)
    shift = np.array([0.3, -1.2, 0.7])
    a = min_clearance(build_polycurve(verts))
    b = min_clearance(build_polycurve(verts @ q.T + shift))
    assert b == pytest.approx(a, rel=1e-9)


# ---------------------------------------------------------------------------
# serialization

def test_json_roundtrip_bit_exact(tmp_path):
    verts = jittered_polygon(31, seed=9)
    c = build_polycurve(verts)
    path = tmp_path / "c.json"
    save_curve(c, path)
    c2 = load_curve(path)
    assert np.array_equal(c.vertices, c2.vertices)
    assert c.total_len == c2.total_len


def test_json_requires_closed_flag():
    with pytest.raises(DegenerateCurve):
        curve_from_json({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]})
    with pytest.raises(DegenerateCurve):
        curve_from_json({"closed": True})


def test_json_precision():
    c = build_polycurve(jittered_polygon(7, seed=2))
    text = json.dumps(curve_to_json(c))
    c2 = curve_from_json(json.loads(text))
    assert np.array_equal(c.vertices, c2.vertices)


def test_json_rejects_non_number_coordinates():
    # numpy would read "0", "1e0", true and false as the unit square
    rows = [["0", "0", "0"], [True, 0, 0], [1, "1e0", 0], [0, 1, False]]
    with pytest.raises(DegenerateCurve):
        curve_from_json({"closed": True, "vertices": rows})


SQUARE_ROWS = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
# vertices 0..2 of the unit square: a polyline of length 2
FITTING_TAG = {"kind": "vertical", "strand": 1, "range": [0, 2], "nominal_length": 2.0}
FORGED_TAGS = {
    "unknown-kind": {"kind": "spiral"},
    "range-past-end": {"range": [5, 99999]},
    "negative-range": {"range": [-1, 2]},
    "empty-range": {"range": [2, 2]},
    "infinite-length": {"nominal_length": math.inf},
    "nan-length": {"nominal_length": math.nan},
    "zero-length": {"nominal_length": 0.0},
    "shorter-than-polyline": {"nominal_length": 1.5},
    # a twist tag with no region, strand 7 and a nominal length of 1e9
    "twist-far-out": {"kind": "twist", "strand": 7, "range": [5, 99999], "nominal_length": 1e9},
}


@pytest.mark.parametrize("change", FORGED_TAGS.values(), ids=FORGED_TAGS.keys())
def test_json_rejects_forged_arc_tags(change):
    assert curve_from_json({"closed": True, "vertices": SQUARE_ROWS, "arcs": [FITTING_TAG]}).arcs
    with pytest.raises(DegenerateCurve):
        curve_from_json(
            {"closed": True, "vertices": SQUARE_ROWS, "arcs": [{**FITTING_TAG, **change}]}
        )


@pytest.mark.parametrize("b", [3, 4])
def test_json_plat_roundtrip_keeps_arc_tags(b):
    # every arc's nominal length is at least its polyline's, so all load
    c = build_plat(make_uniform_jm_spec(b, 4 * b * (b - 2) + 1, 3))
    c2 = curve_from_json(json.loads(json.dumps(curve_to_json(c))))
    assert np.array_equal(c2.vertices, c.vertices)
    assert c2.arcs == c.arcs
