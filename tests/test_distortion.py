import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import jittered_polygon, random_rotation, regular_polygon
from kdl import distortion, geom
from kdl.distortion import (
    cell_upper_bound,
    corner_ratio,
    distortion_certified,
    distortion_sampled,
    helix_ratio_bound,
    max_pair_ratio_open,
)
from kdl.errors import DegenerateCurve, NotEmbedded, OutOfRange
from kdl.geom import arclength_distance, build_polycurve, chord_distance
from kdl.plat import build_plat, make_uniform_jm_spec


# ---------------------------------------------------------------------------
# oracles

def corner_ratio_oracle(phi, steps=4001):
    """Max (a+b)/chord over a dense grid of arm lengths on a planar wedge."""
    a = np.linspace(1e-6, 1.0, steps)
    b = a[:, None]
    chord = np.sqrt(a**2 + b**2 - 2.0 * a * b * math.cos(phi))
    return float(np.max((a + b) / chord))


def pair_ratio(c, s, t):
    return arclength_distance(c, s, t) / chord_distance(c, s, t)


def dense_ratio_scan(c, n):
    """Equispaced parameter grid, all pairs, scalar evaluation path."""
    params = [i * c.total_len / n for i in range(n)]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            chord = chord_distance(c, params[i], params[j])
            if chord < 1e-12:
                continue
            best = max(best, arclength_distance(c, params[i], params[j]) / chord)
    return best


# ---------------------------------------------------------------------------
# closed forms

def test_corner_ratio_examples():
    assert corner_ratio(math.pi) == pytest.approx(1.0)
    assert corner_ratio(math.pi / 2) == pytest.approx(math.sqrt(2.0))
    assert corner_ratio(math.pi / 3) == pytest.approx(2.0)


@pytest.mark.parametrize("phi", [0.3, math.pi / 6, math.pi / 4, 1.0, 2.5, math.pi])
def test_corner_ratio_vs_grid_oracle(phi):
    want = corner_ratio_oracle(phi)
    got = corner_ratio(phi)
    # the grid undershoots the supremum slightly, never overshoots
    assert want <= got * (1.0 + 1e-9)
    assert got == pytest.approx(want, rel=1e-6)


def test_corner_ratio_range():
    with pytest.raises(OutOfRange):
        corner_ratio(-0.1)
    with pytest.raises(OutOfRange):
        corner_ratio(math.pi + 0.1)
    assert corner_ratio(0.0) == math.inf


def test_helix_ratio_bound_values():
    assert helix_ratio_bound(3) == pytest.approx(4.8173239358, rel=1e-9)
    assert helix_ratio_bound(3) <= 2 * math.pi * 3
    assert helix_ratio_bound(1) == pytest.approx(math.sqrt(math.pi**2 / 4 + 1))
    assert helix_ratio_bound(4) > helix_ratio_bound(3)
    with pytest.raises(OutOfRange):
        helix_ratio_bound(0)


def test_max_pair_ratio_open_straight():
    r, i, j = max_pair_ratio_open([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    assert r == pytest.approx(1.0)


def test_max_pair_ratio_open_right_angle():
    r, i, j = max_pair_ratio_open([[1, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert r == pytest.approx(math.sqrt(2.0))
    assert (i, j) == (0, 2)


def row_ratios(p, q, s, t, L):
    """The ratio kernel in row form, (n, 3) points p and q: the arc over
    sqrt(_dot(p - q, p - q)), 0 for chords below the floor."""
    diff = p - q
    chord = np.sqrt(geom._dot(diff, diff))
    d = np.abs(s - t)
    arc = np.minimum(d, L - d)
    ok = chord >= distortion._CHORD_FLOOR
    return np.where(ok, arc / np.where(ok, chord, 1.0), 0.0)


@given(
    st.integers(1, 300),
    st.sampled_from([1e-6, 1.0, 1e6]),
    st.sampled_from([0.0, 1e8]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ratio_kernel_matches_row_form(n, scale, shift, closed, seed):
    # the column kernel sums the squared chord in einsum's order, so
    # every ratio is == the row form's
    rng = np.random.default_rng(seed)
    P = scale * rng.normal(size=(n, 3)) + shift
    S = np.sort(rng.uniform(0.0, 10.0 * scale * n, size=n))
    L = 10.0 * scale * n if closed else math.inf
    # a fifth of the points are copies of others; their pairs with the
    # originals join coincident points, whose ratio the floor makes 0
    kept = rng.random(n) >= 0.2
    kept[0] = True
    copy = np.flatnonzero(~kept)
    orig = rng.choice(np.flatnonzero(kept), size=len(copy))
    P[copy] = P[orig]
    i, j = rng.integers(n, size=(2, 4 * n))
    i, j = np.concatenate([i, copy]), np.concatenate([j, orig])
    got = distortion._ratios(np.ascontiguousarray(P.T), S, i, j, L)
    assert np.array_equal(got, row_ratios(P[i], P[j], S[i], S[j], L))
    assert (got[4 * n :] == 0.0).all()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 37])
def test_pair_blocks_cover_triangle_once(monkeypatch, n, k):
    # _max_ratio's blocks of k cyclic offsets (a budget of k * n pairs)
    # reach every pair i < j, and no ordered pair twice.  Point i sits at
    # x = i, so an entry's column gives i and its dx = i - j gives j
    monkeypatch.setattr(geom, "_BLOCK_BYTES", k * max(n, 1) * distortion._RATIO_PAIR_BYTES)
    blocks = []
    ratio_of = distortion._ratio_of

    def recorded(dx, *rest):
        blocks.append(dx.copy())  # _ratio_of overwrites its inputs
        return ratio_of(dx, *rest)

    monkeypatch.setattr(distortion, "_ratio_of", recorded)
    X = np.zeros((3, n))
    X[0] = np.arange(n)
    distortion._max_ratio(X, np.arange(n, dtype=float), math.inf)
    assert all(len(block) <= k for block in blocks)
    if n > 20:
        assert len(blocks) > 1
    pairs = [(i, i - int(dx)) for block in blocks for row in block for i, dx in enumerate(row)]
    assert len(set(pairs)) == len(pairs)
    want = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert sorted({(min(p), max(p)) for p in pairs}) == want


def all_pairs_max(P, S, L):
    """Brute-force reference for _max_ratio: every pair i < j through the
    row form, the first maximal pair in row-major order."""
    n = len(S)
    i, j = np.triu_indices(n, 1)
    r = row_ratios(P[i], P[j], S[i], S[j], L)
    k = int(np.argmax(r))
    return float(r[k]), int(i[k]), int(j[k])


def window_input(shape, n, seed):
    """Points (n, 3) and parameters of one kind: random, a regular
    polygon or equally spaced collinear points (many exact ties), or
    random points a third of which copy others (chords below the floor),
    and the loop length they lie on."""
    rng = np.random.default_rng(seed)
    if shape == "regular":
        return regular_polygon(n), np.arange(n) * 0.5, 0.5 * n
    if shape == "collinear":
        P = np.zeros((n, 3))
        P[:, 0] = np.arange(n)
        return P, np.arange(n, dtype=float), float(n)
    P = rng.normal(size=(n, 3))
    S = np.sort(rng.uniform(0.0, 3.0 * n, size=n))
    if shape == "coincident":
        copy = rng.choice(n, size=n // 3, replace=False)
        P[copy] = P[rng.integers(n, size=len(copy))]
    return P, S, 3.0 * n


@pytest.mark.parametrize("small_blocks", [False, True], ids=["one-block", "blocks-of-3"])
@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
@pytest.mark.parametrize("shape", ["random", "regular", "collinear", "coincident"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 31, 64, 127, 128, 300])
def test_window_max_matches_all_pairs(monkeypatch, n, shape, closed, small_blocks):
    # == ratio and the same pair as the all-pairs scan, ties included;
    # blocks of 3 offsets split every n >= 8 into several blocks
    P, S, L = window_input(shape, n, seed=n)
    L = L if closed else math.inf
    if small_blocks:
        monkeypatch.setattr(geom, "_BLOCK_BYTES", 3 * n * distortion._RATIO_PAIR_BYTES)
    assert distortion._max_ratio(np.ascontiguousarray(P.T), S, L) == all_pairs_max(P, S, L)


def test_window_max_all_coincident():
    # every chord is below the floor: ratio 0 at the first pair
    P = np.ones((6, 3))
    assert distortion._max_ratio(P.T, np.arange(6.0), 6.0) == (0.0, 0, 1)


# ---------------------------------------------------------------------------
# sampled estimator

def test_sampled_square(square):
    w = distortion_sampled(square, n_samples=400)
    # the equispaced grid hits both opposite-edge midpoints exactly
    assert w.ratio == pytest.approx(2.0, abs=1e-12)
    assert {round(w.s, 6), round(w.t, 6)} == {0.5, 2.5}


def test_sampled_1000gon():
    c = build_polycurve(regular_polygon(1000))
    w = distortion_sampled(c, n_samples=4000)
    assert w.ratio == pytest.approx(math.pi / 2, abs=1e-3)


def test_sampled_witness_reproducible(square):
    w = distortion_sampled(square, n_samples=173)
    assert pair_ratio(square, w.s, w.t) == pytest.approx(w.ratio, rel=1e-12)


def test_sampled_below_certified_hi():
    c = build_polycurve(jittered_polygon(16, seed=21))
    cert = distortion_certified(c, eps=0.05)
    w = distortion_sampled(c, n_samples=500)
    assert w.ratio <= cert.hi + 1e-12


def test_sampled_rejects_negative(square):
    with pytest.raises(OutOfRange):
        distortion_sampled(square, n_samples=-1)


def thin_loop(n, width, seed):
    """A loop around a 10 x width rectangle, n vertices a long side, with
    out-of-plane noise: distortion about 10 / width, so only pairs about
    width apart can beat it."""
    rng = np.random.default_rng(seed)
    side = np.stack([np.linspace(0.0, 10.0, n), np.zeros(n), np.zeros(n)], axis=1)
    loop = np.concatenate([side[::-1] + [0.0, width, 0.0], side])
    return loop + 0.02 * width * rng.normal(size=loop.shape)


# ---------------------------------------------------------------------------
# point-pair scan against the full triangle

_triangle_max_ratio = distortion._max_ratio


def triangle(c, params):
    return _triangle_max_ratio(geom._points_at(c, params).T, params, c.total_len)


def sample_params(c, n_samples):
    """The parameter set of distortion_sampled(c, n_samples)."""
    step = c.total_len / max(n_samples, 1)
    params = np.concatenate([c.cum_len[: c.m], np.arange(n_samples) * step])
    return params[params < c.total_len]


def deepening(c, params, block_pairs=None):
    """_curve_max_ratio, and the point counts it ran the triangle on.
    block_pairs shrinks the blocks so that small inputs do not fit one."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        if block_pairs is not None:
            mp.setattr(geom, "_BLOCK_BYTES", block_pairs * distortion._RATIO_PAIR_BYTES)

        def recorded(X, S, *args):
            calls.append(len(S))
            return _triangle_max_ratio(X, S, *args)

        mp.setattr(distortion, "_max_ratio", recorded)
        return distortion._curve_max_ratio(c, params), calls


@given(
    st.integers(10, 40),
    st.integers(0, 150),
    st.floats(0.05, 0.9),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_deepening_matches_triangle_on_random_polygons(m, n_samples, amp, lift, seed):
    verts = jittered_polygon(m, seed=seed, amp=amp)
    verts[:, 2] = lift * np.random.default_rng(seed).normal(size=m)
    c = build_polycurve(verts)
    for params in (c.cum_len[: c.m], sample_params(c, n_samples)):
        got, calls = deepening(c, params, block_pairs=64)
        assert got == triangle(c, params)
        assert calls == []


@pytest.mark.parametrize(
    "verts",
    [
        thin_loop(30, 0.1, 0),
        thin_loop(30, 0.1, 0) + np.array([1e8, -1e8, 1e8]),
        thin_loop(50, 0.05, 1),
    ],
    ids=["thin", "thin-far", "thin-narrow"],
)
@pytest.mark.parametrize("n_samples", [0, 1024])
def test_deepening_matches_triangle_on_thin_loops(verts, n_samples):
    c = build_polycurve(verts)
    params = sample_params(c, n_samples)
    got, calls = deepening(c, params, block_pairs=64)
    assert got == triangle(c, params)
    assert calls == []


def test_deepening_exact_ties_and_samples_on_vertices(square):
    # every vertex parameter is also a sample, and two opposite-edge
    # midpoint pairs tie at exactly 2: the first in row-major order wins
    params = sample_params(square, 400)
    assert np.isin(square.cum_len[:4], params[4:]).all()
    got, calls = deepening(square, params, block_pairs=64)
    assert got == triangle(square, params)
    assert calls == []
    ratio, i, j = got
    assert ratio == 2.0 and (params[i], params[j]) == (0.5, 2.5)


def test_deepening_sharp_corner_pair_on_adjacent_edges():
    # a needle whose tip, vertex 1, has an angle of 0.01: the worst pair
    # straddles the tip, one point on each edge at it
    c = build_polycurve([[0, 0, 0], [10, 0.05, 0], [0, 0.1, 0], [-1, 0.05, 0]])
    params = sample_params(c, 200)
    got, calls = deepening(c, params, block_pairs=64)
    assert got == triangle(c, params)
    assert calls == []
    ratio, i, j = got
    assert ratio > 50.0 and params[i] < c.cum_len[1] < params[j] < c.cum_len[2]


def test_deepening_matches_triangle_on_b3_plat():
    # the plat prunes: both scans finish without the triangle, and the
    # vertex scan and distortion_sampled report the triangle's pair
    c = build_plat(make_uniform_jm_spec(3, 13, 3))
    w = distortion_sampled(c, 1024)
    for params, got in (
        (c.cum_len[: c.m], distortion._initial_vertex_scan(c)),
        (sample_params(c, 1024), (w.ratio, w.s, w.t)),
    ):
        ratio, i, j = triangle(c, params)
        assert deepening(c, params) == ((ratio, i, j), [])
        assert got == (ratio, params[i], params[j])


def test_near_round_loop_prunes():
    # 300 vertices fit one block and take the triangle; with 1024 samples
    # they do not, and although no pair lies beyond the reach of the best
    # ratio, the descent drops the pairs whose arc is short for their gap
    noise = 0.01 * np.random.default_rng(3).normal(size=(300, 3))
    c = build_polycurve(regular_polygon(300) + noise)
    for params, want in ((c.cum_len[: c.m], [300]), (sample_params(c, 1024), [])):
        got, calls = deepening(c, params)
        assert got == triangle(c, params)
        assert calls == want


def test_long_edges_holding_many_samples_prune():
    # edges 0.34 long hold some 70 samples each, and only pairs about
    # 0.1 apart can beat the best ratio: the scan prunes point pairs,
    # not edge pairs, so it never needs the triangle
    c = build_polycurve(thin_loop(30, 0.1, 0))
    params = sample_params(c, 4096)
    got, calls = deepening(c, params)
    assert got == triangle(c, params)
    assert calls == []


# ---------------------------------------------------------------------------
# cell upper bound

def test_cell_upper_square_opposite_edges(square):
    u = cell_upper_bound(square, (0.0, 1.0), (2.0, 3.0))
    assert u == pytest.approx(2.0)


def test_cell_upper_touching_is_inf(square):
    u = cell_upper_bound(square, (0.0, 1.0), (1.0, 2.0))
    assert u == math.inf


def test_cell_upper_dominates_samples():
    c = build_polycurve(jittered_polygon(9, seed=4))
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = sorted(rng.choice(c.m, size=2, replace=False))
        if j - i < 2 or (i == 0 and j == c.m - 1):
            continue
        a = np.sort(rng.uniform(c.cum_len[i], c.cum_len[i + 1], 2))
        b = np.sort(rng.uniform(c.cum_len[j], c.cum_len[j + 1], 2))
        u = cell_upper_bound(c, (a[0], a[1]), (b[0], b[1]))
        for s in np.linspace(a[0], a[1], 7):
            for t in np.linspace(b[0], b[1], 7):
                assert pair_ratio(c, float(s), float(t)) <= u * (1 + 1e-12)


def test_cell_upper_validates_containment(square):
    with pytest.raises(OutOfRange):
        cell_upper_bound(square, (0.5, 1.5), (2.0, 3.0))  # spans two edges


# ---------------------------------------------------------------------------
# certified engine

def test_certified_square(square):
    cert = distortion_certified(square, eps=1e-4)
    assert cert.lo == 2.0  # realized exactly by opposite-edge midpoints
    assert cert.lo <= 2.0 <= cert.hi
    assert cert.width <= 1e-4 + 1e-12
    assert (cert.witness.s, cert.witness.t) == (0.5, 2.5)
    assert not cert.budget_exceeded


def test_certified_4096gon():
    c = build_polycurve(regular_polygon(4096))
    cert = distortion_certified(c, eps=1e-3)
    # frozen: the best vertex pair sits a hair below pi/2
    assert cert.lo == pytest.approx(1.570796172785059, rel=1e-12)
    assert cert.lo <= math.pi / 2 <= cert.hi
    assert cert.width <= 1e-3 + 1e-12


def test_certified_small_polygon_vs_dense_scan():
    c = build_polycurve(jittered_polygon(10, seed=8))
    cert = distortion_certified(c, eps=1e-3)
    oracle = dense_ratio_scan(c, 300)
    assert cert.lo <= oracle * (1 + 1e-9)
    assert oracle <= cert.hi * (1 + 1e-9)


def test_certified_witness_reproducible():
    c = build_polycurve(jittered_polygon(14, seed=31))
    cert = distortion_certified(c, eps=1e-2)
    assert pair_ratio(c, cert.witness.s, cert.witness.t) == pytest.approx(
        cert.witness.ratio, rel=1e-12
    )
    assert cert.witness.ratio == cert.lo


def test_certified_gromov_floor_small():
    for seed in (1, 2, 3):
        c = build_polycurve(jittered_polygon(20, seed=seed))
        cert = distortion_certified(c, eps=1e-2)
        assert cert.hi >= math.pi / 2


def test_certified_budget_flag():
    c = build_polycurve(regular_polygon(1000))
    cert = distortion_certified(c, eps=1e-6, max_expansions=10)
    assert cert.budget_exceeded
    assert cert.lo <= cert.hi
    assert cert.hi >= math.pi / 2  # still a valid enclosure


def test_certified_not_embedded():
    c = build_polycurve(
        [[0, 0, 0], [1, 0, 0], [0.5, 0.5, 0], [1, 1, 0], [0, 1, 0], [0.5, 0.5, 0]]
    )
    with pytest.raises(NotEmbedded):
        distortion_certified(c, eps=1e-2)


def test_certified_rejects_bad_eps(square):
    for eps in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(OutOfRange):
            distortion_certified(square, eps=eps)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_certified_intervals_intersect_across_eps(seed):
    # both intervals contain the true value, so they must overlap,
    # and the tighter request can't come back wider
    c = build_polycurve(jittered_polygon(12, seed=seed))
    a = distortion_certified(c, eps=0.1)
    b = distortion_certified(c, eps=0.02)
    assert max(a.lo, b.lo) <= min(a.hi, b.hi) * (1 + 1e-12)
    assert b.width <= a.width + 1e-12


def test_certified_similarity_invariance_quick():
    verts = jittered_polygon(12, seed=77)
    q = random_rotation(5)
    moved = 2.37 * (verts @ q.T) + np.array([0.3, -1.2, 0.7])
    a = distortion_certified(build_polycurve(verts), eps=0.05)
    b = distortion_certified(build_polycurve(moved), eps=0.05)
    assert b.lo == pytest.approx(a.lo, rel=1e-9)
    assert b.hi == pytest.approx(a.hi, rel=1e-9)


def all_pairs_grid(c):
    """The vertex scan's lo, and every vertex-disjoint edge pair i < j
    with its cell bound: the initial grid of distortion_certified before
    it took only near pairs."""
    m = c.m
    ii, jj = np.triu_indices(m, 2)
    keep = ~((ii == 0) & (jj == m - 1))
    ii, jj = ii[keep], jj[keep]
    cum = c.cum_len
    u = distortion._cell_upper(c, ii, jj, cum[ii], cum[ii + 1], cum[jj], cum[jj + 1])
    return distortion._initial_vertex_scan(c)[0], ii, jj, u


@pytest.mark.parametrize(
    "verts, prunes",
    [
        (jittered_polygon(10, seed=8), False),
        (jittered_polygon(40, seed=5, amp=0.3), True),
        (regular_polygon(64) + 0.01 * np.random.default_rng(2).normal(size=(64, 3)), True),
        (thin_loop(30, 0.1, 0), True),
        (thin_loop(30, 0.1, 0) + np.array([1e8, -1e8, 1e8]), True),
        (thin_loop(50, 0.05, 1), True),
    ],
    ids=["jitter10", "jitter40", "round64", "thin", "thin-far", "thin-narrow"],
)
@pytest.mark.parametrize("eps", [0.05, 1e-3])
def test_certified_grid_matches_all_pairs(verts, prunes, eps):
    # the initial grid evaluates only the edge pairs whose arc over
    # their gap can beat lo + eps; stopped before any bisection, the
    # certificate must equal one built from every pair
    c = build_polycurve(verts)
    lo, _, _, u = all_pairs_grid(c)
    alive = int((u > lo + eps).sum())
    hi = max(lo + eps, distortion._corner_sup(c), float(u.max()))
    cert = distortion_certified(c, eps=eps, max_expansions=0)
    assert (cert.lo, cert.hi, cert.budget_exceeded) == (lo, hi, alive > 0)
    # the grid keeps exactly the cells all pairs keep: a budget of one
    # fewer stops before the first bisection round, a budget of them runs it
    assert distortion_certified(c, eps=eps, max_expansions=alive - 1).cells == cert.cells
    assert distortion_certified(c, eps=eps, max_expansions=alive).cells == cert.cells + 2 * alive
    # every pair that beats lo + eps is a candidate (the others may be
    # dropped unevaluated), and all but the smallest curve leave most
    # pairs out
    assert alive <= cert.cells <= len(u)
    if prunes:
        assert cert.cells < len(u) / 4


def test_certified_b3_plat_frozen():
    # values of the all-pairs grid, before the grid took only near pairs
    c = build_plat(make_uniform_jm_spec(3, 13, 3))
    cert = distortion_certified(c, eps=0.05)
    assert (cert.lo, cert.hi) == (441.18707873892134, 441.23707873892135)
    assert (cert.witness.s, cert.witness.t) == (124.58095769649796, 311.96488948471546)
    assert not cert.budget_exceeded
    grid = distortion_certified(c, eps=0.05, max_expansions=0)
    assert (grid.lo, grid.hi) == (439.31182606585685, 444.34797782348477)
    assert grid.budget_exceeded


def test_certified_helix_with_return_path():
    # one twist strand closed through a wide V-shaped detour whose
    # branches separate fast, so pairs inside the strand dominate: the
    # certified interval must contain the closed-form strand value up
    # to discretization
    from kdl.plat import _twist_strand_points

    t = 3
    strand = _twist_strand_points(0.0, 0.0, 0.0, t, 48 * t)
    a = 10.0 / math.sqrt(2.0)
    back = np.array([[-0.5 + a, 0.0, -1.0 - a], [0.5 + a, 0.0, a]])
    cert = distortion_certified(
        build_polycurve(np.concatenate([strand, back])), eps=0.01
    )
    want = helix_ratio_bound(t)
    assert cert.lo <= want * (1 + 1e-3)
    assert cert.hi >= want * (1 - 1e-3)
    # and the witness is a strand pair, one full turn apart
    s_len = want  # strand arc length: unit drop times the ratio bound
    assert 0.0 <= cert.witness.s <= s_len
    assert 0.0 <= cert.witness.t <= s_len


# ---------------------------------------------------------------------------
# arc-over-gap descent

def random_curve(m, seed, amp, lift, scale, shift):
    """A jittered m-gon lifted out of the plane, scaled and shifted."""
    verts = jittered_polygon(m, seed=seed, amp=amp)
    verts[:, 2] = lift * np.random.default_rng(seed).normal(size=m)
    return build_polycurve(scale * verts + shift)


random_curves = st.builds(
    random_curve,
    st.integers(5, 40),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 0.9),
    st.floats(0.05, 0.5),
    st.sampled_from([1.0, 1e-3, 1e3]),
    st.sampled_from([0.0, 1e8]),
)


def descended(blocks):
    """Every pair of the blocks, as a set."""
    return {(int(i), int(j)) for ii, jj in blocks for i, j in zip(ii, jj)}


@given(random_curves, st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_descent_keeps_every_cell_above_t(c, q):
    # t is the float just below one of the finite cell bounds, so that
    # cell beats it by the least margin there is; every vertex-disjoint
    # edge pair whose bound exceeds t must be a kept leaf pair
    _, ii, jj, u = all_pairs_grid(c)
    finite = np.sort(u[np.isfinite(u)])
    t = float(np.nextafter(finite[int(q * (len(finite) - 1))], -np.inf))
    got = descended(geom._edge_pairs(c, distortion._arc_keep(c, t)))
    assert {(i, j) for i, j in zip(ii[u > t], jj[u > t])} <= got


@given(random_curves, st.integers(0, 120), st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_descent_keeps_every_point_pair_at_t(c, n_samples, q):
    # t is one of the pair ratios, so pairs equal to it must be kept too
    params = np.sort(sample_params(c, n_samples))
    P = geom._points_at(c, params)
    i, j = np.triu_indices(len(params), 1)
    r = distortion._ratios(P.T, params, i, j, c.total_len)
    t = float(np.sort(r)[int(q * (len(r) - 1))])
    levels = geom._arc_tree(P, params, 0)
    got = descended(geom._descend(levels, distortion._arc_keep(c, t)))
    assert {(a, b) for a, b in zip(i[r >= t], j[r >= t])} <= got


@given(random_curves, st.sampled_from([0.05, 1e-3]))
@settings(max_examples=25, deadline=None)
def test_descent_grid_certificate_matches_all_pairs(c, eps):
    assume(geom.min_clearance(c) > 0.0)
    lo, _, _, u = all_pairs_grid(c)
    hi = max(lo + eps, distortion._corner_sup(c), float(u.max(initial=0.0)))
    cert = distortion_certified(c, eps=eps, max_expansions=0)
    assert (cert.lo, cert.hi, cert.budget_exceeded) == (lo, hi, bool((u > lo + eps).any()))


def spy_descent(monkeypatch):
    """Record the block sizes of every _descend call, a list per call:
    the point-pair scans call it from distortion, clearance and the
    certified grid from geom."""
    calls = []
    descend = geom._descend

    def recorded(*args):
        calls.append([])
        for blk in descend(*args):
            calls[-1].append(len(blk[0]))
            yield blk

    monkeypatch.setattr(geom, "_descend", recorded)
    monkeypatch.setattr(distortion, "_descend", recorded)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_polycurve(regular_polygon(2048) + 0.01 * np.random.default_rng(4).normal(size=(2048, 3))),
        lambda: build_plat(make_uniform_jm_spec(3, 13, 3)),
    ],
    ids=["round", "b3-plat"],
)
def test_descent_in_small_blocks_matches(monkeypatch, make):
    # with blocks of 1,000 node pairs the frontier and the kept leaf
    # pairs span several blocks; the results do not move.  Each run
    # gets a fresh curve, so the certified call computes its clearance
    # in small blocks too, rather than reading the cached one.
    def grid(c):
        g = distortion_certified(c, eps=0.05, max_expansions=0)
        return g.lo, g.hi, g.witness, g.budget_exceeded

    def sampled(c):
        w = distortion_sampled(c, 1024)
        return w.ratio, w.s, w.t

    runs = (grid, sampled, distortion._initial_vertex_scan, geom._min_clearance_pair)
    want = [run(make()) for run in runs]
    monkeypatch.setattr(geom, "_BLOCK_BYTES", 1000 * geom._NODE_PAIR_BYTES)
    calls = spy_descent(monkeypatch)
    for run, value in zip(runs, want):
        calls.clear()
        assert run(make()) == value
        # the first descent is the clearance's (in build_plat for the
        # plat), a certified call's last the grid's
        several = [len(calls[0]), len(calls[-1])] if run is grid else [max(map(len, calls))]
        assert min(several) > 1
        assert max(max(blocks, default=0) for blocks in calls) <= 1000
