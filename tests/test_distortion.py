import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jittered_polygon, random_rotation, regular_polygon
from kdl import distortion
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


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 37])
def test_pair_blocks_cover_triangle_once(monkeypatch, n, k):
    # a small chunk splits the triangle into several blocks of rows
    monkeypatch.setattr(distortion, "_CHUNK", 50)
    blocks = list(distortion._pair_blocks(n, k))
    if n > 20:
        assert len(blocks) > 1
    got = [(int(i), int(j)) for ii, jj in blocks for i, j in zip(ii, jj)]
    want = [(i, j) for i in range(n) for j in range(i + k, n)]
    assert got == want


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
