import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdl.distortion import helix_ratio_bound
from kdl.errors import InvalidSpec, NotAKnot
from kdl.geom import curve_from_json, curve_to_json, min_clearance
from kdl.plat import (
    ArcTag,
    PlatSpec,
    arc_polyline,
    build_plat,
    component_count,
    make_uniform_jm_spec,
    max_adjacent_arc_ratio,
    regions_for,
    run_claim_checks,
)


# ---------------------------------------------------------------------------
# oracles

def component_count_oracle(spec):
    """Count link components by walking the closed diagram.

    Independent of the union-find in the library: compose the row
    permutations into one top-to-bottom strand map, then repeatedly
    follow top bridge -> down -> bottom bridge -> up until the walk
    closes, consuming ports as it goes.
    """
    width = 2 * spec.b
    down = list(range(1, width + 1))  # down[k-1]: where strand k lands
    for i in range(1, spec.n + 1):
        js = range(1, spec.b) if i % 2 == 1 else range(1, spec.b + 1)
        for j in js:
            a = 2 * j if i % 2 == 1 else 2 * j - 1
            if abs(spec.twists[(i, j)]) % 2 == 1:
                for k in range(width):
                    if down[k] == a:
                        down[k] = a + 1
                    elif down[k] == a + 1:
                        down[k] = a
    up = {v: k + 1 for k, v in enumerate(down)}

    def bridge_partner(k):
        return k + 1 if k % 2 == 1 else k - 1

    unvisited = set(range(1, width + 1))
    loops = 0
    while unvisited:
        start = min(unvisited)
        k = start
        while True:
            unvisited.discard(k)
            k = bridge_partner(down[k - 1])  # descend, bottom bridge
            k = up[k]  # ascend the strand that lands there
            unvisited.discard(k)
            k = bridge_partner(k)  # top bridge
            if k == start:
                break
        loops += 1
    return loops


# ---------------------------------------------------------------------------
# specs

def test_regions_for_counts():
    assert len(regions_for(3, 13)) == 32
    assert len(regions_for(4, 33)) == 115
    assert len(regions_for(5, 61)) == 274
    # odd rows hold the inner couplings, even rows the full set
    keys = regions_for(3, 13)
    assert sum(1 for i, _ in keys if i == 1) == 2
    assert sum(1 for i, _ in keys if i == 2) == 3


def test_spec_validation_messages():
    with pytest.raises(InvalidSpec, match="b must be an integer >= 3"):
        make_uniform_jm_spec(2, 13, 3)
    with pytest.raises(InvalidSpec, match=r"n >= 4b\(b-2\)"):
        make_uniform_jm_spec(3, 11, 3)
    with pytest.raises(InvalidSpec, match="odd"):
        make_uniform_jm_spec(3, 12, 3)
    with pytest.raises(InvalidSpec, match="at least 3 crossings"):
        make_uniform_jm_spec(3, 13, 2)


def test_spec_region_coverage_enforced():
    twists = make_uniform_jm_spec(3, 13, 3).twists
    short = dict(twists)
    short.popitem()
    with pytest.raises(InvalidSpec, match="missing"):
        PlatSpec(3, 13, short)
    extra = dict(twists)
    extra[(99, 99)] = 3
    with pytest.raises(InvalidSpec, match="unexpected"):
        PlatSpec(3, 13, extra)


def test_uniform_spec_shape():
    spec = make_uniform_jm_spec(3, 13, 3)
    assert len(spec.twists) == 32
    assert all(abs(w) == 3 for w in spec.twists.values())
    # odd rows twist one way, even rows the other
    assert spec.twists[(1, 1)] > 0 > spec.twists[(2, 1)]


@pytest.mark.parametrize("b", [3, 4, 5])
def test_component_count_uniform_is_knot(b):
    n = 4 * b * (b - 2) + 1
    spec = make_uniform_jm_spec(b, n, 3)
    assert component_count(spec) == 1
    assert component_count_oracle(spec) == 1


def test_component_count_all_even_is_link():
    spec = make_uniform_jm_spec(3, 13, 4)
    assert component_count(spec) == 3
    assert component_count_oracle(spec) == 3


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_component_count_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(3, 6))
    n = 4 * b * (b - 2) + 1
    spec = make_uniform_jm_spec(b, n, 3)
    counts = {
        k: int(rng.integers(3, 7)) * (1 if rng.random() < 0.5 else -1)
        for k in spec.twists
    }
    s2 = PlatSpec(b, n, counts)
    assert component_count(s2) == component_count_oracle(s2)


# ---------------------------------------------------------------------------
# building

@pytest.fixture(scope="module")
def b3_curve():
    return build_plat(make_uniform_jm_spec(3, 13, 3), samples_per_half_twist=16)


def test_build_b3_frozen_numbers(b3_curve):
    assert b3_curve.m == 3182
    assert b3_curve.total_len == pytest.approx(331.2447022334693, rel=1e-12)
    # frozen clearance: realized between twist strands in one region
    assert min_clearance(b3_curve) == pytest.approx(0.0980171403295594, rel=1e-12)


def test_build_b3_arc_inventory(b3_curve):
    kinds = [a.kind for a in b3_curve.arcs]
    assert kinds.count("bridge") == 6
    assert kinds.count("vertical") == 14
    assert kinds.count("twist") == 64


def test_build_tags_partition_vertices(b3_curve):
    spans = sorted((a.vrange for a in b3_curve.arcs))
    assert spans[0][0] == 0
    assert spans[-1][1] == b3_curve.m
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 == b0  # contiguous, no overlap, no gap


def test_build_tag_lengths(b3_curve):
    for tag in b3_curve.arcs:
        if tag.kind == "bridge":
            assert tag.nominal_length == pytest.approx(math.pi / 2)
        elif tag.kind == "vertical":
            assert tag.nominal_length == pytest.approx(1.0)
        else:
            assert tag.nominal_length == pytest.approx(helix_ratio_bound(3))
            assert tag.half_twists is not None
            assert abs(tag.half_twists) == 3


def test_twist_arc_polyline_converges_to_nominal():
    spec = make_uniform_jm_spec(3, 13, 3)
    errs = []
    for samples in (8, 16, 32, 128):
        c = build_plat(spec, samples_per_half_twist=samples)
        tag = next(a for a in c.arcs if a.kind == "twist")
        pts = arc_polyline(c, tag)
        poly_len = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
        errs.append(abs(poly_len - tag.nominal_length) / tag.nominal_length)
    assert errs[1] < 1e-2  # 1% at 16 samples per half-twist
    assert errs[3] < 1e-4
    # chord-vs-arc error shrinks quadratically with sampling
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_build_total_length_bounded(b3_curve):
    l = max(a.nominal_length for a in b3_curve.arcs)
    assert b3_curve.total_len <= 2 * 3 * 13 * (l + 1.0)


def test_build_even_twists_refused():
    with pytest.raises(NotAKnot, match="3 components"):
        build_plat(make_uniform_jm_spec(3, 13, 4))


def test_build_rejects_coarse_sampling():
    with pytest.raises(InvalidSpec):
        build_plat(make_uniform_jm_spec(3, 13, 3), samples_per_half_twist=4)


def test_build_roundtrip_with_tags(b3_curve, tmp_path):
    data = curve_to_json(b3_curve)
    text = json.dumps(data)
    c2 = curve_from_json(json.loads(text))
    assert np.array_equal(b3_curve.vertices, c2.vertices)
    assert c2.arcs == b3_curve.arcs


def test_arc_polyline_spans_tag(b3_curve):
    tag = b3_curve.arcs[0]
    pts = arc_polyline(b3_curve, tag)
    assert len(pts) == tag.vrange[1] - tag.vrange[0] + 1
    assert np.array_equal(pts[0], b3_curve.vertices[tag.vrange[0]])


def test_adjacent_arc_ratio(b3_curve):
    ratio, (a, b) = max_adjacent_arc_ratio(b3_curve)
    assert ratio <= 4 * math.pi * 3
    # the winning pair is a real consecutive pair of tags
    assert b == (a + 1) % len(b3_curve.arcs)


def test_arc_tag_json_roundtrip():
    tag = ArcTag(
        kind="twist", strand=0, vrange=(10, 58), nominal_length=4.81,
        region=(2, 1), half_twists=-3,
    )
    assert ArcTag.from_json(tag.to_json()) == tag


# ---------------------------------------------------------------------------
# claim checks

def test_claim_checks_pass_for_t3():
    results = run_claim_checks(t=3, samples=64)
    assert len(results) == 5
    assert all(r["passed"] for r in results)
    single = results[0]
    assert single["ratio"] <= single["bound"]
    assert single["ratio"] == pytest.approx(single["bound"], rel=2e-3)


def test_claim_checks_pass_for_t1():
    results = run_claim_checks(t=1, samples=32)
    assert all(r["passed"] for r in results)
    assert results[1]["bound"] == pytest.approx(2 * math.pi)


def test_claim_checks_catch_broken_strand():
    def flattened(axis_x, z_top, theta0, signed_count, n_seg):
        from kdl.plat import _twist_strand_points

        pts = _twist_strand_points(axis_x, z_top, theta0, signed_count, n_seg)
        pts = pts.copy()
        pts[:, 2] = z_top - 0.01 * (z_top - pts[:, 2])  # crush the climb
        return pts

    results = run_claim_checks(t=3, samples=32, strand_fn=flattened)
    failed = [r for r in results if not r["passed"]]
    assert failed
    for r in failed:
        assert r["witness"] is not None
        p, q = r["witness"]
        assert len(p) == 3 and len(q) == 3
