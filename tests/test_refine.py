import hashlib
import importlib

import numpy as np
import pytest

from conftest import jittered_polygon
from kdl import distortion, geom
from kdl.errors import InfeasibleStart
from kdl.distortion import distortion_sampled
from kdl.geom import build_polycurve, min_clearance
from kdl.refine import RefineConfig, refine

refine_module = importlib.import_module("kdl.refine")


@pytest.fixture
def wobbly32():
    return build_polycurve(jittered_polygon(32, seed=42))


def test_zero_iterations_is_identity(wobbly32):
    cfg = RefineConfig(iterations=0, step=0.05, clearance_floor=0.01, seed=1)
    out = refine(wobbly32, cfg)
    assert np.array_equal(out.vertices, wobbly32.vertices)


def test_deterministic_per_seed(wobbly32):
    cfg = RefineConfig(iterations=500, step=0.05, clearance_floor=0.05, seed=9)
    a = refine(wobbly32, cfg)
    b = refine(wobbly32, cfg)
    assert np.array_equal(a.vertices, b.vertices)


def test_seed_changes_trajectory(wobbly32):
    a = refine(wobbly32, RefineConfig(500, 0.05, 0.05, seed=1))
    b = refine(wobbly32, RefineConfig(500, 0.05, 0.05, seed=2))
    assert not np.array_equal(a.vertices, b.vertices)


def test_infeasible_start(wobbly32):
    floor = min_clearance(wobbly32) * 1.5
    with pytest.raises(InfeasibleStart):
        refine(wobbly32, RefineConfig(100, 0.05, floor, seed=0))


def test_objective_never_increases(wobbly32):
    m = wobbly32.m
    before = distortion_sampled(wobbly32, n_samples=m).ratio
    out = refine(wobbly32, RefineConfig(2000, 0.05, 0.05, seed=3))
    after = distortion_sampled(out, n_samples=m).ratio
    assert after <= before + 1e-12


def test_clearance_floor_respected(wobbly32):
    floor = 0.1
    out = refine(wobbly32, RefineConfig(2000, 0.08, floor, seed=4))
    assert min_clearance(out) >= floor - 1e-12


def test_log_file(tmp_path, wobbly32):
    log = tmp_path / "trace.csv"
    refine(wobbly32, RefineConfig(1000, 0.05, 0.05, seed=5), log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "iteration,best_ratio,clearance"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) >= 10
    ratios = [float(r[1]) for r in rows]
    clearances = [float(r[2]) for r in rows]
    # best-so-far trace is monotone and the floor is never crossed
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert min(clearances) >= 0.05 - 1e-12


@pytest.mark.parametrize(
    "verts, seed",
    [(jittered_polygon(32, seed=42), 5), (jittered_polygon(64, seed=12345), 7)],
    ids=["32-gon", "criterion-09"],
)
def test_log_has_every_hundredth_row(tmp_path, verts, seed):
    # moves rejected at a multiple of 100 (1100, 1400, ... for the 32-gon,
    # 500, 600, ... for criterion 09's run) still get their row, and the
    # log leaves the result as it is
    c0 = build_polycurve(verts)
    cfg = RefineConfig(2000, 0.05, 0.05, seed=seed)
    log = tmp_path / "trace.csv"
    logged = refine(c0, cfg, log_path=log)
    rows = log.read_text().strip().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(0, 2001, 100))
    assert np.array_equal(logged.vertices, refine(c0, cfg).vertices)


def test_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(iterations=-1, step=0.05, clearance_floor=0.05, seed=0)
    with pytest.raises(ValueError):
        RefineConfig(iterations=10, step=0.0, clearance_floor=0.05, seed=0)
    with pytest.raises(ValueError):
        RefineConfig(iterations=10, step=0.05, clearance_floor=-1.0, seed=0)


def sha256_f8(values):
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


@pytest.fixture
def objective_calls(monkeypatch):
    """The value of every objective evaluation, in order."""
    calls = []
    objective = refine_module._sampled_max_ratio

    def recorded(*args):
        calls.append(objective(*args))
        return calls[-1]

    monkeypatch.setattr(refine_module, "_sampled_max_ratio", recorded)
    return calls


def test_refine_trajectory_frozen(objective_calls):
    # criterion 09's 64-gon, seed 7, 2,000 moves, against values recorded
    # before the ratio kernel moved onto coordinate columns.  No move
    # lowers the objective in this run, so the best curve is the start;
    # the 2,001 objective values pin the trajectory, and a one-ulp change
    # in any of them fails the test
    c0 = build_polycurve(jittered_polygon(64, seed=12345))
    out = refine(c0, RefineConfig(iterations=2000, step=0.05, clearance_floor=0.05, seed=7))
    assert len(objective_calls) == 2001
    assert sha256_f8(objective_calls) == "8c4681169b8878fb7515ff0713085120d5363d13699bf13724960596a656a676"
    assert sha256_f8(out.vertices) == "9c1945a4653a511bfe654114a7f929ba7f26e9cdfd46ff25a94c307f401bc00d"
    assert repr(distortion_sampled(out, n_samples=out.m).ratio) == "1.7106979494813037"


def test_refine_offsets_in_several_blocks_same_trajectory(monkeypatch, objective_calls, wobbly32):
    # the 64-point objective takes offsets 1..32 of 64 pairs each; with
    # blocks of 500 pairs a block holds 7 offsets, so each evaluation
    # runs the ratio arithmetic on 5 blocks, along the same trajectory
    cfg = RefineConfig(iterations=300, step=0.05, clearance_floor=0.05, seed=9)
    want = refine(wobbly32, cfg)
    held = objective_calls[:]
    objective_calls.clear()
    monkeypatch.setattr(geom, "_BLOCK_BYTES", 500 * distortion._RATIO_PAIR_BYTES)
    blocks = []
    ratio_of = distortion._ratio_of

    def recorded(*args):
        blocks.append(args[0].shape)
        return ratio_of(*args)

    monkeypatch.setattr(distortion, "_ratio_of", recorded)
    got = refine(wobbly32, cfg)
    assert np.array_equal(got.vertices, want.vertices)
    assert objective_calls == held
    assert blocks[:5] == [(7, 64)] * 4 + [(4, 64)]
    assert len(blocks) == 5 * len(held)


def moved_clearance(verts, nxt, vi):
    """The veto's oracle: least distance from the two edges at vertex vi
    to the edges sharing no vertex with them (inf when there are none),
    both full rows measured; nxt[k] is the vertex after vertex k."""
    m = len(verts)
    deltas = verts.take(nxt, axis=0) - verts
    edges = [(vi - 1) % m, vi]
    rows = geom._seg_seg_dist(verts[edges, None], deltas[edges, None], verts, deltas)
    for row, e in zip(rows, edges):
        row[[(e - 1) % m, e, (e + 1) % m]] = np.inf
    return float(rows.min())


@pytest.mark.parametrize("shift", [0.0, 1e8])
@pytest.mark.parametrize("m", [3, 4, 5, 32])
def test_moved_edges_clear_matches_full_rows(monkeypatch, m, shift):
    # random single-vertex moves of jittered polygons, with floors at the
    # exact clearance of the moved edges, its neighbouring floats, and
    # below it; the narrowed veto decides as the two full rows do
    measured = []
    seg_seg_dist = geom._seg_seg_dist

    def recorded(*args):
        measured.append(len(args[0]))
        return seg_seg_dist(*args)

    monkeypatch.setattr(refine_module, "_seg_seg_dist", recorded)
    rng = np.random.default_rng(m)
    nxt = (np.arange(m) + 1) % m
    decisions = 0
    for trial in range(100):
        verts = jittered_polygon(m, seed=trial, amp=0.3) + shift
        verts[:, 2] += 0.1 * rng.normal(size=m)
        vi = int(rng.integers(m))
        verts[vi] += 0.3 * rng.normal(size=3)
        d = moved_clearance(verts, nxt, vi)
        deltas, lens = refine_module._edges(verts, nxt)
        for floor in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf), 0.5 * d, 0.05):
            got = refine_module._moved_edges_clear(verts, deltas, lens, vi, floor)
            assert got == (d >= floor), (trial, floor)
            decisions += 1
    if m == 3:
        assert d == np.inf and measured == []
    else:
        # some decisions need distances, and the bound spares the rest;
        # on the 32-gon it leaves far fewer pairs than the 58 of two rows
        assert 0 < len(measured) < decisions
        assert m < 32 or max(measured) < 2 * (m - 3) // 4
