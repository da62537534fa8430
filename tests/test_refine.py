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
    """The (value, blocks) of every objective evaluation, in order."""
    calls = []
    objective = refine_module._sampled_max_ratio

    def recorded(verts, nxt, n_samples, blocks):
        calls.append((objective(verts, nxt, n_samples, blocks), blocks))
        return calls[-1][0]

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
    values = [v for v, _ in objective_calls]
    assert len(values) == 2001
    assert sha256_f8(values) == "8c4681169b8878fb7515ff0713085120d5363d13699bf13724960596a656a676"
    assert sha256_f8(out.vertices) == "9c1945a4653a511bfe654114a7f929ba7f26e9cdfd46ff25a94c307f401bc00d"
    assert repr(distortion_sampled(out, n_samples=out.m).ratio) == "1.7106979494813037"


def test_refine_streams_pairs_past_one_block(monkeypatch, objective_calls, wobbly32):
    # the 64-point objective has 2,016 pairs; with blocks of 500 they no
    # longer fit one, so every move streams row blocks instead of holding
    # the triangle, along the same trajectory
    cfg = RefineConfig(iterations=300, step=0.05, clearance_floor=0.05, seed=9)
    want = refine(wobbly32, cfg)
    held = objective_calls[:]
    objective_calls.clear()
    monkeypatch.setattr(geom, "_BLOCK_BYTES", 500 * distortion._RATIO_PAIR_BYTES)
    got = refine(wobbly32, cfg)
    assert np.array_equal(got.vertices, want.vertices)
    assert [v for v, _ in objective_calls] == [v for v, _ in held]
    assert all(len(b) == 1 for _, b in held) and all(b is None for _, b in objective_calls)
