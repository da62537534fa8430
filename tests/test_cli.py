import csv
import json
import math

import numpy as np
import pytest

from conftest import regular_polygon
from kdl.bounds import make_report
from kdl.cli import _sweep_row, main
from kdl.geom import build_polycurve, load_curve, save_curve
from kdl.plat import PlatSpec, make_uniform_jm_spec

SQUARE = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    save_curve(build_polycurve(SQUARE), path)
    return str(path)


@pytest.fixture
def gon1000_file(tmp_path):
    path = tmp_path / "gon1000.json"
    save_curve(build_polycurve(regular_polygon(1000)), path)
    return str(path)


# ---------------------------------------------------------------------------
# build

def test_build_writes_curve(tmp_path, capsys):
    out = tmp_path / "k3.json"
    rc = main(
        ["build", "--b", "3", "--n", "13", "--t", "3", "--samples", "16",
         "--out", str(out)]
    )
    assert rc == 0
    assert "3182 vertices" in capsys.readouterr().out
    c = load_curve(out)
    kinds = [a.kind for a in c.arcs]
    assert kinds.count("bridge") == 6
    assert kinds.count("vertical") == 14
    assert kinds.count("twist") == 64


def test_build_roundtrip_bit_exact(tmp_path):
    out = tmp_path / "k3.json"
    assert main(["build", "--b", "3", "--n", "13", "--t", "3", "--out", str(out)]) == 0
    c = load_curve(out)
    again = tmp_path / "again.json"
    save_curve(c, again)
    assert np.array_equal(load_curve(again).vertices, c.vertices)


def test_build_rejects_short_n(tmp_path, capsys):
    rc = main(["build", "--b", "3", "--n", "11", "--t", "3",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "n >= 4b(b-2)" in capsys.readouterr().err


def test_build_rejects_low_twist(tmp_path, capsys):
    rc = main(["build", "--b", "3", "--n", "13", "--t", "2",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "at least 3 crossings" in capsys.readouterr().err


def test_build_unwritable_out(tmp_path, capsys):
    rc = main(["build", "--b", "3", "--n", "13", "--t", "3",
               "--out", str(tmp_path / "missing" / "x.json")])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_build_obj_export(tmp_path):
    out = tmp_path / "k3.json"
    obj = tmp_path / "k3.obj"
    rc = main(["build", "--b", "3", "--n", "13", "--t", "3",
               "--out", str(out), "--obj", str(obj)])
    assert rc == 0
    lines = obj.read_text().splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    llines = [l for l in lines if l.startswith("l ")]
    assert len(vlines) == load_curve(out).m
    assert len(llines) == 1
    idx = llines[0].split()[1:]
    assert idx[0] == "1" and idx[-1] == "1"  # closed loop
    assert len(idx) == len(vlines) + 1


# ---------------------------------------------------------------------------
# distortion

def test_distortion_certified_square(square_file, capsys):
    rc = main(["distortion", "--curve", square_file, "--eps", "1e-4"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "certified"
    assert data["lo"] <= 2.0 <= data["hi"]
    assert data["hi"] - data["lo"] <= 1e-4 + 1e-12
    assert not data["budget_exceeded"]


def test_distortion_sampled_1000gon(gon1000_file, capsys):
    rc = main(["distortion", "--curve", gon1000_file, "--mode", "sampled",
               "--samples", "4000"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["witness"]["ratio"] == pytest.approx(math.pi / 2, abs=1e-3)


def test_distortion_garbage_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"closed": true, "vertices": [[0,')
    rc = main(["distortion", "--curve", str(bad)])
    assert rc == 2
    assert "not valid curve JSON" in capsys.readouterr().err


def test_distortion_missing_file(tmp_path, capsys):
    rc = main(["distortion", "--curve", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def _curve_bytes(vertices, **extra):
    return json.dumps({"closed": True, "vertices": vertices, **extra}).encode()


MALFORMED_CURVES = {
    "two-coordinates": _curve_bytes([[0, 0], [1, 0], [0, 1]]),
    "four-coordinates": _curve_bytes([v + [5] for v in SQUARE]),
    "ragged": _curve_bytes([[0, 0, 0], [1, 0], [1, 1, 0], [0, 1, 0]]),
    "null-row": _curve_bytes([[0, 0, 0], None, [1, 1, 0], [0, 1, 0]]),
    "string-coordinate": _curve_bytes([[0, 0, 0], [1, "a", 0], [1, 1, 0], [0, 1, 0]]),
    # a JSON integer too large for a float
    "huge-integer-coordinate": _curve_bytes([[0, 0, 0], [10**400, 0, 0], [1, 1, 0], [0, 1, 0]]),
    "string-vertices": _curve_bytes("abc"),
    "strings-and-booleans": _curve_bytes(
        [["0", "0", "0"], [True, 0, 0], [1, "1e0", 0], [0, 1, False]]
    ),
    "non-utf8": b'\xff\xfe{"closed": true}',
    "arc-without-strand": _curve_bytes(
        SQUARE, arcs=[{"kind": "vertical", "range": [0, 2], "nominal_length": 2.0}]
    ),
    "arc-range-past-end": _curve_bytes(
        SQUARE,
        arcs=[{"kind": "twist", "strand": 7, "range": [5, 99999], "nominal_length": 1e9}],
    ),
}


@pytest.mark.parametrize("payload", MALFORMED_CURVES.values(), ids=MALFORMED_CURVES.keys())
def test_distortion_malformed_curve_file(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    rc = main(["distortion", "--curve", str(bad)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


def test_distortion_budget_exhaustion(gon1000_file, capsys):
    rc = main(["distortion", "--curve", gon1000_file, "--eps", "1e-6", "--budget", "10"])
    assert rc == 3
    data = json.loads(capsys.readouterr().out)
    assert data["budget_exceeded"]
    assert data["lo"] <= data["hi"]  # partial certificate still an enclosure


def test_budget_must_be_integer(square_file, capsys):
    rc = main(["distortion", "--curve", square_file, "--budget", "lots"])
    assert rc == 2
    assert "--budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds

def test_bounds_with_curve(tmp_path, capsys):
    out = tmp_path / "k3.json"
    main(["build", "--b", "3", "--n", "13", "--t", "3", "--out", str(out)])
    capsys.readouterr()
    rc = main(["bounds", "--b", "3", "--n", "13", "--t", "3", "--curve", str(out)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d"] == 7
    assert data["lower_bound"] == pytest.approx(0.0375)
    assert data["pardon_bound"] == pytest.approx(0.0125)
    assert data["crossing_number"] == 96
    assert data["alpha"] > 0
    assert data["upper_bound"] > data["lower_bound"]


def test_bounds_without_curve(capsys):
    rc = main(["bounds", "--b", "3", "--n", "13", "--t", "3"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert "alpha" not in data
    assert "upper_bound" not in data


def test_bounds_rejects_small_b(capsys):
    rc = main(["bounds", "--b", "2", "--n", "13", "--t", "3"])
    assert rc == 2


# ---------------------------------------------------------------------------
# verify

def test_verify_passes(capsys):
    rc = main(["verify", "--t", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_t1_bound(capsys):
    rc = main(["verify", "--t", "1", "--samples", "32"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"{2 * math.pi:.4f}" in out


def test_verify_reports_failure_with_witness(capsys, monkeypatch):
    fake = [
        {"name": "single strand, 3 half-twists", "ratio": 9.9, "bound": 4.8,
         "passed": False, "witness": ((0.5, 0.0, 0.0), (-0.5, 0.0, -1.0))},
    ]
    monkeypatch.setattr("kdl.cli.run_claim_checks", lambda **kw: fake)
    rc = main(["verify", "--t", "3"])
    out = capsys.readouterr().out
    assert rc == 4
    assert "FAIL" in out
    assert "witness pair" in out
    assert "(0.5, 0.0, 0.0)" in out


# ---------------------------------------------------------------------------
# sweep

SWEEP_HEADER = (
    "b,n,t,d,lower_bound,pardon_bound,sampled_delta,certified_lo,"
    "certified_hi,upper_bound,alpha,L,runtime_ms"
)


def test_sweep_single_certified_row(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--b-min", "3", "--b-max", "3", "--t", "3",
               "--csv", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    row = next(csv.DictReader(out.open()))
    assert (row["b"], row["n"], row["t"], row["d"]) == ("3", "13", "3", "7")
    lo, hi = float(row["certified_lo"]), float(row["certified_hi"])
    assert float(row["lower_bound"]) <= hi
    assert lo <= hi
    assert float(row["sampled_delta"]) <= hi
    assert float(row["sampled_delta"]) <= float(row["upper_bound"])
    assert int(row["runtime_ms"]) > 0


def test_sweep_row_computes_clearance_once(clearance_calls):
    # build_plat, make_report and distortion_certified all read the
    # clearance of the one curve
    row = _sweep_row(3, 3, 0.05, 16)
    assert len(clearance_calls) == 1 and row["alpha"] > 0.0


def test_sweep_b5_row_fills_certified_interval(capsys):
    # every row is certified, b=5 included
    rc = main(["sweep", "--b-min", "5", "--b-max", "5", "--t", "3",
               "--samples", "8"])
    assert rc == 0
    lines = [
        l for l in capsys.readouterr().out.splitlines() if l and "," in l
    ]
    assert lines[0] == SWEEP_HEADER
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(row["certified_lo"]) <= float(row["certified_hi"])
    assert row["d"] == "11"
    assert float(row["sampled_delta"]) <= float(row["upper_bound"])


def test_sweep_unwritable_csv_fails_before_first_row(tmp_path, capsys):
    rc = main(["sweep", "--b-min", "3", "--b-max", "3", "--t", "3",
               "--csv", str(tmp_path / "missing" / "sweep.csv")])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")
    assert "b=3 done" not in err
    assert out == ""


def test_sweep_empty_range(capsys):
    assert main(["sweep", "--b-min", "4", "--b-max", "3", "--t", "3"]) == 2


# ---------------------------------------------------------------------------
# JSON records


def test_json_records_pinned(tmp_path, square_file, capsys):
    """Key order and values of every record the CLI prints as JSON."""
    closed_form = (
        '{"b": 3, "d": 7, "k": 6.0, "lower_bound": 0.0375, "pardon_bound": 0.0125, '
        '"l": 4.817323935802019, "half_length_bound": 226.87563349627874, '
        '"region_count": 32'
    )
    curve = tmp_path / "k3.json"
    assert main(["build", "--b", "3", "--n", "13", "--t", "3", "--out", str(curve)]) == 0
    capsys.readouterr()

    assert main(["bounds", "--b", "3", "--n", "13", "--t", "3"]) == 0
    assert capsys.readouterr().out == closed_form + ', "crossing_number": 96}\n'
    assert main(["bounds", "--b", "3", "--n", "13", "--t", "3", "--curve", str(curve)]) == 0
    assert capsys.readouterr().out == (
        closed_form + ', "crossing_number": 96, "alpha": 0.0980171403295594, '
        '"upper_bound": 12385.23821181109}\n'
    )
    twists = make_uniform_jm_spec(3, 13, 3).twists
    same_sign = PlatSpec(3, 13, {k: abs(w) for k, w in twists.items()})
    assert json.dumps(make_report(same_sign).to_json()) == closed_form + "}"

    assert main(["distortion", "--curve", square_file, "--eps", "1e-4"]) == 0
    assert capsys.readouterr().out == (
        '{"mode": "certified", "lo": 2.0, "hi": 2.0001, "eps": 0.0001, '
        '"witness": {"s": 0.5, "t": 2.5, "ratio": 2.0}, "cells": 6, '
        '"budget_exceeded": false}\n'
    )


# ---------------------------------------------------------------------------
# argument handling

def test_unknown_subcommand_is_user_error():
    assert main(["frobnicate"]) == 2


def test_missing_required_flag():
    assert main(["build", "--b", "3"]) == 2
