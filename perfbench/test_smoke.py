"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs one op through the same path as a timed run; wrong
reference values must turn into failed ops and a nonzero error rate; the
traced run must report every per-layer metric; and without kdl's sources
the benchmark must fail without printing a result.  About a minute on a
2-core machine.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run_main(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(args) == 0
    return json.loads(buf.getvalue().strip().split("\n")[-1])


@pytest.fixture(scope="module")
def one_op():
    """Op 0 of every workload at seed 0, run through the same code as a timed op."""
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, 0)
        tr = spans.NullTracer()
        res = wl.op(0, tr)
        out[name] = (wl, res)
    return out


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_op_passes_its_checks(one_op, name):
    wl, res = one_op[name]
    assert wl.check(0, res) == []


def _wrong(ref, name, key):
    bad = json.loads(json.dumps(ref))
    if name == "refine-ring":
        bad[name]["end_ratio"]["0"] = [v * (1.0 + 1e-6) for v in bad[name]["end_ratio"]["0"]]
    else:
        bad[name][key] *= 1.0 + 1e-6
    return bad


@pytest.mark.parametrize("name,key", [("plat-sweep", "lo"), ("plat-sweep", "sampled"),
                                      ("refine-ring", None)])
def test_wrong_reference_fails_the_op(one_op, name, key):
    _, res = one_op[name]
    wl = workloads.make(name, 0, _wrong(workloads.load_reference(), name, key))
    assert wl.check(0, res)


def test_wrong_reference_makes_error_rate_nonzero(tmp_path, monkeypatch):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(_wrong(workloads.load_reference(), "refine-ring", None)))
    monkeypatch.setattr(workloads, "REFERENCE_PATH", str(path))
    res = run_main(["--workload", "refine-ring", "--seed", "0", "--seconds", "0",
                    "--trace", "0"])
    assert res["correct"] is False
    assert res["failed"] > 0 and res["attempted"] >= res["failed"]
    assert sorted(res["metrics"]) == sorted(m["name"] for m in BENCH["end_to_end"])


def test_traced_run_reports_every_per_layer_metric():
    res = run_main(["--workload", "refine-ring", "--seed", "1", "--seconds", "0",
                    "--trace", "1"])
    assert res["correct"] is True and res["failed"] == 0
    assert sorted(res["metrics"]) == sorted(m["name"] for m in BENCH["per_layer"])
    assert res["metrics"]["refine.s"]["value"] > 0.0
    assert res["metrics"]["refine.peak_mb"]["value"] > 0.0
    path = os.path.join(run.HERE, "out", "spans-refine-ring-1.jsonl")
    with open(path) as fh:
        recs = [json.loads(line) for line in fh]
    assert {r["name"] for r in recs} >= {"op", "refine", "distortion.sampled",
                                         "geom.min_clearance", "geom.build_polycurve"}
    assert all(set(r) >= {"name", "start", "end", "parent", "op"} for r in recs)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plat-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
