"""Command-line driver tying the library together.

Subcommands
-----------
build       construct a plat embedding and write it as curve JSON
distortion  sampled estimate or certified interval for a curve file
bounds      closed-form invariants and bound values for one (b, n, t)
verify      strand-shape checks behind the builder's geometry
sweep       one CSV row per bridge index b, with n = 4b(b-2)+1

Exit codes: 0 success; 2 bad input or violated precondition; 3 the
certified engine ran out of budget (the partial certificate is still
printed); 4 internal failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .bounds import make_report
from .distortion import _MAX_EXPANSIONS, distortion_certified, distortion_sampled
from .errors import KdlError
from .geom import PolyCurve, load_curve, save_curve
from .plat import build_plat, make_uniform_jm_spec, run_claim_checks


def _load_curve(path: str) -> PolyCurve:
    try:
        return load_curve(path)
    except OSError as exc:
        raise KdlError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise KdlError(f"{path} is not valid curve JSON: {exc}")


def _write_obj(path: str, curve: PolyCurve) -> None:
    m = curve.m
    with open(path, "w") as fh:
        fh.write(f"# closed polyline, {m} vertices\n")
        for v in curve.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        loop = " ".join(str(i) for i in range(1, m + 1))
        fh.write(f"l {loop} 1\n")


def cmd_build(args: argparse.Namespace) -> int:
    spec = make_uniform_jm_spec(args.b, args.n, args.t)
    curve = build_plat(spec, samples_per_half_twist=args.samples)
    save_curve(curve, args.out)
    if args.obj:
        _write_obj(args.obj, curve)
    kinds = [a.kind for a in curve.arcs]
    print(
        f"wrote {args.out}: {curve.m} vertices, length {curve.total_len:.3f}, "
        f"arcs {kinds.count('bridge')} bridge / {kinds.count('vertical')} vertical / "
        f"{kinds.count('twist')} twist"
    )
    return 0


def cmd_distortion(args: argparse.Namespace) -> int:
    curve = _load_curve(args.curve)
    if args.mode == "sampled":
        w = distortion_sampled(curve, n_samples=args.samples)
        print(
            json.dumps(
                {"mode": "sampled", "n_samples": args.samples, "witness": w.to_json()}
            )
        )
        return 0
    cert = distortion_certified(curve, eps=args.eps, max_expansions=args.budget)
    print(json.dumps({"mode": "certified", **cert.to_json()}))
    return 3 if cert.budget_exceeded else 0


def cmd_bounds(args: argparse.Namespace) -> int:
    spec = make_uniform_jm_spec(args.b, args.n, args.t)
    curve = _load_curve(args.curve) if args.curve else None
    report = make_report(spec, curve)
    print(json.dumps(report.to_json()))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_claim_checks(t=args.t, samples=args.samples)
    ok = True
    for r in results:
        if r["passed"]:
            print(f"PASS {r['name']}: max ratio {r['ratio']:.4f} <= {r['bound']:.4f}")
        else:
            ok = False
            line = f"FAIL {r['name']}: max ratio {r['ratio']:.4f} > {r['bound']:.4f}"
            if r["witness"] is not None:
                p, q = r["witness"]
                line += f"; witness pair {tuple(p)} -- {tuple(q)}"
            print(line)
    return 0 if ok else 4


_SWEEP_COLUMNS = [
    "b",
    "n",
    "t",
    "d",
    "lower_bound",
    "pardon_bound",
    "sampled_delta",
    "certified_lo",
    "certified_hi",
    "upper_bound",
    "alpha",
    "L",
    "runtime_ms",
]

def _sweep_row(b: int, t: int, eps: float, samples: int) -> dict:
    started = time.perf_counter()
    n = 4 * b * (b - 2) + 1
    spec = make_uniform_jm_spec(b, n, t)
    curve = build_plat(spec, samples_per_half_twist=samples)
    report = make_report(spec, curve)
    sampled = distortion_sampled(curve)
    cert = distortion_certified(curve, eps=eps)
    row = {
        "b": b,
        "n": n,
        "t": t,
        "d": report.d,
        "lower_bound": report.lower_bound,
        "pardon_bound": report.pardon_bound,
        "sampled_delta": sampled.ratio,
        "certified_lo": cert.lo,
        "certified_hi": cert.hi,
        "upper_bound": report.upper_bound,
        "alpha": report.alpha,
        "L": curve.total_len,
    }
    row["runtime_ms"] = int(round(1000.0 * (time.perf_counter() - started)))
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.b_min > args.b_max:
        raise KdlError(f"empty sweep: b-min {args.b_min} > b-max {args.b_max}")

    def fmt(v):
        return repr(v) if isinstance(v, float) else v

    # opened before the first row, so an unwritable path fails at once
    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=_SWEEP_COLUMNS)
        writer.writeheader()
        for b in range(args.b_min, args.b_max + 1):
            row = _sweep_row(b, args.t, args.eps, args.samples)
            writer.writerow({k: fmt(v) for k, v in row.items()})
            print(f"b={b} done in {row['runtime_ms']} ms", file=sys.stderr)
    finally:
        if args.csv:
            out.close()
    if args.csv:
        print(f"wrote {args.csv} ({args.b_max - args.b_min + 1} rows)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdl", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a plat embedding, write curve JSON")
    p.add_argument("--b", type=int, required=True, help="bridge index (>= 3)")
    p.add_argument("--n", type=int, required=True, help="row count (odd, >= 4b(b-2))")
    p.add_argument("--t", type=int, required=True, help="half-twists per region (>= 3)")
    p.add_argument("--samples", type=int, default=16, help="segments per half-twist")
    p.add_argument("--out", required=True, help="output curve JSON path")
    p.add_argument("--obj", help="also write a Wavefront OBJ polyline here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("distortion", help="measure distortion of a curve file")
    p.add_argument("--curve", required=True, help="curve JSON path")
    p.add_argument("--mode", choices=("certified", "sampled"), default="certified")
    p.add_argument("--eps", type=float, default=1e-2, help="certified interval width")
    p.add_argument("--samples", type=int, default=1024, help="sampled mode: extra parameters")
    p.add_argument(
        "--budget", type=int, default=_MAX_EXPANSIONS, help="certified mode: bisection cap"
    )
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser("bounds", help="closed-form bound report for one (b, n, t)")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--curve", help="measured curve JSON: adds alpha and upper_bound")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run the strand-shape checks")
    p.add_argument("--t", type=int, required=True, help="half-twists per region")
    p.add_argument("--samples", type=int, default=64, help="segments per half-twist")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="bounds vs measured distortion, one row per b")
    p.add_argument("--b-min", type=int, required=True)
    p.add_argument("--b-max", type=int, required=True)
    p.add_argument("--t", type=int, default=3)
    p.add_argument("--eps", type=float, default=0.05, help="certified interval width")
    p.add_argument("--samples", type=int, default=16, help="segments per half-twist")
    p.add_argument("--csv", help="output path (default: stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports, we return
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (KdlError, OSError) as exc:  # OSError: an output path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never let a traceback be the interface
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())
