"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads plat-sweep,...]
                                [--trace 0] [--out perfbench/results/NAME.json]

For every workload, runs ``run.py`` once per seed (one process at a time),
then reports per metric the median, the quartiles and the spread: the
distance between the quartiles (``statistics.quantiles(values, n=4)``) as
a share of the median, which is how runs are compared against the bounds
in ``BENCHMARK.json``.  With ``--out`` the summary is written as JSON
together with a note on the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine_note():
    """nproc, Python, numpy and its BLAS, and the threads a workload
    process has once kdl is imported (main thread plus BLAS workers)."""
    probe = (
        "import sys; sys.path.insert(0, 'src'); import numpy, kdl; "
        "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
        "th = [l for l in open('/proc/self/status') if l.startswith('Threads:')]; "
        "print(numpy.__version__); print(cfg.get('name'), cfg.get('version')); "
        "print(th[0].split()[1] if th else 'unknown')"
    )
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": out[0],
        "blas": out[1],
        "threads_after_import": out[2],
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().split("\n")[-1])
    result["elapsed_s"] = elapsed
    return result


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=None, help="comma list; default all")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary = {}
    for name in names:
        runs = []
        for seed in seeds:
            res = run_one(name, seed, bench["run_seconds"], args.trace)
            runs.append(res)
            print(f"{name} seed {seed}: {res['elapsed_s']:.1f} s, correct={res['correct']}, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                              if args.trace == 0), flush=True)
        metrics = {}
        for key, first in runs[0]["metrics"].items():
            stats = summarise([r["metrics"][key]["value"] for r in runs])
            stats["unit"] = first["unit"]
            metrics[key] = stats
            bound = bounds.get(key) if args.trace == 0 else None
            flag = ""
            if bound is not None and stats["spread"] is not None:
                flag = "ok" if stats["spread"] <= bound / 3 else "WIDE"
                flag = f"bound {bound}, {flag}"
            print(f"  {key:34s} median {stats['median']:.6g} {first['unit']}, "
                  f"spread {stats['spread'] if stats['spread'] is not None else float('nan'):.4f} {flag}")
        summary[name] = {
            "seeds": seeds,
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_elapsed_s": summarise([r["elapsed_s"] for r in runs]),
            "metrics": metrics,
        }

    if args.out:
        doc = {
            "run_seconds": bench["run_seconds"],
            "trace": args.trace,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "machine": machine_note(),
            "workloads": summary,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
