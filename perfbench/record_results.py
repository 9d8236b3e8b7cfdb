#!/usr/bin/env python3
"""Run the benchmark on several seeds and record the results.

    python3 perfbench/record_results.py [--tag TAG]

For each workload in ``BENCHMARK.json``, at its ``run_seconds``: one
untraced run per seed 1..10 (end-to-end metrics,
with median, quartiles and the quartile spread as a share of the median),
one traced run on seed 1 (per-layer metrics), and the fair-share solver
calls of the vgg11 consolidation sweep split by the simulate_run that made
them.  Writes ``perfbench/results/BENCH_<tag>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace}: correct={result['correct']} "
          f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "values": values}
    return out


def solver_calls_vgg11() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    out = {}
    for copies in workloads.CONSOLIDATION_COPIES:
        op = workloads.consolidation_op("vgg11", copies)
        with Tracer() as tracer:
            workloads.run_consolidation(op)
        calls = tracer.solver_calls_by_caller()
        out[str(copies)] = {
            "simulate_consolidation": calls["consolidated_run"] + calls["isolated_runs"],
            "consolidated_simulate_run": calls["consolidated_run"],
            "isolated_simulate_runs": calls["isolated_runs"],
        }
    return out


def host() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    import numpy

    return {"cpu": model or platform.processor(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba": has_numba}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--tag", default="seed")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    record = {"tag": args.tag, "host": host(), "seconds": seconds, "seeds": SEEDS,
              "end_to_end": {}, "error_rate": {}, "per_layer": {}}
    for name in names:
        runs = [bench(name, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
        record["end_to_end"][name] = summarize(runs)
        record["error_rate"][name] = (sum(r["failed"] for r in runs)
                                      / sum(r["attempted"] for r in runs))
    for name in names:
        traced = bench(name, 1, seconds, 1)
        record["per_layer"][name] = {k: v["value"] for k, v in traced["metrics"].items()}
    record["solver_calls_vgg11"] = solver_calls_vgg11()

    out = HERE / "results" / f"BENCH_{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name in names:
        for metric, row in record["end_to_end"][name].items():
            print(f"{name:14s} {metric:12s} median={row['median']:.5g} {row['unit']:6s} "
                  f"spread={row['spread']:.4f}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
