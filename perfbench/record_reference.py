#!/usr/bin/env python3
"""Record the reference results every benchmark op is checked against.

    python3 perfbench/record_reference.py [plan|scenarios|consolidation ...]

Runs every item of each workload's input universe once through ralp and
writes ``perfbench/reference/<workload>.json``.  Re-record only when a
change is meant to alter ralp's outputs; a speed-only change must pass the
benchmark's checks against the existing files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ralp  # noqa: E402
import workloads as w  # noqa: E402


def record_plan() -> dict:
    out = {}
    for key in w.plan_keys():
        model = ralp.parse_model(w.plan_text(key))
        skew = {}
        for mode in ("index_weighted", "literal_values"):
            report = ralp.profile(model, ralp.ProfilerConfig(threshold=-0.5, mode=mode))
            skew[mode] = report.skewness
        rows = ralp.compare_strategies(model, w.WORKER_COUNTS)
        split = ralp.find_split(report.param_bytes, report.output_bytes,
                                [layer.kind for layer in model.layers])
        out[key] = {
            "layers": model.num_layers,
            "ints": w.digest(w.plan_ints(model, report, rows)),
            "skew": skew,
            "split": [split.index, split.cost_bytes] if split is not None else None,
        }
    return out


def record_scenarios() -> dict:
    out = {}
    for key in w.scenario_keys():
        _, report = w.run_scenario(w.Op(key, {"text": w.scenario_source(key)}))
        out[key] = {"jobs": w.scenario_jobs_summary(report)}
    return out


def record_consolidation() -> dict:
    return {
        op.key: w.consolidation_summary(w.run_consolidation(op))
        for op in (w.consolidation_op(*pair) for pair in w.consolidation_pairs())
    }


RECORDERS = {"plan": record_plan, "scenarios": record_scenarios,
             "consolidation": record_consolidation}


def write(path: Path, table: dict) -> None:
    lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in table.items()]
    path.parent.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv: list[str]) -> int:
    for name in argv or list(RECORDERS):
        table = RECORDERS[name]()
        write(w.REFERENCE_DIR / f"{name}.json", table)
        print(f"{name}: {len(table)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
