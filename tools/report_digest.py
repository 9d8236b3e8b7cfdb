#!/usr/bin/env python3
"""Print one sha256 over every report of the benchmark's simulator inputs,
and one over every planning pass of its ``plan`` inputs.

    python3 tools/report_digest.py

Run from a checkout; ralp is imported from its ``src/`` and the inputs
from its ``perfbench/workloads.py``, which this script only reads.  The
first digest covers, in order, ``to_json()`` of the report of every item
of the ``scenarios`` universe (the bundled scenarios, then every generated
one, each for its 3 steps), and for each of the 12 ``consolidation`` ops
the consolidated report, every isolated report and the entries.  The
second covers every item of the ``plan`` universe (the catalog models,
then every generated chain): the layers ``parse_model`` makes, the profile
report in each skewness mode and the strategy rows at the workload's
worker counts.  Two commits that print the same digests give
byte-identical output on all of them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import ralp
    import workloads
    from ralp.costmodel import rows_to_json

    digest = hashlib.sha256()
    keys = workloads.scenario_keys()
    for key in keys:
        op = workloads.Op(key, {"text": workloads.scenario_source(key)})
        _, report = workloads.run_scenario(op)
        digest.update(report.to_json().encode())
    pairs = workloads.consolidation_pairs()
    for model, copies in pairs:
        report = workloads.run_consolidation(workloads.consolidation_op(model, copies))
        digest.update(report.consolidated.to_json().encode())
        for alone in report.isolated:
            digest.update(alone.to_json().encode())
        entries = [[e.job, e.isolated_step_time, e.consolidated_step_time] for e in report.entries]
        digest.update(json.dumps(entries).encode())
    print(f"{digest.hexdigest()}  {len(keys)} scenarios, {len(pairs)} consolidation ops")

    digest = hashlib.sha256()
    keys = workloads.plan_keys()
    for key in keys:
        model = ralp.parse_model(workloads.plan_text(key))
        digest.update(repr((model.name, model.batch_size, model.bytes_per_element,
                            model.layers)).encode())
        for mode in ralp.SkewnessMode:
            digest.update(ralp.profile(model, ralp.ProfilerConfig(mode=mode)).to_json().encode())
        rows = ralp.compare_strategies(model, workloads.WORKER_COUNTS)
        digest.update(rows_to_json(rows).encode())
    print(f"{digest.hexdigest()}  {len(keys)} plan items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
