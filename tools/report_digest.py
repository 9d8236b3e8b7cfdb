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
byte-identical output on all of them; ``tools/report_deviation.py``
compares the same items, float by float, when they do not.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(root: Path):
    """``ralp`` from ``root``'s ``src/`` and ``workloads`` from its
    ``perfbench/``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import ralp
    import workloads

    return ralp, workloads


def simulator_items(workloads):
    """(name, text) of every report the first digest covers, in order."""
    for key in workloads.scenario_keys():
        op = workloads.Op(key, {"text": workloads.scenario_source(key)})
        _, report = workloads.run_scenario(op)
        yield f"scenario {key}", report.to_json()
    for model, copies in workloads.consolidation_pairs():
        report = workloads.run_consolidation(workloads.consolidation_op(model, copies))
        name = f"consolidation {model}:x{copies}"
        yield f"{name} consolidated", report.consolidated.to_json()
        for i, alone in enumerate(report.isolated):
            yield f"{name} isolated {i}", alone.to_json()
        entries = [[e.job, e.isolated_step_time, e.consolidated_step_time] for e in report.entries]
        yield f"{name} entries", json.dumps(entries)


def plan_items(ralp, workloads):
    """(name, text) of every planning pass the second digest covers, in
    order: the layers are a ``repr``, the rest JSON."""
    from ralp.costmodel import rows_to_json

    for key in workloads.plan_keys():
        model = ralp.parse_model(workloads.plan_text(key))
        yield f"plan {key} layers", repr((model.name, model.batch_size, model.bytes_per_element,
                                          model.layers))
        for mode in ralp.SkewnessMode:
            yield (f"plan {key} profile {mode.value}",
                   ralp.profile(model, ralp.ProfilerConfig(mode=mode)).to_json())
        yield f"plan {key} rows", rows_to_json(ralp.compare_strategies(model, workloads.WORKER_COUNTS))


def _digest(items) -> str:
    digest = hashlib.sha256()
    for _, text in items:
        digest.update(text.encode())
    return digest.hexdigest()


def main() -> int:
    ralp, workloads = load(ROOT)
    print(f"{_digest(simulator_items(workloads))}  {len(workloads.scenario_keys())} scenarios, "
          f"{len(workloads.consolidation_pairs())} consolidation ops")
    print(f"{_digest(plan_items(ralp, workloads))}  {len(workloads.plan_keys())} plan items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
