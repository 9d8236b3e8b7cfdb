"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench

* a perturbed op result is counted as failed, on every workload;
* the traced run's work counters repeat exactly for one seed, its self
  times add up to its wall time timed from outside, and a held-out seed
  makes other inputs;
* run.py exits non-zero without printing a result outside a full checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

WORK_COUNTERS = (
    "fairshare.calls",
    "fairshare.flows",
    "fairshare.peak_flows",
    "simulator.job_steps",
    "simulator.wire_bytes",
    "descriptor.layers",
)


def small(name: str, seed: int, n_ops: int) -> workloads.Workload:
    work = workloads.WORKLOADS[name](seed)
    ops = work.warmup if name == "consolidation" else work.ops[:n_ops]
    return dataclasses.replace(work, ops=ops)


def perturb_plan(out):
    model, report, rows = out
    # Move the split one boundary along (or invent one) and nudge skewness
    # below the 1e-9 tolerance's reach.
    split = (report.split_index or 1) + 1
    report = dataclasses.replace(report, eligible=True, split_index=split,
                                 skewness=report.skewness * (1 + 1e-7))
    return model, report, rows


def perturb_scenario(out):
    scenario, report = out
    first = dataclasses.replace(report.jobs[0],
                                bytes_on_wire_per_step=report.jobs[0].bytes_on_wire_per_step + 1)
    return scenario, dataclasses.replace(report, jobs=(first, *report.jobs[1:]))


def perturb_consolidation(report):
    entries = tuple(dataclasses.replace(e, consolidated_step_time=e.isolated_step_time * 0.5)
                    for e in report.entries)
    return dataclasses.replace(report, entries=entries)


PERTURB = {"plan": perturb_plan, "scenarios": perturb_scenario,
           "consolidation": perturb_consolidation}


@pytest.mark.parametrize("name", sorted(PERTURB))
def test_perturbed_result_counts_as_failed(name):
    work = dataclasses.replace(small(name, seed=1, n_ops=6), min_cycles=1)
    cycles, failures = run.timed_loop(work, seconds=0)
    assert [len(c) for c in cycles] == [len(work.ops)] and failures == []

    original = work.run
    bad = dataclasses.replace(work, run=lambda op: PERTURB[name](original(op)))
    cycles, failures = run.timed_loop(bad, seconds=0)
    assert len(failures) == len(cycles[0]) == len(work.ops)


def test_plan_check_rejects_tiny_float_drift():
    work = small("plan", seed=1, n_ops=1)
    model, report, rows = work.run(work.ops[0])
    drifted = dataclasses.replace(report, skewness=report.skewness * (1 + 1e-8))
    with pytest.raises(workloads.CheckError):
        work.check(work.ops[0], (model, drifted, rows))


@pytest.mark.parametrize("name,n_ops", [("plan", 40), ("scenarios", 24), ("consolidation", 0)])
def test_work_counters_repeat_and_seed_changes_inputs(name, n_ops):
    first, fail_a, _ = run.trace_ops(small(name, seed=3, n_ops=n_ops))
    second, fail_b, _ = run.trace_ops(small(name, seed=3, n_ops=n_ops))
    assert fail_a == fail_b == []
    assert {k: first[k] for k in WORK_COUNTERS} == {k: second[k] for k in WORK_COUNTERS}
    # trace.wall_s is timed outside the root spans, which open just before
    # and close just after it, so the self times may exceed it only slightly.
    assert first["trace.wall_s"] <= first["trace.self_sum_s"] <= first["trace.wall_s"] * 1.01

    def inputs(seed):
        return [(op.key, sorted((k, str(v)) for k, v in op.args.items()))
                for op in workloads.WORKLOADS[name](seed).ops]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_exits_nonzero_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
