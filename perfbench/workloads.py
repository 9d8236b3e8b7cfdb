"""Workload inputs, operations and output checks for the ralp benchmark.

Three closed-loop workloads, each driven by one client:

* ``plan``: one planning pass per op (``parse_model`` -> ``profile`` ->
  ``compare_strategies``) on a catalog descriptor or a synthetic chain;
* ``scenarios``: ``parse_scenario`` + ``simulate_run`` on a scenario text,
  which is what ``ralp simulate`` does after import;
* ``consolidation``: ``simulate_consolidation`` of one 15-worker + 15-PS
  baseline job at 2, 4 or 8 copies on a 64 x 8 cluster.

Inputs come from a fixed universe of generated items (chains and scenario
texts, each a pure function of its id).  The workload seed picks which
items one run uses, in which order, and with which per-op settings.  Every
item's expected result was recorded from the seed commit into
``reference/<workload>.json`` (see ``record_reference.py``), so any seed's
inputs can be checked against a reference.

Picks are stratified: the universe is sorted by how much work an item does
and split into equal strata, and the seed draws one item per stratum.  So
two seeds get different inputs but the same mix of cheap and expensive
ones, which keeps throughput and tail latency comparable across seeds.
Chains are sorted by id, which is their length.  Scenarios are sorted by
``scenario_order.json``, their fair-share flow counts at the seed commit,
frozen so that no later change to ralp moves the inputs a seed runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Optional

import ralp
from ralp.costmodel import volumes_for

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SCENARIO_ORDER = Path(__file__).resolve().parent / "scenario_order.json"

# Floats must agree with the reference within this relative error; integers
# must agree exactly.  Loose enough for a kernel that reorders its
# arithmetic (agreement to ~1e-14), tight enough to catch a modelling change.
FLOAT_RTOL = 1e-9

PLAN_UNIVERSE = 512
PLAN_LONGEST = 8  # always run, so every seed's tail has the same inputs
PLAN_PICKS = 252  # one from each pair of the remaining 504 chains
PLAN_THRESHOLDS = (-0.25, -0.5, -0.75, -1.0, -1.5, -2.0)
WORKER_COUNTS = (2, 4, 8, 16, 32)

SCENARIO_UNIVERSE = 512
SCENARIO_HEAVIEST = 8  # always run, so every seed's tail has the same inputs
SCENARIO_PICKS = 252  # one from each pair of the remaining 504
SCENARIO_STEPS = 3
BUNDLED_SCENARIOS = {
    "vgg11_16gpu_baseline": "149.0",
    "vgg11_16gpu_ralp": "1020.4",
}

CONSOLIDATION_MODELS = ("vgg11", "vgg19", "alexnet", "overfeat")
CONSOLIDATION_COPIES = (2, 4, 8)
CONSOLIDATION_WORKERS = 15
CONSOLIDATION_PS = 15


class CheckError(AssertionError):
    """An op's output disagrees with what the benchmark expects."""


@dataclass
class Op:
    """One operation's input.  ``key`` names its reference entry."""

    key: str
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]  # one cycle of the timed loop, in seeded order
    warmup: list[Op]  # the same for every seed
    run: Callable[[Op], Any]
    check: Callable[[Op, Any], None]  # raises CheckError
    min_cycles: int = 1  # each op's latency is the median of at least this many runs


# -- helpers ----------------------------------------------------------------


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def expect_close(got: float, want: float, what: str) -> None:
    expect(close(got, want), f"{what}: got {got!r}, reference {want!r}")


def digest(value: Any) -> str:
    """Stable short hash of a structure of ints, strings and tuples."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def stratified_picks(rng: random.Random, ranked: list[str], picks: int) -> list[str]:
    """One key per stratum of ``ranked`` (ordered by work), drawn by ``rng``."""
    size, rest = divmod(len(ranked), picks)
    if rest:
        raise ValueError(f"{len(ranked)} items do not split into {picks} equal strata")
    return [ranked[s * size + rng.randrange(size)] for s in range(picks)]


def _package_dir() -> Path:
    return Path(ralp.__file__).resolve().parent


# -- plan ---------------------------------------------------------------------

_CHANNELS = (16, 32, 64, 128)


def chain_descriptor(uid: int) -> str:
    """Synthetic layer chain ``uid``: a conv stack with some explicit
    ``block`` layers, then an FC tail.  Length grows with ``uid`` from 8 to
    400 layers, so uid order is work order."""
    r = random.Random(f"plan-chain-{uid}")
    n_layers = 8 + (uid * 393) // PLAN_UNIVERSE
    size = r.choice((32, 64, 112, 224))
    h, c = size, 3
    lines = [f"# synthetic chain {uid}",
             f"model chain{uid} batch={r.choice((16, 32, 64, 128))} elem_bytes=4 input={h}x{h}x3"]
    tail = [("flatten", "")] + [("fc", f"out={r.choice((1024, 4096))}")
                                for _ in range(r.randint(1, 3))]
    body = n_layers - len(tail)
    ci = 0
    for i in range(1, body + 1):
        roll = r.random()
        if i == 1 or roll < 0.55:
            ci = min(ci + (r.random() < 0.1), len(_CHANNELS) - 1)
            c = _CHANNELS[ci]
            k = r.choice((1, 3))
            lines.append(f"l{i} conv k={k} cout={c} pad={k // 2}")
        elif roll < 0.65 and h >= 8:
            h //= 2
            lines.append(f"l{i} pool window=2")
        elif roll < 0.75:
            params = r.randint(10_000, 200_000)
            flops = params * h * h * 2
            lines.append(f"l{i} block params={params} out={h * h * c} flops={flops} shape={h}x{h}x{c}")
        else:
            lines.append(f"l{i} {r.choice(('act', 'norm'))}")
    for j, (kind, kv) in enumerate(tail, start=body + 1):
        lines.append(f"l{j} {kind} {kv}".rstrip())
    return "\n".join(lines) + "\n"


def catalog_descriptor(name: str) -> str:
    return (_package_dir() / "catalog_data" / f"{name}.model").read_text()


def plan_text(key: str) -> str:
    kind, _, ident = key.partition(":")
    return catalog_descriptor(ident) if kind == "catalog" else chain_descriptor(int(ident))


def plan_keys() -> list[str]:
    """Every plan item, catalog first, chains in work order."""
    return [f"catalog:{n}" for n in ralp.catalog_names()] + [
        f"chain:{uid}" for uid in range(PLAN_UNIVERSE)
    ]


def run_plan(op: Op):
    model = ralp.parse_model(op.args["text"])
    config = ralp.ProfilerConfig(threshold=op.args["threshold"], mode=op.args["mode"])
    report = ralp.profile(model, config)
    rows = ralp.compare_strategies(model, WORKER_COUNTS)
    return model, report, rows


def plan_ints(model, report, rows) -> tuple:
    """The integer outputs of one planning pass that do not depend on the
    profiler settings."""
    return (
        model.num_layers,
        report.param_bytes,
        report.output_bytes,
        tuple(
            (r.strategy, r.worker_count, r.volumes.total_bytes_per_step,
             r.volumes.parameter_sync_bytes, r.volumes.activation_bytes)
            for r in rows
        ),
    )


def brute_force_split(param_bytes, output_bytes, kinds) -> Optional[tuple[int, int]]:
    """argmin over allowed boundaries i of O_i + sum(P_1..P_i), ties to the
    smallest i; None when only the degenerate last boundary wins."""
    n = len(param_bytes)
    compute = [k in ("conv", "block") for k in kinds]
    prefix = list(accumulate(param_bytes))
    best = None
    for i in range(1, n + 1):
        if i < n and compute[i - 1] and compute[i]:
            continue
        cost = output_bytes[i - 1] + prefix[i - 1]
        if best is None or cost < best[1]:
            best = (i, cost)
    if best[0] == n and n > 1:
        return None
    return best


def make_plan_check(reference: dict) -> Callable[[Op, Any], None]:
    def check(op: Op, out) -> None:
        model, report, rows = out
        ref = reference[op.key]
        mode = op.args["mode"]
        expect(digest(plan_ints(model, report, rows)) == ref["ints"],
               f"{op.key}: layer sizes or volume rows differ from the reference")
        expect_close(report.skewness, ref["skew"][mode], f"{op.key}: skewness ({mode})")
        brute = brute_force_split(report.param_bytes, report.output_bytes, report.layer_kinds)
        want = brute if report.skewness < op.args["threshold"] else None
        got = (report.split_index, report.split_cost_bytes) if report.eligible else None
        expect(got == want, f"{op.key}: split {got} but brute force gives {want}")
        ref_split = tuple(ref["split"]) if ref["split"] is not None else None
        expect(brute == ref_split, f"{op.key}: cut costs give {brute}, reference {ref_split}")

    return check


def plan_workload(seed: int) -> Workload:
    reference = load_reference("plan")
    rng = random.Random(f"plan-{seed}")
    chains = [f"chain:{uid}" for uid in range(PLAN_UNIVERSE)]
    keys = [f"catalog:{n}" for n in ralp.catalog_names()] + chains[-PLAN_LONGEST:]
    keys += stratified_picks(rng, chains[:-PLAN_LONGEST], PLAN_PICKS)
    rng.shuffle(keys)
    texts: dict[str, str] = {}

    def op_for(key: str, threshold: float, mode: str) -> Op:
        if key not in texts:
            texts[key] = plan_text(key)
        return Op(key, {"text": texts[key], "threshold": threshold, "mode": mode})

    ops = [
        op_for(key, rng.choice(PLAN_THRESHOLDS),
               "literal_values" if rng.random() < 0.25 else "index_weighted")
        for key in keys
    ]
    warmup = [op_for(f"catalog:{n}", -0.5, "index_weighted") for n in ralp.catalog_names()]
    return Workload(ops, warmup, run_plan, make_plan_check(reference))


# -- scenarios ----------------------------------------------------------------


def scenario_text(uid: int) -> str:
    """Seeded scenario ``uid`` on the default 8 x 4 cluster: 1-2 jobs, any
    catalog model, baseline / ralp (split=auto) / ring, 4-15 workers and
    1-8 PS, never more than the cluster's 32 slots."""
    r = random.Random(f"scenario-{uid}")
    models = ralp.catalog_names()
    n_jobs = r.choice((1, 1, 2))
    free = ralp.DEFAULT_CLUSTER.total_gpus
    lines = [f"# generated scenario {uid}",
             "cluster machines=8 gpus=4 flops=8e12 memcopy=8e9 link=2e9 intra=6.4e10"]
    for j in range(n_jobs):
        strategy = r.choice(("baseline", "ralp", "ring"))
        model = r.choice(models)
        ps = {"baseline": r.randint(1, 8), "ralp": 1, "ring": 0}[strategy]
        reserve = 4 + 8 if j + 1 < n_jobs else 0  # room for the next job
        workers = r.randint(4, min(15, free - ps - reserve))
        free -= workers + ps
        extra = {"baseline": f" ps={ps}", "ralp": " ps=1 split=auto", "ring": ""}[strategy]
        lines.append(f"job j{j} model={model} strategy={strategy} workers={workers}{extra}")
    lines.append(f"steps {SCENARIO_STEPS}")
    return "\n".join(lines) + "\n"


def scenario_source(key: str) -> str:
    kind, _, ident = key.partition(":")
    if kind == "bundled":
        return (_package_dir() / "scenarios" / f"{ident}.scn").read_text()
    return scenario_text(int(ident))


def scenario_keys() -> list[str]:
    return [f"bundled:{n}" for n in BUNDLED_SCENARIOS] + [
        f"scenario:{uid}" for uid in range(SCENARIO_UNIVERSE)
    ]


def run_scenario(op: Op):
    scenario = ralp.parse_scenario(op.args["text"], ralp.catalog_lookup)
    return scenario, ralp.simulate_run(scenario)


def scenario_jobs_summary(report) -> list[list]:
    return [[j.bytes_on_wire_per_step, j.avg_step_time, j.comm_fraction] for j in report.jobs]


def check_wire(specs, report, what: str) -> None:
    for (name, spec, _), job in zip(specs, report.jobs):
        want = volumes_for(spec).total_bytes_per_step
        expect(job.bytes_on_wire_per_step == want,
               f"{what} job {name}: {job.bytes_on_wire_per_step} bytes on wire, cost model says {want}")


def make_scenario_check(reference: dict) -> Callable[[Op, Any], None]:
    def check(op: Op, out) -> None:
        scenario, report = out
        ref = reference[op.key]["jobs"]
        expect(len(report.jobs) == len(ref), f"{op.key}: {len(report.jobs)} jobs, reference {len(ref)}")
        check_wire(scenario.jobs, report, op.key)
        for job, (wire, step_time, comm) in zip(report.jobs, ref):
            expect(job.bytes_on_wire_per_step == wire, f"{op.key} job {job.job}: wire bytes differ")
            expect_close(job.avg_step_time, step_time, f"{op.key} job {job.job}: step time")
            expect_close(job.comm_fraction, comm, f"{op.key} job {job.job}: comm fraction")
        kind, _, ident = op.key.partition(":")
        if kind == "bundled":
            got = f"{report.jobs[0].images_per_sec:.1f}"
            expect(got == BUNDLED_SCENARIOS[ident], f"{op.key}: {got} img/s")

    return check


def scenarios_workload(seed: int) -> Workload:
    reference = load_reference("scenarios")
    rng = random.Random(f"scenarios-{seed}")
    with open(SCENARIO_ORDER) as fh:
        generated = json.load(fh)  # cheapest first
    if sorted(generated) != sorted(k for k in scenario_keys() if k.startswith("scenario:")):
        raise ValueError(f"{SCENARIO_ORDER.name} does not list every generated scenario once")
    keys = [f"bundled:{n}" for n in BUNDLED_SCENARIOS] + generated[-SCENARIO_HEAVIEST:]
    keys += stratified_picks(rng, generated[:-SCENARIO_HEAVIEST], SCENARIO_PICKS)
    rng.shuffle(keys)
    ops = [Op(k, {"text": scenario_source(k)}) for k in keys]
    warmup = [Op(f"bundled:{n}", {"text": scenario_source(f"bundled:{n}")}) for n in BUNDLED_SCENARIOS]
    return Workload(ops, warmup, run_scenario, make_scenario_check(reference))


# -- consolidation ------------------------------------------------------------


def consolidation_cluster() -> "ralp.ClusterSpec":
    d = ralp.DEFAULT_CLUSTER
    return ralp.ClusterSpec(
        machines=64,
        gpus_per_machine=8,
        gpu_flops_per_sec=d.gpu_flops_per_sec,
        memcopy_bytes_per_sec=d.memcopy_bytes_per_sec,
        link_bytes_per_sec=d.link_bytes_per_sec,
        intra_machine_bytes_per_sec=d.intra_machine_bytes_per_sec,
    )


def consolidation_op(model: str, copies: int) -> Op:
    cluster = consolidation_cluster()
    graph = ralp.catalog_lookup(model)
    spec = ralp.JobSpec(model=graph, strategy=ralp.Strategy.baseline(),
                        worker_count=CONSOLIDATION_WORKERS, ps_count=CONSOLIDATION_PS)
    placement = ralp.spread_placement(cluster, [(spec.worker_count, spec.ps_count)])[0]
    scenario = ralp.Scenario(cluster=cluster, jobs=((model, spec, placement),), steps=1)
    return Op(f"{model}:x{copies}", {"scenario": scenario, "copies": copies})


def consolidation_pairs() -> list[tuple[str, int]]:
    return [(m, c) for m in CONSOLIDATION_MODELS for c in CONSOLIDATION_COPIES]


def run_consolidation(op: Op):
    return ralp.simulate_consolidation(op.args["scenario"], op.args["copies"])


def consolidation_summary(report) -> dict:
    return {
        "isolated": [e.isolated_step_time for e in report.entries],
        "consolidated": [e.consolidated_step_time for e in report.entries],
        "wire": report.consolidated.jobs[0].bytes_on_wire_per_step,
    }


def make_consolidation_check(reference: dict) -> Callable[[Op, Any], None]:
    def check(op: Op, report) -> None:
        ref = reference[op.key]
        copies = op.args["copies"]
        expect(len(report.entries) == copies, f"{op.key}: {len(report.entries)} entries")
        _, spec, _ = op.args["scenario"].jobs[0]
        jobs = [(e.job, spec, None) for e in report.entries]
        check_wire(jobs, report.consolidated, f"{op.key} consolidated")
        for alone in report.isolated:
            check_wire(jobs[:1], alone, f"{op.key} isolated")
        for e, iso, con in zip(report.entries, ref["isolated"], ref["consolidated"]):
            expect(e.consolidated_step_time >= e.isolated_step_time * (1 - 1e-12),
                   f"{op.key} {e.job}: consolidated step faster than isolated")
            expect_close(e.isolated_step_time, iso, f"{op.key} {e.job}: isolated step time")
            expect_close(e.consolidated_step_time, con, f"{op.key} {e.job}: consolidated step time")
        expect(report.consolidated.jobs[0].bytes_on_wire_per_step == ref["wire"],
               f"{op.key}: wire bytes differ from the reference")

    return check


def consolidation_workload(seed: int) -> Workload:
    reference = load_reference("consolidation")
    rng = random.Random(f"consolidation-{seed}")
    # One cycle runs every (model, copies) pair once, in seeded order, so
    # every run sees the same mix: the ops differ in cost by 100x, and a
    # seeded draw of models would move the percentiles by more than any
    # bound worth having.
    pairs = consolidation_pairs()
    rng.shuffle(pairs)
    ops = [consolidation_op(m, c) for m, c in pairs]
    warmup = [consolidation_op("vgg11", 2)]
    # A cycle takes ~11 s; three give each op's median latency three runs.
    return Workload(ops, warmup, run_consolidation, make_consolidation_check(reference),
                    min_cycles=3)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "plan": plan_workload,
    "scenarios": scenarios_workload,
    "consolidation": consolidation_workload,
}


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
