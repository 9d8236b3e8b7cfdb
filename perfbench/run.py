#!/usr/bin/env python3
"""ralp benchmark: closed-loop workloads timed from outside the package.

    python3 perfbench/run.py --workload plan|scenarios|consolidation \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; ralp is imported from ``src/``.  One
client drives each workload in one process and thread, timing every op
and checking every op's output (``workloads.py``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` runs whole cycles of the workload's op list until at least
S seconds have passed and reports the end-to-end metrics:

* ``setup_s``: median over several fresh processes of the time from launch
  to the first timed op (interpreter start, ``import ralp``, input
  generation, warm-up);
* ``ops_per_s``: ops completed per cycle over the sum of the per-op
  latencies, the same latencies the percentiles are taken from;
* ``op_p50_ms`` / ``op_p99_ms``: nearest-rank percentiles of per-op latency;
* ``peak_rss_mb``: peak resident memory of the workload process.

Times are host times scaled to a reference host speed.  On a shared host
other tenants slow the whole machine down, by up to 2x for tens of seconds
at a time.  So a fixed pure-Python calibration kernel runs around and,
every 50 ms, inside each op, and the op's time is multiplied by the mean
host speed measured (the kernel's reference time over its current time).
An op's latency is the median of its scaled times over the faster half of
its runs, by host speed.  The summary line above the JSON also gives the
unscaled median latency and the host speeds seen.

The error rate is ``failed / attempted`` and is printed on the summary
line above the JSON.

``--trace 1`` runs one cycle with every public entry point wrapped by
``tracer.Tracer`` and reports the per-layer metrics, the tracing
overhead, cold CLI probes and fair-share kernel probes.  Spans are
written to ``.bench_trace/`` in the checkout.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
BUNDLED_BASELINE = SRC / "ralp" / "scenarios" / "vgg11_16gpu_baseline.scn"

SETUP_LAUNCHES = 7
CLI_LAUNCHES = 5
KERNEL_FLOWS = (200, 2000, 7200)
KERNEL_LINKS = 64
KERNEL_REPEATS = 5
OVERHEAD_REPEATS = 5
CHILD_TIMEOUT_S = 60
# Best-of-3 time of _calibration_kernel() on the reference host, a 2.1 GHz
# Xeon vCPU with Python 3.11, when no other tenant slows it down.
CALIBRATION_REF_NS = 89_000
SAMPLE_INTERVAL_S = 0.05  # host speed samples during an op


def _parse_args(argv):
    p = argparse.ArgumentParser(description="ralp benchmark")
    p.add_argument("--workload", required=True, choices=("plan", "scenarios", "consolidation"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up, print the time of the first timed op, exit")
    return p.parse_args(argv)


def _import_ralp():
    if not (SRC / "ralp" / "__init__.py").is_file():
        raise SystemExit(f"error: no ralp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ralp

    if Path(ralp.__file__).resolve().parent != (SRC / "ralp").resolve():
        raise SystemExit(f"error: imported ralp from {ralp.__file__}, expected {SRC / 'ralp'}")
    return ralp


def _prepare(workload: str, seed: int):
    """Everything before the first timed op: inputs, then warm-up.
    Returns (workload, warm-up failures)."""
    import workloads

    work = workloads.WORKLOADS[workload](seed)
    failures = []
    for op in work.warmup:
        try:
            work.check(op, work.run(op))
        except Exception as exc:  # reported as a failed op, like any other
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
    return work, failures


# -- measurement ---------------------------------------------------------------


def _calibration_kernel() -> int:
    """Fixed work shaped like the simulator's event loop: a heap of event
    tuples drained into a generator.  When other tenants load the
    reference host it slows down about as much as ralp's own code does
    (1.6x against 1.56x; a plain arithmetic loop slows 1.7x and a memory
    walk 2.1x)."""
    heap: list = []
    for i in range(150):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.5, i, None))

    def consumer():
        total = 0
        while True:
            total += (yield total) or 0

    sink = consumer()
    next(sink)
    last = 0
    while heap:
        _, i, _ = heapq.heappop(heap)
        last = sink.send(i)
    return last


def host_speed() -> float:
    """Reference time of the calibration kernel over its time now (best of
    3): about 1.0 on the idle reference host, 0.5 on one running at half
    speed."""
    def once() -> int:
        t0 = time.perf_counter_ns()
        _calibration_kernel()
        return time.perf_counter_ns() - t0

    return CALIBRATION_REF_NS / min(once() for _ in range(3))


class SpeedSampler:
    """Host speed just before and after a timed region and, with an
    ``interval``, every ``interval`` seconds inside it (from a SIGALRM
    handler, whose own time is kept in ``spent_ns``)."""

    def __init__(self, interval=None):
        self.interval = interval
        self.samples: list[float] = []
        self.spent_ns = 0

    def _sample(self, *_):
        t0 = time.perf_counter_ns()
        self.samples.append(host_speed())
        self.spent_ns += time.perf_counter_ns() - t0

    def __enter__(self) -> "SpeedSampler":
        self.samples = [host_speed()]
        self.spent_ns = 0
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(host_speed())

    @property
    def speed(self) -> float:
        return statistics.fmean(self.samples)


def run_op(work, op, interval=SAMPLE_INTERVAL_S, tracer=None):
    """Run and check one op.  Returns (latency_ns, host speed, failure
    message or None); the latency leaves out the speed samples.  With a
    ``tracer``, the op runs traced as one root span."""
    failure = None
    with SpeedSampler(interval) as sampler:
        if tracer is not None:
            tracer.install()
            span = tracer.begin("bench.op")
        t0 = time.perf_counter_ns()
        try:
            out = work.run(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failure = f"{op.key}: {type(exc).__name__}: {exc}"
        latency = time.perf_counter_ns() - t0 - sampler.spent_ns
        if tracer is not None:
            tracer.end(span)
            tracer.uninstall()
    if failure is None:
        try:
            work.check(op, out)
        except AssertionError as exc:
            failure = str(exc)
    return latency, sampler.speed, failure


def timed_loop(work, seconds: float, probe=None, probes: int = 0):
    """Whole cycles of ``work.ops`` until ``seconds`` have passed, and at
    least ``work.min_cycles`` cycles.

    ``probe`` is called ``probes`` times, spread evenly over the run at op
    boundaries; the time it takes does not count towards ``seconds``.
    Returns (cycles, failures); each cycle is a list of
    (latency_ns, host speed), one per op."""
    cycles, failures = [], []
    start = time.perf_counter()
    paused = 0.0
    done = 0

    def maybe_probe(force: bool) -> None:
        nonlocal paused, done
        if done < probes and (force or time.perf_counter() - paused - start
                              >= done * seconds / probes):
            t0 = time.perf_counter()
            probe()
            paused += time.perf_counter() - t0
            done += 1

    while True:
        cycle = []
        for op in work.ops:
            maybe_probe(force=False)
            latency, speed, failure = run_op(work, op)
            cycle.append((latency, speed))
            if failure is not None:
                failures.append(failure)
        cycles.append(cycle)
        if time.perf_counter() - paused - start >= seconds and len(cycles) >= work.min_cycles:
            while done < probes:
                maybe_probe(force=True)
            return cycles, failures


def scaled(ns: float, speed: float) -> float:
    """A time taken on the host at ``speed``, as it would read on the
    reference host."""
    return ns * speed


def op_latency(reps) -> float:
    """One op's latency from its (latency_ns, host speed) runs: the median
    scaled latency of the runs made at or above the op's median host speed.
    Scaling does not fully undo a slowdown, so runs on a fast host are
    preferred; the speed is measured apart from the latency, so this
    selection does not favour runs that happened to be quick.  Half the
    runs always count, so one outlying speed sample cannot leave a single
    run to set an op's latency."""
    cut = statistics.median(speed for _, speed in reps)
    return statistics.median(scaled(ns, speed) for ns, speed in reps if speed >= cut)


def setup_launch(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from launching a fresh workload process to its first timed
    op, unscaled and scaled."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    with SpeedSampler() as sampler:
        t0 = time.monotonic_ns()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "READY":
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
    raw = (int(words[1]) - t0) / 1e9
    return raw, scaled(raw, sampler.speed)


def end_to_end(work, workload: str, seed: int, seconds: float):
    from workloads import percentile

    # Setup launches are spread over the run so that their median is not
    # set by whatever else the host happened to run in one short window.
    setup = []
    cycles, failures = timed_loop(work, seconds, lambda: setup.append(setup_launch(workload, seed)),
                                  SETUP_LAUNCHES)
    per_op = list(zip(*cycles))  # per op, its (latency, speed) in every cycle
    op_ms = [op_latency(reps) / 1e6 for reps in per_op]
    raw_ms = [statistics.median(rep[0] for rep in reps) / 1e6 for reps in per_op]
    speeds = sorted(rep[1] for cycle in cycles for rep in cycle)
    attempted = len(cycles) * len(work.ops)
    completed = attempted - len(failures)
    ranked = sorted(op_ms)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "ops_per_s": (completed / len(cycles) / (sum(op_ms) / 1e3), "ops/s"),
        "op_p50_ms": (statistics.median(ranked), "ms"),
        "op_p99_ms": (percentile(ranked, 99), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = len(ranked) - max(1, -(-99 * len(ranked) // 100))
    print(f"# {workload} seed={seed}: {len(work.ops)} ops x {len(cycles)} cycles, "
          f"{beyond} ops ({beyond * len(cycles)} samples) beyond p99; "
          f"unscaled p50 {statistics.median(raw_ms):.4f} ms, "
          f"setup {statistics.median(r for r, _ in setup):.4f} s; host speed "
          f"p10/p50/p90 {percentile(speeds, 10):.3f}/{percentile(speeds, 50):.3f}/"
          f"{percentile(speeds, 90):.3f}; "
          f"error_rate={len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    return attempted, failures, metrics


# -- traced run ------------------------------------------------------------------


def _cold_median(cmd, expect_out: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_LAUNCHES):
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
        times.append(scaled(elapsed, sampler.speed))
        if proc.returncode != 0 or expect_out not in proc.stdout:
            raise RuntimeError(f"{cmd} failed ({proc.returncode}): {proc.stderr.strip()}")
    return statistics.median(times)


def cli_probes() -> dict:
    return {
        "cli.import_s": _cold_median([sys.executable, "-c", "import ralp; print('ok')"], "ok"),
        "cli.cold_simulate_s": _cold_median(
            [sys.executable, "-m", "ralp.cli", "simulate", str(BUNDLED_BASELINE)],
            "images_per_sec=149.0"),
    }


def kernel_probes(seed: int) -> tuple[dict, list[str]]:
    """solve_rates on seeded random flow sets over 64 links: median ms."""
    import numpy as np
    from ralp import fairshare

    rng = np.random.default_rng(seed)
    out, failures = {}, []
    for n in KERNEL_FLOWS:
        capacity = rng.uniform(1e8, 1e10, size=KERNEL_LINKS)
        a = rng.integers(0, KERNEL_LINKS, size=n)
        b = rng.integers(0, KERNEL_LINKS, size=n)
        times = []
        for _ in range(KERNEL_REPEATS):
            with SpeedSampler() as sampler:
                t0 = time.perf_counter_ns()
                rates = fairshare.solve_rates(a, b, capacity)
                elapsed = time.perf_counter_ns() - t0
            times.append(scaled(elapsed, sampler.speed) / 1e6)
        load = np.bincount(a, rates, KERNEL_LINKS) + np.bincount(b, rates, KERNEL_LINKS)
        if not (np.all(rates > 0) and np.all(load <= capacity * (1 + 1e-9))):
            failures.append(f"kernel probe {n}: rates infeasible")
        out[f"fairshare.probe_ms.{n}"] = statistics.median(times)
    return out, failures


def tracing_overhead_s(spans: int) -> float:
    """What tracing adds to a traced run of ``spans`` spans: the median
    over several host-speed-scaled measurements of what one traced call
    costs over a plain one, times ``spans``.  A direct difference of traced
    and untraced runs is lost in host noise that is larger than it."""
    from tracer import span_cost_ns

    per_span = []
    for _ in range(OVERHEAD_REPEATS):
        with SpeedSampler() as sampler:
            ns = span_cost_ns()
        per_span.append(scaled(ns, sampler.speed))
    return statistics.median(per_span) * spans / 1e9


def trace_ops(work):
    """Run each op of one cycle once, traced, timing it from outside as
    well.  Times are scaled by the host speed around each op; no speed is
    sampled inside an op, because a sample would land inside its spans.
    Returns (per-layer metrics, failures, tracer)."""
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    failures = []
    speeds = []  # per op, the host speed around its run
    wall_ns = 0.0
    for i, op in enumerate(work.ops):
        tracer.op = i
        latency, speed, failure = run_op(work, op, interval=None, tracer=tracer)
        wall_ns += scaled(latency, speed)
        speeds.append(speed)
        if failure is not None:
            failures.append(failure)
    wall_s = wall_ns / 1e9

    layers = tracer.layer_times(speeds)
    counts = tracer.counts
    m = {}
    for layer in LAYERS:
        for key in ("calls", "busy_s", "self_s"):
            m[f"{layer}.{key}"] = layers[layer][key]
    m["descriptor.layers"] = counts["descriptor.layers"]
    m["costmodel.rows"] = counts["costmodel.rows"]
    m["simulator.parse_s"] = tracer.busy_s("simulator.parse_scenario", speeds)
    m["simulator.runs"] = counts["simulator.runs"]
    m["simulator.job_steps"] = counts["simulator.job_steps"]
    m["simulator.wire_bytes"] = counts["simulator.wire_bytes"]
    calls, flows = layers["fairshare"]["calls"], counts["fairshare.flows"]
    m["fairshare.flows"] = flows
    m["fairshare.peak_flows"] = counts["fairshare.peak_flows"]
    m["fairshare.flows_per_call"] = flows / calls if calls else 0.0
    m["fairshare.ns_per_flow"] = layers["fairshare"]["busy_s"] * 1e9 / flows if flows else 0.0
    m["fairshare.share"] = layers["fairshare"]["busy_s"] / wall_s
    for caller, n in tracer.solver_calls_by_caller().items():
        m[f"fairshare.calls.{caller}"] = n
    m["trace.ops"] = len(work.ops)
    m["trace.spans"] = len(tracer.spans)
    m["trace.wall_s"] = wall_s
    m["trace.self_sum_s"] = sum(layers[layer]["self_s"] for layer in LAYERS)
    m["trace.host_speed"] = statistics.median(speeds)
    return m, failures, tracer


def traced(work, workload: str, seed: int):
    m, failures, tracer = trace_ops(work)
    tracer.write(TRACE_DIR / f"{workload}-seed{seed}.json")
    m["trace.overhead_s"] = tracing_overhead_s(m["trace.spans"])
    if not m["trace.overhead_s"] > 0:
        failures.append(f"tracing overhead probe: {m['trace.overhead_s']!r} s")
    m.update(cli_probes())
    probes, probe_failures = kernel_probes(seed)
    m.update(probes)
    failures += probe_failures
    print(f"# {workload} seed={seed}: traced {len(work.ops)} ops, {m['trace.spans']} spans, "
          f"wall {m['trace.wall_s']:.4f}s, overhead {m['trace.overhead_s']:.4f}s")
    attempted = len(work.ops) + 1 + len(KERNEL_FLOWS)
    return attempted, failures, {k: (v, _unit(k)) for k, v in m.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "probe_ms" in name:
        return "ms"
    if name.endswith("wire_bytes"):
        return "bytes"
    if name.endswith("ns_per_flow"):
        return "ns"
    if name.endswith(("share", "flows_per_call", "host_speed")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_ralp()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    work, warmup_failures = _prepare(args.workload, args.seed)
    if args.setup_probe:
        print("READY", time.monotonic_ns(), flush=True)
        return 0
    if args.trace:
        attempted, failures, metrics = traced(work, args.workload, args.seed)
    else:
        attempted, failures, metrics = end_to_end(work, args.workload, args.seed, args.seconds)
    attempted += len(work.warmup)
    failures = warmup_failures + failures
    for line in failures[:20]:
        print(f"# FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
