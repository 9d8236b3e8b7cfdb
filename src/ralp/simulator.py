"""Deterministic discrete-event simulation of distributed training steps.

The model: each worker (and each parameter-server process) occupies one
GPU slot.  Compute and host<->device memcopy run at fixed per-slot rates,
so only the network contends: inter-machine transfers share per-machine
full-duplex links under max-min fairness (see fairshare), intra-machine
transfers ride a separate non-contended tier.  Training is synchronous:
a job's next step starts when its slowest worker finishes the current one.

Per-worker step time is accounted into four buckets: worker computation,
PS computation (the server-side work done on that worker's behalf),
memcopy, and communication.  Communication is defined as the residual
(step duration minus the other three), mirroring how such breakdowns are
measured from traces, so the four buckets sum to the reported step
duration identically.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import fairshare
from .costmodel import JobSpec, Strategy, StrategyKind, compute_load
from .layers import ModelGraph
from .profiler import ProfilerConfig, profile


class ScenarioError(ValueError):
    pass


class CapacityError(ScenarioError):
    pass


@dataclass(frozen=True)
class ClusterSpec:
    machines: int
    gpus_per_machine: int
    gpu_flops_per_sec: float
    memcopy_bytes_per_sec: float
    link_bytes_per_sec: float
    intra_machine_bytes_per_sec: float

    def __post_init__(self) -> None:
        if self.machines < 1 or self.gpus_per_machine < 1:
            raise ScenarioError("cluster needs at least one machine and one GPU per machine")
        for name in (
            "gpu_flops_per_sec",
            "memcopy_bytes_per_sec",
            "link_bytes_per_sec",
            "intra_machine_bytes_per_sec",
        ):
            if not getattr(self, name) > 0:
                raise ScenarioError(f"cluster rate {name} must be > 0")

    @property
    def total_gpus(self) -> int:
        return self.machines * self.gpus_per_machine


# Effective rates calibrated so that the simulated baseline reproduces the
# measured communication dominance on the reference 8x4 testbed: device
# rate well below peak (real kernels do not saturate it) and link goodput
# well below the 56 Gbps line rate (protocol overhead plus incast).
DEFAULT_CLUSTER = ClusterSpec(
    machines=8,
    gpus_per_machine=4,
    gpu_flops_per_sec=8.0e12,
    memcopy_bytes_per_sec=8.0e9,
    link_bytes_per_sec=2.0e9,
    intra_machine_bytes_per_sec=6.4e10,
)


@dataclass(frozen=True)
class Placement:
    """GPU slots for one job: (machine, gpu) per worker replica and PS process."""

    workers: tuple[tuple[int, int], ...]
    ps: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Scenario:
    cluster: ClusterSpec
    jobs: tuple[tuple[str, JobSpec, Placement], ...]
    steps: int = 1

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ScenarioError("steps must be >= 1")
        if not self.jobs:
            raise ScenarioError("scenario has no jobs")
        names = [name for name, _, _ in self.jobs]
        if len(set(names)) != len(names):
            raise ScenarioError("duplicate job names")
        seen: set[tuple[int, int]] = set()
        for name, spec, placement in self.jobs:
            if len(placement.workers) != spec.worker_count:
                raise ScenarioError(f"job {name}: placement covers {len(placement.workers)} "
                                    f"workers, spec wants {spec.worker_count}")
            if len(placement.ps) != spec.ps_count:
                raise ScenarioError(f"job {name}: placement covers {len(placement.ps)} "
                                    f"PS processes, spec wants {spec.ps_count}")
            for machine, gpu in (*placement.workers, *placement.ps):
                if not (0 <= machine < self.cluster.machines):
                    raise CapacityError(f"job {name}: machine {machine} outside cluster")
                if not (0 <= gpu < self.cluster.gpus_per_machine):
                    raise CapacityError(f"job {name}: gpu {gpu} outside machine")
                if (machine, gpu) in seen:
                    raise CapacityError(f"job {name}: slot ({machine}, {gpu}) double-booked")
                seen.add((machine, gpu))


def spread_placement(
    cluster: ClusterSpec,
    replica_counts: Sequence[tuple[int, int]],
    taken: Optional[Iterable[tuple[int, int]]] = None,
) -> list[Placement]:
    """Assign slots so each job's replicas land on distinct machines first.

    replica_counts: (worker_count, ps_count) per job.  Workers are placed
    before PS processes; each replica goes to the least-loaded machine
    with a free slot (ties to the lowest machine index).
    """
    used = np.zeros(cluster.machines, dtype=np.int64)
    occupied = set(taken or ())
    for machine, _ in occupied:
        used[machine] += 1

    next_gpu = [0] * cluster.machines

    def claim() -> tuple[int, int]:
        order = sorted(range(cluster.machines), key=lambda m: (used[m], m))
        for m in order:
            while next_gpu[m] < cluster.gpus_per_machine:
                slot = (m, next_gpu[m])
                next_gpu[m] += 1
                if slot not in occupied:
                    occupied.add(slot)
                    used[m] += 1
                    return slot
        raise CapacityError(
            f"cluster is full: {cluster.total_gpus} slots cannot host the requested replicas"
        )

    placements = []
    for workers, ps in replica_counts:
        worker_slots = tuple(claim() for _ in range(workers))
        ps_slots = tuple(claim() for _ in range(ps))
        placements.append(Placement(workers=worker_slots, ps=ps_slots))
    return placements


@dataclass(frozen=True)
class StepBreakdown:
    """Per-worker category durations for one training step of one job.

    The step duration of worker w is defined as the sum of its four
    categories (communication is the residual against the worker's
    end-to-end span, so the identity holds exactly).
    """

    job: str
    step: int
    worker_computation: tuple[float, ...]
    ps_computation: tuple[float, ...]
    memcopy: tuple[float, ...]
    communication: tuple[float, ...]

    def step_duration(self, worker: int) -> float:
        return (
            self.worker_computation[worker]
            + self.ps_computation[worker]
            + self.memcopy[worker]
            + self.communication[worker]
        )

    @property
    def step_durations(self) -> tuple[float, ...]:
        return tuple(self.step_duration(w) for w in range(len(self.worker_computation)))

    @property
    def avg_step_time(self) -> float:
        durations = self.step_durations
        return sum(durations) / len(durations)

    @property
    def max_step_time(self) -> float:
        return max(self.step_durations)

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "step": self.step,
            "worker_computation": list(self.worker_computation),
            "ps_computation": list(self.ps_computation),
            "memcopy": list(self.memcopy),
            "communication": list(self.communication),
            "avg_step_time": self.avg_step_time,
            "max_step_time": self.max_step_time,
        }


@dataclass(frozen=True)
class JobReport:
    job: str
    strategy: str
    worker_count: int
    batch_size: int
    steps: tuple[StepBreakdown, ...]
    bytes_on_wire_per_step: int

    @property
    def avg_step_time(self) -> float:
        """Mean over steps of the slowest-worker step time."""
        return sum(s.max_step_time for s in self.steps) / len(self.steps)

    @property
    def images_per_sec(self) -> float:
        return self.worker_count * self.batch_size / self.avg_step_time

    @property
    def comm_fraction(self) -> float:
        comm = sum(sum(s.communication) for s in self.steps)
        total = sum(sum(s.step_durations) for s in self.steps)
        return comm / total if total > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "strategy": self.strategy,
            "worker_count": self.worker_count,
            "batch_size": self.batch_size,
            "avg_step_time": self.avg_step_time,
            "images_per_sec": self.images_per_sec,
            "comm_fraction": self.comm_fraction,
            "bytes_on_wire_per_step": self.bytes_on_wire_per_step,
            "steps": [s.to_dict() for s in self.steps],
        }


@dataclass(frozen=True)
class SimReport:
    jobs: tuple[JobReport, ...]

    def job(self, name: str) -> JobReport:
        for report in self.jobs:
            if report.job == name:
                return report
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"jobs": [j.to_dict() for j in self.jobs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def timeline_csv(self) -> str:
        """Per-worker per-step category table."""
        lines = [
            "job,step,worker,worker_computation,ps_computation,memcopy,"
            "communication,step_duration"
        ]
        for job in self.jobs:
            for step in job.steps:
                for w in range(len(step.worker_computation)):
                    lines.append(
                        f"{job.job},{step.step},{w},"
                        f"{step.worker_computation[w]!r},{step.ps_computation[w]!r},"
                        f"{step.memcopy[w]!r},{step.communication[w]!r},"
                        f"{step.step_duration(w)!r}"
                    )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ConsolidationEntry:
    job: str
    isolated_step_time: float
    consolidated_step_time: float

    @property
    def slowdown(self) -> float:
        return self.consolidated_step_time / self.isolated_step_time


@dataclass(frozen=True)
class ConsolidationReport:
    entries: tuple[ConsolidationEntry, ...]
    isolated: tuple[SimReport, ...]
    consolidated: SimReport

    @property
    def mean_slowdown(self) -> float:
        return sum(e.slowdown for e in self.entries) / len(self.entries)

    @property
    def max_slowdown(self) -> float:
        return max(e.slowdown for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "jobs": [
                {
                    "job": e.job,
                    "isolated_step_time": e.isolated_step_time,
                    "consolidated_step_time": e.consolidated_step_time,
                    "slowdown": e.slowdown,
                }
                for e in self.entries
            ],
            "mean_slowdown": self.mean_slowdown,
            "max_slowdown": self.max_slowdown,
        }


def _split_bytes(total: int, parts: int) -> list[int]:
    """Integer byte shares that sum to exactly ``total``."""
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


class _Flow:
    __slots__ = ("key", "src", "dst", "remaining", "rate", "on_complete")

    def __init__(self, key, src, dst, nbytes, on_complete):
        self.key = key
        self.src = src
        self.dst = dst
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.on_complete = on_complete


class _Gate:
    """Counting barrier: fires its waiters once `need` arrivals happen."""

    __slots__ = ("env", "need", "count", "waiters")

    def __init__(self, env, need):
        self.env = env
        self.need = need
        self.count = 0
        self.waiters = []

    def arrive(self):
        self.count += 1
        if self.count >= self.need:
            waiters, self.waiters = self.waiters, []
            for proc in waiters:
                self.env._resume_now(proc, None)

    def add_waiter(self, proc):
        if self.count >= self.need:
            self.env._resume_now(proc, None)
        else:
            self.waiters.append(proc)


class _FifoQueue:
    """Single-consumer FIFO used by the PS worker to serialize batches."""

    __slots__ = ("env", "items", "getter")

    def __init__(self, env):
        self.env = env
        self.items = []
        self.getter = None

    def put(self, item):
        if self.getter is not None:
            proc, self.getter = self.getter, None
            self.env._resume_now(proc, item)
        else:
            self.items.append(item)

    def request(self, proc):
        if self.items:
            self.env._resume_now(proc, self.items.pop(0))
        else:
            self.getter = proc


class _Env:
    """Event loop: a time-ordered heap of process resumptions plus the set
    of in-flight inter-machine flows whose rates come from the fair-share
    kernel."""

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()
        self._flows: list[_Flow] = []
        self._rates_dirty = False
        self._capacity = np.full(2 * cluster.machines, cluster.link_bytes_per_sec, dtype=np.float64)

    # -- process plumbing ------------------------------------------------

    def spawn(self, generator):
        self._resume_now(generator, None)

    def _resume_now(self, generator, value):
        heapq.heappush(self._heap, (self.now, next(self._seq), generator, value))

    def _resume_at(self, time, generator, value):
        heapq.heappush(self._heap, (time, next(self._seq), generator, value))

    def _step_process(self, generator, value):
        try:
            request = generator.send(value)
        except StopIteration:
            return
        kind = request[0]
        if kind == "delay":
            self._resume_at(self.now + request[1], generator, None)
        elif kind == "flow":
            _, src, dst, nbytes, key = request
            self.start_flow(src, dst, nbytes, key, lambda g=generator: self._resume_now(g, None))
        elif kind == "wait":
            request[1].add_waiter(generator)
        elif kind == "get":
            request[1].request(generator)
        else:  # pragma: no cover - internal protocol
            raise RuntimeError(f"unknown request {kind!r}")

    # -- flows -----------------------------------------------------------

    def start_flow(self, src, dst, nbytes, key, on_complete: Callable[[], None]):
        if nbytes <= 0:
            self._resume_now(_fire(on_complete), None)
            return
        if src == dst:
            duration = nbytes / self.cluster.intra_machine_bytes_per_sec
            self._resume_at(self.now + duration, _fire(on_complete), None)
            return
        self._flows.append(_Flow(key, src, dst, nbytes, on_complete))
        self._rates_dirty = True

    def _recompute_rates(self):
        machines = self.cluster.machines
        link_a = np.fromiter((f.src for f in self._flows), dtype=np.int64, count=len(self._flows))
        link_b = np.fromiter(
            (machines + f.dst for f in self._flows), dtype=np.int64, count=len(self._flows)
        )
        rates = fairshare.solve_rates(link_a, link_b, self._capacity)
        for flow, rate in zip(self._flows, rates):
            flow.rate = float(rate)
        self._rates_dirty = False

    # -- main loop --------------------------------------------------------

    def run(self):
        while self._heap or self._flows:
            if self._flows and self._rates_dirty:
                self._recompute_rates()

            next_heap = self._heap[0][0] if self._heap else math.inf
            next_flow = math.inf
            finish_times = None
            if self._flows:
                finish_times = [
                    self.now + (flow.remaining / flow.rate if flow.rate > 0 else math.inf)
                    if flow.rate != math.inf
                    else self.now
                    for flow in self._flows
                ]
                next_flow = min(finish_times)

            t_next = min(next_heap, next_flow)
            if t_next == math.inf:
                raise RuntimeError("simulation deadlock: pending work cannot progress")

            dt = t_next - self.now
            if dt > 0 and self._flows:
                for flow in self._flows:
                    flow.remaining -= flow.rate * dt
            self.now = t_next

            if finish_times is not None and next_flow == t_next:
                done = [f for f, t in zip(self._flows, finish_times) if t == t_next]
                done.sort(key=lambda f: f.key)
                done_set = set(id(f) for f in done)
                self._flows = [f for f in self._flows if id(f) not in done_set]
                self._rates_dirty = True
                for flow in done:
                    flow.remaining = 0.0
                    self._resume_now(_fire(flow.on_complete), None)

            while self._heap and self._heap[0][0] == self.now:
                _, _, generator, value = heapq.heappop(self._heap)
                self._step_process(generator, value)


def _fire(callback):
    """Wrap a completion callback as a one-shot process."""
    def proc():
        callback()
        return
        yield  # pragma: no cover - makes this a generator

    return proc()


# -- per-job runtime -------------------------------------------------------


class _JobRun:
    def __init__(self, env: _Env, job_id: int, name: str, spec: JobSpec, placement: Placement,
                 total_steps: int):
        self.env = env
        self.job_id = job_id
        self.name = name
        self.spec = spec
        self.placement = placement
        self.total_steps = total_steps
        self.model = spec.model
        self.records: list[StepBreakdown] = []
        self.wire_bytes: list[int] = []

        cluster = env.cluster
        model = self.model
        kind = spec.strategy.kind
        w = spec.worker_count
        self.worker_machines = [m for m, _ in placement.workers]
        self.ps_machines = [m for m, _ in placement.ps]

        if kind is StrategyKind.RALP:
            split = spec.strategy.split_index
            worker_flops, ps_flops = compute_load(model, split, worker_count=1)
            self.front_fwd_s = (worker_flops / 3) / cluster.gpu_flops_per_sec
            self.front_bwd_s = 2 * self.front_fwd_s
            self.back_batch_s = ps_flops / cluster.gpu_flops_per_sec
            self.cut_bytes = model.output_bytes(split)
            self.front_param_bytes = model.cumulative_param_bytes(split)
            self.agg_s = model.total_param_count * w / cluster.gpu_flops_per_sec
        else:
            total_flops = 3 * model.forward_flops_per_sample() * model.batch_size
            self.compute_s = total_flops / cluster.gpu_flops_per_sec
            self.model_bytes = model.total_param_bytes
            if kind is StrategyKind.BASELINE_PS:
                # PS frameworks place whole variables, so shards are formed by
                # assigning weighted layers round-robin.  Under parameter skew
                # one shard ends up carrying most of the model, which is what
                # makes the baseline's PS link the bottleneck.
                self.shard_bytes = [0] * spec.ps_count
                weighted = [l.param_count for l in model.layers if l.param_count > 0]
                for pos, count in enumerate(weighted):
                    self.shard_bytes[pos % spec.ps_count] += count * model.bytes_per_element
                self.shard_agg_s = [
                    (b // model.bytes_per_element) * w / cluster.gpu_flops_per_sec
                    for b in self.shard_bytes
                ]
                self.agg_span = max(self.shard_agg_s)
            else:
                self.ring_shares = _split_bytes(2 * self.model_bytes * (w - 1), w) if w > 0 else []

        self.memcopy_rate = cluster.memcopy_bytes_per_sec

    # accounting helpers -----------------------------------------------

    def _new_step_state(self):
        w = self.spec.worker_count
        self.step_start = self.env.now
        self.compute_acc = [0.0] * w
        self.memcopy_acc = [0.0] * w
        self.ps_acc = [0.0] * w
        self.worker_end = [0.0] * w
        self.step_wire = 0
        self.done_count = 0

    def count_wire(self, nbytes: int):
        self.step_wire += nbytes

    def start_step(self):
        self._new_step_state()
        env = self.env
        kind = self.spec.strategy.kind
        w = self.spec.worker_count
        if kind is StrategyKind.BASELINE_PS:
            self.push_gates = [_Gate(env, w) for _ in range(self.spec.ps_count)]
            self.pull_gates = [_Gate(env, self.spec.ps_count) for _ in range(w)]
            for s in range(self.spec.ps_count):
                env.spawn(self._baseline_ps(s))
            for i in range(w):
                env.spawn(self._baseline_worker(i))
        elif kind is StrategyKind.RALP:
            self.act_queue = _FifoQueue(env)
            self.actgrad_gates = [_Gate(env, 1) for _ in range(w)]
            self.grad_gate = _Gate(env, w)
            self.pull_gates = [_Gate(env, 1) for _ in range(w)]
            env.spawn(self._ralp_ps())
            for i in range(w):
                env.spawn(self._ralp_worker(i))
        else:
            self.ring_gate = _Gate(env, w)
            for i in range(w):
                env.spawn(self._ring_worker(i))

    def _worker_done(self, i: int):
        self.worker_end[i] = self.env.now
        self.done_count += 1
        if self.done_count == self.spec.worker_count:
            self._finalize_step()

    def _finalize_step(self):
        w = self.spec.worker_count
        comm = []
        for i in range(w):
            span = self.worker_end[i] - self.step_start
            residual = span - (self.compute_acc[i] + self.memcopy_acc[i] + self.ps_acc[i])
            comm.append(max(0.0, residual))
        record = StepBreakdown(
            job=self.name,
            step=len(self.records) + 1,
            worker_computation=tuple(self.compute_acc),
            ps_computation=tuple(self.ps_acc),
            memcopy=tuple(self.memcopy_acc),
            communication=tuple(comm),
        )
        self.records.append(record)
        self.wire_bytes.append(self.step_wire)
        if len(self.records) < self.total_steps:
            self.start_step()

    # baseline PS --------------------------------------------------------

    def _baseline_worker(self, i: int):
        env = self.env
        me = self.worker_machines[i]
        self.compute_acc[i] += self.compute_s
        yield ("delay", self.compute_s)
        d2h = self.model_bytes / self.memcopy_rate
        self.memcopy_acc[i] += d2h
        yield ("delay", d2h)
        for s, ps_machine in enumerate(self.ps_machines):
            nbytes = self.shard_bytes[s]
            self.count_wire(nbytes)
            env.start_flow(me, ps_machine, nbytes,
                           (self.job_id, i, "push", s), self.push_gates[s].arrive)
        yield ("wait", self.pull_gates[i])
        h2d = self.model_bytes / self.memcopy_rate
        self.memcopy_acc[i] += h2d
        yield ("delay", h2d)
        self.ps_acc[i] += self.agg_span
        self._worker_done(i)

    def _baseline_ps(self, s: int):
        yield ("wait", self.push_gates[s])
        yield ("delay", self.shard_agg_s[s])
        ps_machine = self.ps_machines[s]
        for i, worker_machine in enumerate(self.worker_machines):
            nbytes = self.shard_bytes[s]
            self.count_wire(nbytes)
            self.env.start_flow(ps_machine, worker_machine, nbytes,
                                (self.job_id, i, "pull", s), self.pull_gates[i].arrive)

    # split placement ------------------------------------------------------

    def _ralp_worker(self, i: int):
        me = self.worker_machines[i]
        ps_machine = self.ps_machines[0]
        self.compute_acc[i] += self.front_fwd_s
        yield ("delay", self.front_fwd_s)
        d2h = self.cut_bytes / self.memcopy_rate
        self.memcopy_acc[i] += d2h
        yield ("delay", d2h)
        self.count_wire(self.cut_bytes)
        yield ("flow", me, ps_machine, self.cut_bytes, (self.job_id, i, "act", 0))
        self.act_queue.put(i)
        yield ("wait", self.actgrad_gates[i])
        h2d = self.cut_bytes / self.memcopy_rate
        self.memcopy_acc[i] += h2d
        yield ("delay", h2d)
        self.compute_acc[i] += self.front_bwd_s
        yield ("delay", self.front_bwd_s)
        d2h = self.front_param_bytes / self.memcopy_rate
        self.memcopy_acc[i] += d2h
        yield ("delay", d2h)
        self.count_wire(self.front_param_bytes)
        yield ("flow", me, ps_machine, self.front_param_bytes, (self.job_id, i, "grad", 0))
        self.grad_gate.arrive()
        yield ("wait", self.pull_gates[i])
        h2d = self.front_param_bytes / self.memcopy_rate
        self.memcopy_acc[i] += h2d
        yield ("delay", h2d)
        self.ps_acc[i] += self.back_batch_s + self.agg_s
        self._worker_done(i)

    def _ralp_ps(self):
        env = self.env
        ps_machine = self.ps_machines[0]
        # Incoming activation batches are processed strictly one at a time,
        # in arrival order.
        for _ in range(self.spec.worker_count):
            i = yield ("get", self.act_queue)
            yield ("delay", self.back_batch_s)
            self.count_wire(self.cut_bytes)
            env.start_flow(ps_machine, self.worker_machines[i], self.cut_bytes,
                           (self.job_id, i, "actgrad", 0), self.actgrad_gates[i].arrive)
        yield ("wait", self.grad_gate)
        yield ("delay", self.agg_s)
        for i, worker_machine in enumerate(self.worker_machines):
            self.count_wire(self.front_param_bytes)
            env.start_flow(ps_machine, worker_machine, self.front_param_bytes,
                           (self.job_id, i, "pull", 0), self.pull_gates[i].arrive)

    # ring allreduce -------------------------------------------------------

    def _ring_worker(self, i: int):
        w = self.spec.worker_count
        me = self.worker_machines[i]
        peer = self.worker_machines[(i + 1) % w]
        self.compute_acc[i] += self.compute_s
        yield ("delay", self.compute_s)
        d2h = self.model_bytes / self.memcopy_rate
        self.memcopy_acc[i] += d2h
        yield ("delay", d2h)
        nbytes = self.ring_shares[i]
        if nbytes > 0:
            self.count_wire(nbytes)
            yield ("flow", me, peer, nbytes, (self.job_id, i, "ring", 0))
        self.ring_gate.arrive()
        yield ("wait", self.ring_gate)
        h2d = self.model_bytes / self.memcopy_rate
        self.memcopy_acc[i] += h2d
        yield ("delay", h2d)
        self._worker_done(i)


# -- public entry points ----------------------------------------------------


def simulate_run(scenario: Scenario) -> SimReport:
    """Run every job for scenario.steps synchronous steps and report."""
    env = _Env(scenario.cluster)
    runs = []
    for job_id, (name, spec, placement) in enumerate(scenario.jobs):
        run = _JobRun(env, job_id, name, spec, placement, scenario.steps)
        runs.append(run)
    for run in runs:
        run.start_step()
    env.run()

    reports = []
    for run in runs:
        if len(run.records) != scenario.steps:  # pragma: no cover - engine invariant
            raise RuntimeError(f"job {run.name} finished {len(run.records)} of {scenario.steps} steps")
        if len(set(run.wire_bytes)) != 1:  # pragma: no cover - engine invariant
            raise RuntimeError(f"job {run.name} moved different byte counts across steps")
        reports.append(
            JobReport(
                job=run.name,
                strategy=run.spec.strategy.kind.value,
                worker_count=run.spec.worker_count,
                batch_size=run.model.batch_size,
                steps=tuple(run.records),
                bytes_on_wire_per_step=run.wire_bytes[0],
            )
        )
    return SimReport(jobs=tuple(reports))


def simulate_step(scenario: Scenario) -> list[StepBreakdown]:
    """Simulate a single step per job (ignores scenario.steps)."""
    report = simulate_run(replace(scenario, steps=1))
    return [job.steps[0] for job in report.jobs]


def simulate_consolidation(scenario: Scenario, copies: int) -> ConsolidationReport:
    """Compare each job running alone vs. all jobs (times `copies`) sharing
    the cluster.  Placements are recomputed with the spread policy so the
    copies actually overlap on links; isolated runs reuse the consolidated
    placement so only contention differs."""
    if copies < 1:
        raise ScenarioError("copies must be >= 1")
    base_jobs = list(scenario.jobs)
    specs = []
    names = []
    for c in range(copies):
        for name, spec, _ in base_jobs:
            names.append(f"{name}/{c}" if copies > 1 else name)
            specs.append(spec)
    placements = spread_placement(
        scenario.cluster, [(s.worker_count, s.ps_count) for s in specs]
    )
    consolidated = Scenario(
        cluster=scenario.cluster,
        jobs=tuple(zip(names, specs, placements)),
        steps=scenario.steps,
    )
    consolidated_report = simulate_run(consolidated)

    isolated_reports = []
    entries = []
    for name, spec, placement in consolidated.jobs:
        alone = Scenario(cluster=scenario.cluster, jobs=((name, spec, placement),),
                         steps=scenario.steps)
        alone_report = simulate_run(alone)
        isolated_reports.append(alone_report)
        entries.append(
            ConsolidationEntry(
                job=name,
                isolated_step_time=alone_report.job(name).avg_step_time,
                consolidated_step_time=consolidated_report.job(name).avg_step_time,
            )
        )
    return ConsolidationReport(
        entries=tuple(entries),
        isolated=tuple(isolated_reports),
        consolidated=consolidated_report,
    )


# -- scenario files ----------------------------------------------------------


_CLUSTER_KEYS = ("machines", "gpus", "flops", "memcopy", "link", "intra")
_JOB_KEYS = ("model", "strategy", "workers", "ps", "batch", "split")


def _job_spec(model: ModelGraph, kv: dict[str, str]) -> JobSpec:
    """JobSpec for one job line's key=value pairs; bad values raise ValueError."""

    def integer(key: str, default: Optional[int] = None) -> Optional[int]:
        token = kv.get(key)
        if token is None:
            return default
        try:
            return int(token)
        except ValueError:
            raise ScenarioError(f"{key} must be an integer, got {token!r}") from None

    if "batch" in kv:
        model = model.with_batch_size(integer("batch"))
    strategy_name = kv["strategy"]
    if "split" in kv and strategy_name != "ralp":
        raise ScenarioError("split= applies only to strategy=ralp")
    if strategy_name == "baseline":
        strategy, ps_count = Strategy.baseline(), 1
    elif strategy_name == "ring":
        strategy, ps_count = Strategy.ring(), 0
    elif strategy_name == "ralp":
        split_token = kv.get("split", "auto")
        if split_token == "auto":
            split = profile(model, ProfilerConfig()).split_index
            if split is None:
                raise ScenarioError(
                    f"model {model.name} is not partitionable "
                    "(skewness gate failed); use strategy=baseline"
                )
        else:
            split = integer("split")
        strategy, ps_count = Strategy.ralp(split), 1
    else:
        raise ScenarioError(f"unknown strategy {strategy_name!r}")
    return JobSpec(model=model, strategy=strategy, worker_count=integer("workers"),
                   ps_count=integer("ps", ps_count))


def parse_scenario(
    text: str,
    resolve_model: Callable[[str], ModelGraph],
    default_steps: int = 1,
) -> Scenario:
    """Parse a scenario document.

    Lines: ``cluster machines= gpus= flops= memcopy= link= intra=``,
    ``job <name> model= strategy= workers= [ps=] [batch=] [split=]``,
    ``place <job> spread`` or ``place <job> worker|ps <idx> <machine> <gpu>``,
    and ``steps <n>``.  Jobs without place lines get the spread policy.
    A malformed line, an unknown key or a bad value raises ScenarioError
    naming the line.
    """
    cluster: Optional[ClusterSpec] = None
    steps = default_steps
    job_lines: list[tuple[str, dict]] = []
    explicit: dict[str, dict[str, dict[int, tuple[int, int]]]] = {}

    def fail(lineno, msg):
        raise ScenarioError(f"line {lineno}: {msg}")

    def pairs(lineno, tokens, keys):
        kv = {}
        for token in tokens:
            key, sep, value = token.partition("=")
            if not sep:
                fail(lineno, f"expected key=value, got {token!r}")
            if key not in keys:
                fail(lineno, f"unknown key {key!r}; expected one of {', '.join(keys)}")
            if key in kv:
                fail(lineno, f"duplicate key {key!r}")
            kv[key] = value
        return kv

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        head = tokens[0]
        if head == "cluster":
            kv = pairs(lineno, tokens[1:], _CLUSTER_KEYS)
            try:
                cluster = ClusterSpec(
                    machines=int(kv.get("machines", DEFAULT_CLUSTER.machines)),
                    gpus_per_machine=int(kv.get("gpus", DEFAULT_CLUSTER.gpus_per_machine)),
                    gpu_flops_per_sec=float(kv.get("flops", DEFAULT_CLUSTER.gpu_flops_per_sec)),
                    memcopy_bytes_per_sec=float(kv.get("memcopy", DEFAULT_CLUSTER.memcopy_bytes_per_sec)),
                    link_bytes_per_sec=float(kv.get("link", DEFAULT_CLUSTER.link_bytes_per_sec)),
                    intra_machine_bytes_per_sec=float(kv.get("intra", DEFAULT_CLUSTER.intra_machine_bytes_per_sec)),
                )
            except (ValueError, ScenarioError) as exc:
                fail(lineno, f"bad cluster spec: {exc}")
        elif head == "job":
            if len(tokens) < 3:
                fail(lineno, "job line needs a name and key=value pairs")
            name = tokens[1]
            kv = pairs(lineno, tokens[2:], _JOB_KEYS)
            for required in ("model", "strategy", "workers"):
                if required not in kv:
                    fail(lineno, f"job {name!r} needs {required}=")
            job_lines.append((lineno, name, kv))
        elif head == "place":
            if len(tokens) < 3:
                fail(lineno, "place line needs a job name")
            name = tokens[1]
            slot = explicit.setdefault(name, {"worker": {}, "ps": {}})
            if tokens[2] == "spread":
                continue
            if len(tokens) != 6 or tokens[2] not in ("worker", "ps"):
                fail(lineno, "expected: place <job> worker|ps <idx> <machine> <gpu>")
            try:
                slot[tokens[2]][int(tokens[3])] = (int(tokens[4]), int(tokens[5]))
            except ValueError:
                fail(lineno, "place indices must be integers")
        elif head == "steps":
            if len(tokens) != 2:
                fail(lineno, "expected: steps <n>")
            try:
                steps = int(tokens[1])
            except ValueError:
                fail(lineno, "steps must be an integer")
            if steps < 1:
                fail(lineno, "steps must be >= 1")
        else:
            fail(lineno, f"unknown directive {head!r}")

    if cluster is None:
        cluster = DEFAULT_CLUSTER
    if not job_lines:
        raise ScenarioError("scenario has no jobs")

    specs: list[tuple[str, JobSpec]] = []
    for lineno, name, kv in job_lines:
        model = resolve_model(kv["model"])
        try:
            specs.append((name, _job_spec(model, kv)))
        except ValueError as exc:
            fail(lineno, f"job {name!r}: {exc}")

    taken = [
        slot
        for name, _ in specs
        if name in explicit
        for group in explicit[name].values()
        for slot in group.values()
    ]

    auto_specs = [(n, s) for n, s in specs if n not in explicit]
    auto_placements = spread_placement(
        cluster, [(s.worker_count, s.ps_count) for _, s in auto_specs], taken=taken
    )
    auto_map = {name: p for (name, _), p in zip(auto_specs, auto_placements)}

    jobs = []
    for name, spec in specs:
        if name in explicit:
            groups = explicit[name]
            workers = groups["worker"]
            ps = groups["ps"]
            if sorted(workers) != list(range(spec.worker_count)):
                raise ScenarioError(f"job {name!r}: worker placements must cover 0..{spec.worker_count - 1}")
            if sorted(ps) != list(range(spec.ps_count)):
                raise ScenarioError(f"job {name!r}: ps placements must cover 0..{spec.ps_count - 1}")
            placement = Placement(
                workers=tuple(workers[i] for i in range(spec.worker_count)),
                ps=tuple(ps[i] for i in range(spec.ps_count)),
            )
        else:
            placement = auto_map[name]
        jobs.append((name, spec, placement))

    return Scenario(cluster=cluster, jobs=tuple(jobs), steps=steps)
