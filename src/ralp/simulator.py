"""Deterministic discrete-event simulation of distributed training steps.

The model: each worker (and each parameter-server process) occupies one
GPU slot.  Compute and host<->device memcopy run at fixed per-slot rates,
so only the network contends: inter-machine transfers share per-machine
full-duplex links under max-min fairness (see fairshare), intra-machine
transfers ride a separate non-contended tier.  Training is synchronous:
a job's next step starts when its slowest worker finishes the current one.
The event loop keeps one fairshare.FairShare per run: a flow joins it when
it starts and leaves when it finishes, and each solve between events
replays the previous solve's rounds that the change leaves alone.  Every
flow a round froze runs at the round's level, so the loop times and
advances flows one round at a time (see _Env).

A job's step is a small task graph, built once per job by one function
per strategy, re-armed each step, and run by one event loop for all
jobs.  A builder computes its strategy's constants from the model's
cached sums and returns the step's per-worker PS computation.  A task is
either a delay (compute, memcopy or PS work, or a transfer that needs no
network) or a flow of bytes between two machines, and it starts once all
its predecessors have finished.  A transfer within one machine is a
delay at the intra-machine rate, and an empty transfer is a zero-second
delay.  A delay or flow that a cluster rate would make endless is
rejected when the graph is built, and a run whose clock would pass the
float range stops with a ScenarioError naming the job.  Only simulated
steps advance the clock, so a lone job whose repeated steps' mean step
time passes the float range raises that error too.  So does a run in
which a job's steps take no time, whose throughput would be undefined.
The split strategy's back-segment batches are serial tasks: the PS runs
them one at a time, in the order they become ready, each from the later
of the clock and the end of the one before, so only that order sees the
order in which an instant completes its work (see _Env).  A worker's
step ends with its last task.  A task re-arms itself as it starts, by
resetting its count of unfinished predecessors, so a step only starts
the graph's roots in the order they were built, and every step makes the
event loop the same calls, in the same order, as a freshly built graph.

Per-worker step time is accounted into four buckets: worker computation,
PS computation (the server-side work done on that worker's behalf),
memcopy, and communication.  Worker computation and memcopy are the sums
of the worker's delay tasks tagged with that bucket; PS computation is
what the builder returned; communication is the residual (step duration
minus the other three), mirroring how such breakdowns are measured from
traces, so the four buckets sum to the reported step duration
identically.  The residual is clamped at zero.  A residual below -16
ulps of the clock at the worker's step end, more than the clock and the
bucket sums can round, is an engine error: some bucket then holds time
the worker did not spend.  A step's wire bytes are the sum of its
transfers' bytes, local ones included.

A lone job starts every step on an idle cluster, so its later steps
repeat its first: it simulates one step, and its report holds that one
StepBreakdown once per step.  A record holds only the four buckets: its
JobReport names the job, and its position there gives the step.  A
consolidation runs each job alone once per placement shape (its machines
relabelled by first use), so for one step, and gives that report's steps
to every copy of the job with the same shape.
"""

from __future__ import annotations

import csv
import heapq
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from . import fairshare
from .catalog import UnknownModelError
from .costmodel import JobSpec, Strategy, StrategyKind, compute_load
from .descriptor import DescriptorError, file_error, integer, parse_pairs
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
    with a free slot (ties to the lowest machine index), counting the
    ``taken`` slots as load.  A machine no slot is taken on has the least
    load, so the lowest such machine comes first; the others wait in a
    heap by (load, index).  A claim costs O(log machines touched), not
    O(machines).
    """
    machines, gpus = cluster.machines, cluster.gpus_per_machine
    occupied = set(taken or ())
    taken_on: dict[int, int] = {}
    for machine, _ in occupied:
        if 0 <= machine < machines:
            taken_on[machine] = taken_on.get(machine, 0) + 1
    touched = [(n, m) for m, n in taken_on.items()]
    heapq.heapify(touched)
    next_gpu: dict[int, int] = {}
    fresh = 0  # every machine below it is in the heap

    def claim() -> tuple[int, int]:
        nonlocal fresh
        while fresh in taken_on:
            fresh += 1
        if fresh < machines:
            m, fresh = fresh, fresh + 1
            next_gpu[m] = 1
            heapq.heappush(touched, (1, m))
            return m, 0
        while touched:
            n, m = touched[0]
            g = next_gpu.get(m, 0)
            while g < gpus:
                slot = (m, g)
                g += 1
                if slot not in occupied:
                    occupied.add(slot)
                    next_gpu[m] = g
                    heapq.heapreplace(touched, (n + 1, m))
                    return slot
            heapq.heappop(touched)  # no free slot left on m
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
    end-to-end span, so the identity holds exactly).  Its JobReport knows
    the job, and its position there gives the step.
    """

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

    @cached_property
    def step_durations(self) -> tuple[float, ...]:
        return tuple(self.step_duration(w) for w in range(len(self.worker_computation)))

    @property
    def avg_step_time(self) -> float:
        durations = self.step_durations
        return sum(durations) / len(durations)

    @cached_property
    def max_step_time(self) -> float:
        return max(self.step_durations)

    def to_dict(self) -> dict:
        return {
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

    @cached_property
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
            "steps": [{"job": self.job, "step": i, **s.to_dict()}
                      for i, s in enumerate(self.steps, 1)],
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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("job", "step", "worker", "worker_computation", "ps_computation",
                         "memcopy", "communication", "step_duration"))
        for job in self.jobs:
            for i, step in enumerate(job.steps, 1):
                for w in range(len(step.worker_computation)):
                    writer.writerow((job.job, i, w, step.worker_computation[w],
                                     step.ps_computation[w], step.memcopy[w],
                                     step.communication[w], step.step_duration(w)))
        return out.getvalue()


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


def _split_bytes(total: int, parts: int) -> list[int]:
    """Integer byte shares that sum to exactly ``total``."""
    base, extra = divmod(total, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


def _shard_bytes(model: ModelGraph, ps_count: int) -> list[int]:
    """Parameter bytes per PS shard.  PS frameworks place whole variables,
    so shards are formed by assigning weighted layers round-robin.  Under
    parameter skew one shard ends up carrying most of the model, which is
    what makes the baseline's PS link the bottleneck."""
    shards = [0] * ps_count
    weighted = [nbytes for nbytes in model.param_bytes if nbytes > 0]
    for pos, nbytes in enumerate(weighted):
        shards[pos % ps_count] += nbytes
    return shards


class _Task(fairshare.Flow):
    """One node of a job's step graph: a delay of ``seconds`` (``links`` is
    None) or a network flow of ``nbytes`` over ``links``, its source
    machine's uplink and its destination machine's downlink.  Each step it
    starts once its ``preds`` predecessors have finished: ``waiting``
    counts those still running, and is reset to ``preds`` as the task
    starts, ready for the next step.  A ``serial`` delay begins when its
    job's PS is free (``_JobRun.ps_free``); finishing a task with a
    ``last`` worker index ends that worker's step.  A flow's ``seq``
    numbers its start, so flows that end together finish in the order
    they started."""

    __slots__ = ("job", "seconds", "nbytes", "serial", "last", "succ", "preds", "waiting",
                 "remaining", "seq")

    def __init__(self, job, after, seconds, serial, last, links=None, nbytes=0):
        self.job = job
        self.seconds = seconds
        self.links = links
        self.nbytes = nbytes
        self.serial = serial
        self.last = last
        self.succ = []
        self.preds = self.waiting = len(after)
        for pred in after:
            pred.succ.append(self)
        if not after:
            job.roots.append(self)


_remaining = operator.attrgetter("remaining")
_started = operator.attrgetter("seq")


class _Env:
    """Event loop: a time-ordered heap of finishing delays, and the
    fair-share state, the one record of the in-flight inter-machine flows
    and of whether any started or finished since the last solve.  The
    kernel has an uplink and a downlink for each machine the placements
    use, numbered in order of first use, so its size does not grow with
    the cluster.

    The loop times and advances flows one round of the last solve at a
    time: every flow a round froze runs at the round's level, so each
    event takes the same bytes, rate × dt, off each of them.  Rounding is
    monotone, so the round's lead, the flow with the fewest bytes left
    when the round was made, stays the first of its flows to finish.  The
    next flow finish is the earliest lead's, and only rounds whose lead
    ends then are searched for flows that end at that instant.  A solve
    leaves its first ``FairShare.kept`` rounds as they were, and a
    departure refills from its flow's round, so no kept round holds a
    departed flow: the loop keeps their leads and picks only the others.

    An instant removes its finished flows from the kernel, completes its
    due delays, zero-second ones started meanwhile too, then its finished
    flows, each in the order they started, then the delays those started.
    Only a ralp job's PS, which takes back batches in the order they
    become ready, sees that order: rates do not depend on it, and every
    task waits only for its predecessors.  The job's roots start in worker
    order and its forward passes and copies take equal time, so its
    activation flows start, and tie, in worker order, all in one loop
    iteration.  So none finishes in that iteration, and no zero-second
    delay, however short, reaches the PS at the instant one finishes."""

    def __init__(self, cluster: ClusterSpec, placements: Iterable[Placement]):
        self.cluster = cluster
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()
        # Machine id -> its uplink; its downlink is that plus the number of
        # machines used.
        self._uplink: dict[int, int] = {}
        for placement in placements:
            for machine, _ in (*placement.workers, *placement.ps):
                self._uplink.setdefault(machine, len(self._uplink))
        self._share = fairshare.FairShare([cluster.link_bytes_per_sec] * (2 * len(self._uplink)))

    def links(self, src: int, dst: int) -> tuple[int, int]:
        """The kernel's links for a flow from machine ``src`` to ``dst``."""
        uplink = self._uplink
        return uplink[src], len(uplink) + uplink[dst]

    def start(self, task: _Task):
        if task.links is None:
            begin = self.now
            if task.serial:
                # The PS begins a back batch once it is free of the last.
                begin = max(begin, task.job.ps_free)
                task.job.ps_free = begin + task.seconds
            heapq.heappush(self._heap, (begin + task.seconds, next(self._seq), task))
        else:
            task.remaining = float(task.nbytes)
            task.seq = next(self._seq)
            self._share.add(task, task.links)

    def _finish(self, task: _Task):
        for succ in task.succ:
            succ.waiting -= 1
            if not succ.waiting:
                succ.waiting = succ.preds
                self.start(succ)
        if task.last is not None:
            task.job.worker_done(task.last)

    def run(self):
        heap, finish, heappop = self._heap, self._finish, heapq.heappop
        share, inf, ulp = self._share, math.inf, math.ulp
        flows, changes, log = share.flows, share.changes, share.log
        # Per round of the last solve that froze flows: its flows and its lead.
        rounds: list[tuple[list[_Task], _Task]] = []
        while heap or flows:
            if flows and changes:
                share.solve()
                kept = share.kept
                del rounds[kept:]
                for _, _, _, group in log[kept:]:
                    if group:
                        rounds.append((group, min(group, key=_remaining) if len(group) > 1
                                       else group[0]))

            now = self.now
            next_heap = heap[0][0] if heap else inf
            next_flow = inf
            if flows:
                # remaining / inf == 0.0: an infinite-rate flow ends now.
                # A flow at rate 0 is an engine fault.
                try:
                    ends = [now + lead.remaining / lead.rate for _, lead in rounds]
                except ZeroDivisionError:
                    raise RuntimeError(
                        "simulation deadlock: pending work cannot progress") from None
                next_flow = min(ends)

            t_next = next_flow if next_flow < next_heap else next_heap
            if t_next == inf:
                # The heap's head, or every flow, ends past the float range.
                late = heap[0][2] if heap else next(iter(flows))
                raise ScenarioError(f"job {late.job.name!r}: the simulated clock passes the "
                                    f"float range after {now!r} s")

            done = ()
            if next_flow == t_next:
                # Flows of one round with different bytes left can end at
                # one instant after rounding.
                done = []
                for (group, lead), end in zip(rounds, ends):
                    if end == t_next:
                        rate = lead.rate
                        done += [f for f in group if now + f.remaining / rate == t_next]
                if len(done) > 1:
                    done.sort(key=_started)

            dt = t_next - now
            if dt > 0 and flows:
                for group, lead in rounds:
                    step = lead.rate * dt
                    for flow in group:
                        flow.remaining -= step
            self.now = t_next

            if done:
                tick = ulp(t_next)
                for flow in done:
                    # Delivered bytes match nbytes up to rounding: of the
                    # float sums, and of the finish time to the clock's
                    # resolution.  An infinite rate makes the slack infinite.
                    slack = 1e-9 * flow.nbytes + flow.rate * tick
                    if abs(flow.remaining) > slack:
                        machines = list(self._uplink)
                        src, dst = flow.links
                        raise RuntimeError(f"job {flow.job.name!r}: flow from machine "
                                           f"{machines[src]} to {machines[dst - len(machines)]} "
                                           f"finished with {flow.remaining!r} of {flow.nbytes} "
                                           "bytes undelivered")
                    share.remove(flow)
            while heap and heap[0][0] == t_next:
                finish(heappop(heap)[2])
            for flow in done:
                finish(flow)
            while heap and heap[0][0] == t_next:
                finish(heappop(heap)[2])


# -- per-job runtime -------------------------------------------------------

class _JobRun:
    """One job of a run.  Its step graph is built once, here, and re-armed
    as it runs: the per-worker bucket sums, the PS computation time and the
    wire bytes are the same every step; its roots start in worker order."""

    def __init__(self, env: _Env, name: str, spec: JobSpec, placement: Placement,
                 total_steps: int):
        self.env = env
        self.name = name
        self.spec = spec
        self.total_steps = total_steps
        self.model = spec.model
        self.records: list[StepBreakdown] = []
        self.ps_free = 0.0  # when the PS ends the last back batch it took
        self.worker_machines = [m for m, _ in placement.workers]
        self.ps_machines = [m for m, _ in placement.ps]
        w = spec.worker_count
        self.compute_acc = [0.0] * w
        self.memcopy_acc = [0.0] * w
        self.bytes_on_wire_per_step = 0
        self.roots: list[_Task] = []  # the tasks with no predecessors, in build order
        self.ps_computation_s = _STEP_BUILDERS[spec.strategy.kind](self)

    # step graphs ----------------------------------------------------------

    def start_step(self):
        """Start the step graph's roots in build order.  Every task of the
        last step re-armed itself as it started."""
        self.step_start = self.env.now
        self.worker_end = [0.0] * self.spec.worker_count
        self.done_count = 0
        for task in self.roots:
            self.env.start(task)

    def release(self):
        """Drop the run's step graph and event loop.  Each task points back
        at its run, and the fair-share log keeps the last solve's flows, so
        until then they form reference cycles that only the cyclic
        collector frees."""
        self.roots = ()
        self.env = None

    def _seconds(self, amount, rate) -> float:
        """``amount`` flops or bytes at the cluster rate named ``rate`` (a
        ``ClusterSpec`` field), in seconds.  A rate so small that the task
        would never end is a ScenarioError: the event loop could not finish
        it."""
        value = getattr(self.env.cluster, rate)
        seconds = amount / value
        if not math.isfinite(seconds):
            raise ScenarioError(f"job {self.name!r}: cluster rate {rate}={value!r} makes a "
                                f"task take {seconds!r} s")
        return seconds

    def _delay(self, after, amount, rate, bucket=None, worker=None, serial=False, last=None):
        """A delay task of ``amount`` flops or bytes at the cluster rate
        named ``rate``; ``bucket`` (compute_acc or memcopy_acc) charges its
        seconds to ``worker``, in the order the worker's tasks are built."""
        seconds = self._seconds(amount, rate)
        if bucket is not None:
            bucket[worker] += seconds
        return _Task(self, after, seconds, serial, last)

    def _flow(self, after, src, dst, nbytes):
        """A transfer of ``nbytes`` from machine ``src`` to ``dst``, counted
        in the step's wire bytes: a network flow, or a delay at the
        intra-machine rate when it is empty or stays within one machine."""
        self.bytes_on_wire_per_step += nbytes
        if not nbytes or src == dst:
            return self._delay(after, nbytes, "intra_machine_bytes_per_sec")
        self._seconds(nbytes, "link_bytes_per_sec")
        return _Task(self, after, 0.0, False, None, self.env.links(src, dst), nbytes)

    def _baseline_step(self) -> float:
        model, w = self.model, self.spec.worker_count
        compute_flops = compute_load(model)[0]
        model_bytes = model.total_param_bytes
        shard_bytes = _shard_bytes(model, self.spec.ps_count)
        pushes = [[] for _ in self.ps_machines]
        for i, me in enumerate(self.worker_machines):
            compute = self._delay((), compute_flops, "gpu_flops_per_sec", self.compute_acc, i)
            d2h = self._delay([compute], model_bytes, "memcopy_bytes_per_sec",
                              self.memcopy_acc, i)
            for s, ps_machine in enumerate(self.ps_machines):
                pushes[s].append(self._flow([d2h], me, ps_machine, shard_bytes[s]))
        pulls = [[] for _ in self.worker_machines]
        aggs = []
        for s, ps_machine in enumerate(self.ps_machines):
            agg = self._delay(pushes[s], (shard_bytes[s] // model.bytes_per_element) * w,
                              "gpu_flops_per_sec")
            aggs.append(agg)
            for i, worker_machine in enumerate(self.worker_machines):
                pulls[i].append(self._flow([agg], ps_machine, worker_machine, shard_bytes[s]))
        for i, after in enumerate(pulls):
            self._delay(after, model_bytes, "memcopy_bytes_per_sec", self.memcopy_acc, i,
                        last=i)
        return max(agg.seconds for agg in aggs)

    def _ralp_step(self) -> float:
        model, w = self.model, self.spec.worker_count
        split, ps_machine = self.spec.strategy.split_index, self.ps_machines[0]
        worker_flops, ps_flops = compute_load(model, split, worker_count=1)
        front_fwd_flops = worker_flops / 3
        cut, params = model.output_bytes[split - 1], model.cumulative_param_bytes[split - 1]
        grads = []
        for i, me in enumerate(self.worker_machines):
            fwd = self._delay((), front_fwd_flops, "gpu_flops_per_sec", self.compute_acc, i)
            d2h = self._delay([fwd], cut, "memcopy_bytes_per_sec", self.memcopy_acc, i)
            act = self._flow([d2h], me, ps_machine, cut)
            # The PS runs the back segment for one batch at a time, in the
            # order the activations arrive.
            back = self._delay([act], ps_flops, "gpu_flops_per_sec", serial=True)
            actgrad = self._flow([back], ps_machine, me, cut)
            h2d = self._delay([actgrad], cut, "memcopy_bytes_per_sec", self.memcopy_acc, i)
            bwd = self._delay([h2d], 2 * front_fwd_flops, "gpu_flops_per_sec",
                              self.compute_acc, i)
            d2h = self._delay([bwd], params, "memcopy_bytes_per_sec", self.memcopy_acc, i)
            grads.append(self._flow([d2h], me, ps_machine, params))
        agg = self._delay(grads, model.total_param_count * w, "gpu_flops_per_sec")
        for i, me in enumerate(self.worker_machines):
            pull = self._flow([agg], ps_machine, me, params)
            self._delay([pull], params, "memcopy_bytes_per_sec", self.memcopy_acc, i, last=i)
        return back.seconds + agg.seconds  # every worker's back batch takes as long

    def _ring_step(self) -> float:
        model, w = self.model, self.spec.worker_count
        compute_flops = compute_load(model)[0]
        model_bytes = model.total_param_bytes
        shares = _split_bytes(2 * model_bytes * (w - 1), w)
        sends = []
        for i, me in enumerate(self.worker_machines):
            compute = self._delay((), compute_flops, "gpu_flops_per_sec", self.compute_acc, i)
            d2h = self._delay([compute], model_bytes, "memcopy_bytes_per_sec",
                              self.memcopy_acc, i)
            peer = self.worker_machines[(i + 1) % w]
            sends.append(self._flow([d2h], me, peer, shares[i]))
        for i in range(w):
            self._delay(sends, model_bytes, "memcopy_bytes_per_sec", self.memcopy_acc, i,
                        last=i)
        return 0.0

    def worker_done(self, i: int):
        self.worker_end[i] = self.env.now
        self.done_count += 1
        if self.done_count == self.spec.worker_count:
            self._finalize_step()

    def _finalize_step(self):
        w, step, ps_s = self.spec.worker_count, len(self.records) + 1, self.ps_computation_s
        comm = []
        for i in range(w):
            end = self.worker_end[i]
            span = end - self.step_start
            residual = span - (self.compute_acc[i] + self.memcopy_acc[i] + ps_s)
            # Each clock advance along the worker's chain (at most 12 tasks)
            # and each bucket addition rounds by at most half an ulp of the
            # clock at the step's end, so honest buckets stay well within
            # 16 of those ulps of the span.
            if residual < -16 * math.ulp(end):
                raise RuntimeError(f"job {self.name} step {step} worker {i}: buckets exceed "
                                   f"the {span!r} s span by {-residual!r} s")
            comm.append(max(0.0, residual))
        record = StepBreakdown(
            worker_computation=tuple(self.compute_acc),
            ps_computation=(ps_s,) * w,
            memcopy=tuple(self.memcopy_acc),
            communication=tuple(comm),
        )
        self.records.append(record)
        if len(self.records) < self.total_steps:
            self.start_step()


_STEP_BUILDERS = {
    StrategyKind.BASELINE_PS: _JobRun._baseline_step,
    StrategyKind.RALP: _JobRun._ralp_step,
    StrategyKind.RING_ALLREDUCE: _JobRun._ring_step,
}


# -- public entry points ----------------------------------------------------


def simulate_run(scenario: Scenario) -> SimReport:
    """Run every job for scenario.steps synchronous steps and report.

    A lone job starts every step on an idle cluster, since each task of a
    step is an ancestor of some worker's last task, so its steps repeat
    the first: it simulates one step and reports it for every step.  Only
    simulated steps advance the clock, so a repeated mean step time that
    passes the float range raises the clock's ScenarioError."""
    env = _Env(scenario.cluster, [placement for _, _, placement in scenario.jobs])
    lone = len(scenario.jobs) == 1
    runs = []
    try:
        for name, spec, placement in scenario.jobs:
            runs.append(_JobRun(env, name, spec, placement, 1 if lone else scenario.steps))
        for run in runs:
            run.start_step()
        env.run()
    finally:
        for run in runs:
            run.release()

    reports = []
    for run in runs:
        if lone:
            run.records *= scenario.steps
        if len(run.records) != scenario.steps:  # pragma: no cover - engine invariant
            raise RuntimeError(f"job {run.name} finished {len(run.records)} of {scenario.steps} steps")
        report = JobReport(
            job=run.name,
            strategy=run.spec.strategy.kind.value,
            worker_count=run.spec.worker_count,
            batch_size=run.model.batch_size,
            steps=tuple(run.records),
            bytes_on_wire_per_step=run.bytes_on_wire_per_step,
        )
        if not report.avg_step_time:
            raise ScenarioError(f"job {run.name!r}: its steps take no time, so it has no "
                                "throughput (a model with no parameters and no flops, or "
                                "cluster rates that make every task free)")
        if report.avg_step_time == math.inf:
            raise ScenarioError(f"job {run.name!r}: the simulated clock passes the float "
                                f"range after {env.now!r} s")
        reports.append(report)
    return SimReport(jobs=tuple(reports))


def _placement_shape(placement: Placement) -> tuple[int, ...]:
    """The placement's machines relabelled 0, 1, ... by first use, over
    workers then PS processes."""
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(m, len(labels)) for m, _ in (*placement.workers, *placement.ps))


def simulate_consolidation(scenario: Scenario, copies: int) -> ConsolidationReport:
    """Compare each job running alone vs. all jobs (times `copies`) sharing
    the cluster.  Placements are recomputed with the spread policy so the
    copies actually overlap on links; isolated runs reuse the consolidated
    placement so only contention differs.

    Copies of a job whose placements have the same shape share one
    isolated run: every link has the same capacity, and neither the rates
    nor the order of events depends on which machines a job uses, only on
    which of its replicas share one."""
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
    isolated_runs: dict[tuple[int, tuple[int, ...]], SimReport] = {}
    for index, (name, spec, placement) in enumerate(consolidated.jobs):
        key = (index % len(base_jobs), _placement_shape(placement))
        if key in isolated_runs:
            # The copy's report shares the first copy's steps under its name.
            (job,) = isolated_runs[key].jobs
            alone_report = SimReport(jobs=(replace(job, job=name),))
        else:
            alone = Scenario(cluster=scenario.cluster, jobs=((name, spec, placement),),
                             steps=scenario.steps)
            alone_report = isolated_runs[key] = simulate_run(alone)
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


def _split_value(text: str):
    """A job's ``split=``: ``auto`` or a layer index."""
    return text if text == "auto" else integer(text)


# The keys of a cluster line, each naming a ClusterSpec field, and the
# converters of its values and of a job line's.
_CLUSTER_FIELDS = {"machines": "machines", "gpus": "gpus_per_machine", "flops": "gpu_flops_per_sec",
                   "memcopy": "memcopy_bytes_per_sec", "link": "link_bytes_per_sec",
                   "intra": "intra_machine_bytes_per_sec"}
_CLUSTER_KEYS = {key: integer if key in ("machines", "gpus") else float for key in _CLUSTER_FIELDS}
_JOB_KEYS = {"model": str, "strategy": str, "workers": integer, "ps": integer, "batch": integer,
             "split": _split_value}


def _job_spec(model: ModelGraph, kv: dict[str, object]) -> JobSpec:
    """JobSpec for one job line's converted key=value pairs; bad values
    raise ValueError, and so does a model with no parameters and no flops,
    whose steps would take no time."""
    if not model.total_param_count and not model.flops_prefix[-1]:
        raise ScenarioError(f"model {model.name} has no parameters and no flops, "
                            "so its steps would take no time")
    if "batch" in kv:
        model = model.with_batch_size(kv["batch"])
    try:
        kind = StrategyKind(kv["strategy"])
    except ValueError:
        raise ScenarioError(f"unknown strategy {kv['strategy']!r}") from None
    split = kv.get("split")
    if kind is StrategyKind.RALP:
        if split in (None, "auto"):
            report = profile(model, ProfilerConfig())
            split = report.split_index
            if split is None:
                why = ("it has fewer than 2 layers" if model.num_layers < 2 else
                       "it has no parameters" if not model.total_param_count else
                       f"its skewness {report.skewness!r} is not below the threshold "
                       f"{report.threshold!r}" if report.skewness >= report.threshold else
                       "it has no split point: each boundary before its last layer "
                       "is excluded or costs more than splitting after it")
                raise ScenarioError(f"model {model.name} is not partitionable ({why}); "
                                    "use strategy=baseline")
    elif split is not None:
        raise ScenarioError("split= applies only to strategy=ralp")
    ps_default = 0 if kind is StrategyKind.RING_ALLREDUCE else 1
    return JobSpec(model=model, strategy=Strategy(kind, split), worker_count=kv["workers"],
                   ps_count=kv.get("ps", ps_default))


def parse_scenario(
    text: str,
    resolve_model: Callable[[str], ModelGraph],
) -> Scenario:
    """Parse a scenario document.

    Lines: ``cluster machines= gpus= flops= memcopy= link= intra=``,
    ``job <name> model= strategy= workers= [ps=] [batch=] [split=]``,
    ``place <job> spread`` or ``place <job> worker|ps <idx> <machine> <gpu>``,
    and ``steps <n>``.  ``machines``, ``gpus``, ``workers``, ``ps`` and
    ``batch`` take integers, the four rates finite numbers, ``split`` an
    integer or ``auto``.  An integer, in place and steps lines too, is
    ASCII digits after an optional ``-``.

    The first error found is raised, as a ScenarioError naming its line.
    Lines are read in file order: a malformed line, a bad key or value, a
    second cluster or steps line, a duplicate job name, a second spread
    line for one job or a place line that contradicts its job's earlier one
    (spread against explicit slots) fails there.
    Then a place line for an undeclared job fails, and (CapacityError) an
    explicit slot outside the cluster or already taken.  Last, each job in
    file order resolves its model (UnknownModelError, DescriptorError,
    OSError or UnicodeDecodeError from the resolver is the cause), builds
    its spec, and is placed: by its explicit slots, which must cover every
    replica, or spread around every explicit slot and the earlier spread
    jobs' slots (CapacityError when the cluster is full).
    """
    cluster = DEFAULT_CLUSTER
    steps = 1
    directive_lines: dict[str, int] = {}  # cluster/steps -> the line that set it
    job_lines: dict[str, tuple[int, dict]] = {}  # job name -> its line and pairs
    place_lines: dict[str, tuple[int, bool]] = {}  # job name -> its first place line, spread?
    explicit: dict[str, dict[str, dict[int, tuple[int, int]]]] = {}
    slot_lines: list[tuple[int, tuple[int, int]]] = []

    def fail(lineno, msg):
        raise ScenarioError(f"line {lineno}: {msg}")

    def pairs(lineno, code, tokens, first, keys):
        try:
            return parse_pairs(tokens, first, keys, lineno, code)
        except DescriptorError as exc:
            fail(lineno, exc.reason)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.partition("#")[0]
        tokens = code.split()
        if not tokens:
            continue
        head = tokens[0]
        if head in ("cluster", "steps"):
            if head in directive_lines:
                fail(lineno, f"second {head} line (first on line {directive_lines[head]})")
            directive_lines[head] = lineno
        if head == "cluster":
            kv = pairs(lineno, code, tokens, 1, _CLUSTER_KEYS)
            # An infinite rate makes work free: with all four infinite a
            # step would take no time.
            for key, value in kv.items():
                if not math.isfinite(value):
                    fail(lineno, f"key {key!r} needs a finite number, got {value!r}")
            try:
                cluster = replace(DEFAULT_CLUSTER, **{_CLUSTER_FIELDS[k]: v for k, v in kv.items()})
            except ScenarioError as exc:
                fail(lineno, f"bad cluster spec: {exc}")
        elif head == "job":
            if len(tokens) < 3:
                fail(lineno, "job line needs a name and key=value pairs")
            name = tokens[1]
            if name in job_lines:
                fail(lineno, f"duplicate job name {name!r} "
                             f"(first declared on line {job_lines[name][0]})")
            kv = pairs(lineno, code, tokens, 2, _JOB_KEYS)
            for required in ("model", "strategy", "workers"):
                if required not in kv:
                    fail(lineno, f"job {name!r} needs {required}=")
            job_lines[name] = (lineno, kv)
        elif head == "place":
            if len(tokens) < 3:
                fail(lineno, "place line needs a job name")
            name, spread = tokens[1], tokens[2] == "spread"
            if spread:
                if len(tokens) != 3:
                    fail(lineno, "expected: place <job> spread")
            elif len(tokens) != 6 or tokens[2] not in ("worker", "ps"):
                fail(lineno, "expected: place <job> worker|ps <idx> <machine> <gpu>")
            first, first_spread = place_lines.setdefault(name, (lineno, spread))
            if spread != first_spread:
                how = ("slot", "spread")
                fail(lineno, f"job {name!r}: {how[spread]} placement contradicts the "
                             f"{how[first_spread]} placement on line {first}")
            if spread:
                if first != lineno:
                    fail(lineno, f"job {name!r}: second spread placement (first on line {first})")
                continue
            try:
                index, machine, gpu = (integer(t) for t in tokens[3:])
            except ValueError:
                fail(lineno, "place indices must be integers")
            group = explicit.setdefault(name, {"worker": {}, "ps": {}})[tokens[2]]
            if index in group:
                fail(lineno, f"job {name!r}: {tokens[2]} {index} is already placed")
            group[index] = (machine, gpu)
            slot_lines.append((lineno, (machine, gpu)))
        elif head == "steps":
            if len(tokens) != 2:
                fail(lineno, "expected: steps <n>")
            try:
                steps = integer(tokens[1])
            except ValueError:
                fail(lineno, "steps must be an integer")
            if steps < 1:
                fail(lineno, "steps must be >= 1")
        else:
            fail(lineno, f"unknown directive {head!r}")

    for name, (lineno, _) in place_lines.items():
        if name not in job_lines:
            fail(lineno, f"place line for undeclared job {name!r}")
    booked: dict[tuple[int, int], int] = {}
    for lineno, (machine, gpu) in slot_lines:
        if not 0 <= machine < cluster.machines:
            raise CapacityError(f"line {lineno}: machine {machine} outside the "
                                f"{cluster.machines}-machine cluster")
        if not 0 <= gpu < cluster.gpus_per_machine:
            raise CapacityError(f"line {lineno}: gpu {gpu} outside a "
                                f"{cluster.gpus_per_machine}-GPU machine")
        if (machine, gpu) in booked:
            raise CapacityError(f"line {lineno}: slot ({machine}, {gpu}) already taken "
                                f"on line {booked[machine, gpu]}")
        booked[machine, gpu] = lineno

    taken = set(booked)
    jobs = []
    for name, (lineno, kv) in job_lines.items():
        ref = kv["model"]
        try:
            model = resolve_model(ref)
        except UnknownModelError as exc:
            raise ScenarioError(f"line {lineno}: job {name!r}: {exc.args[0]}") from exc
        except (DescriptorError, OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"line {lineno}: job {name!r}: {ref}: {file_error(exc)}") from exc
        try:
            spec = _job_spec(model, kv)
        except ValueError as exc:
            fail(lineno, f"job {name!r}: {exc}")
        if name in explicit:
            groups = explicit[name]
            for kind, count in (("worker", spec.worker_count), ("ps", spec.ps_count)):
                if groups[kind] and not count:
                    fail(lineno, f"job {name!r} has no {kind} processes to place")
                if sorted(groups[kind]) != list(range(count)):
                    fail(lineno, f"job {name!r}: {kind} placements must cover 0..{count - 1}")
            placement = Placement(
                workers=tuple(groups["worker"][i] for i in range(spec.worker_count)),
                ps=tuple(groups["ps"][i] for i in range(spec.ps_count)),
            )
        else:
            try:
                placement, = spread_placement(cluster, [(spec.worker_count, spec.ps_count)], taken)
            except CapacityError as exc:
                raise CapacityError(f"line {lineno}: job {name!r}: {exc}") from None
            taken.update(placement.workers, placement.ps)
        jobs.append((name, spec, placement))
    return Scenario(cluster=cluster, jobs=tuple(jobs), steps=steps)
