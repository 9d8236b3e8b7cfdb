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
flow a round froze runs at the round's level, so the loop times flows
one round at a time, and takes a round's bytes off its flows only when
the round is dropped (see _Env).

A job's step is a small task graph, built once per job by one function
per strategy, re-armed each step, and run by one event loop for all
jobs.  A builder computes its strategy's constants from the model's
cached sums and returns the step's per-worker PS computation.  A task is
either a delay (compute, memcopy or PS work, or a transfer that needs no
network) or a flow of bytes between two machines, and it starts once all
its predecessors have finished.  A transfer within one machine is a
delay at the intra-machine rate, and an empty transfer is a zero-second
delay.  A baseline PS shard that holds no parameter moves no byte and
does no work, so it builds no task.  A delay or flow that a cluster
rate would make endless is rejected when the graph is built, and a run
whose clock would pass the float range stops with a ScenarioError
naming the job.  Only simulated steps advance the clock, so a lone job
whose repeated steps' mean step time passes the float range raises that
error too.  So does a run in which a job's steps take no time, whose
throughput would be undefined.
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
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property, reduce
from typing import Callable, Iterable, Optional

from . import fairshare
from .catalog import UnknownModelError
from .costmodel import JobSpec, Strategy, StrategyKind, compute_load
from .descriptor import DescriptorError, file_error, integer, number, parse_pairs
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
        if self.steps > sys.maxsize:  # past any list's length: no report holds them
            raise ScenarioError(f"job {self.jobs[0][0]!r}: {self.steps} steps are more than "
                                "a report can hold")
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
    replica_counts: Iterable[tuple[int, int]],
    taken: Optional[Iterable[tuple[int, int]]] = None,
) -> list[Placement]:
    """Assign slots so each job's replicas land on distinct machines first.

    replica_counts: (worker_count, ps_count) per job, read one job at a
    time.  Workers are placed before PS processes; each replica goes to the
    least-loaded machine with a free slot (ties to the lowest machine
    index), counting the ``taken`` slots as load.  A machine no slot is
    taken on has the least load, so untouched machines come lowest first
    from a lazy stream; each touched machine waits in one heap as (load,
    index, first GPU that may be free).  A claim costs O(log machines
    touched), and nothing is held per machine of the cluster.
    """
    machines, gpus = cluster.machines, cluster.gpus_per_machine
    taken = set(taken or ())
    load: dict[int, int] = {}
    for machine, _ in taken:
        if 0 <= machine < machines:
            load[machine] = load.get(machine, 0) + 1
    touched = [(n, m, 0) for m, n in load.items()]
    heapq.heapify(touched)
    untouched = itertools.filterfalse(load.__contains__, range(machines))

    def claim() -> tuple[int, int]:
        for m in untouched:
            heapq.heappush(touched, (1, m, 1))
            return m, 0
        while touched:
            n, m, first = touched[0]
            for g in range(first, gpus):
                if (m, g) not in taken:
                    heapq.heapreplace(touched, (n + 1, m, g + 1))
                    return m, g
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


def _sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0.  Since Python 3.12 the
    built-in ``sum`` compensates float rounding, so report totals summed
    with it would differ in the last digit between supported Pythons."""
    return reduce(operator.add, values, 0.0)


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

    @cached_property
    def total_duration(self) -> float:
        return _sum(self.step_durations)

    @cached_property
    def total_communication(self) -> float:
        return _sum(self.communication)

    @property
    def avg_step_time(self) -> float:
        return self.total_duration / len(self.step_durations)

    @cached_property
    def max_step_time(self) -> float:
        return max(self.step_durations)

    def to_dict(self) -> dict:
        record = {name: list(getattr(self, name)) for name in _BUCKETS}
        record["avg_step_time"] = self.avg_step_time
        record["max_step_time"] = self.max_step_time
        return record


_BUCKETS = tuple(f.name for f in fields(StepBreakdown))


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
        return _sum(s.max_step_time for s in self.steps) / len(self.steps)

    @property
    def images_per_sec(self) -> float:
        return self.worker_count * self.batch_size / self.avg_step_time

    @property
    def comm_fraction(self) -> float:
        comm = _sum(s.total_communication for s in self.steps)
        total = _sum(s.total_duration for s in self.steps)
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
        writer.writerow(("job", "step", "worker", *_BUCKETS, "step_duration"))
        for job in self.jobs:
            for i, step in enumerate(job.steps, 1):
                columns = (*(getattr(step, name) for name in _BUCKETS), step.step_durations)
                for w, row in enumerate(zip(*columns)):
                    writer.writerow((job.job, i, w, *row))
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
    what makes the baseline's PS link the bottleneck.  With more shards
    than weighted layers the last ones hold 0 bytes, and build no task."""
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

    Every flow a round of the last solve froze runs at the round's level,
    so each round is one clock.  The round table holds, per round, its
    flows, their rate and ``since``, the instant at which their
    ``remaining`` holds; ``ends`` holds when its lead, the flow with the
    fewest bytes left at ``since``, finishes, computed once, as the round
    is made.  Rounding is monotone, so no flow of the round ends before
    its lead.  The next flow finish is the earliest end, and only rounds
    that end then are searched for flows that end at that instant.  A
    round's flows are brought to the clock, with one ``remaining -= rate
    × (now − since)`` each, only when the round is dropped.  A solve
    leaves its first ``FairShare.kept`` rounds as they were, with the same
    flows at the same rates, so their entries stay true; the others are
    brought to the clock and dropped.  A departure refills from its flow's
    round, so an instant that finishes flows brings the rounds from the
    first that holds one of them to that instant, and drops them, before
    any task starts again: a finished flow whose task restarts then is
    never charged for its last round.

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
        # The round table: (flows, rate, since) per round of the last solve
        # that froze flows, and when each round's lead finishes.
        rounds: list[tuple[list[_Task], float, float]] = []
        ends: list[float] = []
        while heap or flows:
            now = self.now
            if flows and changes:
                share.solve()
                kept = share.kept
                _bring(rounds, kept, now)
                del rounds[kept:], ends[kept:]
                for _, _, _, group in log[kept:]:
                    if group:
                        lead = min(group, key=_remaining)
                        rate = lead.rate
                        # remaining / inf == 0.0: an infinite-rate flow ends
                        # now.  A flow at rate 0 is an engine fault.
                        try:
                            ends.append(now + lead.remaining / rate)
                        except ZeroDivisionError:
                            raise RuntimeError(
                                "simulation deadlock: pending work cannot progress") from None
                        rounds.append((group, rate, now))

            next_heap = heap[0][0] if heap else inf
            next_flow = min(ends) if ends else inf
            t_next = next_flow if next_flow < next_heap else next_heap
            if t_next == inf:
                # The heap's head, or every flow, ends past the float range.
                late = heap[0][2] if heap else next(iter(flows))
                raise ScenarioError(f"job {late.job.name!r}: the simulated clock passes the "
                                    f"float range after {now!r} s")
            self.now = t_next

            done = ()
            if next_flow == t_next:
                # Flows of one round with different bytes left can end at
                # one instant after rounding.  The next solve refills from
                # the first round that holds one, so the rounds from there
                # are brought to this instant and dropped before any task
                # starts again.
                first = ends.index(t_next)
                done = []
                for (group, rate, since), end in zip(rounds[first:], ends[first:]):
                    if end == t_next:
                        done += [f for f in group if since + f.remaining / rate == t_next]
                done.sort(key=_started)
                _bring(rounds, first, t_next)
                del rounds[first:], ends[first:]
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


def _bring(rounds, first: int, now: float):
    """Bring the flows of ``rounds[first:]`` to ``now``: each round takes
    the same bytes, rate × the time since its ``since``, off each of its
    flows.  A round made at ``now`` is left alone, so an infinite rate
    never meets a zero time."""
    for group, rate, since in rounds[first:]:
        if now > since:
            step = rate * (now - since)
            for flow in group:
                flow.remaining -= step


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

    def _gradients_to_host(self) -> list[_Task]:
        """Each worker's pass over the whole model, then the copy of its
        gradients to the host; the copies, in worker order."""
        flops, nbytes = compute_load(self.model)[0], self.model.total_param_bytes
        copies = []
        for i in range(self.spec.worker_count):
            compute = self._delay((), flops, "gpu_flops_per_sec", self.compute_acc, i)
            copies.append(self._delay([compute], nbytes, "memcopy_bytes_per_sec",
                                      self.memcopy_acc, i))
        return copies

    def _params_to_device(self, i: int, after, nbytes: int):
        """Worker ``i``'s copy of ``nbytes`` of parameters to the device,
        the last task of its step."""
        self._delay(after, nbytes, "memcopy_bytes_per_sec", self.memcopy_acc, i, last=i)

    def _baseline_step(self) -> float:
        """Workers push each shard to its PS, which aggregates it, and pull
        it back.  An empty shard builds no task, but a model with no
        parameters keeps shard 0: each worker's last copy still waits for
        every worker's gradient copy."""
        model, w = self.model, self.spec.worker_count
        shard_bytes = _shard_bytes(model, self.spec.ps_count)
        shards = ([(m, n) for m, n in zip(self.ps_machines, shard_bytes) if n]
                  or [(self.ps_machines[0], 0)])
        copies = list(zip(self.worker_machines, self._gradients_to_host()))
        pulls = [[] for _ in self.worker_machines]
        aggs = []
        for ps_machine, nbytes in shards:
            pushes = [self._flow([d2h], me, ps_machine, nbytes) for me, d2h in copies]
            agg = self._delay(pushes, (nbytes // model.bytes_per_element) * w, "gpu_flops_per_sec")
            aggs.append(agg)
            for pulled, me in zip(pulls, self.worker_machines):
                pulled.append(self._flow([agg], ps_machine, me, nbytes))
        for i, after in enumerate(pulls):
            self._params_to_device(i, after, model.total_param_bytes)
        return max(agg.seconds for agg in aggs)

    def _ralp_step(self) -> float:
        model, w = self.model, self.spec.worker_count
        split, ps_machine = self.spec.strategy.split_index, self.ps_machines[0]
        worker_flops, ps_flops = compute_load(model, split)
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
            self._params_to_device(i, [pull], params)
        return back.seconds + agg.seconds  # every worker's back batch takes as long

    def _ring_step(self) -> float:
        w = self.spec.worker_count
        model_bytes = self.model.total_param_bytes
        shares = _split_bytes(2 * model_bytes * (w - 1), w)
        sends = []
        for i, (me, d2h) in enumerate(zip(self.worker_machines, self._gradients_to_host())):
            peer = self.worker_machines[(i + 1) % w]
            sends.append(self._flow([d2h], me, peer, shares[i]))
        for i in range(w):
            self._params_to_device(i, sends, model_bytes)
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
    passes the float range raises the clock's ScenarioError.  A step count
    that no list can hold fails when the Scenario is built, before any
    event; one that a lone job's report has no memory for is a
    ScenarioError naming the job."""
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
            try:
                run.records *= scenario.steps
            except MemoryError:
                raise ScenarioError(f"job {run.name!r}: {scenario.steps} steps are more than "
                                    "a report can hold") from None
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
    base_jobs = scenario.jobs
    # Spread reads the copies one at a time, so a count past the cluster's
    # capacity fails when the cluster fills, before any per-copy list.
    placements = spread_placement(
        scenario.cluster,
        ((spec.worker_count, spec.ps_count) for _ in range(copies) for _, spec, _ in base_jobs),
    )
    named = ((f"{name}/{c}" if copies > 1 else name, spec)
             for c in range(copies) for name, spec, _ in base_jobs)
    consolidated = Scenario(
        cluster=scenario.cluster,
        jobs=tuple((name, spec, placement) for (name, spec), placement in zip(named, placements)),
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
_CLUSTER_KEYS = {key: integer if key in ("machines", "gpus") else number for key in _CLUSTER_FIELDS}
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
                raise ScenarioError(f"model {model.name} is not partitionable "
                                    f"({report.no_split_reason}); use strategy=baseline")
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
    ``batch`` take integers, the four rates numbers (``integer`` and
    ``number``), ``split`` an integer or ``auto``.  An integer, in place and
    steps lines too, is ASCII digits after an optional ``-``.

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
