"""Closed-form per-step communication volumes and compute loads.

Three aggregation strategies are modeled:

* baseline parameter server: every worker pushes gradients for the whole
  model and pulls the whole model back, so 2*S*W bytes cross the network
  per step;
* ring allreduce: 2*S*(W-1) bytes per step across W peers, no server;
* split placement ("ralp"): the back segment lives in the PS machine, so
  only the cut activation (both directions) and the front-segment
  parameters (both directions) travel, per worker.

W counts synchronizing network endpoints; reduction among devices inside
one endpoint is treated as free.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .layers import ModelGraph
from .profiler import ProfilerConfig, profile

CSV_HEADER = "model,strategy,W,total_bytes,param_bytes,activation_bytes"


class CostModelError(ValueError):
    pass


def _check_workers(worker_count: int) -> None:
    if worker_count < 1:
        raise CostModelError("worker_count must be >= 1")


def _check_split(model: ModelGraph, split_index: int) -> None:
    """CostModelError unless the model can be split after layer
    ``split_index``: after any layer but the last."""
    if not 1 <= split_index < model.num_layers:
        raise CostModelError(
            f"split_index {split_index} out of range for {model.num_layers}-layer model"
        )


class StrategyKind(str, enum.Enum):
    BASELINE_PS = "baseline"
    RALP = "ralp"
    RING_ALLREDUCE = "ring"


@dataclass(frozen=True)
class Strategy:
    kind: StrategyKind
    split_index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is StrategyKind.RALP and self.split_index is None:
            raise CostModelError("ralp strategy needs a split_index")
        if self.kind is not StrategyKind.RALP and self.split_index is not None:
            raise CostModelError(f"{self.kind.value} strategy does not take a split_index")

    @classmethod
    def baseline(cls) -> "Strategy":
        return cls(StrategyKind.BASELINE_PS)

    @classmethod
    def ralp(cls, split_index: int) -> "Strategy":
        return cls(StrategyKind.RALP, split_index)

    @classmethod
    def ring(cls) -> "Strategy":
        return cls(StrategyKind.RING_ALLREDUCE)


@dataclass(frozen=True)
class JobSpec:
    model: ModelGraph
    strategy: Strategy
    worker_count: int
    ps_count: int = 1

    def __post_init__(self) -> None:
        _check_workers(self.worker_count)
        kind = self.strategy.kind
        if kind is StrategyKind.RALP and self.ps_count != 1:
            raise CostModelError("split placement runs exactly one PS worker")
        if kind is StrategyKind.RING_ALLREDUCE and self.ps_count != 0:
            raise CostModelError("ring allreduce runs without parameter servers")
        if kind is StrategyKind.BASELINE_PS and self.ps_count < 1:
            raise CostModelError("baseline needs at least one parameter server")
        if kind is StrategyKind.RALP:
            _check_split(self.model, self.strategy.split_index)


@dataclass(frozen=True)
class StrategyVolumes:
    """Bytes one training step moves over the network: parameter sync plus
    activations.  The total is their sum."""

    parameter_sync_bytes: int
    activation_bytes: int

    def __post_init__(self) -> None:
        if min(self.parameter_sync_bytes, self.activation_bytes) < 0:
            raise CostModelError("negative volume")

    @property
    def total_bytes_per_step(self) -> int:
        return self.parameter_sync_bytes + self.activation_bytes


def volume_baseline(model: ModelGraph, worker_count: int) -> StrategyVolumes:
    """Each worker pushes gradients of size S and pulls parameters of size S."""
    _check_workers(worker_count)
    return StrategyVolumes(parameter_sync_bytes=2 * model.total_param_bytes * worker_count,
                           activation_bytes=0)


def volume_ring(model: ModelGraph, worker_count: int) -> StrategyVolumes:
    """Ring allreduce exchanges 2*S*(W-1) bytes per step across W peers."""
    _check_workers(worker_count)
    return StrategyVolumes(parameter_sync_bytes=2 * model.total_param_bytes * (worker_count - 1),
                           activation_bytes=0)


def volume_ralp(model: ModelGraph, split_index: int, worker_count: int) -> StrategyVolumes:
    """Split placement: activations cross the cut both ways, front-segment
    parameters sync both ways; back-segment parameters never touch the
    network."""
    _check_workers(worker_count)
    _check_split(model, split_index)
    return StrategyVolumes(
        parameter_sync_bytes=worker_count * 2 * model.cumulative_param_bytes[split_index - 1],
        activation_bytes=worker_count * 2 * model.output_bytes[split_index - 1],
    )


def _volumes(
    model: ModelGraph, kind: StrategyKind, split_index: Optional[int], worker_count: int
) -> StrategyVolumes:
    """Volumes of one strategy.  A split plan without a split (the model is
    not partitionable) degenerates to the baseline, which is what the
    runtime would fall back to."""
    if kind is StrategyKind.RING_ALLREDUCE:
        return volume_ring(model, worker_count)
    if kind is StrategyKind.RALP and split_index is not None:
        return volume_ralp(model, split_index, worker_count)
    return volume_baseline(model, worker_count)


def volumes_for(job: JobSpec) -> StrategyVolumes:
    return _volumes(job.model, job.strategy.kind, job.strategy.split_index, job.worker_count)


def compute_load(model: ModelGraph, split_index: Optional[int] = None) -> tuple[int, int]:
    """(worker_flops_per_step, ps_flops_per_worker_batch).

    Forward plus backward, with backward costed at twice the forward pass.
    With a split, the PS worker runs the back segment once per arriving
    worker batch, so a step costs it the second value once per worker;
    without one, all layer compute stays on the workers and the PS does
    aggregation only (not counted here).
    """
    n = model.num_layers
    if split_index is None:
        split_index = n
    if not 1 <= split_index <= n:
        raise CostModelError(f"split_index {split_index} out of range for {n}-layer model")
    front_fwd = model.flops_prefix[split_index]
    back_fwd = model.flops_prefix[n] - front_fwd
    return 3 * front_fwd * model.batch_size, 3 * back_fwd * model.batch_size


@dataclass(frozen=True)
class VolumeRow:
    model: str
    strategy: str
    worker_count: int
    volumes: StrategyVolumes


def compare_strategies(
    model: ModelGraph,
    worker_counts: Sequence[int],
    kinds: Iterable[StrategyKind] = tuple(StrategyKind),
    split_index: Optional[int] = None,
) -> list[VolumeRow]:
    """Tabulate volumes for each (strategy, W).

    For the split strategy, the split defaults to the profiler's choice
    under the default ``ProfilerConfig``; the model caches that choice, so
    a model already profiled is not searched again.
    """
    if not worker_counts:
        raise CostModelError("worker_counts must be nonempty")
    kinds = list(kinds)
    if StrategyKind.RALP in kinds and split_index is None:
        report = profile(model, ProfilerConfig())
        split_index = report.split_index
    return [
        VolumeRow(model.name, kind._value_, w, _volumes(model, kind, split_index, w))
        for kind in kinds
        for w in worker_counts
    ]


def gpu_assignments(total_gpus: int) -> dict[str, dict[str, int]]:
    """Worker/PS device accounting per plan for a given device budget.

    baseline splits the budget evenly between workers and parameter
    servers; ring uses every device as a worker; the split plan comes in a
    resource-saving variant (half the devices plus one PS) and a
    throughput variant (all devices, one of them the PS).
    """
    if total_gpus < 2:
        raise CostModelError("need at least 2 devices")
    half = total_gpus // 2
    return {
        "baseline": {"workers": half, "ps": total_gpus - half, "gpus": total_gpus},
        "ring": {"workers": total_gpus, "ps": 0, "gpus": total_gpus},
        "ralp-h": {"workers": half, "ps": 1, "gpus": half + 1},
        "ralp-n": {"workers": total_gpus - 1, "ps": 1, "gpus": total_gpus},
    }


def _table_row(row: VolumeRow) -> tuple:
    """One row of the volume table, in ``CSV_HEADER``'s order."""
    v = row.volumes
    return (row.model, row.strategy, row.worker_count,
            v.total_bytes_per_step, v.parameter_sync_bytes, v.activation_bytes)


def rows_to_csv(rows: Sequence[VolumeRow]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(map(_table_row, rows))
    return out.getvalue()


def rows_to_json(rows: Sequence[VolumeRow]) -> str:
    columns = CSV_HEADER.split(",")
    return json.dumps([dict(zip(columns, _table_row(row))) for row in rows], indent=2)
