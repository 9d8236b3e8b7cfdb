"""Layer-level representation of CNN training workloads.

A model is an ordered chain of layers.  Everything downstream (the split
planner, the communication cost model, the simulator) consumes only three
numbers per layer: parameter count, per-sample output size, and forward
multiply-add flops.  This module defines the layer kinds and the chain
types that hold those numbers; the descriptor parser derives them.  A
layer is a checked tuple record.  A model is the one record of its
per-layer numbers: it derives each column, byte size and sum once, from
one transposition of its layers, and every consumer reads those tuples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, repeat
from typing import Iterable, NamedTuple


class ModelError(ValueError):
    """Raised when a layer chain violates a structural constraint."""


class LayerKind(enum.Enum):
    CONVOLUTION = "conv"
    POOLING = "pool"
    FULLY_CONNECTED = "fc"
    NORMALIZATION = "norm"
    ACTIVATION = "act"
    FLATTEN = "flatten"
    CONCAT = "concat"
    RESIDUAL_ADD = "add"
    LOSS = "loss"
    # Fused subgraph (e.g. an inception branch conv or a bottleneck conv with
    # batch norm folded in) whose totals are given explicitly.
    BLOCK = "block"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and keeps set lookups out of Python code.
    __hash__ = object.__hash__


# The members as module constants, for code that runs once per layer:
# reading a member through its enum class takes about ten times as long
# as reading a module global.
CONVOLUTION = LayerKind.CONVOLUTION
POOLING = LayerKind.POOLING
FULLY_CONNECTED = LayerKind.FULLY_CONNECTED
FLATTEN = LayerKind.FLATTEN
LOSS = LayerKind.LOSS
BLOCK = LayerKind.BLOCK

# Kinds that may carry parameters.
PARAMETERIZED_KINDS = frozenset({CONVOLUTION, FULLY_CONNECTED, BLOCK})

# Kinds the split planner must not cut between (compute-heavy layers).
COMPUTE_DEMAND_KINDS = frozenset({CONVOLUTION, BLOCK})

# Bound on a model's byte and flop totals.  The simulator turns them into
# floats and scales them by a few layer and worker counts; the bound
# leaves those factors 2**64 of room below the float range.  The
# profiler neither turns sizes into floats nor cubes them: its moments are
# exact integers, and the bound keeps its skewness, which grows as the
# square root of the ratio of two sizes, far inside the float range.
FLOAT_TOTAL_LIMIT = 2**960


# LayerSpec's fields.  A NamedTuple may not define __new__ in its own body,
# so the checks live in the subclass.
class _LayerFields(NamedTuple):
    name: str
    kind: LayerKind
    param_count: int
    output_elems_per_sample: int
    compute_flops_per_sample: int


class LayerSpec(_LayerFields):
    """One forward-pass layer: an immutable tuple record of its five fields.

    Its 1-based index is its position in the owning ModelGraph.  ``param_count``
    and ``output_elems_per_sample`` are element counts; byte sizes come from
    the owning ModelGraph's element width and batch size.  Every way of
    building one (the constructor, ``_make``, ``_replace``, pickle and
    ``copy``) goes through the checks in ``__new__``, except one: the
    descriptor parser copies a record it already checked under another
    layer's name with ``tuple.__new__``.  That is safe because the checks
    read the kind and the three counts, which the copy keeps, and the name
    only to word their message.
    """

    __slots__ = ()

    def __new__(cls, name: str, kind: LayerKind, param_count: int,
                output_elems_per_sample: int, compute_flops_per_sample: int) -> "LayerSpec":
        if param_count < 0 or output_elems_per_sample < 0 or compute_flops_per_sample < 0:
            raise ModelError(f"layer {name}: negative derived quantity")
        if param_count > 0 and kind not in PARAMETERIZED_KINDS:
            raise ModelError(f"layer {name}: kind {kind.value} cannot carry parameters")
        if output_elems_per_sample == 0 and kind is not LOSS:
            raise ModelError(f"layer {name}: empty output on a non-loss layer")
        return tuple.__new__(cls, (name, kind, param_count, output_elems_per_sample,
                                   compute_flops_per_sample))

    @classmethod
    def _make(cls, iterable: Iterable) -> "LayerSpec":
        # NamedTuple's own _make skips __new__, and _replace calls _make.
        return cls(*iterable)


@dataclass(frozen=True)
class ModelGraph:
    """Ordered layer chain plus the training configuration it is profiled at."""

    name: str
    layers: tuple[LayerSpec, ...]
    batch_size: int
    bytes_per_element: int = 4

    def __post_init__(self) -> None:
        if not self.layers:
            raise ModelError(f"model {self.name}: empty layer chain")
        if not all(map(isinstance, self.layers, repeat(LayerSpec))):
            bad = next(l for l in self.layers if not isinstance(l, LayerSpec))
            raise ModelError(f"model {self.name}: layers must be LayerSpec records, "
                             f"got {type(bad).__name__}")
        if self.batch_size < 1:
            raise ModelError(f"model {self.name}: batch_size must be >= 1")
        if self.bytes_per_element < 1:
            raise ModelError(f"model {self.name}: bytes_per_element must be >= 1")
        # A plain sum of flops: a planning pass never needs flops_prefix.
        _, _, _, outputs, flops = self.columns
        step_bytes = self.batch_size * self.bytes_per_element
        for what, total in (
            ("parameter bytes", self.total_param_bytes),
            ("activation bytes per step", max(outputs) * step_bytes),
            ("training flops per step", 3 * sum(flops) * self.batch_size),
        ):
            if total >= FLOAT_TOTAL_LIMIT:
                raise ModelError(f"model {self.name}: {what} reach 2**960, "
                                 "too large for float arithmetic")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # Each column, per-layer tuple and total below is computed once per
    # instance, on first use.  ``replace`` builds a new instance, which
    # starts without them.  Per-layer tuples are 0-based: entry i is layer
    # i + 1.
    @cached_property
    def columns(self) -> tuple[tuple, ...]:
        """The layers transposed, one tuple per LayerSpec field: names, kinds,
        parameter counts, output elements and flops."""
        return tuple(zip(*self.layers))

    @cached_property
    def kind_values(self) -> tuple[str, ...]:
        _, kinds, _, _, _ = self.columns
        return tuple([k._value_ for k in kinds])  # .value is a Python-level property

    @cached_property
    def param_bytes(self) -> tuple[int, ...]:
        _, _, params, _, _ = self.columns
        elem = self.bytes_per_element
        return tuple([p * elem for p in params])

    @cached_property
    def output_bytes(self) -> tuple[int, ...]:
        """Per-step activation sizes at the configured batch."""
        _, _, _, outputs, _ = self.columns
        step = self.batch_size * self.bytes_per_element
        return tuple([o * step for o in outputs])

    @cached_property
    def cumulative_param_bytes(self) -> tuple[int, ...]:
        """Entry i holds the parameter bytes of layers 1..i + 1."""
        return tuple(accumulate(self.param_bytes))

    @cached_property
    def flops_prefix(self) -> tuple[int, ...]:
        """Entry i holds the forward flops of layers 1..i, so entry 0 is 0
        and the last entry is the whole model."""
        _, _, _, _, flops = self.columns
        return tuple(accumulate(flops, initial=0))

    @cached_property
    def total_param_count(self) -> int:
        _, _, params, _, _ = self.columns
        return sum(params)

    @property
    def total_param_bytes(self) -> int:
        """Model size in bytes (houses the aggregate synchronized each step)."""
        return self.bytes_per_element * self.total_param_count

    @cached_property
    def profile_memo(self) -> dict:
        """Where ``profile`` keeps what it computes from the columns on first
        use: the split search, and the skewness of each mode."""
        return {}

    def with_batch_size(self, batch_size: int) -> "ModelGraph":
        return replace(self, batch_size=batch_size)

