"""Shared builders for synthetic models and scenarios."""

from __future__ import annotations

import numpy as np

from ralp.layers import LayerKind, LayerSpec, ModelGraph

# Kind pools for random chains: weighted kinds get random parameter counts.
_WEIGHTED = (LayerKind.CONVOLUTION, LayerKind.FULLY_CONNECTED, LayerKind.BLOCK)
_FREE = (LayerKind.POOLING, LayerKind.NORMALIZATION, LayerKind.ACTIVATION)


def make_layer(index: int, kind: LayerKind, params: int, out: int, flops: int = 0) -> LayerSpec:
    return LayerSpec(
        name=f"l{index}",
        kind=kind,
        param_count=params,
        output_elems_per_sample=out,
        compute_flops_per_sample=flops,
    )


def random_model(rng: np.random.Generator, max_layers: int = 64, name: str = "synthetic") -> ModelGraph:
    """Random layer chain with realistic magnitudes and mixed kinds."""
    n = int(rng.integers(1, max_layers + 1))
    layers = []
    for i in range(1, n + 1):
        if rng.random() < 0.6:
            kind = _WEIGHTED[rng.integers(0, len(_WEIGHTED))]
            params = int(rng.integers(1, 1_000_000))
        else:
            kind = _FREE[rng.integers(0, len(_FREE))]
            params = 0
        out = int(rng.integers(1, 500_000))
        flops = int(rng.integers(0, 10_000_000))
        layers.append(make_layer(i, kind, params, out, flops))
    batch = int(rng.integers(1, 65))
    return ModelGraph(name=name, layers=tuple(layers), batch_size=batch)


def fc_tail_model(
    rng: np.random.Generator, name: str = "fc-tail", front_layers: int = 4, back_layers: int = 2
) -> ModelGraph:
    """Conv front + pool + fully-connected tail holding most of the parameters."""
    layers = []
    idx = 1
    for _ in range(front_layers):
        layers.append(
            make_layer(
                idx,
                LayerKind.CONVOLUTION,
                params=int(rng.integers(1_000, 50_000)),
                out=int(rng.integers(10_000, 200_000)),
                flops=int(rng.integers(1_000_000, 50_000_000)),
            )
        )
        idx += 1
    layers.append(make_layer(idx, LayerKind.POOLING, 0, int(rng.integers(1_000, 5_000))))
    idx += 1
    for _ in range(back_layers):
        layers.append(
            make_layer(
                idx,
                LayerKind.FULLY_CONNECTED,
                params=int(rng.integers(1_000_000, 20_000_000)),
                out=int(rng.integers(100, 4_096)),
                flops=int(rng.integers(100_000, 5_000_000)),
            )
        )
        idx += 1
    return ModelGraph(name=name, layers=tuple(layers), batch_size=int(rng.integers(1, 33)))
