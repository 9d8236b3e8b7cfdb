"""Shared builders for synthetic models and scenarios, the input mutator
that the fuzz and the parse-outcome digest share, and a fixture that
certifies every fair-share solve a test makes."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import settings

from maxmin_certificate import certified
from ralp.layers import LayerKind, LayerSpec, ModelGraph

# Every run of one commit tests the same examples, locally and in CI: no
# random seed, and no database replaying examples found by earlier runs.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def certified_solves(monkeypatch):
    """Check every solve of every ``FairShare`` the test makes against the
    max-min certificate, at its 1e-9 relative tolerance, and fail the test
    at the first solve that does not pass.  Returns the number of flows in
    flight at each solve so far."""
    from ralp import fairshare

    sizes = []

    def report(flows, problems):
        if problems:
            pytest.fail(f"solve {len(sizes)} of {len(flows)} flows is not max-min fair: "
                        f"{problems[:3]}")
        sizes.append(len(flows))

    monkeypatch.setattr(fairshare, "FairShare", certified(fairshare.FairShare, report))
    return sizes


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


# Replacement words for mutated inputs: small integers only, so no input
# asks for a huge cluster, plus tokens that are valid somewhere else in the
# two formats, among them every explicit-layer and derived-layer key.
JUNK_INTEGERS = (-2, 64)
JUNK_WORDS = (
    "x", "=", "", "0x0x3", "4x4", "1e3", "nan", "inf", "-0", "#", "auto",
    "ring", "ralp", "baseline", "conv", "fc", "block", "pool", "model",
    "job", "place", "spread", "steps", "cluster", "k=3", "out=", "=3",
    "params=5", "flops=7", "shape=2x2x3", "cin=3", "cout=8", "window=2",
    "stride=2", "pad=1", "in=4",
)
MUTATION_OPS = ("drop", "duplicate", "swap", "insert", "value", "drop-line", "copy-line")


def random_mutations(rng: random.Random) -> list[tuple[str, int, int, str]]:
    """One to three mutations drawn from ``rng``, in ``mutate``'s form."""
    lo, hi = JUNK_INTEGERS
    return [
        (rng.choice(MUTATION_OPS), rng.randint(0, 1 << 16), rng.randint(0, 1 << 16),
         rng.choice(JUNK_WORDS) if rng.random() < 0.5 else str(rng.randint(lo, hi)))
        for _ in range(rng.randint(1, 3))
    ]


def mutate(text: str, mutations) -> str:
    """``text`` with each ``(op, a, b, junk)`` applied in turn: ``a`` picks
    the line, ``b`` the word, and ``junk`` is the word put in."""
    lines = text.splitlines()
    for op, a, b, junk in mutations:
        if not lines:
            lines.append(junk)
            continue
        row = a % len(lines)
        if op == "drop-line":
            del lines[row]
            continue
        if op == "copy-line":
            lines.insert(b % (len(lines) + 1), lines[row])
            continue
        tokens = lines[row].split()
        i = b % (len(tokens) + 1)
        if op == "insert" or not tokens:
            tokens.insert(i, junk)
        elif op == "drop":
            del tokens[i % len(tokens)]
        elif op == "duplicate":
            tokens.insert(i, tokens[i % len(tokens)])
        elif op == "swap":
            j = a % len(tokens)
            i %= len(tokens)
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:  # value: replace what follows '=' (or the whole token)
            i %= len(tokens)
            key, sep, _ = tokens[i].partition("=")
            tokens[i] = f"{key}={junk}" if sep else junk
        lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"
