"""Static model profiler: skewness gate and network-cost-minimizing split.

The profiler looks only at the model itself (parameter sizes, activation
sizes, layer kinds), never at runtime state, so its output is a pure
function of the model descriptor and the configuration.
"""

from __future__ import annotations

import enum
import json
import math
import operator
import warnings
from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

from .layers import COMPUTE_DEMAND_KINDS, LayerKind, ModelGraph


class ProfilerError(ValueError):
    """Raised on inputs the skewness statistic is undefined for."""


class SkewnessMode(str, enum.Enum):
    # Third standardized moment of the layer *index*, weighted by each
    # layer's share of the parameter mass.  Tail-heavy models come out
    # negative, matching the convention that negative = parameters
    # concentrated in the latter layers.
    INDEX_WEIGHTED = "index_weighted"
    # Third standardized moment of the parameter sizes themselves
    # (population denominators).  Kept for fidelity with the printed
    # formula; a few large values make this *positive* for tail-heavy
    # models, so it is not the default.
    LITERAL_VALUES = "literal_values"


@dataclass(frozen=True)
class ProfilerConfig:
    threshold: float = -0.5
    mode: SkewnessMode = SkewnessMode.INDEX_WEIGHTED

    def __post_init__(self) -> None:
        if not math.isfinite(self.threshold):
            raise ProfilerError(f"threshold must be finite, got {self.threshold!r}")
        try:
            mode = SkewnessMode(self.mode)
        except ValueError:
            raise ProfilerError(f"unknown skewness mode {self.mode!r}; "
                                "expected index_weighted or literal_values") from None
        object.__setattr__(self, "mode", mode)  # a mode given by its name
        if self.threshold >= 0:
            # A non-negative threshold admits right-skewed models, which the
            # partitioning rationale does not cover.  Warn, never alter.
            warnings.warn(
                f"threshold {self.threshold} is non-negative; the eligibility gate "
                "expects a negative cutoff",
                stacklevel=3,  # past the generated __init__, to the caller
            )


def _integers(sizes: Sequence[float]) -> list[int]:
    """The sizes as ints in the same proportions.  When one is not an int,
    each is read as the exact ratio of its float, and all are scaled by the
    largest denominator, a power of two that the others divide; the
    sequence is then read a second time, so it must not be an iterator."""
    try:
        return list(map(operator.index, sizes))
    except TypeError:
        ratios = [float(x).as_integer_ratio() for x in sizes]
    scale = max(d for _, d in ratios)
    return [a * (scale // d) for a, d in ratios]


def compute_skewness(
    params: Sequence[float], mode: SkewnessMode = SkewnessMode.INDEX_WEIGHTED
) -> float:
    """Skewness factor of the per-layer parameter distribution.

    Both modes are the moments of a value column under a weight column:
    index_weighted weighs the layer indices by the sizes, literal_values
    weighs each size by 1.  Skewness does not change with scale, so sizes
    that are not integers are first scaled to integers in the same
    proportions.  The moments are then exact integer power sums, and the
    result is rounded only by one true division and one square root, so it
    is within 1 ulp of the exact value.  It is 0.0 exactly when the second
    moment vanishes: in index_weighted mode when all the mass sits on one
    layer, in literal_values mode when every layer has the same size.
    A skewness past the float range, which takes sizes whose ratio passes
    2**2048, raises ProfilerError; a model's totals stay below 2**960.
    """
    try:
        p = _integers(params)
    except (TypeError, ValueError, OverflowError):
        raise ProfilerError("parameter sizes must be finite numbers") from None
    n = len(p)
    if n < 2:
        raise ProfilerError("skewness needs at least 2 layers")
    if min(p) < 0:
        raise ProfilerError("negative parameter sizes")
    if not any(p):
        raise ProfilerError("all layers carry zero parameters")

    if SkewnessMode(mode) is SkewnessMode.INDEX_WEIGHTED:
        values, weights = range(n), p  # indices from 0: moments are shift-free
    else:
        values, weights = p, [1] * n
    wv = list(map(operator.mul, weights, values))
    wv2 = list(map(operator.mul, wv, values))
    s0, s1, s2 = sum(weights), sum(wv), sum(wv2)
    s3 = sum(map(operator.mul, wv2, values))
    # s0**2 and s0**3 times the central moments m2 and m3.
    m2 = s0 * s2 - s1 * s1
    m3 = s0 * (s0 * s3 - 3 * s1 * s2) + 2 * s1**3
    # The skewness is m3 / m2**1.5, and 0 wherever m2 is (m3 is 0 there).
    # Its square m3**2 / m2**3 is taken times 4**e, which brings it near 1
    # so that it neither underflows nor overflows, and the root gives back
    # 2**e exactly.
    num, den = m3 * m3, m2**3 or 1
    e = (den.bit_length() - num.bit_length()) // 2
    square = (num << 2 * e) / den if e >= 0 else num / (den << -2 * e)
    try:
        skew = math.ldexp(math.sqrt(square), -e)
    except OverflowError:
        raise ProfilerError("the skewness is past the float range: the layer sizes "
                            "are too far apart") from None
    return -skew if m3 < 0 else skew


def _unjudged(cumulative_param_bytes: Sequence[int]) -> Optional[str]:
    """Why the skewness gate cannot judge a model with these cumulative
    parameter sizes, or None when it can."""
    if len(cumulative_param_bytes) < 2:
        return "it has fewer than 2 layers"
    return None if cumulative_param_bytes[-1] else "it has no parameters"


def _below(skewness: float, threshold: float) -> bool:
    if not math.isfinite(skewness):
        raise ProfilerError(f"non-finite skewness {skewness!r}")
    return skewness < threshold


def gate_eligibility(skewness: float, config: ProfilerConfig) -> bool:
    """True iff the model is skewed enough to partition (strict comparison)."""
    return _below(skewness, config.threshold)


@dataclass(frozen=True)
class SplitChoice:
    index: int
    cost_bytes: int


def find_split(
    param_bytes: Sequence[int],
    output_bytes: Sequence[int],
    kinds: Sequence[LayerKind],
) -> Optional[SplitChoice]:
    """Choose the split layer minimizing per-step network cost.

    The cost of splitting after layer i is O_i + sum(P_1..P_i): the cut
    activation plus every front-segment parameter that still crosses the
    network at aggregation.  Boundaries between two compute-demand layers
    (convolutions or fused blocks) are not candidates.  Ties go to the
    smallest index.  Splitting after the last layer offloads nothing, so
    when that degenerate point wins (including the all-convolution case
    where it is the only candidate) the result is None and the caller
    falls back to the plain parameter-server plan.
    """
    n = len(param_bytes)
    if n == 0 or len(output_bytes) != n or len(kinds) != n:
        raise ProfilerError("per-layer lists must be nonempty and equal length")

    compute = [k in COMPUTE_DEMAND_KINDS for k in kinds]
    best_index = 0
    best_cost = 0
    cum = 0
    for i in range(1, n + 1):
        cum += param_bytes[i - 1]
        if i < n and compute[i - 1] and compute[i]:
            continue
        cost = output_bytes[i - 1] + cum
        if best_index == 0 or cost < best_cost:
            best_index, best_cost = i, cost
    if best_index == n and n > 1:
        return None
    return SplitChoice(best_index, best_cost)


@dataclass(frozen=True)
class ProfileReport:
    """Per-layer sizes, skewness verdict, and the chosen split (if any).

    ``split_index``/``split_cost_bytes`` are present exactly when the
    skewness gate passed *and* a feasible split exists; ``eligible``,
    ``recommendation`` and ``no_split_reason`` are read from them.
    """

    model_name: str
    layer_names: tuple[str, ...]
    layer_kinds: tuple[str, ...]
    param_bytes: tuple[int, ...]
    output_bytes: tuple[int, ...]
    cumulative_param_bytes: tuple[int, ...]
    skewness: float
    threshold: float
    mode: str
    split_index: Optional[int]
    split_cost_bytes: Optional[int]
    # Taken and dropped, for callers written when ``eligible`` was a field,
    # such as a ``dataclasses.replace`` that sets it.  Not a field, so neither
    # stored nor compared; the property below replaces its default.
    eligible: InitVar[Optional[bool]] = None

    @property
    def eligible(self) -> bool:
        """The final partitioning decision."""
        return self.split_index is not None

    @property
    def recommendation(self) -> str:
        if self.split_index is None:
            return "no partitioning; train on the standard parameter-server plan"
        return f"partition after layer {self.split_index}; back segment runs in the PS machine"

    @property
    def no_split_reason(self) -> Optional[str]:
        """Why the model is not partitioned, or None when it is."""
        if self.split_index is not None:
            return None
        why = _unjudged(self.cumulative_param_bytes)
        if why is None and not _below(self.skewness, self.threshold):
            why = f"its skewness {self.skewness!r} is not below the threshold {self.threshold!r}"
        return why or ("it has no split point: each boundary before its last layer "
                       "is excluded or costs more than splitting after it")

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "layers": [
                {
                    "index": i + 1,
                    "name": self.layer_names[i],
                    "kind": self.layer_kinds[i],
                    "param_bytes": self.param_bytes[i],
                    "output_bytes": self.output_bytes[i],
                    "cumulative_param_bytes": self.cumulative_param_bytes[i],
                }
                for i in range(len(self.layer_names))
            ],
            "skewness": self.skewness,
            "threshold": self.threshold,
            "mode": self.mode,
            "eligible": self.eligible,
            "split_index": self.split_index,
            "split_cost_bytes": self.split_cost_bytes,
            "recommendation": self.recommendation,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def profile(model: ModelGraph, config: ProfilerConfig = ProfilerConfig()) -> ProfileReport:
    """Run the full static profile: skewness, gate, split choice.

    The report's per-layer tuples are the model's own.  The split search and
    each mode's skewness are computed once per model instance and kept in
    ``ModelGraph.profile_memo``, so profiling a model again, at any
    threshold or mode, only re-applies the gate."""
    memo = model.profile_memo
    mode = config.mode
    if _unjudged(model.cumulative_param_bytes) is not None:
        skew = 0.0
        passed_gate = False
    else:
        skew = memo.get(mode)
        if skew is None:
            skew = memo[mode] = compute_skewness(model.param_bytes, mode)
        passed_gate = gate_eligibility(skew, config)

    split = None
    if passed_gate:
        if "split" not in memo:
            memo["split"] = find_split(model.param_bytes, model.output_bytes, model.columns[1])
        split = memo["split"]

    return ProfileReport(
        model_name=model.name,
        layer_names=model.columns[0],
        layer_kinds=model.kind_values,
        param_bytes=model.param_bytes,
        output_bytes=model.output_bytes,
        cumulative_param_bytes=model.cumulative_param_bytes,
        skewness=skew,
        threshold=config.threshold,
        mode=mode._value_,
        split_index=split.index if split is not None else None,
        split_cost_bytes=split.cost_bytes if split is not None else None,
    )
