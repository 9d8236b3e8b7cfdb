"""Resource-aware layer placement: planner, cost model, and cluster simulator."""

from .catalog import UnknownModelError, catalog_lookup, catalog_names
from .costmodel import (
    JobSpec,
    Strategy,
    StrategyKind,
    StrategyVolumes,
    compare_strategies,
)
from .descriptor import DescriptorError, ShapeMismatchError, parse_model
from .layers import LayerKind, LayerSpec, ModelError, ModelGraph
from .profiler import (
    ProfileReport,
    ProfilerConfig,
    SkewnessMode,
    SplitChoice,
    compute_skewness,
    find_split,
    profile,
)
from .simulator import (
    CapacityError,
    ClusterSpec,
    ConsolidationReport,
    DEFAULT_CLUSTER,
    Placement,
    Scenario,
    ScenarioError,
    SimReport,
    StepBreakdown,
    parse_scenario,
    simulate_consolidation,
    simulate_run,
    spread_placement,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ClusterSpec",
    "ConsolidationReport",
    "DEFAULT_CLUSTER",
    "DescriptorError",
    "JobSpec",
    "LayerKind",
    "LayerSpec",
    "ModelError",
    "ModelGraph",
    "Placement",
    "ProfileReport",
    "ProfilerConfig",
    "Scenario",
    "ScenarioError",
    "ShapeMismatchError",
    "SimReport",
    "SkewnessMode",
    "SplitChoice",
    "StepBreakdown",
    "Strategy",
    "StrategyKind",
    "StrategyVolumes",
    "UnknownModelError",
    "catalog_lookup",
    "catalog_names",
    "compare_strategies",
    "compute_skewness",
    "find_split",
    "parse_model",
    "parse_scenario",
    "profile",
    "simulate_consolidation",
    "simulate_run",
    "spread_placement",
]
