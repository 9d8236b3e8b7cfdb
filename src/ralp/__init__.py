"""Resource-aware layer placement: planner, cost model, and cluster simulator.

Each exported name is imported from its module on first use (PEP 562), so
a process that only plans never loads the simulator or the fair-share
kernel.
"""

import importlib

__version__ = "0.1.0"

# Each exported name, and the module that defines it.
_EXPORTS = {
    **dict.fromkeys(("UnknownModelError", "catalog_lookup", "catalog_names"), "catalog"),
    **dict.fromkeys(("JobSpec", "Strategy", "StrategyKind", "StrategyVolumes",
                     "compare_strategies"), "costmodel"),
    **dict.fromkeys(("DescriptorError", "ShapeMismatchError", "parse_model"), "descriptor"),
    **dict.fromkeys(("LayerKind", "LayerSpec", "ModelError", "ModelGraph"), "layers"),
    **dict.fromkeys(("ProfileReport", "ProfilerConfig", "SkewnessMode", "SplitChoice",
                     "compute_skewness", "find_split", "profile"), "profiler"),
    **dict.fromkeys(("CapacityError", "ClusterSpec", "ConsolidationReport", "DEFAULT_CLUSTER",
                     "Placement", "Scenario", "ScenarioError", "SimReport", "StepBreakdown",
                     "parse_scenario", "simulate_consolidation", "simulate_run",
                     "spread_placement"), "simulator"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value
