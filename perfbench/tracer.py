"""In-memory span tracer that wraps ralp's public functions from outside.

Each wrapper is installed at the name its callers resolve: the package
attribute the benchmark calls, ``ralp.catalog.parse_model`` and the
``profile`` names imported into ``ralp.costmodel`` and ``ralp.simulator``,
``ralp.simulator.simulate_run`` (called by ``simulate_consolidation``) and
``ralp.fairshare.solve_rates`` (looked up as a module attribute by the
simulator's event loop).  Layer names are ralp's module names.

A span is ``[name, parent, op, start_ns, end_ns]``; spans of one op share
its op id.  Self time is a span's duration minus its children's, so the
self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

import ralp
import ralp.catalog
import ralp.costmodel
import ralp.fairshare
import ralp.simulator

LAYERS = ("catalog", "descriptor", "profiler", "costmodel", "simulator", "fairshare", "bench")

# (module, attribute, span name).  The layer is the span name's prefix.
PATCH_POINTS = (
    (ralp, "catalog_lookup", "catalog.catalog_lookup"),
    (ralp, "parse_model", "descriptor.parse_model"),
    (ralp.catalog, "parse_model", "descriptor.parse_model"),
    (ralp, "profile", "profiler.profile"),
    (ralp.costmodel, "profile", "profiler.profile"),
    (ralp.simulator, "profile", "profiler.profile"),
    (ralp, "compare_strategies", "costmodel.compare_strategies"),
    (ralp, "parse_scenario", "simulator.parse_scenario"),
    (ralp, "simulate_run", "simulator.simulate_run"),
    (ralp.simulator, "simulate_run", "simulator.simulate_run"),
    (ralp, "simulate_consolidation", "simulator.simulate_consolidation"),
    (ralp.fairshare, "solve_rates", "fairshare.solve_rates"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1], self.op, time.perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns()
        self._stack.pop()

    def _count_result(self, name: str, args, result) -> None:
        c = self.counts
        if name == "descriptor.parse_model":
            c["descriptor.layers"] += result.num_layers
        elif name == "costmodel.compare_strategies":
            c["costmodel.rows"] += len(result)
        elif name == "simulator.simulate_run":
            c["simulator.runs"] += 1
            for job in result.jobs:
                c["simulator.job_steps"] += len(job.steps)
                c["simulator.wire_bytes"] += job.bytes_on_wire_per_step * len(job.steps)
        elif name == "fairshare.solve_rates":
            flows = len(args[0])
            c["fairshare.flows"] += flows
            c["fairshare.peak_flows"] = max(c["fairshare.peak_flows"], flows)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self._count_result(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, name in PATCH_POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------

    def layer_times(self, scale) -> dict[str, dict[str, float]]:
        """Per layer: span count, busy seconds (time with a span of the
        layer open, nested same-layer spans counted once) and self seconds.
        Durations in op ``i`` are multiplied by ``scale[i]``."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, _, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
        layer_of = [s[0].partition(".")[0] for s in spans]
        for i, (name, parent, op, start, end) in enumerate(spans):
            layer = layer_of[i]
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[i]) * scale[op] / 1e9
            p = parent
            while p >= 0 and layer_of[p] != layer:
                p = spans[p][1]
            if p < 0:
                row["busy_s"] += (end - start) * scale[op] / 1e9
        return out

    def busy_s(self, span_name: str, scale) -> float:
        return sum((e - s) * scale[op] for n, _, op, s, e in self.spans if n == span_name) / 1e9

    def solver_calls_by_caller(self) -> dict[str, int]:
        """fairshare calls grouped by the simulate_run that made them: the
        consolidated run (first simulate_run inside simulate_consolidation),
        the isolated runs (the later ones), or a direct simulate_run."""
        spans = self.spans
        first_child: dict[int, int] = {}
        for i, (name, parent, *_rest) in enumerate(spans):
            if name == "simulator.simulate_run" and parent >= 0:
                first_child.setdefault(parent, i)
        out = {"consolidated_run": 0, "isolated_runs": 0, "direct_run": 0}
        for name, parent, *_rest in spans:
            if name != "fairshare.solve_rates":
                continue
            run_parent = spans[parent][1]
            if run_parent < 0 or spans[run_parent][0] != "simulator.simulate_consolidation":
                out["direct_run"] += 1
            elif first_child[run_parent] == parent:
                out["consolidated_run"] += 1
            else:
                out["isolated_runs"] += 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "op", "start_ns", "end_ns"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def span_cost_ns(calls: int = 20_000) -> float:
    """Nanoseconds one traced call adds over a plain one: ``calls`` calls
    of a wrapped no-op against as many of the bare no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "bench.noop")
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter_ns()
    return ((t2 - t1) - (t1 - t0)) / calls
