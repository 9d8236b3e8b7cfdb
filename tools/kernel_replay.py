#!/usr/bin/env python3
"""Replay the benchmark's fair-share kernel calls against two revisions.

    python3 tools/kernel_replay.py BASE HEAD [--repeats N]

Run from a checkout.  It first runs the 12 ``consolidation`` ops and one
seed-3 ``scenarios`` cycle of ``perfbench/workloads.py`` on this
checkout's ``src/``, and records every ``FairShare`` the simulator makes:
its capacities and its ``add``, ``remove`` and ``solve`` calls, in order.
Then it replays those calls against the ``src/ralp/fairshare.py`` of BASE
and of HEAD, each a revision its git resolves or a path to a
``fairshare.py`` file.

Each side's rates are checked bit for bit: after every solve, the rates of
the flows in flight feed one hash per workload, which must equal the hash
of the rates the recorded run saw.  Then the replays are timed, BASE and
HEAD in turn (BASE first in even repeats), and it prints each side's
minimum time per workload and the change.  A replay runs the kernel
alone, so the change is the kernel's, without the event loop around it.
It exits 1 if a side's rates differ.  Standard library only;
``perfbench/`` is imported, never written.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import math
import struct
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _record(workload: str, seed: int):
    """Run one cycle of ``workload`` and return, per ``FairShare`` made,
    its capacities and calls, and the hash of every solve's rates.  A call
    is None (solve), an int k (remove the k-th flow added) or a pair of
    link ids (add a flow over them)."""
    from ralp import fairshare

    import workloads

    kernels = []
    digest = hashlib.sha256()
    base = fairshare.FairShare

    class Recorder(base):
        def __init__(self, capacity):
            super().__init__(capacity)
            self.calls: list = []
            # Flow -> the number of adds before its last: the simulator
            # adds a flow again at each step, a replay a new flow.
            self.index: dict = {}
            self.adds = 0
            kernels.append((list(capacity), self.calls))

        def add(self, flow, links):
            super().add(flow, links)
            self.index[flow] = self.adds
            self.adds += 1
            self.calls.append(tuple(links))

        def remove(self, flow):
            super().remove(flow)
            self.calls.append(self.index[flow])

        def solve(self):
            super().solve()
            self.calls.append(None)
            hash_rates(digest, self.flows)

    fairshare.FairShare = Recorder
    try:
        load = workloads.WORKLOADS[workload](seed)
        for op in load.ops:
            load.check(op, load.run(op))
    finally:
        fairshare.FairShare = base
    return kernels, digest.hexdigest()


def hash_rates(digest, flows) -> None:
    rates = [f.rate for f in flows]
    digest.update(struct.pack(f"{len(rates)}d", *rates))


def replay(module, kernels, digest=None) -> None:
    """Make each recorded ``FairShare`` with ``module`` and repeat its
    calls; with a ``digest``, hash the rates after every solve."""
    Flow, FairShare = module.Flow, module.FairShare
    for capacity, calls in kernels:
        state = FairShare(capacity)
        add, remove, solve = state.add, state.remove, state.solve
        flows = []
        for call in calls:
            if call is None:
                solve()
                if digest is not None:
                    hash_rates(digest, state.flows)
            elif call.__class__ is int:
                remove(flows[call])
            else:
                flow = Flow()
                flows.append(flow)
                add(flow, call)


def load_kernel(revision: str) -> types.ModuleType:
    """``src/ralp/fairshare.py`` at ``revision``, or the file it names."""
    path = Path(revision)
    if path.is_file():
        source = path.read_text(encoding="utf-8")
    else:
        source = subprocess.run(
            ["git", "-C", str(ROOT), "show", f"{revision}:src/ralp/fairshare.py"],
            check=True, capture_output=True, text=True).stdout
    module = types.ModuleType(f"fairshare_{revision}")
    exec(compile(source, f"{revision}:fairshare.py", "exec"), module.__dict__)
    return module


def _time(module, kernels) -> float:
    gc.collect()
    start = time.perf_counter()
    replay(module, kernels)
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Replay the benchmark's fair-share kernel calls")
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--repeats", type=int, default=7, help="timed replays per side")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")

    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sides = {"base": load_kernel(args.base), "head": load_kernel(args.head)}
    print(f"base {args.base}, head {args.head}")
    status = 0
    for workload, seed in (("consolidation", 3), ("scenarios", 3)):
        kernels, want = _record(workload, seed)
        solves = sum(call is None for _, calls in kernels for call in calls)
        print(f"{workload} (seed {seed}): {len(kernels)} kernels, {solves} solves")
        for side, module in sides.items():
            got = hashlib.sha256()
            replay(module, kernels, got)
            same = got.hexdigest() == want
            status |= not same
            print(f"  {side} rates {'match the recorded run' if same else 'DIFFER'}")
        best = {side: math.inf for side in sides}
        for i in range(args.repeats):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                best[side] = min(best[side], _time(sides[side], kernels))
        change = best["head"] / best["base"] - 1
        print(f"  minimum of {args.repeats}: base {best['base']:.4f} s, "
              f"head {best['head']:.4f} s, change {change:+.1%}")
    return status


if __name__ == "__main__":
    sys.exit(main())
