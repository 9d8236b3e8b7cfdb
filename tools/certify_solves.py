#!/usr/bin/env python3
"""Certify every fair-share solve the benchmark's engine runs.

    python3 tools/certify_solves.py

Run from a checkout.  It runs the 12 ``consolidation`` ops and one
seed-3 ``scenarios`` cycle of ``perfbench/workloads.py`` on this
checkout's ``src/``, each op checked as the benchmark checks it.  After
every ``FairShare`` solve it checks the rates of the flows in flight with
``max_min_violations`` from ``tests/maxmin_certificate.py``, at its 1e-9
relative tolerance: no link may carry more than its capacity, and every
flow needs a saturated link on which no flow gets more.  The certificate
runs no filling algorithm, so it checks the rates themselves, where
``tools/kernel_replay.py`` checks that two kernels agree.

It prints each workload's solves, the rates they set and the violations,
the first few in full, and exits 1 if any solve has one.  Standard
library only; ``perfbench/`` and ``tests/`` are imported, never written.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHOWN = 5  # violations printed in full per workload


def certify(run) -> tuple[int, int, list[str]]:
    """Call ``run()`` with every ``fairshare.FairShare`` it makes
    certified; return the solves, the rates they set, and each violation
    found, named with its solve."""
    from maxmin_certificate import certified
    from ralp import fairshare

    tally = {"solves": 0, "rates": 0}
    found: list[str] = []

    def report(flows, problems):
        found.extend(f"solve {tally['solves']}: {problem}" for problem in problems)
        tally["solves"] += 1
        tally["rates"] += len(flows)

    base = fairshare.FairShare
    fairshare.FairShare = certified(base, report)
    try:
        run()
    finally:
        fairshare.FairShare = base
    return tally["solves"], tally["rates"], found


def cycle(workload: str, seed: int) -> None:
    """One cycle of ``workload``'s ops for ``seed``, each checked."""
    import workloads

    load = workloads.WORKLOADS[workload](seed)
    for op in load.ops:
        load.check(op, load.run(op))


def main(argv=None) -> int:
    argparse.ArgumentParser(description="Certify every fair-share solve of the "
                                         "benchmark's engine runs").parse_args(argv)
    sys.dont_write_bytecode = True  # leave perfbench/ and tests/ as they are
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    status = 0
    for workload, seed in (("consolidation", 3), ("scenarios", 3)):
        start = time.perf_counter()
        solves, rates, found = certify(lambda: cycle(workload, seed))
        print(f"{workload} (seed {seed}): {solves} solves, {rates} rates, "
              f"{len(found)} violations, {time.perf_counter() - start:.2f} s")
        for problem in found[:SHOWN]:
            print(f"  {problem}")
        status |= bool(found)
    return status


if __name__ == "__main__":
    sys.exit(main())
