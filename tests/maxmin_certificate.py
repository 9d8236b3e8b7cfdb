"""Max-min fairness certificate: a check of an allocation that runs no
filling algorithm.

Bertsekas & Gallager (*Data Networks*, §6.5.2): a feasible allocation is
max-min fair exactly when every flow has a bottleneck link, one that is
saturated and on which no flow gets a higher rate.  A flow with both ends
on one link loads it twice; a flow whose links are all unbounded (or that
has none) has no bottleneck and must get an infinite rate.
"""

from __future__ import annotations

import math


def max_min_violations(flows, rates, capacity, rel=1e-9) -> list[str]:
    """What keeps ``rates`` from being max-min fair, comparing within
    ``rel`` relative; ``flows`` holds each flow's link ids, one per end."""
    load = [0.0] * len(capacity)
    top = [0.0] * len(capacity)
    for links, rate in zip(flows, rates):
        for l in links:
            load[l] += rate
            top[l] = max(top[l], rate)
    problems = [f"link {l} carries {load[l]!r} over its capacity {cap!r}"
                for l, cap in enumerate(capacity) if load[l] > cap * (1 + rel)]
    for f, (links, rate) in enumerate(zip(flows, rates)):
        if rate == math.inf:
            if any(capacity[l] != math.inf for l in links):
                problems.append(f"flow {f} has an infinite rate over a finite link")
        elif not any(load[l] >= capacity[l] * (1 - rel) and top[l] <= rate * (1 + rel)
                     for l in links):
            problems.append(f"flow {f} at {rate!r} has no bottleneck link")
    return problems


def certified(kernel, report):
    """A subclass of ``kernel`` (``ralp.fairshare.FairShare``) that calls
    ``report(flows, problems)`` after every solve, with the flows in flight
    and what ``max_min_violations`` finds in their rates."""

    class Certified(kernel):
        def __init__(self, capacity):
            super().__init__(capacity)
            self.capacity = list(capacity)

        def solve(self):
            super().solve()
            flows = list(self.flows)
            report(flows, max_min_violations([f.links for f in flows],
                                             [f.rate for f in flows], self.capacity))

    return Certified
