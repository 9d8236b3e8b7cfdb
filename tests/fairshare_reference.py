"""Scalar reference for the max-min fair-share kernel.

Progressive filling (Bertsekas & Gallager, *Data Networks*, §6.5.2) on
plain Python lists and floats, with no numpy.  It scans every flow in
every round, and each flow it freezes subtracts the level from both of its
links, clamping at zero.  ``ralp.fairshare`` charges only a frozen flow's
other end and clamps nothing, yet its rates must match this reference bit
for bit (the ``FairShare`` docstring says why).  The clamp stays here on
purpose, so this oracle does not rest on that argument.  A link id of -1
here is an unconstrained side; the kernel has no such id, so the tests
put each such side on a spare link of infinite capacity after the others
(``with_spare`` in ``tests/test_fairshare.py``).
"""

from __future__ import annotations

import math


def progressive_filling(link_a: list[int], link_b: list[int], capacity: list[float]) -> list[float]:
    """Max-min fair rate per flow; a link id of -1 leaves that side unconstrained."""
    remaining = [float(c) for c in capacity]
    n_active = [0] * len(capacity)
    for a, b in zip(link_a, link_b):
        if a >= 0:
            n_active[a] += 1
        if b >= 0:
            n_active[b] += 1
    rates = [0.0] * len(link_a)
    frozen = [False] * len(link_a)
    left = len(link_a)
    while left > 0:
        # Shares are snapshotted per round, as in the kernel.
        share = [r / n if n > 0 else math.inf for r, n in zip(remaining, n_active)]
        best = min(share, default=math.inf)
        if best == math.inf:
            for f in range(len(rates)):
                if not frozen[f]:
                    rates[f] = math.inf
                    frozen[f] = True
            break
        for f, (a, b) in enumerate(zip(link_a, link_b)):
            if frozen[f]:
                continue
            if (a >= 0 and share[a] == best) or (b >= 0 and share[b] == best):
                rates[f] = best
                frozen[f] = True
                left -= 1
                for link in (a, b):
                    if link >= 0:
                        remaining[link] = max(remaining[link] - best, 0.0)
                        n_active[link] -= 1
    return rates
