"""Max-min fair bandwidth allocation across shared links.

This is the simulator's hot kernel: it reruns on every flow arrival and
departure, and large consolidated scenarios solve it tens of thousands of
times.  It is progressive filling (Bertsekas & Gallager, *Data Networks*,
§6.5.2) over per-link flow lists, on plain Python lists and floats.
Lists go in and a list comes out; a caller that passes numpy arrays gets
a float64 array back, and only that caller pays for importing numpy.

Each flow occupies up to two directed links (source uplink, destination
downlink); a link id of -1 means "no constraint on that side".
"""

from __future__ import annotations

import math
from typing import Sequence


def solve_rates(link_a: Sequence[int], link_b: Sequence[int], capacity: Sequence[float]):
    """Max-min fair rates for flows over directed links.

    link_a/link_b: link ids per flow (-1 for unconstrained side);
    capacity: bytes/sec per link, copied and never written.  Returns
    bytes/sec per flow: a list, or a float64 array when the link ids are
    arrays.

    Each round takes the smallest per-flow share of any loaded link and
    freezes, at that share, every unfrozen flow of every link whose share
    equals it.  A frozen flow subtracts the share once from each of its
    links (twice from one link when both ends are that link), clamping at
    zero.  All subtractions of a round use the same share, so the order of
    freezing changes no value.  Flows left when only unbounded shares
    remain get an infinite rate.
    """
    if len(link_a) != len(link_b):
        raise ValueError("link_a and link_b must have the same length")
    as_array = hasattr(link_a, "tolist")
    ends_a, ends_b = (link_a.tolist(), link_b.tolist()) if as_array else (link_a, link_b)
    remaining = [float(c) for c in capacity]
    flows_on = [[] for _ in remaining]
    for f, (a, b) in enumerate(zip(ends_a, ends_b)):
        if a >= 0:
            flows_on[a].append(f)
        if b >= 0:
            flows_on[b].append(f)
    n_active = [len(flows) for flows in flows_on]
    loaded = [l for l, n in enumerate(n_active) if n]
    rates = [math.inf] * len(ends_a)
    frozen = [False] * len(ends_a)
    while loaded:
        shares = [remaining[l] / n_active[l] for l in loaded]
        best = min(shares)
        if best == math.inf:
            break
        for l, share in zip(loaded, shares):
            if share != best:
                continue
            for f in flows_on[l]:
                if frozen[f]:
                    continue
                frozen[f] = True
                rates[f] = best
                for end in (ends_a[f], ends_b[f]):
                    if end >= 0:
                        left = remaining[end] - best
                        remaining[end] = 0.0 if left < 0.0 else left
                        n_active[end] -= 1
        loaded = [l for l in loaded if n_active[l]]
    if as_array:
        import numpy as np

        return np.array(rates, dtype=np.float64)
    return rates
