"""Max-min fair bandwidth allocation across shared links.

This is the simulator's hot kernel: it reruns on every flow arrival and
departure, and large consolidated scenarios solve it tens of thousands of
times.  It is progressive filling (Bertsekas & Gallager, *Data Networks*,
§6.5.2) over per-link flow sets, on plain Python lists and floats.

Each flow is a pair of link ids, its source's uplink and its
destination's downlink; a flow with both ends on one link counts twice on
it.  The simulator's flows always have two links (a transfer within one
machine is a delay, not a flow), so the kernel updates both ends with
straight-line code, and each link's flow set holds, per flow, the id of
its other end: a round freezes a flow on a link it saturates and charges
only that other end.

``FairShare`` keeps the flows in flight and the previous solve's round
log across events, so a solve after a few arrivals and departures starts
from the first round they can change (a warm start) rather than from
round 0.  The rounds it keeps are the ones the new flow set would run
identically, so every rate is bit-identical to a cold solve.  The round
log is public: every flow a round froze has the round's level as its
rate, so a caller can treat each round as one rate class, and ``kept``
says how many leading rounds the last solve left as they were.
``solve_rates`` is a cold solve of a fresh ``FairShare``: lists go in
and a list comes out; a caller that passes numpy arrays gets a float64
array back, and only that caller pays for importing numpy.  It takes a
link id of -1 as "no constraint on that side" and puts that side on one
spare link of infinite capacity after the caller's links: its share is
infinite, so it never sets a level and a flow with no other link gets an
infinite rate, as a flow with no link would.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Sequence

# The round of a flow that no round has frozen yet.
_UNFROZEN = 1 << 62
# A refill sets links aside only when it is expected to be long: the last
# solve ran more than _LONG_ROUNDS rounds from the round it refills from,
# and at least _LONG_LINKS links are loaded.  In shorter fills the split
# costs more than the scans it saves; the simulator's scenarios on the
# default cluster have 16 links at most.
_LONG_ROUNDS = 3
_LONG_LINKS = 32
# A link is set aside when its share is more than _ASIDE times the level,
# so the floor is above twice that level: a fill's level reaches a floor
# once per doubling at most.
_ASIDE = 2.0
# Set-aside links come back when the level reaches their least share, less
# this relative margin, which covers the rounding of their shares while
# they wait (see ``FairShare``).
_MARGIN = 1e-6


class Flow:
    """A flow a ``FairShare`` rates: its links, its max-min fair rate in
    bytes/sec, and the round of the last solve that froze it."""

    __slots__ = ("links", "rate", "frozen_in")


class FairShare:
    """Max-min fair rates for a set of flows that changes between solves.

    Progressive filling runs in rounds.  Each round takes the smallest
    per-flow share (remainder / unfrozen flow ends) of any loaded link, the
    level, and freezes at it every unfrozen flow of every link whose share
    equals it: the links the round saturates.  A flow frozen on saturated
    link l subtracts the level once from the remainder of its other end
    and takes one off that end's count (that end is l when both are); l
    is settled once, after its flows, with a count of zero.  No remainder
    is clamped.  All subtractions of a round use the same level,
    so the order of freezing changes no value.  Flows left when only
    unbounded shares remain get an infinite rate.

    The rates are bit-identical to filling that subtracts from both ends
    and clamps at zero, as ``tests/fairshare_reference.py`` does, because
    the remainders the two leave apart are never read:

    (a) Nothing reads a saturated link's remainder again.  Once l gains
        flows, ``_kept_rounds`` returns at or before l's saturation round,
        since there rem / (c + d) <= rem / c = level; a departure from l
        sets the cut at or before that round, since every flow of l froze
        by then.  Either way the refill starts from a logged round in
        which l's remainder is still exact.
    (b) A remainder goes below zero only as its link's last end freezes.
        With at least 2 unfrozen ends left, rem >= (cnt - 1) * level, as
        the link's share was at least the level when the round began: far
        above any rounding error.  A link with count 0 is not loaded, and
        (a) covers it from then on; when its last ends froze without
        saturating it, they used up its remainder to within rounding, so
        rem / (c + d) <= level held in that round as well.

    So in a logged round a link's remainder means something where its
    unfrozen count is positive, and it is never negative there, or where
    the link has had no flow ends yet; anywhere else it is stale.

    Each solve logs, per round, its level and each link's remainder and
    unfrozen count at the start of the round.  Round j of the last solve
    runs identically on the changed flow set while j is below the round in
    which any departed flow froze (a departure only raises shares of links
    that were not at the level, since its flow was still unfrozen) and
    every link with added flows keeps a share above the round's level with
    them counted.  The next solve keeps those rounds, with their unfrozen
    counts moved by the added and departed flow ends, leaves the flows they
    froze untouched, and refills from the first round that may differ.  A
    solve that can keep no round (a departed flow froze in round 0, or the
    log holds only the terminal round) skips that scan.  The terminal round
    logs the working remainders and counts uncopied: no round changes them
    after it, and the next solve drops the entry, or deletes it before
    refilling from it, before it changes them.

    A long refill scans only the links near the level.  When the last
    solve ran more than three rounds from the round a solve refills from,
    and at least 32 links are loaded, the refill's first round sets aside
    every loaded link whose share is more than twice its level, and the
    rounds scan only the others.  A flow frozen on a scanned link still
    charges its other end, set aside or not, so a set-aside link costs
    nothing until it comes back.  Its share stays above every level below
    the floor (the least share among the set-aside links, less a relative
    margin of 1e-6), so it cannot saturate in a round it skips.  A round whose level
    reaches the floor, or that finds no link left to scan, takes every
    set-aside link back, in link order, and starts again, setting links
    aside afresh.  So no rate, round or log entry changes, and saturated
    links are still settled in ascending order.  Why the share stays
    above: within one fill, a loaded link's share never falls in exact
    arithmetic, since a flow frozen elsewhere at level L <= rem / c leaves
    (rem - L) / (c - 1) >= rem / c.  In floats, k charges to a link set
    aside with n unfrozen ends can put its share below that by a relative
    (k * n + 2) * 2**-53 at most, since its remainder stays at least 1/n
    of what it was; that is under the margin while k * n < 9e9, so on any
    link with fewer than 90,000 flow ends.

    The flow-end counts come from one change log, ``changes``: the flow
    ends added minus removed per link since the last solve.  A new
    ``FairShare`` logs one round with no flow ends at full capacity, so its
    first solve refills from round 0 on the same path as any later one.

    ``log`` holds one entry per round of the last solve, and every flow in
    flight is in exactly one entry's flows, with the entry's
    level as its rate, bit for bit.  ``kept`` is the number of leading
    entries the last solve kept: the same entries, with the same flows.
    None of those flows has departed, since a departure refills from the
    round that froze its flow, and none of their rates moved.  So a caller
    that advances every flow of a round by the same bytes can keep
    whatever it derived from a kept round's flows, such as which of them
    has the fewest bytes left; the terminal round is never kept.
    """

    def __init__(self, capacity: Sequence[float]):
        # The flows in flight, in arrival order.
        self.flows: dict[Flow, None] = {}
        # Per link, its flows in arrival order, each with its other end's id.
        self._flows_on: list[dict[Flow, int]] = [{} for _ in capacity]
        # The change log, cleared in place: the event loop holds it.
        self.changes: dict[int, int] = {}
        self._cut = _UNFROZEN  # earliest round in which a departed flow froze
        # One entry per round of the last solve: its level, each link's
        # remainder and unfrozen flow ends at its start, and the flows it
        # froze.  The last round is the one whose level is infinite.
        self.log: list[tuple[float, list[float], list[int], list[Flow]]] = [
            (math.inf, [float(c) for c in capacity], [0] * len(capacity), [])
        ]
        self.kept = 0  # leading entries of ``log`` the last solve left as they were

    def add(self, flow: Flow, links: tuple[int, int]) -> None:
        """Add ``flow`` over ``links``, the ids of its two ends: a
        ``ValueError`` unless a pair, an ``IndexError`` unless both are
        link ids, either before any state changes."""
        a, b = links
        flows_on = self._flows_on
        if not (0 <= a < len(flows_on) and 0 <= b < len(flows_on)):
            raise IndexError(f"flow links {links!r} are not among the "
                             f"{len(flows_on)} links")
        flow.links = links
        flow.rate = math.inf
        flow.frozen_in = _UNFROZEN
        self.flows[flow] = None
        flows_on[a][flow] = b
        flows_on[b][flow] = a
        changes = self.changes
        changes[a] = changes.get(a, 0) + 1
        changes[b] = changes.get(b, 0) + 1

    def remove(self, flow: Flow) -> None:
        """Remove ``flow`` (``KeyError`` if it is not in flight): the next
        solve refills from the round that froze it, if not an earlier one."""
        del self.flows[flow]
        a, b = flow.links
        flows_on, changes = self._flows_on, self.changes
        flows_on[a].pop(flow, None)
        flows_on[b].pop(flow, None)  # already gone when both ends share a link
        changes[a] = changes.get(a, 0) - 1
        changes[b] = changes.get(b, 0) - 1
        if flow.frozen_in < self._cut:
            self._cut = flow.frozen_in

    def solve(self) -> None:
        """Set ``rate`` on every flow whose rate the changes since the last
        solve can move."""
        log, changes = self.log, self.changes
        limit = len(log) - 1
        if self._cut < limit:
            limit = self._cut
        keep = self._kept_rounds(limit, changes) if limit else 0
        long = len(log) - keep > _LONG_ROUNDS  # the old log holds its terminal round too
        _, rem, cnt, _ = log[keep]
        for j in range(keep, len(log)):
            for f in log[j][3]:
                f.frozen_in = _UNFROZEN
        del log[keep:]
        self.kept = keep
        for l, d in changes.items():
            cnt[l] += d
        changes.clear()
        self._cut = _UNFROZEN
        self._fill(keep, rem, cnt, long)

    def _kept_rounds(self, limit: int, changes: dict[int, int]) -> int:
        """How many of the first ``limit`` logged rounds run unchanged with
        each link's flow ends moved by ``changes``; their unfrozen counts
        are moved with them."""
        grown = [(l, d) for l, d in changes.items() if d > 0]
        for j in range(limit):
            level, rem, cnt, _ = self.log[j]
            for l, d in grown:
                if rem[l] / (cnt[l] + d) <= level:
                    return j
            for l, d in changes.items():
                cnt[l] += d
        return limit

    def _fill(self, r: int, rem: list[float], cnt: list[int], long: bool) -> None:
        """Progressive filling from round ``r``, whose start state is
        ``rem`` and ``cnt``, logging each round; the terminal round logs
        ``rem`` and ``cnt`` themselves.  A ``long`` fill over enough loaded
        links sets far links aside."""
        flows_on, log, inf = self._flows_on, self.log, math.inf
        loaded = list(compress(range(len(cnt)), cnt))
        aside: Sequence[int] = ()
        # No set-aside link can be at a level below ``floor``; -inf has the
        # next round set links aside.
        floor = -inf if long and len(loaded) >= _LONG_LINKS else inf
        while loaded or aside:
            shares = [rem[l] / cnt[l] for l in loaded]
            best = min(shares) if shares else inf
            if best >= floor:
                if aside:
                    # The level nears a set-aside link, or no link is left
                    # to scan: take them all back and start the round again.
                    loaded = sorted(loaded + [l for l in aside if cnt[l]])
                    aside = ()
                    floor = -inf
                    continue
                if best == inf:
                    break
                far = _ASIDE * best
                aside = [l for l, s in zip(loaded, shares) if s > far]
                if aside:
                    floor = min([s for s in shares if s > far]) * (1 - _MARGIN)
                    loaded = [l for l, s in zip(loaded, shares) if s <= far]
                    shares = [s for s in shares if s <= far]
                else:
                    floor = inf
            done: list[Flow] = []
            log.append((best, rem[:], cnt[:], done))
            shares.append(best)  # a sentinel: the search ends past the last link
            i = shares.index(best)
            while i < len(loaded):
                l = loaded[i]
                for f, m in flows_on[l].items():
                    if f.frozen_in > r:
                        f.frozen_in = r
                        f.rate = best
                        done.append(f)
                        rem[m] -= best
                        cnt[m] -= 1
                cnt[l] = 0
                i = shares.index(best, i + 1)
            if not done:  # pragma: no cover - counts out of step with the flow sets
                raise RuntimeError("fair-share round froze no flow")
            loaded = [l for l in loaded if cnt[l]]
            r += 1
        # Flows left when only unbounded shares remain (if any) get an
        # infinite rate.
        done = []
        log.append((inf, rem, cnt, done))
        for l in loaded:
            for f in flows_on[l]:
                if f.frozen_in > r:
                    f.frozen_in = r
                    f.rate = inf
                    done.append(f)


def solve_rates(link_a: Sequence[int], link_b: Sequence[int], capacity: Sequence[float]):
    """Max-min fair rates for flows over directed links: a cold solve.

    link_a/link_b: link ids per flow (-1 for unconstrained side, an
    ``IndexError`` below -1 or past the last link); capacity: bytes/sec
    per link, copied and never written.  Returns bytes/sec per flow: a
    list, or a float64 array when the link ids are arrays.
    """
    if len(link_a) != len(link_b):
        raise ValueError("link_a and link_b must have the same length")
    as_array = hasattr(link_a, "tolist")
    ends_a, ends_b = (link_a.tolist(), link_b.tolist()) if as_array else (link_a, link_b)
    spare = len(capacity)  # the link that takes every unconstrained side
    state = FairShare([*capacity, math.inf])
    flows = [Flow() for _ in ends_a]
    for flow, a, b in zip(flows, ends_a, ends_b):
        if not (-1 <= a < spare and -1 <= b < spare):
            raise IndexError(f"link ids {a}, {b} are neither -1 nor among the {spare} links")
        state.add(flow, (a if a >= 0 else spare, b if b >= 0 else spare))
    state.solve()
    rates = [flow.rate for flow in flows]
    if as_array:
        import numpy as np

        return np.array(rates, dtype=np.float64)
    return rates
