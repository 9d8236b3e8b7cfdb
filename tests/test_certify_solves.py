import importlib.util
import math
import sys
from pathlib import Path

from ralp import fairshare

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("certify_solves", ROOT / "tools" / "certify_solves.py")
certify_solves = sys.modules["certify_solves"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certify_solves)


def two_solves():
    """Two solves over links 0-2 and a link 3 of infinite capacity: three
    arrivals, then the departure of the second flow and one more arrival.
    The kernel is looked up as the engine looks it up."""
    state = fairshare.FairShare([4.0, 6.0, 1.0, math.inf])
    flows = [fairshare.Flow() for _ in range(4)]
    for flow, links in zip(flows[:3], [(0, 1), (0, 3), (2, 1)]):
        state.add(flow, links)
    state.solve()
    state.remove(flows[1])
    state.add(flows[3], (1, 3))
    state.solve()


def test_every_solve_is_certified():
    base = fairshare.FairShare
    assert certify_solves.certify(two_solves) == (2, 6, [])
    assert fairshare.FairShare is base


def test_rates_that_are_not_max_min_fair_are_named(monkeypatch):
    class Halved(fairshare.FairShare):
        def solve(self):
            super().solve()
            for flow in self.flows:
                flow.rate /= 2

    monkeypatch.setattr(fairshare, "FairShare", Halved)
    solves, rates, found = certify_solves.certify(two_solves)
    # At half its rate no flow saturates a link: none has a bottleneck.
    assert (solves, rates) == (2, 6)
    assert [problem.split(" at ")[0] for problem in found] == [
        f"solve {s}: flow {f}" for s in range(2) for f in range(3)]
    assert all(problem.endswith("has no bottleneck link") for problem in found)
    assert fairshare.FairShare is Halved
