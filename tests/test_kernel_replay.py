import hashlib
import importlib.util
import math
import sys
from pathlib import Path

from ralp import fairshare

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("kernel_replay", ROOT / "tools" / "kernel_replay.py")
kernel_replay = sys.modules["kernel_replay"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_replay)

# Two solves over links 0-2 and a spare link 3: three arrivals, then the
# departure of the second flow added and one more arrival.
CAPACITY = [4.0, 6.0, 1.0, math.inf]
CALLS = [(0, 1), (0, 3), (2, 1), None, 1, (1, 3), None]


def test_a_replay_hashes_the_rates_of_every_solve():
    want = hashlib.sha256()
    state = fairshare.FairShare(CAPACITY)
    flows = [fairshare.Flow() for _ in range(4)]
    for flow, links in zip(flows[:3], [(0, 1), (0, 3), (2, 1)]):
        state.add(flow, links)
    state.solve()
    kernel_replay.hash_rates(want, state.flows)
    state.remove(flows[1])
    state.add(flows[3], (1, 3))
    state.solve()
    kernel_replay.hash_rates(want, state.flows)
    got = hashlib.sha256()
    kernel_replay.replay(fairshare, [(CAPACITY, CALLS)], got)
    assert got.hexdigest() == want.hexdigest()


def test_a_kernel_loads_from_a_file():
    module = kernel_replay.load_kernel(str(ROOT / "src" / "ralp" / "fairshare.py"))
    assert module is not fairshare
    ours, theirs = hashlib.sha256(), hashlib.sha256()
    kernel_replay.replay(fairshare, [(CAPACITY, CALLS)], ours)
    kernel_replay.replay(module, [(CAPACITY, CALLS)], theirs)
    assert ours.hexdigest() == theirs.hexdigest()
