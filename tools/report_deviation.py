#!/usr/bin/env python3
"""Compare every report of the benchmark's inputs between two revisions,
float by float.

    python3 tools/report_deviation.py BASE HEAD

Run from a checkout; BASE and HEAD are any revisions its git resolves
(commit them first: the working tree is not compared).  Each is checked
out with ``git worktree add`` in one new temporary directory, as
``tools/ab.py`` does, and this checkout's ``tools/report_digest.py``
lists the items its two digests cover, run on that tree's ``src/`` and
``perfbench/``.  So both sides run the same list on their own engine and
planner.

Two items compare field by field: their JSON structures must match, and
every integer, string, boolean and null must be equal.  An item that is
not JSON (the layers ``repr``) must be the same text.  For the floats it
counts how many differ, and finds the worst relative deviation,
|a - b| / max(|a|, |b|), and the worst distance in ulps, the number of
doubles between the two, each named with its item and field.  It removes
both trees, prints those and the first 10 other fields that differ, and
exits 1 if any other field differs, if the items differ in name or
order, or if a float is more than 1e-12 relative away.  A change that
moves only last bits (a different order of the same float operations)
stays far inside that bound.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOUND = 1e-12  # the largest relative deviation of a float that passes
SHOWN = 10  # other fields that differ printed in full


def ulps(a: float, b: float) -> int:
    """How many doubles lie from ``a`` to ``b``; 0 for -0.0 and 0.0."""

    def ordered(x: float) -> int:
        (bits,) = struct.unpack("<q", struct.pack("<d", x))
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordered(a) - ordered(b))


@dataclass
class Deviation:
    """What differs between two lists of items: the floats compared and
    how many differ, the worst relative and ulp deviations with where each
    occurs, and every other field that differs."""

    floats: int = 0
    differ: int = 0
    worst_rel: tuple[float, int, str] = (0.0, 0, "")
    worst_ulps: tuple[int, float, str] = (0, 0.0, "")
    mismatches: list[str] = field(default_factory=list)

    def add(self, a, b, where: str) -> None:
        """Compare the parsed values ``a`` and ``b`` of field ``where``."""
        if type(a) is not type(b):
            self.mismatches.append(f"{where}: {a!r} != {b!r}")
        elif isinstance(a, float):
            self.floats += 1
            if a == b or (math.isnan(a) and math.isnan(b)):
                return
            self.differ += 1
            big = max(abs(a), abs(b))
            rel = abs(a - b) / big if math.isfinite(big) else math.inf
            n = ulps(a, b)
            if rel > self.worst_rel[0]:
                self.worst_rel = (rel, n, where)
            if n > self.worst_ulps[0]:
                self.worst_ulps = (n, rel, where)
        elif isinstance(a, dict):
            if list(a) != list(b):
                self.mismatches.append(f"{where}: keys {list(a)} != {list(b)}")
                return
            for key in a:
                self.add(a[key], b[key], f"{where}.{key}")
        elif isinstance(a, list):
            if len(a) != len(b):
                self.mismatches.append(f"{where}: {len(a)} != {len(b)} elements")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.add(x, y, f"{where}[{i}]")
        elif a != b:
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.worst_rel[0] <= BOUND


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text  # not JSON: compared as one string


def compare(base: list[tuple[str, str]], head: list[tuple[str, str]]) -> Deviation:
    """The deviation of ``head``'s (name, text) items from ``base``'s."""
    dev = Deviation()
    names = [name for name, _ in base]
    if names != [name for name, _ in head]:
        dev.mismatches.append(f"the items differ: {len(base)} in base, {len(head)} in head")
        return dev
    for (name, a), (_, b) in zip(base, head):
        x = _parse(a)
        dev.add(x, x if a == b else _parse(b), name)  # equal texts still count their floats
    return dev


def lines(dev: Deviation, items: int) -> list[str]:
    """What to print for ``dev`` over ``items`` items."""
    rel, rel_ulps, rel_at = dev.worst_rel
    n, n_rel, n_at = dev.worst_ulps
    out = [f"{items} items, {dev.floats} floats, {dev.differ} differ"]
    if dev.differ:
        out += [f"worst relative {rel:.3g} ({rel_ulps} ulps) at {rel_at}",
                f"worst ulps {n} ({n_rel:.3g} relative) at {n_at}"]
    out += [f"other field differs: {m}" for m in dev.mismatches[:SHOWN]]
    out.append(f"{'within' if dev.ok else 'NOT within'} {BOUND:g} relative, "
               f"{len(dev.mismatches)} other fields differ")
    return out


def _dump(tree: Path) -> None:
    """Print, as JSON, the (name, text) items of ``tree``'s reports."""
    sys.dont_write_bytecode = True  # leave the trees and tools/ as they are
    sys.path.insert(0, str(ROOT / "tools"))
    import report_digest

    ralp, workloads = report_digest.load(tree)
    items = [*report_digest.simulator_items(workloads), *report_digest.plan_items(ralp, workloads)]
    json.dump(items, sys.stdout)


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def _items(tree: Path) -> list[tuple[str, str]]:
    done = subprocess.run([sys.executable, __file__, "--dump", str(tree)], cwd=tree,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: {tree.name}: listing its reports exited "
                         f"{done.returncode}\n{done.stderr}")
    return [tuple(item) for item in json.loads(done.stdout)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Float-by-float deviation of every report "
                                            "between two revisions")
    p.add_argument("base", nargs="?")
    p.add_argument("head", nargs="?")
    p.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.dump:
        _dump(args.dump)
        return 0
    if not (args.base and args.head):
        p.error("BASE and HEAD are required")

    revs = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
            for side, rev in (("base", args.base), ("head", args.head))}
    tmp = Path(tempfile.mkdtemp(prefix="ralp-deviation-"))
    made = []
    try:
        items = {}
        for side in ("base", "head"):
            tree = tmp / side
            _git("worktree", "add", "--detach", "--quiet", str(tree), revs[side])
            made.append(tree)
            items[side] = _items(tree)
    finally:
        for tree in made:
            _git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)
    dev = compare(items["base"], items["head"])
    print(f"base {args.base} ({revs['base'][:10]}), head {args.head} ({revs['head'][:10]})")
    print("\n".join(lines(dev, len(items["base"]))))
    return 0 if dev.ok else 1


if __name__ == "__main__":
    sys.exit(main())
