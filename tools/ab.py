#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload, in alternating pairs.

    python3 tools/ab.py BASE HEAD --workload W --pairs N --seconds S [--seed K]

Run from a checkout; BASE and HEAD are any revisions its git resolves,
each resolved to its commit first (commit them first: the working tree
is not compared).  ``BASE BASE``
runs a revision against itself, which shows the noise floor: a
difference an A/A run shows is no gain.  The two sides run in two trees,
made with ``git worktree add`` in one new temporary directory as ``a``
and ``b``: two paths of the same length, since the benchmark's peak
resident memory moves with the length of the checkout's path.  Even so,
two trees of one commit can differ by a steady offset, so the trees swap
revisions between pairs (``schedule``): each revision runs in both trees
equally often over an even number of pairs, and the offset cancels.

First it runs each side's ``tools/report_digest.py`` and prints its lines
and whether the two sides' lines match, so that a claim of byte-identical
reports comes from the same run as the timings.  Then pair i runs
``perfbench/run.py --workload W --seed K+i --seconds S`` on each side:
tree ``a`` runs first and holds BASE in even pairs and HEAD in odd ones.

For each end-to-end metric of BASE's ``BENCHMARK.json`` it prints each
side's quartiles (the middle one is the median), the change of the median,
the pairs HEAD wins (ties count for neither side), and the verdict: whether
HEAD's median is inside the metric's bound, and whether it shows a gain,
that is HEAD wins at least nine pairs in ten and its median is better by
more than the distance between BASE's quartiles.  Then it removes both
trees.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Summary:
    """One metric over N pairs: each side's quartiles, the relative change
    of the median, HEAD's wins, and the two verdicts."""

    base: tuple[float, float, float]
    head: tuple[float, float, float]
    change: float
    wins: int
    inside_bound: bool
    gain: bool


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The quartiles of two or more ``values``, interpolated between data
    points."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(better: str, bound: float, base: list[float], head: list[float]) -> Summary:
    """Pair i of ``base`` and ``head`` ran on one seed; ``better`` is
    ``"higher"`` or ``"lower"`` and ``bound`` the relative worsening of the
    median that still counts as inside."""
    sign = 1.0 if better == "higher" else -1.0
    b, h = quartiles(base), quartiles(head)
    if b[1]:
        change = (h[1] - b[1]) / b[1]
    else:
        change = 0.0 if h[1] == b[1] else math.copysign(math.inf, h[1] - b[1])
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    return Summary(
        base=b,
        head=h,
        change=change,
        wins=wins,
        inside_bound=-sign * change <= bound,
        gain=10 * wins >= 9 * len(base) and sign * (h[1] - b[1]) > b[2] - b[0],
    )


def compare_digests(base: list[str], head: list[str]) -> list[str]:
    """The lines to print for each tree's ``tools/report_digest.py``
    output lines (none for a tree without the script), and the verdict."""
    lines = [f"  {side} digest {line}" for side, got in (("base", base), ("head", head))
             for line in got]
    if not (base and head):
        return lines + ["  digests not compared: a tree has no tools/report_digest.py"]
    return lines + [f"  digests {'match' if base == head else 'DIFFER'}"]


def schedule(pairs: int) -> list[tuple[tuple[str, str], ...]]:
    """Per pair, the (side, tree) runs in the order they run: tree ``a``
    first, holding BASE in even pairs and HEAD in odd ones, so that each
    side runs first, and in each tree, in every other pair."""
    return [(("base", "a"), ("head", "b")) if i % 2 == 0 else (("head", "a"), ("base", "b"))
            for i in range(pairs)]


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its last stdout line, as JSON."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: {tree.name}, seed {seed}: perfbench/run.py exited "
                         f"{done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _digest(tree: Path) -> list[str]:
    """The lines ``tools/report_digest.py`` prints in ``tree``, if it has one."""
    if not (tree / "tools" / "report_digest.py").exists():
        return []
    done = subprocess.run([sys.executable, "tools/report_digest.py"], cwd=tree,
                          capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: {tree.name}: tools/report_digest.py exited "
                         f"{done.returncode}\n{done.stderr}")
    return done.stdout.splitlines()


def _print(workload: str, seeds: range, seconds: float, spec: dict, runs: dict) -> None:
    pairs = len(seeds)
    print(f"{workload}: {pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, --seconds {seconds:g}")
    for side in ("base", "head"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"  {side} failed {failed} of {attempted} ops")
    print(f"  {'metric':<12} {'base p25 / p50 / p75':>30} {'head p25 / p50 / p75':>30} "
          f"{'change':>8} {'wins':>6}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        got = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        s = summarize(metric["better"], metric["bound"], got["base"], got["head"])
        verdict = (f"{'inside' if s.inside_bound else 'OUTSIDE'} its "
                   f"{metric['bound']:.0%} bound{', gain' if s.gain else ''}")
        print(f"  {name:<12} {' / '.join(f'{v:.4g}' for v in s.base):>30} "
              f"{' / '.join(f'{v:.4g}' for v in s.head):>30} {s.change:>+8.2%} "
              f"{s.wins:>3}/{pairs:<2}  {verdict}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="A/B benchmark of two revisions")
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("--workload", required=True, choices=("plan", "scenarios", "consolidation"))
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=1, help="the first pair's seed")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    # A commit, not a name: ``HEAD`` in a tree would name the tree's own.
    revs = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
            for side, rev in (("base", args.base), ("head", args.head))}
    tmp = Path(tempfile.mkdtemp(prefix="ralp-ab-"))
    trees = {"a": tmp / "a", "b": tmp / "b"}
    holds = {}  # tree -> the side checked out in it
    try:
        for side, tree in schedule(1)[0]:
            _git("worktree", "add", "--detach", "--quiet", str(trees[tree]), revs[side])
            holds[tree] = side
        spec = json.loads((trees["a"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        print(f"base {args.base} ({revs['base'][:10]}), head {args.head} ({revs['head'][:10]})")
        print("\n".join(compare_digests(_digest(trees["a"]), _digest(trees["b"]))))
        seeds = range(args.seed, args.seed + args.pairs)
        runs = {"base": [], "head": []}
        for i, (seed, order) in enumerate(zip(seeds, schedule(args.pairs))):
            for side, tree in order:
                if holds[tree] != side:
                    subprocess.run(["git", "-C", str(trees[tree]), "checkout", "--detach",
                                    "--quiet", revs[side]], check=True)
                    holds[tree] = side
                print(f"# pair {i + 1} of {args.pairs}: {side} in {tree}, seed {seed}",
                      file=sys.stderr)
                runs[side].append(_run(trees[tree], args.workload, seed, args.seconds))
        _print(args.workload, seeds, args.seconds, spec, runs)
    finally:
        for tree in holds:
            _git("worktree", "remove", "--force", str(trees[tree]))
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
