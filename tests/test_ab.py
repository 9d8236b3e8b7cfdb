import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py")
ab = sys.modules["ab"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@pytest.mark.parametrize("better, bound, base, head, want", [
    # Ten pairs, HEAD ahead in nine and its median 1.05 above BASE's 20.05,
    # more than BASE's quartile distance 0.475: a gain.
    ("higher", 0.25,
     [20.0, 20.4, 19.6, 20.1, 20.3, 19.9, 20.2, 19.8, 20.0, 20.5],
     [21.1, 21.3, 20.8, 21.2, 21.0, 20.9, 21.4, 21.0, 19.9, 21.5],
     ab.Summary(base=(19.925, 20.05, 20.275), head=(20.925, 21.05, 21.275),
                change=1.0 / 20.05, wins=9, inside_bound=True, gain=True)),
    # Lower is better: HEAD 20% worse is inside a 25% bound, 30% is not.
    ("lower", 0.25, [10.0, 10.0, 10.0, 10.0], [12.0, 12.0, 12.0, 12.0],
     ab.Summary(base=(10.0, 10.0, 10.0), head=(12.0, 12.0, 12.0),
                change=0.2, wins=0, inside_bound=True, gain=False)),
    ("lower", 0.25, [10.0, 10.0, 10.0, 10.0], [13.0, 13.0, 13.0, 13.0],
     ab.Summary(base=(10.0, 10.0, 10.0), head=(13.0, 13.0, 13.0),
                change=0.3, wins=0, inside_bound=False, gain=False)),
    # Ahead in every pair, but by less than BASE's own spread: no gain.
    ("lower", 0.1, [9.0, 11.0, 10.0, 12.0, 8.0], [8.9, 10.9, 9.9, 11.9, 7.9],
     ab.Summary(base=(9.0, 10.0, 11.0), head=(8.9, 9.9, 10.9),
                change=-0.01, wins=5, inside_bound=True, gain=False)),
    # Ties count for neither side, so one win in ten pairs is no gain.
    ("higher", 0.25, [5.0] * 10, [5.0] * 9 + [6.0],
     ab.Summary(base=(5.0, 5.0, 5.0), head=(5.0, 5.0, 5.0),
                change=0.0, wins=1, inside_bound=True, gain=False)),
], ids=["gain", "inside-bound", "outside-bound", "inside-the-spread", "ties"])
def test_summary_of_fixed_pairs(better, bound, base, head, want):
    got = ab.summarize(better, bound, base, head)
    assert got.base == pytest.approx(want.base) and got.head == pytest.approx(want.head)
    assert (got.change, got.wins, got.inside_bound, got.gain) == \
        (pytest.approx(want.change), want.wins, want.inside_bound, want.gain)


def test_four_pairs_show_no_gain():
    # HEAD ahead in every pair, by far more than BASE's spread: no gain from
    # 4 pairs, and every verdict of such a run says why.
    s = ab.summarize("lower", 0.25, [10.0, 10.1, 9.9, 10.0], [7.0, 7.1, 6.9, 7.0])
    assert (s.wins, s.inside_bound, s.gain) == (4, True, False)
    assert ab.verdict(s, 0.25, 4) == "inside its 25% bound; fewer than 10 pairs: no evidence"
    ten = ab.summarize("lower", 0.25, [10.0, 10.1, 9.9, 10.0] * 2 + [10.0, 10.1],
                       [7.0, 7.1, 6.9, 7.0] * 2 + [7.0, 7.1])
    assert ab.verdict(ten, 0.25, 10) == "inside its 25% bound, gain"


DIGEST = ["559e  514 scenarios, 12 consolidation ops", "127b  520 plan items"]


@pytest.mark.parametrize("base, head, verdict", [
    (DIGEST, list(DIGEST), "  digests match"),
    (DIGEST, [DIGEST[0], "0000  520 plan items"], "  digests DIFFER"),
    (DIGEST, DIGEST[:1], "  digests DIFFER"),
    ([], DIGEST, "  digests not compared: a tree has no tools/report_digest.py"),
], ids=["match", "differ", "line-missing", "no-script"])
def test_digests_of_both_trees_are_printed_and_compared(base, head, verdict):
    lines = ab.compare_digests(base, head)
    assert lines == [f"  base digest {line}" for line in base] + \
        [f"  head digest {line}" for line in head] + [verdict]


@pytest.mark.parametrize("pairs", [2, 3, 10])
def test_each_side_runs_first_and_in_each_tree_in_every_other_pair(pairs):
    # Two trees of one commit can differ by a steady offset: a schedule
    # that kept each side in one tree would read that offset as a change.
    got = ab.schedule(pairs)
    assert len(got) == pairs
    for i, order in enumerate(got):
        assert [tree for _, tree in order] == ["a", "b"]
        assert sorted(side for side, _ in order) == ["base", "head"]
        assert order[0][0] == ("base" if i % 2 == 0 else "head")
    for before, after in zip(got, got[1:]):
        assert [side for side, _ in before] == [side for side, _ in after][::-1]
    held = [(side, tree) for order in got[:pairs - pairs % 2] for side, tree in order]
    assert sorted(held) == sorted([("base", "a"), ("base", "b"), ("head", "a"), ("head", "b")]
                                  * (pairs // 2))


def test_one_pair_exits_2_before_any_checkout(capsys):
    with pytest.raises(SystemExit) as exit:
        ab.main(["472b5c5", "472b5c5", "--workload", "consolidation",
                 "--pairs", "1", "--seconds", "8"])
    assert exit.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
