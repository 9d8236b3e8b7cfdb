import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairshare_reference import progressive_filling
from maxmin_certificate import max_min_violations
from ralp import fairshare, simulator
from ralp.catalog import catalog_lookup
from ralp.costmodel import JobSpec, Strategy


def with_spare(capacity):
    """``capacity`` and, after it, a spare link of infinite capacity that
    takes every unconstrained side: a link id of -1, as the reference
    ``progressive_filling`` reads it."""
    return [*capacity, math.inf]


def on_spare(links, spare):
    """``links`` with each unconstrained side (-1) on link ``spare``."""
    return [spare if l < 0 else l for l in links]


def solve(flows, caps):
    a = np.array(on_spare([f[0] for f in flows], len(caps)), dtype=np.int64)
    b = np.array(on_spare([f[1] for f in flows], len(caps)), dtype=np.int64)
    return fairshare.solve_rates(a, b, np.array(with_spare(caps), dtype=np.float64))


class TestSolver:
    def test_single_flow_gets_full_link(self):
        assert solve([(0, 1)], [10.0, 10.0]).tolist() == [10.0]

    def test_two_flows_share_a_link_equally(self):
        rates = solve([(0, 1), (0, 2)], [10.0, 20.0, 20.0])
        assert rates.tolist() == [5.0, 5.0]

    def test_bottleneck_then_refill(self):
        # flows A and B share link 0 (cap 10); B also uses link 1 (cap 100).
        # A third flow C uses only link 1: after B is frozen at 5, C takes 95.
        rates = solve([(0, -1), (0, 1), (-1, 1)], [10.0, 100.0])
        assert rates.tolist() == [5.0, 5.0, 95.0]

    def test_classic_three_link_chain(self):
        # textbook max-min: one long flow across both links, one short per link
        # caps 10 and 20: long flow limited to 5 by link 0, short flows take
        # the rest of their links.
        rates = solve([(0, 1), (0, -1), (-1, 1)], [10.0, 20.0])
        assert rates.tolist() == [5.0, 5.0, 15.0]

    def test_unconstrained_flow_is_unbounded(self):
        rates = solve([(-1, -1)], [10.0])
        assert rates.tolist() == [math.inf]

    def test_infinite_capacity(self):
        rates = solve([(0, 1), (0, 1)], [math.inf, math.inf])
        assert rates.tolist() == [math.inf, math.inf]

    def test_symmetric_flows_get_bit_identical_rates(self):
        rng = np.random.default_rng(11)
        caps = rng.uniform(1.0, 100.0, size=8)
        flows = [(0, 4), (0, 4), (0, 4), (1, 5), (1, 5)]
        rates = solve(flows, caps)
        assert rates[0] == rates[1] == rates[2]
        assert rates[3] == rates[4]

    def test_empty_input(self):
        assert fairshare.solve_rates(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.ones(3)
        ).size == 0
        assert fairshare.solve_rates([], [], [1.0, 1.0, 1.0]) == []

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            fairshare.solve_rates([0, 1], [1], [1.0, 1.0])

    @pytest.mark.parametrize("link_a, link_b", [([2], [0]), ([0], [2]), ([2], [3])])
    def test_a_link_id_past_the_capacities_raises(self, link_a, link_b):
        # Every id names one of the caller's links: 2 and 3 name none of
        # these two.
        with pytest.raises(IndexError):
            fairshare.solve_rates(link_a, link_b, [1.0, 2.0])

    @pytest.mark.parametrize("link_a, link_b", [([-1], [0]), ([0], [-1]), ([-7], [-1])])
    def test_a_negative_link_id_raises(self, link_a, link_b):
        # -1 is no id either: a flow with an unconstrained side goes over
        # a link of infinite capacity, as ``with_spare`` adds one.
        with pytest.raises(IndexError):
            fairshare.solve_rates(link_a, link_b, [1.0, 2.0])

    def test_total_rate_never_exceeds_capacity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n_links = int(rng.integers(2, 10))
            n_flows = int(rng.integers(1, 40))
            caps = rng.uniform(1.0, 1000.0, size=n_links)
            flows = [
                (int(rng.integers(0, n_links)), int(rng.integers(-1, n_links)))
                for _ in range(n_flows)
            ]
            rates = solve(flows, caps)
            assert np.all(rates > 0)
            load = np.zeros(n_links)
            for (a, b), rate in zip(flows, rates):
                load[a] += rate
                if b >= 0:
                    load[b] += rate
            assert np.all(load <= caps * (1 + 1e-9))

    def test_work_conserving_on_single_link(self):
        # every byte of the bottleneck is handed out
        for n in (1, 2, 3, 7):
            rates = solve([(0, -1)] * n, [100.0])
            assert math.fsum(rates) == pytest.approx(100.0, abs=1e-9)



def hex_rates(link_a, link_b, capacity, as_array):
    """solve_rates on lists or on arrays, with each unconstrained side on
    a spare link, and the scalar reference, as float bit patterns."""
    ends = on_spare(link_a, len(capacity)), on_spare(link_b, len(capacity))
    if as_array:
        got = fairshare.solve_rates(
            np.array(ends[0], dtype=np.int64), np.array(ends[1], dtype=np.int64),
            np.array(with_spare(capacity), dtype=np.float64),
        )
        assert got.dtype == np.float64
        got = got.tolist()
    else:
        got = fairshare.solve_rates(*ends, with_spare(capacity))
        assert type(got) is list
    want = progressive_filling(link_a, link_b, capacity)
    return [x.hex() for x in got], [x.hex() for x in want]


INPUTS = pytest.mark.parametrize("as_array", [False, True], ids=["lists", "arrays"])


def capacities_and_flows(n_links):
    """Capacities and flows over ``n_links`` links, with both ends on one
    link, unconstrained (-1, -1) flows and infinite capacities among the
    constrained ones.  Capacities in tenths make several links tie for the
    bottleneck, exactly or, after rounding in earlier rounds, within an
    ulp."""
    capacity = st.lists(
        st.one_of(st.floats(0.5, 500.0), st.integers(1, 30).map(lambda k: k / 10), st.just(math.inf)),
        min_size=n_links, max_size=n_links,
    )
    link = st.integers(-1, n_links - 1)
    return capacity, st.one_of(st.tuples(link, link), link.map(lambda l: (l, l)), st.just((-1, -1)))


@st.composite
def flow_sets(draw):
    capacity, flow = capacities_and_flows(draw(st.integers(1, 8)))
    flows = draw(st.lists(flow, max_size=40))
    return [a for a, _ in flows], [b for _, b in flows], draw(capacity)


@st.composite
def event_batches(draw):
    """Capacities and a list of batches solved one after another.  An
    operation is a flow ``(a, b)`` to add or an int ``k`` that removes the
    present flow at index k modulo their count, so a batch can also remove
    a flow it added."""
    capacity, flow = capacities_and_flows(draw(st.integers(1, 6)))
    batches = st.lists(st.lists(st.one_of(flow, st.integers(0, 1000)), max_size=8),
                       min_size=1, max_size=10)
    return draw(capacity), draw(batches)


@st.composite
def long_event_batches(draw):
    """As ``event_batches``, over 32 to 40 links and with a first batch of
    40 to 80 arrivals, so that later solves refill many rounds over many
    loaded links: the refills that set far links aside."""
    capacity, flow = capacities_and_flows(draw(st.integers(32, 40)))
    first = draw(st.lists(flow, min_size=40, max_size=80))
    batches = st.lists(st.lists(st.one_of(flow, st.integers(0, 1000)), min_size=1, max_size=8),
                       min_size=1, max_size=6)
    return draw(capacity), [first, *draw(batches)]


class TestReferenceEquivalence:
    @INPUTS
    def test_seeded_cases_bit_identical(self, as_array):
        rng = np.random.default_rng(99)
        for _ in range(25):
            n_links = int(rng.integers(2, 12))
            n_flows = int(rng.integers(1, 60))
            caps = rng.uniform(0.5, 500.0, size=n_links)
            a = rng.integers(0, n_links, size=n_flows)
            b = rng.integers(-1, n_links, size=n_flows)
            got, want = hex_rates(a.tolist(), b.tolist(), caps.tolist(), as_array)
            assert got == want

    @given(case=flow_sets())
    # 0.3 / 3 rounds to one ulp below 0.1: link 0 alone is the bottleneck.
    @example(case=([0, 0, 0, 1], [-1, -1, -1, -1], [0.3, 0.1]))
    @settings(max_examples=300, deadline=None)
    def test_generated_flow_sets_bit_identical(self, case):
        got, want = hex_rates(*case, as_array=False)
        link_a, link_b, capacity = case
        flows = [tuple(l for l in ends if l >= 0) for ends in zip(link_a, link_b)]
        assert max_min_violations(flows, [float.fromhex(x) for x in got], capacity) == []
        assert got == want

    @INPUTS
    def test_capacity_is_left_unchanged(self, as_array):
        # The simulator passes the same capacity list on every call.
        wrap = np.array if as_array else list
        capacity = wrap(with_spare([10.0, 3.0, math.inf, 7.5]))
        before = list(capacity)
        # A flow with both ends on one link counts twice on it: link 1 gives
        # each of its three flow ends 1, and link 3 each of its three 2.5.
        rates = fairshare.solve_rates(wrap(on_spare([0, 1, 0, 2, -1, 3], 4)),
                                      wrap(on_spare([1, 1, -1, 3, -1, 3], 4)), capacity)
        assert list(rates) == [1.0, 1.0, 9.0, 2.5, math.inf, 2.5]
        assert [x.hex() for x in capacity] == [x.hex() for x in before]


def apply_batch(state, present, batch, spare):
    """Apply one of ``event_batches``' batches to ``state``, whose link
    ``spare`` takes each unconstrained side; ``present`` lists the flows in
    it, with their ends, in arrival order."""
    for op in batch:
        if isinstance(op, tuple):
            flow = fairshare.Flow()
            state.add(flow, tuple(on_spare(op, spare)))
            present.append((flow, op))
        elif present:
            flow, _ = present.pop(op % len(present))
            state.remove(flow)


def assert_matches_reference(state, present, capacity):
    assert list(state.flows) == [f for f, _ in present]
    want = progressive_filling([a for _, (a, _) in present], [b for _, (_, b) in present], capacity)
    assert [f.rate.hex() for f, _ in present] == [x.hex() for x in want]


def sets_links_aside(rounds_before, state):
    """Whether the solve that left ``state`` set links aside: it refilled
    a long log over enough loaded links, and a link's share at the
    refill's first round was more than twice that round's level."""
    level, rem, cnt, _ = state.log[state.kept]
    loaded = [l for l, c in enumerate(cnt) if c]
    return (rounds_before - state.kept > fairshare._LONG_ROUNDS
            and len(loaded) >= fairshare._LONG_LINKS and level != math.inf
            and any(rem[l] / cnt[l] > fairshare._ASIDE * level for l in loaded))


def check_every_solve(capacity, batches):
    """Drive two ``FairShare``s through ``batches`` (see ``event_batches``)
    and check them as ``TestWarmStart`` says; return how many solves set
    links aside."""
    # ``state`` is solved after every batch; ``once`` gets every batch
    # before its only solve, which takes each link's flow ends from the
    # change log alone.
    state, once = (fairshare.FairShare(with_spare(capacity)) for _ in range(2))
    present, pending = [], []
    aside = 0
    for batch in batches:
        before = [(entry, list(entry[3])) for entry in state.log]
        apply_batch(state, present, batch, len(capacity))
        apply_batch(once, pending, batch, len(capacity))
        state.solve()
        aside += sets_links_aside(len(before), state)
        assert max_min_violations([f.links for f, _ in present],
                                  [f.rate for f, _ in present], with_spare(capacity)) == []
        assert_matches_reference(state, present, capacity)
        assert 0 <= state.kept < len(state.log)
        for (entry, froze), after in zip(before[:state.kept], state.log):
            assert after is entry and after[3] == froze
        round_of = {}
        for j, (level, rem, cnt, froze) in enumerate(state.log):
            # The freeze loop does not clamp: a remainder may go below
            # zero only as its link's last end freezes.
            assert [l for l, c in enumerate(cnt) if c > 0 and rem[l] < 0] == []
            for flow in froze:
                assert flow not in round_of
                round_of[flow] = j
                assert flow.rate.hex() == level.hex()
        # An unconstrained side is on the spare link, so every flow is
        # in a round: one over infinite links only in a round at an
        # infinite level, like any other.  The terminal round froze none.
        assert set(round_of) == {flow for flow, _ in present}
        assert state.log[-1][3] == []
        # The warm solve logs the rounds of a cold solve of the same
        # flows: the same levels, each freezing the same flows in the
        # same order.
        cold, twin = fairshare.FairShare(with_spare(capacity)), {}
        for flow, _ in present:
            twin[flow] = fairshare.Flow()
            cold.add(twin[flow], flow.links)
        cold.solve()
        assert [(level.hex(), [twin[f] for f in froze]) for level, _, _, froze in state.log] == \
            [(level.hex(), froze) for level, _, _, froze in cold.log]
    once.solve()
    assert_matches_reference(once, pending, capacity)
    return aside


# Over links 0 (1.0), 1 and 2 (both infinite) and the spare link 3: round
# 0 freezes the flow on link 0, and round 1, at an infinite level, the
# flow over links 1 and 2.  The next batch adds a flow on link 2 and
# removes the flow frozen in round 0.
INFINITE_ROUND = ([1.0, math.inf, math.inf], [[(0, -1), (1, 2)], [(2, -1), 0]])


class TestWarmStart:
    """A FairShare solved after every batch of arrivals and departures
    must give each present flow the rate a cold solve of the same flows
    gives, bit for bit, log the rounds that cold solve logs, and log them
    as ``TestRoundLog`` says."""

    @given(case=event_batches())
    # An arrival on link 1 keeps round 0 (10 / 3 > 0.5) and refills from
    # round 1; the departure of a flow frozen in round 0 then refills from
    # round 0, whose unfrozen count on link 1 must include the arrival.
    @example(case=([1.0, 10.0], [[(0, -1), (0, 1), (-1, 1)], [(-1, 1)], [1]]))
    # An arrival whose link's share ties round 0's level (1 / 3) exactly
    # must refill round 0: frozen in round 1 it would get (2 / 3) / 2,
    # one ulp above 1 / 3.
    @example(case=([1.0, 1.0], [[(0, 1), (1, 1)], [(0, 0)]]))
    # Before ``once``'s solve, link 0 gains three flow ends and loses all
    # three, and link 1 gains two and loses one.
    @example(case=([2.0, 5.0], [[(0, 1), (0, 0), 0, (-1, 1)], [0]]))
    # A departure from round 1 keeps round 0 (the flow on link 0).
    @example(case=([1.0, 4.0], [[(0, -1), (-1, 1), (-1, 1)], [1]]))
    # Link 1's remainder ends below zero as its last end freezes, and a
    # flow then arrives on link 1.
    @example(case=([2.1, 2.1, 1.0], [[(0, 1), (0, 1), (0, 1), (2, -1)], [(-1, 1)]]))
    # A flow arrives on link 2, which has had no flow ends, and its share
    # there (0.1) is below round 0's level (0.2): refilling from round 0
    # charges link 0 with 0.1 before 0.2, as a cold solve does, and
    # 0.7 - 0.2 - 0.1 is one ulp below 0.7 - 0.1 - 0.2.
    @example(case=([0.7, 0.2, 0.1], [[(1, 0), (0, -1)], [(2, 0)]]))
    # See TestRoundLog.test_an_infinite_round_leaves_nan_only_where_it_is_never_read.
    @example(case=INFINITE_ROUND)
    @settings(max_examples=300, deadline=None)
    def test_every_solve_matches_the_reference(self, case):
        check_every_solve(*case)

    @given(case=long_event_batches())
    @settings(max_examples=100, deadline=None)
    def test_long_refills_match_the_reference(self, case):
        check_every_solve(*case)

    def test_seeded_long_refills_set_links_aside(self):
        # Fixed draws of ``long_event_batches``' shape, so that every run
        # refills with links aside, whatever hypothesis draws.
        rng = random.Random(34)
        aside = solves = 0
        for _ in range(20):
            n_links = rng.randint(32, 40)
            capacity = [rng.choice((rng.uniform(0.5, 500.0), rng.randint(1, 30) / 10, math.inf))
                        for _ in range(n_links)]

            def flow():
                return rng.randrange(n_links), rng.randrange(-1, n_links)

            batches = [[flow() for _ in range(rng.randint(40, 80))]]
            batches += [[flow() if rng.random() < 0.5 else rng.randrange(1000)
                         for _ in range(rng.randint(1, 8))] for _ in range(6)]
            aside += check_every_solve(capacity, batches)
            solves += len(batches)
        assert aside >= solves // 4

    def test_removing_a_flow_not_in_flight_raises(self):
        # A second removal would take the flow's ends off its links' counts
        # again; a flow never added has no links.  Either leaves the state
        # as it was.
        capacity = [4.0, 6.0]
        state = fairshare.FairShare(with_spare(capacity))
        present = []
        apply_batch(state, present, [(0, 1), (0, -1), 0], 2)
        state.solve()
        gone, stranger = fairshare.Flow(), fairshare.Flow()
        state.add(gone, (1, 2))
        state.remove(gone)
        for flow in (gone, stranger):
            with pytest.raises(KeyError):
                state.remove(flow)
        apply_batch(state, present, [(-1, 1)], 2)
        state.solve()
        assert_matches_reference(state, present, capacity)

    @pytest.mark.parametrize("links, error", [
        ((), ValueError), ((1,), ValueError), ((0, 1, 2), ValueError),
        ((0, 3), IndexError), ((-1, 0), IndexError),
    ], ids=["none", "one", "three", "past-the-links", "negative"])
    def test_adding_a_flow_that_is_not_over_two_links_raises(self, links, error):
        # Each flow is two link ids; anything else is refused before the
        # flow joins the flows in flight, the change log or a link's flows.
        capacity = [4.0, 6.0]
        state = fairshare.FairShare(with_spare(capacity))
        present = []
        apply_batch(state, present, [(0, 1), (0, -1)], 2)
        state.solve()
        apply_batch(state, present, [(1, 1)], 2)
        before = (list(state.flows), dict(state.changes),
                  [list(on) for on in state._flows_on])
        with pytest.raises(error):
            state.add(fairshare.Flow(), links)
        assert (list(state.flows), dict(state.changes),
                [list(on) for on in state._flows_on]) == before
        state.solve()
        assert_matches_reference(state, present, capacity)


def refill_from_round_0(capacity, flows):
    """Solve ``flows`` over ``capacity``, preceded by a probe link of
    capacity 2**-10 with one flow, whose round comes first; then remove
    the probe's flow and solve again, which refills every round of a long
    log from round 0.  Both solves are checked as ``TestWarmStart`` says;
    return how many set links aside."""
    capacity = [2.0 ** -10, *capacity]
    flows = [tuple(l + 1 if l >= 0 else l for l in ends) for ends in flows]
    return check_every_solve(capacity, [[(0, -1), *flows], [0]])


def fillers(first):
    """The capacities and flows of 32 links of capacity 100, numbered from
    ``first``, each with one unconstrained flow: enough loaded links for a
    refill to set links aside, all far above its first level."""
    return [100.0] * 32, [(first + i, -1) for i in range(32)]


class TestSetAside:
    """Hand-built refills in which ``FairShare._fill`` sets links aside."""

    def test_a_set_aside_share_that_falls_to_a_level_comes_back_in_time(self):
        # Link 0 (10 flows at 1/64) is the first level; links 1 and 2 are
        # scanned, link 3 (six flows) is set aside at 0.61 / 6.  Round 0
        # leaves one flow on link 1 at ``level``, three ulps below
        # 0.61 / 6, and one on link 2 at ``tie``.  Link 1's round charges
        # link 3 with ``level``, and its share falls to ``tie``, one ulp
        # below where it was set aside: so links 2 and 3 saturate together
        # in the next round, as in a cold solve.  A floor without the
        # margin would keep link 3 aside in that round, and log it in a
        # round of its own at the same level.
        level = float.fromhex("0x1.a06d3a06d3a04p-4")
        tie = float.fromhex("0x1.a06d3a06d3a06p-4")
        assert (0.61 - level) / 5 == tie < 0.61 / 6
        caps, spread = fillers(4)
        capacity = [10 / 64, level + 5 / 64, tie + 5 / 64, 0.61, *caps]
        flows = [(0, 1)] * 5 + [(0, 2)] * 5 + [(3, 1), (2, -1)] + [(3, -1)] * 5 + spread
        assert refill_from_round_0(capacity, flows) == 1

    def test_every_scanned_link_empties_in_one_round(self):
        # Links 0 and 1 share the first level, 1, and saturate in round
        # 0, which leaves no link to scan: every link set aside comes
        # back, link 2 at 99 ahead of the other fillers at 100.
        caps, spread = fillers(2)
        assert refill_from_round_0([1.0, 2.0, *caps],
                                   [(0, 2), (1, -1), (1, -1), *spread]) == 1

    def test_set_aside_links_come_back_for_the_infinite_round(self):
        # Links 0-2 are scanned, at levels 1, 1.5 and 2; every link set
        # aside has an infinite capacity, so the floor is infinite: they
        # come back only when no finite share is left, and the next round,
        # at an infinite level, saturates them all and freezes their flows.
        flows = [(0, -1), (1, -1), (2, -1)] + [(3 + i, 3 + (i + 1) % 32) for i in range(32)]
        assert refill_from_round_0([1.0, 1.5, 2.0, *[math.inf] * 32], flows) == 1


class TestRoundLog:
    """The event loop treats each round of ``FairShare.log`` as one rate
    class and keeps its own entries for the first ``kept`` rounds."""

    def test_an_infinite_round_leaves_nan_only_where_it_is_never_read(self):
        # The infinite round freezes the flow on link 1 and charges link 2,
        # whose remainder becomes inf - inf: NaN, with a count of 0.  A
        # flow then arrives on link 2, and the refill starts from a round
        # logged before the infinite round charged it.
        capacity, (first, second) = INFINITE_ROUND
        state = fairshare.FairShare(with_spare(capacity))
        present = []
        apply_batch(state, present, first, len(capacity))
        state.solve()
        assert [(level, len(froze)) for level, _, _, froze in state.log] == \
            [(1.0, 1), (math.inf, 1), (math.inf, 0)]
        _, rem, cnt, _ = state.log[-1]
        assert math.isnan(rem[2]) and cnt[2] == 0
        apply_batch(state, present, second, len(capacity))
        state.solve()
        assert state.kept == 0
        assert not any(math.isnan(x) for _, rem, _, _ in state.log[:-1] for x in rem)
        assert max_min_violations([f.links for f, _ in present],
                                  [f.rate for f, _ in present], with_spare(capacity)) == []
        assert_matches_reference(state, present, capacity)

    def test_a_remainder_below_zero_is_never_read(self):
        # Three flows over links 0 and 1 (2.1 each) saturate both at
        # 2.1 / 3.  Link 0 freezes them and charges link 1, whose
        # remainder ends one ulp below zero as its last end freezes; link
        # 0's own remainder stays 2.1.  Link 2 adds a second round, whose
        # log holds both.  A flow then arrives on link 1: the next solve
        # must refill from round 0, where link 1's remainder is exact.
        capacity = [2.1, 2.1, 1.0]
        state = fairshare.FairShare(with_spare(capacity))
        present = []
        apply_batch(state, present, [(0, 1), (0, 1), (0, 1), (2, -1)], len(capacity))
        state.solve()
        _, rem, cnt, _ = state.log[1]
        assert (cnt[0], rem[0], cnt[1]) == (0, 2.1, 0) and rem[1] < 0.0
        apply_batch(state, present, [(-1, 1)], len(capacity))
        state.solve()
        assert state.kept == 0
        assert max_min_violations([f.links for f, _ in present],
                                  [f.rate for f, _ in present], with_spare(capacity)) == []
        assert_matches_reference(state, present, capacity)


class TestMaxMinCertificate:
    """The kernel's rates against the definition of max-min fairness,
    which ``tests/maxmin_certificate.py`` checks without filling."""

    @pytest.mark.parametrize("flows, rates, problem", [
        ([(0,), (0,)], [6.0, 5.0], "link 0 carries 11.0 over its capacity 10.0"),
        ([(0,), (0, 1)], [6.0, 4.0], "flow 1 at 4.0 has no bottleneck link"),
        ([(0, 1)], [9.0], "flow 0 at 9.0 has no bottleneck link"),
        ([(1,), (0, 2)], [math.inf, 10.0], "flow 0 has an infinite rate over a finite link"),
        ([(2,)], [1e300], "flow 0 at 1e+300 has no bottleneck link"),
        ([(0, 0)], [5.0 * (1 - 1e-7)], "flow 0 at 4.9999995 has no bottleneck link"),
    ], ids=["overload", "higher-rate-on-its-link", "unsaturated", "infinite-on-finite",
            "finite-on-unbounded", "both-ends-short"])
    def test_a_violation_is_named(self, flows, rates, problem):
        assert problem in max_min_violations(flows, rates, [10.0, 20.0, math.inf])

    def test_every_solve_of_a_consolidation(self, certified_solves):
        # The warm-started flow sets of one benchmark consolidation op:
        # two copies of a 15-worker, 15-PS vgg11 baseline job on 64x8.
        cluster = dataclasses.replace(simulator.DEFAULT_CLUSTER, machines=64, gpus_per_machine=8)
        spec = JobSpec(model=catalog_lookup("vgg11"), strategy=Strategy.baseline(),
                       worker_count=15, ps_count=15)
        placement = simulator.spread_placement(cluster, [(15, 15)])[0]
        simulator.simulate_consolidation(
            simulator.Scenario(cluster=cluster, jobs=(("vgg11", spec, placement),)), copies=2)
        # The consolidated run's flow sets hold both copies' pushes.
        assert max(certified_solves) > 15 * 15
