"""The span routine against the coefficient odometer and the pair scan."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pomsetblock import (
    BlockSpace,
    Code,
    antichain_space,
    i_ball,
)

from helpers import five_pomset, odometer_span, pair_scan_closed


# Z_m^N with m in 2..6 and N in 1..3: at most 216 words, so every oracle
# stays cheap while spans of several rows still mix
small_spaces = st.tuples(st.integers(2, 6), st.integers(1, 3)).map(
    lambda mn: antichain_space(mn[0], (1,) * mn[1])
)


def words_of(space):
    return st.tuples(*[st.integers(0, space.m - 1)] * space.N)


@given(small_spaces.flatmap(
    lambda sp: st.tuples(st.just(sp), st.lists(words_of(sp), max_size=4))))
@settings(max_examples=150, deadline=None)
def test_span_matches_odometer(case):
    space, rows = case
    want = odometer_span(space, rows)
    assert space.span(rows, space.size()) == want
    assert Code.from_generators(space, rows).coord_set == want
    # a limit below the span stops early with a part of it that is too big
    limit = len(want) - 1
    part = space.span(rows, limit)
    assert len(part) > limit and part <= want


def test_a_row_of_huge_order_stops_at_the_limit():
    # m = 10^30: the row's m - 1 multiples could never all be listed
    space = antichain_space(10**30, (1, 1))
    assert len(space.span([(1, 0)], 1000)) == 1001
    half = 10**30 // 2  # a row of order 2 keeps its whole span
    assert space.span([(half, 0)], 1000) == {(0, 0), (half, 0)}


def test_no_rows_span_the_zero_code():
    space = antichain_space(5, (2, 1))
    code = Code.from_generators(space, [])
    assert code.coord_set == {(0, 0, 0)} and code.linear


def candidate_sets(space):
    """Spans, spans with one word removed or added, and arbitrary sets."""
    def mutate(args):
        rows, drop, extra = args
        words = odometer_span(space, rows)
        if drop is not None and len(words) > 1:
            words.discard(sorted(words)[drop % len(words)])
        if extra is not None:
            words.add(extra)
        return words

    spans = st.tuples(
        st.lists(words_of(space), max_size=3),
        st.none() | st.integers(0, 10**6),
        st.none() | words_of(space),
    ).map(mutate)
    arbitrary = st.sets(words_of(space), min_size=1, max_size=12)
    return st.one_of(spans, arbitrary).filter(bool)


@given(small_spaces.flatmap(
    lambda sp: st.tuples(st.just(sp), candidate_sets(sp))))
@settings(max_examples=300, deadline=None)
def test_linear_and_closure_verdict_match_pair_scan(case):
    space, words = case
    want = pair_scan_closed(space, words)
    assert Code(space, words).linear == want
    assert (space.span(words, len(words)) == words) == want


def test_ball_submodule_verdicts_match_pair_scan():
    # full-count balls are submodules; partial-count balls are not
    space = BlockSpace(4, five_pomset(2), (1, 1, 1, 1, 1))
    zero = space.zero()
    for ideal in space.pomset.ideals():
        ball = {v.coords for v in i_ball(zero, ideal)}
        want = pair_scan_closed(space, ball)
        assert want == ideal.is_full_count()
        assert (space.span(ball, len(ball)) == ball) == want
