"""Multiset algebra: worked values, trivia, and pointwise-oracle properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomsetblock import DimensionMismatch, Multiset, ParseError


def ms(text, n=5, h=3):
    return Multiset.parse(text, n, h)


class TestWorkedValues:
    # the running five-element example: I1={2/1}, I3={3/1,1/3}, I6={3/1,3/2,2/3,2/4}

    def test_cardinality_of_full(self):
        assert Multiset.full(5, 3).cardinality == 15

    def test_sum_clips_at_height(self):
        assert ms("2/1").mset_sum(ms("3/1 1/3")) == ms("3/1 1/3")
        assert ms("2/1").mset_sum(ms("2/1")) == ms("3/1")

    def test_diff_floors_at_zero(self):
        assert ms("2/1").mset_diff(ms("3/1 1/3")) == Multiset.empty(5, 3)
        assert ms("3/1 1/3").mset_diff(ms("2/1")) == ms("1/1 1/3")

    def test_union_intersection(self):
        i3, i6 = ms("3/1 1/3"), ms("3/1 3/2 2/3 2/4")
        assert i3.union(i6) == ms("3/1 3/2 2/3 2/4")
        assert i3.intersection(i6) == ms("3/1 1/3")

    def test_submset(self):
        assert ms("2/1").is_submset(ms("3/1 1/3"))
        assert not ms("3/2").is_submset(ms("3/1"))

    def test_root_set(self):
        assert ms("3/1 1/3").root_set == frozenset({1, 3})
        assert Multiset.empty(5, 3).root_set == frozenset()
        assert Multiset(5, 3, (1, 1, 1, 1, 1)).root_set == frozenset({1, 2, 3, 4, 5})


class TestBasics:
    def test_empty_cardinality(self):
        assert Multiset.empty(4, 2).cardinality == 0

    def test_direct_sum_of_counts(self):
        assert ms("2/1 1/3").cardinality == 3

    def test_identity_and_idempotence(self):
        a = ms("2/1 1/3")
        empty = Multiset.empty(5, 3)
        assert a.mset_sum(empty) == a
        assert a.mset_diff(empty) == a
        assert a.union(a) == a
        assert a.intersection(a) == a
        assert a.is_submset(a)

    @pytest.mark.parametrize("bad", [1.9, "2"])
    def test_non_integer_count_is_a_type_error(self, bad):
        # not truncated to a count: 1.9 must not read as 1
        with pytest.raises(TypeError):
            Multiset(2, 2, (bad, 2))

    @pytest.mark.parametrize("bad", [2.0, "2"])
    def test_non_integer_size_or_height_is_a_type_error(self, bad):
        with pytest.raises(TypeError):
            Multiset(bad, 2, (1, 1))
        with pytest.raises(TypeError):
            Multiset(2, bad, (1, 1))

    def test_complement_of_full_is_empty(self):
        assert Multiset.full(5, 3).complement() == Multiset.empty(5, 3)

    def test_dimension_mismatch_is_loud(self):
        with pytest.raises(DimensionMismatch):
            ms("1/1").mset_sum(Multiset.empty(4, 3))
        with pytest.raises(DimensionMismatch):
            ms("1/1").union(Multiset.empty(5, 2))

    def test_count_bounds_enforced(self):
        with pytest.raises(ValueError):
            Multiset(3, 2, (0, 3, 0))
        with pytest.raises(ValueError):
            Multiset(3, 2, (-1, 0, 0))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            Multiset.parse("3-1", 5, 3)
        with pytest.raises(ParseError):
            Multiset.parse("1/9", 5, 3)
        with pytest.raises(ParseError):
            Multiset.parse("1/2 2/2", 5, 3)
        with pytest.raises(ParseError):
            Multiset.parse("4/1", 5, 3)

    def test_literal_round_trip(self):
        for text in ("-", "3/1 1/3", "3/1 3/2 2/3 2/4"):
            assert Multiset.parse(text, 5, 3).literal() == text


pairs = st.integers(1, 8).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda h: st.tuples(
            st.just(n),
            st.just(h),
            st.lists(st.integers(0, h), min_size=n, max_size=n),
            st.lists(st.integers(0, h), min_size=n, max_size=n),
        )
    )
)


@given(pairs)
@settings(max_examples=200)
def test_pointwise_ops_match_scalar_oracle(data):
    n, h, xs, ys = data
    a, b = Multiset(n, h, tuple(xs)), Multiset(n, h, tuple(ys))
    for i in range(1, n + 1):
        x, y = a.count(i), b.count(i)
        assert a.mset_sum(b).count(i) == min(x + y, h)
        assert a.mset_diff(b).count(i) == max(x - y, 0)
        assert a.union(b).count(i) == max(x, y)
        assert a.intersection(b).count(i) == min(x, y)
        assert a.complement().count(i) == h - x


@given(pairs)
@settings(max_examples=200)
def test_algebraic_laws(data):
    n, h, xs, ys = data
    a, b = Multiset(n, h, tuple(xs)), Multiset(n, h, tuple(ys))
    empty = Multiset.empty(n, h)
    assert a.mset_sum(b) == b.mset_sum(a)
    assert a.mset_sum(empty) == a
    assert a.mset_diff(b).is_submset(a)
    assert a.intersection(b).is_submset(a)
    assert a.is_submset(a.union(b))
    assert a.complement().complement() == a
    # inclusion-exclusion on cardinalities
    assert (
        a.union(b).cardinality + a.intersection(b).cardinality
        == a.cardinality + b.cardinality
    )


@given(pairs, st.lists(st.integers(0, 5), min_size=1, max_size=8))
@settings(max_examples=100)
def test_sum_associative(data, extra):
    n, h, xs, ys = data
    zs = [min(extra[i % len(extra)], h) for i in range(n)]
    a, b, c = (Multiset(n, h, tuple(v)) for v in (xs, ys, zs))
    assert a.mset_sum(b).mset_sum(c) == a.mset_sum(b.mset_sum(c))
