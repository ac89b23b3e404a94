"""Pomsets and ideals: construction, generation, duality, enumeration."""

import ast
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pomsetblock
from pomsetblock import (
    CycleDetected,
    Ideal,
    Multiset,
    NotAnIdeal,
    Pomset,
    SpaceTooLarge,
)

from helpers import (
    brute_force_ideal_vectors,
    closure_by_matrix,
    cover_pairs_by_scan,
    five_pomset,
    is_chain_by_pairs,
    is_ideal_by_law,
    maximal_root_by_above,
)


def ms(text, n=5, h=3):
    return Multiset.parse(text, n, h)


class TestConstruction:
    def test_closure_is_stored(self):
        p = Pomset(3, 2, [(1, 2), (2, 3)])
        assert p.is_below(1, 3)
        assert (1, 3) in p.relation

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            Pomset(3, 2, [(1, 2), (2, 1)])
        with pytest.raises(CycleDetected):
            Pomset(4, 2, [(1, 2), (2, 3), (3, 1)])

    @pytest.mark.parametrize("bad", [1.5, "1"])
    def test_non_integer_index_is_a_type_error(self, bad):
        with pytest.raises(TypeError):
            Pomset(3, 2, [(bad, 2)])

    @pytest.mark.parametrize("bad", [3.0, "3"])
    def test_non_integer_size_or_height_is_a_type_error(self, bad):
        with pytest.raises(TypeError):
            Pomset(bad, 2)
        with pytest.raises(TypeError):
            Pomset(3, bad)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            Pomset(3, 2, [(0, 1)])
        with pytest.raises(ValueError):
            Pomset(3, 2, [(1, 4)])
        with pytest.raises(ValueError):
            Pomset(3, 2, [(2, 2)])

    def test_example_order(self):
        p = Pomset(5, 3, [(1, 3), (2, 4), (2, 5)])
        assert p.relation == frozenset({(1, 3), (2, 4), (2, 5)})
        assert not p.is_chain()
        assert p.maximal_indices() == (3, 4, 5)

    def test_antichain_and_chain_predicates(self):
        assert Pomset(4, 1).is_antichain()
        chain = Pomset(4, 1, [(i, i + 1) for i in range(1, 4)])
        assert chain.is_chain()
        assert not chain.is_antichain()
        assert Pomset(1, 1).is_chain()  # single element is both

    def test_cover_pairs_drop_transitive_edges(self):
        p = Pomset(3, 2, [(1, 2), (2, 3), (1, 3)])
        assert p.cover_pairs() == [(1, 2), (2, 3)]

    def test_a_long_chain_builds_in_linear_passes(self):
        started = time.perf_counter()
        p = Pomset(3000, 1, [(i, i + 1) for i in range(1, 3000)])
        assert time.perf_counter() - started < 1
        assert p.is_chain() and p.is_below(1, 3000) and not p.is_below(3000, 1)


class TestIdeals:
    def test_known_ideals_pass(self):
        p = five_pomset()
        for text in ("2/1", "3/1", "3/1 1/3", "3/2 3/4", "3/2 1/4 2/5",
                     "3/1 3/2 2/3 2/4", "3/1 3/2 3/3 3/4 3/5"):
            assert p.is_ideal(ms(text)), text

    def test_down_closure_violation(self):
        p = five_pomset()
        assert not p.is_ideal(ms("2/1 1/3"))  # 3 present but 1 not full
        with pytest.raises(NotAnIdeal):
            Ideal(p, ms("2/1 1/3"))

    def test_empty_is_vacuously_ideal(self):
        assert five_pomset().is_ideal(Multiset.empty(5, 3))

    def test_generated_from_singleton(self):
        p = five_pomset()
        assert p.ideal_generated(ms("2/3")).counts == ms("3/1 2/3")

    def test_generated_is_fixed_point_on_ideals(self):
        p = five_pomset()
        for ideal in p.ideals():
            assert p.ideal_generated(ideal.counts).counts == ideal.counts

    def test_generated_on_two_chain_order(self):
        p = Pomset(6, 3, [(1, 2), (2, 4), (1, 4), (5, 6)])
        gen = p.ideal_generated(Multiset.parse("1/4 2/6", 6, 3))
        assert gen.counts == Multiset.parse("3/1 3/2 1/4 3/5 2/6", 6, 3)
        assert gen.cardinality == 12

    def test_full_vs_partial_count(self):
        p = five_pomset()
        assert Ideal(p, ms("3/1")).is_full_count()
        assert Ideal(p, ms("3/2 3/4")).is_full_count()
        assert not Ideal(p, ms("3/1 1/3")).is_full_count()
        assert not Ideal(p, ms("2/1")).is_full_count()


class TestMaximalElements:
    def test_chain_below_maximal(self):
        p = five_pomset()
        assert Ideal(p, ms("3/1 2/3")).maximal_elements() == ms("2/3")

    def test_antichain_ideal_is_its_own_maximum(self):
        p = Pomset(4, 2)
        m = Multiset.parse("1/1 2/3", 4, 2)
        assert Ideal(p, m).maximal_elements() == m

    def test_two_maximal_elements(self):
        p = five_pomset()
        assert Ideal(p, ms("3/1 3/2 2/3 2/4")).maximal_elements() == ms("2/3 2/4")


class TestDuality:
    def test_dual_reverses(self):
        p = five_pomset()
        d = p.dual()
        assert d.minimal_indices() == (3, 4, 5)
        assert d.is_below(3, 1)

    def test_dual_involution(self):
        p = five_pomset()
        assert p.dual().dual() == p
        assert Pomset(3, 1).dual() == Pomset(3, 1)

    def test_complement_lands_in_dual(self):
        p = five_pomset()
        c = Ideal(p, ms("3/1")).complement()
        assert c.pomset == p.dual()
        assert c.counts == ms("3/2 3/3 3/4 3/5")
        assert Ideal(p, Multiset.full(5, 3)).complement().counts == Multiset.empty(5, 3)
        assert Ideal(p, Multiset.empty(5, 3)).complement().counts == Multiset.full(5, 3)

    @pytest.mark.parametrize("pairs,n,h", [
        ((), 3, 2),
        (((1, 2),), 3, 3),
        (((1, 2), (2, 3)), 3, 2),
        (((1, 3), (2, 4), (2, 5)), 5, 3),
        (((1, 2), (1, 3), (4, 3)), 4, 2),
    ])
    def test_dual_ideals_are_exactly_complements(self, pairs, n, h):
        p = Pomset(n, h, pairs)
        dual_vectors = {i.counts.counts for i in p.dual().ideals()}
        complements = {i.complement().counts.counts for i in p.ideals()}
        assert dual_vectors == complements


class TestEnumeration:
    def test_cardinality_three_ideals(self):
        p = five_pomset()
        got = [i.counts.literal() for i in p.ideals_of_cardinality(3)]
        assert sorted(got) == sorted(["3/1", "3/2", "2/1 1/2", "1/1 2/2"])

    def test_edge_cardinalities(self):
        p = five_pomset()
        assert [i.counts for i in p.ideals_of_cardinality(0)] == [Multiset.empty(5, 3)]
        assert [i.counts for i in p.ideals_of_cardinality(15)] == [Multiset.full(5, 3)]
        with pytest.raises(ValueError):
            p.ideals_of_cardinality(16)

    @pytest.mark.parametrize("pairs,n,h", [
        ((), 4, 3),
        (((1, 2), (2, 3)), 3, 3),
        (((1, 3), (2, 4), (2, 5)), 5, 3),
        (((1, 2), (3, 4)), 4, 2),
        (((1, 4), (2, 4), (3, 4)), 4, 2),
    ])
    def test_enumeration_matches_brute_force(self, pairs, n, h):
        p = Pomset(n, h, pairs)
        assert [i.counts.counts for i in p.ideals()] == brute_force_ideal_vectors(p)

    def test_by_maximal_count_partitions(self):
        p = five_pomset()
        by_j = {1: {"3/1", "3/2"}, 2: {"2/1 1/2", "1/1 2/2"}}
        for j, expected in by_j.items():
            got = {i.counts.literal() for i in p.ideals_by_maximal_count(3, j)}
            assert got == expected
        for t in range(0, 16):
            whole = {i.counts.counts for i in p.ideals_of_cardinality(t)}
            parts = set()
            for j in range(1, min(t, 5) + 1):
                for ideal in p.ideals_by_maximal_count(t, j):
                    assert ideal.counts.counts not in parts
                    parts.add(ideal.counts.counts)
            if t == 0:
                assert whole == {Multiset.empty(5, 3).counts}
            else:
                assert parts == whole

    def test_chain_has_unique_ideal_per_cardinality(self):
        chain = Pomset(4, 2, [(i, i + 1) for i in range(1, 4)])
        for t in range(0, 9):
            assert len(chain.ideals_of_cardinality(t)) == 1
            if t >= 1:
                assert len(chain.ideals_by_maximal_count(t, 1)) == 1
                for j in range(2, min(t, 4) + 1):
                    assert chain.ideals_by_maximal_count(t, j) == []

    def test_cardinality_bounds_the_count_loop(self):
        # height 10^7: a count above t - total can never reach cardinality t,
        # so the enumerator tries at most t + 1 counts per position
        p = Pomset(2, 10**7)
        started = time.perf_counter()
        got = [i.counts.counts for i in p.ideals_of_cardinality(3)]
        assert time.perf_counter() - started < 2
        assert got == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_no_count_is_tried_that_cannot_make_up_t(self):
        # height 10^30: below t, a count short of the height on 1 or 2
        # holds 3 at zero, so only counts the rest can still complete run
        h = 10**30
        for pairs, n, t, want in [
            ([(1, 2)], 2, 2 * h - 1, [(h, h - 1)]),
            ([(1, 3), (2, 3)], 3, 2 * h + 1, [(h, h, 1)]),
            ([], 2, 2 * h - 1, [(h - 1, h), (h, h - 1)]),
        ]:
            started = time.perf_counter()
            got = [i.counts.counts for i in Pomset(n, h, pairs).ideals_of_cardinality(t)]
            assert time.perf_counter() - started < 2
            assert got == want

    def test_limit_bounds_the_ideals_collected(self):
        p = Pomset(12, 1)  # 2^12 ideals, C(12, 6) = 924 of cardinality 6
        assert len(p.ideals(limit=4096)) == len(p.ideals()) == 4096
        with pytest.raises(SpaceTooLarge, match="more than 4095 ideals"):
            p.ideals(limit=4095)
        assert len(p.ideals_of_cardinality(6, limit=924)) == 924
        with pytest.raises(SpaceTooLarge, match="more than 923 ideals"):
            p.ideals_of_cardinality(6, limit=923)
        # C(40, 20) ideals to list: refused after the first 1001
        started = time.perf_counter()
        with pytest.raises(SpaceTooLarge):
            Pomset(40, 1).ideals_of_cardinality(20, limit=1000)
        assert time.perf_counter() - started < 2

    def test_antichain_singletons(self):
        p = Pomset(4, 2)
        singles = p.ideals_of_cardinality(1)
        assert len(singles) == 4
        assert all(len(i.maximal_root()) == 1 for i in singles)


class TestShrink:
    def test_canonical_witness(self):
        p = five_pomset()
        assert Ideal(p, ms("3/1 1/3")).shrink(2).counts == ms("2/1")

    def test_endpoints(self):
        p = five_pomset()
        i = Ideal(p, ms("3/1 1/3"))
        assert i.shrink(4) == i
        assert i.shrink(0).counts == Multiset.empty(5, 3)
        with pytest.raises(ValueError):
            i.shrink(5)

    def test_every_intermediate_size_is_an_ideal(self):
        p = five_pomset()
        i = Ideal(p, ms("3/1 3/2 2/3 2/4"))
        for s in range(i.cardinality + 1):
            j = i.shrink(s)
            assert j.cardinality == s
            assert j.counts.is_submset(i.counts)
            assert p.is_ideal(j.counts)


simple_orders = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(1, 3),
        st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                lambda ij: ij[0] < ij[1]  # numeric direction keeps it acyclic
            ),
            max_size=6,
        ),
    )
)


@given(simple_orders, st.data())
@settings(max_examples=150)
def test_generation_laws(config, data):
    n, h, pairs = config
    p = Pomset(n, h, pairs)
    counts = st.tuples(*[st.integers(0, h)] * n)
    a = Multiset(n, h, data.draw(counts))
    b = Multiset(n, h, data.draw(counts))
    ga, gb = p.ideal_generated(a).counts, p.ideal_generated(b).counts
    # union commutes with generation even for raw submsets
    assert p.ideal_generated(a.union(b)).counts == ga.union(gb)
    # clipped sums only shrink under generation
    assert p.ideal_generated(a.mset_sum(b)).counts.is_submset(ga.mset_sum(gb))
    # idempotent and monotone
    assert p.ideal_generated(ga).counts == ga
    if a.is_submset(b):
        assert ga.is_submset(gb)


@given(simple_orders, st.data())
@settings(max_examples=100)
def test_union_intersection_of_ideals_stay_ideals(config, data):
    # the lattice laws hold verbatim on ideals (generation fixes them);
    # intersection does NOT commute with generation for raw submsets
    n, h, pairs = config
    p = Pomset(n, h, pairs)
    ideals = p.ideals()
    a = ideals[data.draw(st.integers(0, len(ideals) - 1))].counts
    b = ideals[data.draw(st.integers(0, len(ideals) - 1))].counts
    assert p.ideal_generated(a.union(b)).counts == a.union(b)
    assert p.ideal_generated(a.intersection(b)).counts == a.intersection(b)
    assert p.ideal_generated(a.mset_sum(b)).counts == a.mset_sum(b)


@given(simple_orders, st.data())
@settings(max_examples=60)
def test_sub_ideals_of_every_size_exist(config, data):
    n, h, pairs = config
    p = Pomset(n, h, pairs)
    ideals = p.ideals()
    ideal = ideals[data.draw(st.integers(0, len(ideals) - 1))]
    s = data.draw(st.integers(0, ideal.cardinality))
    j = ideal.shrink(s)
    assert j.cardinality == s and j.counts.is_submset(ideal.counts)


@st.composite
def relabelled_relations(draw, max_n: int = 8):
    """A relation on at most ``max_n`` elements at height at most 3: forward
    pairs i < j, relabelled by a random permutation, plus up to two reversed
    pairs, which close a cycle when the forward pairs already join them."""
    n = draw(st.integers(1, max_n))
    forward = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    pairs = draw(st.lists(st.sampled_from(forward), max_size=10)) if forward else []
    back = draw(st.lists(st.sampled_from(forward), max_size=2)) if forward else []
    perm = draw(st.permutations(range(1, n + 1)))
    relation = [(perm[i - 1], perm[j - 1]) for i, j in pairs]
    relation += [(perm[j - 1], perm[i - 1]) for i, j in back]
    return n, draw(st.integers(1, 3)), relation


@given(relabelled_relations())
@settings(max_examples=300, deadline=None)
def test_every_order_fact_matches_its_oracle(config):
    n, h, relation = config
    below = closure_by_matrix(n, relation)
    if any(i in below[i] for i in range(1, n + 1)):
        with pytest.raises(CycleDetected, match="lies strictly below itself") as err:
            Pomset(n, h, relation)
        named = int(str(err.value).split()[1])
        assert named in below[named]  # the element named lies on a cycle
        return
    p = Pomset(n, h, relation)
    for i, j in product(range(1, n + 1), repeat=2):
        assert p.is_below(i, j) == (i in below[j])
        assert p.dual().is_below(j, i) == (i in below[j])
    assert p.relation == {(i, j) for j in range(1, n + 1) for i in below[j]}
    assert p.is_chain() == is_chain_by_pairs(p)
    assert p.cover_pairs() == cover_pairs_by_scan(p)
    if n > 5:
        return
    for counts in product(range(h + 1), repeat=n):
        mset = Multiset(n, h, counts)
        assert p.is_ideal(mset) == is_ideal_by_law(p, counts)
        if p.is_ideal(mset):
            ideal = Ideal(p, mset)
            assert ideal.maximal_root() == maximal_root_by_above(ideal)


@given(relabelled_relations(max_n=5))
@settings(max_examples=150, deadline=None)
def test_every_ideal_walk_matches_the_brute_force_filter(config):
    n, h, relation = config
    below = closure_by_matrix(n, relation)
    assume(not any(i in below[i] for i in range(1, n + 1)))
    p = Pomset(n, h, relation)
    want = brute_force_ideal_vectors(p)
    assert [ideal.counts.counts for ideal in p.ideals()] == want
    for t in range(n * h + 1):
        got = [ideal.counts.counts for ideal in p.ideals_of_cardinality(t)]
        assert got == [counts for counts in want if sum(counts) == t]
    # the set ideals, which the weight enumerator streams
    assert sorted(p.ideal_vectors(1)) == brute_force_ideal_vectors(
        Pomset(n, 1, relation))
    # every entry of the walk ends in an ideal, so the limit is exact even
    # though it is checked before entries are pushed
    for t in [None, *range(n * h + 1)]:
        count = len(list(p.ideal_vectors(h, t)))
        assert len(list(p.ideal_vectors(h, t, limit=count))) == count
        with pytest.raises(SpaceTooLarge, match=f"more than {count - 1} ideals"):
            list(p.ideal_vectors(h, t, limit=count - 1))


def test_no_function_in_the_package_calls_itself():
    # a walk that recurses once per element dies past about 1000 of them; a
    # function calling its own name, or a method its self attribute, is flagged
    for path in Path(pomsetblock.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for call in ast.walk(fn):
                f = getattr(call, "func", None)
                if fn in methods:
                    own = (isinstance(f, ast.Attribute) and f.attr == fn.name
                           and getattr(f.value, "id", None) == "self")
                else:
                    own = isinstance(f, ast.Name) and f.id == fn.name
                assert not own, f"{path.name}: {fn.name} calls itself"
