"""Vectors, supports, weights, and the metric axioms at desk scale."""

import ast
from math import log10
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pomsetblock
from pomsetblock import (
    BlockSpace,
    Code,
    DimensionMismatch,
    Multiset,
    NonUnitBlocks,
    Pomset,
    SpaceMismatch,
    SpaceTooLarge,
    antichain_space,
    block_max_lee,
    chain_space,
    lee_weight,
    parse_vector,
    pw_weight,
    space_with_order,
)

from helpers import cover_counts_by_pair_sums, wide_space


class TestLeeWeight:
    def test_values(self):
        assert lee_weight(5, 7) == 2
        assert lee_weight(0, 7) == 0
        assert lee_weight(3, 6) == 3  # the unique heaviest residue for even m

    def test_symmetry_and_range(self):
        for m in range(2, 12):
            for x in range(m):
                w = lee_weight(x, m)
                assert 0 <= w <= m // 2
                assert w == lee_weight(m - x, m)
                assert (w == 0) == (x == 0)

    def test_block_max(self):
        assert block_max_lee((0, 1, 0, 1), 7) == 1
        assert block_max_lee((2, 0), 7) == 2
        assert block_max_lee((0, 0, 0), 7) == 0


class TestConstruction:
    def test_height_must_match_modulus(self):
        with pytest.raises(ValueError):
            BlockSpace(5, Pomset(2, 3), (1, 1))

    def test_block_count_must_match(self):
        with pytest.raises(DimensionMismatch):
            BlockSpace(5, Pomset(2, 2), (1, 1, 1))

    def test_residues_reduced_not_rejected(self):
        sp = chain_space(5, (1, 1))
        assert sp.vector((7, -1)).coords == (2, 4)

    @pytest.mark.parametrize("bad", [1.7, "1"])
    def test_non_integer_block_length_is_a_type_error(self, bad):
        with pytest.raises(TypeError):
            BlockSpace(5, Pomset(2, 2), (bad, 1))

    @pytest.mark.parametrize("bad", [5.0, "5"])
    def test_non_integer_modulus_is_a_type_error(self, bad):
        # 5.0 would reduce residues to floats and count 25.0 vectors
        with pytest.raises(TypeError):
            BlockSpace(bad, Pomset(2, 2), (1, 1))

    @pytest.mark.parametrize("bad", [100.0, "100"])
    def test_non_integer_cap_is_a_type_error(self, bad):
        with pytest.raises(TypeError):
            BlockSpace(5, Pomset(2, 2), (1, 1), cap=bad)

    @pytest.mark.parametrize("bad", [2.9, "2"])
    def test_non_integer_residue_is_a_type_error(self, bad):
        # reduced mod m when an integer, never truncated to one
        with pytest.raises(TypeError):
            chain_space(5, (1, 1)).vector((bad, 1))

    def test_vector_length_checked(self):
        sp = chain_space(5, (1, 2))
        with pytest.raises(DimensionMismatch):
            sp.vector((1, 2))

    def test_space_mismatch_between_vectors(self):
        a = chain_space(5, (1, 1)).zero()
        b = antichain_space(5, (1, 1)).zero()
        with pytest.raises(SpaceMismatch):
            a + b
        # a code takes only vectors of its own space, however they enter
        z5, z7 = chain_space(5, (1, 1)), chain_space(7, (1, 1))
        for enter in (lambda: Code(z5, [z7.vector((6, 3))]),
                      lambda: Code.from_generators(z5, [z7.vector((6, 3))]),
                      lambda: z7.vector((1, 3)) in Code(z5, [(1, 3), (0, 0)])):
            with pytest.raises(SpaceMismatch, match="codeword from a different space"):
                enter()
        # a vector of an equal space is a vector of this one
        assert chain_space(5, (1, 1)).vector((6, 3)) in Code.from_generators(
            z5, [z5.vector((1, 3))])

    def test_enumeration_guard(self):
        sp = chain_space(5, (1, 1))
        with pytest.raises(SpaceTooLarge):
            list(BlockSpace(5, sp.pomset, sp.pi, cap=24).vectors())
        assert len(list(BlockSpace(5, sp.pomset, sp.pi, cap=25).vectors())) == 25

    def test_negative_cap_rejected(self):
        sp = chain_space(5, (1, 1))
        with pytest.raises(ValueError, match="cap must be non-negative, got -1"):
            BlockSpace(5, sp.pomset, sp.pi, cap=-1)
        # cap 0 stays valid: it allows no scan at all
        with pytest.raises(SpaceTooLarge):
            list(BlockSpace(5, sp.pomset, sp.pi, cap=0).vectors())

    @settings(max_examples=150, deadline=None)
    @given(m=st.sampled_from([2, 3, 10**30]), N=st.integers(1, 30), data=st.data())
    def test_scan_refused_exactly_past_the_cap(self, m, N, data):
        # the guard never computes a power past the cap's bit length, yet the
        # refusal falls exactly where m^N passes the cap, worded in decimal
        size = m ** N
        cap = data.draw(st.sampled_from([0, 1, size - 1, size, size + 1, 10**7])
                        | st.integers(0, 2 * size))
        space = BlockSpace(m, Pomset(1, m // 2), (N,), cap=cap)
        if size > cap:
            with pytest.raises(SpaceTooLarge) as refused:
                space.check_enumerable()
            assert str(refused.value) == f"space has {size} vectors, above the cap {cap}"
        else:
            space.check_enumerable()

    @pytest.mark.parametrize("m", [2, 3, 10**30])
    def test_scan_refusal_words_a_size_past_4300_digits_as_a_power(self, m):
        # the longest N whose m^N still prints in decimal, and the next
        longest = next(N for N in range(int(4300 / log10(m)) + 2, 0, -1)
                       if m ** N < 10**4300)
        for N, words in [(longest, str(m ** longest)), (longest + 1, f"{m}^{longest + 1}")]:
            space = BlockSpace(m, Pomset(1, m // 2), (N,))
            with pytest.raises(SpaceTooLarge) as refused:
                space.check_enumerable()
            assert str(refused.value) == f"space has {words} vectors, above the cap 10000000"

    def test_only_the_space_and_the_ideal_walk_raise_space_too_large(self):
        # every cap refusal goes through BlockSpace.check_cap; the ideal walk
        # keeps its own ``limit``
        allowed = {"block_space.py": "BlockSpace", "pomset.py": "Pomset.ideal_vectors"}
        for path in Path(pomsetblock.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            scopes = [(f"{top.name}.{getattr(fn, 'name', '')}", fn) for top in tree.body
                      if isinstance(top, ast.ClassDef) for fn in top.body]
            scopes += [(getattr(top, "name", ""), top) for top in tree.body
                       if not isinstance(top, ast.ClassDef)]
            for name, scope in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Raise) and "SpaceTooLarge" in ast.dump(node):
                        assert name.startswith(allowed.get(path.name, "?")), (
                            f"{path.name}: {name} raises SpaceTooLarge")
                    if isinstance(node, ast.ImportFrom) and path.name not in allowed:
                        assert path.name == "__init__.py" or "SpaceTooLarge" not in [
                            alias.name for alias in node.names], f"{path.name} imports it"

    def test_dual_keeps_the_cap(self):
        sp = chain_space(5, (1, 1))
        capped = BlockSpace(5, sp.pomset, sp.pi, cap=24)
        assert capped.dual().cap == 24
        assert sp.dual().cap == sp.cap
        with pytest.raises(SpaceTooLarge):
            list(capped.dual().vectors())

    def test_cap_is_not_part_of_the_space(self):
        sp = chain_space(5, (1, 1))
        capped = BlockSpace(5, sp.pomset, sp.pi, cap=24)
        assert capped == sp and hash(capped) == hash(sp)
        assert repr(capped) == repr(sp)
        u, v = sp.vector((1, 2)), capped.vector((3, 4))
        assert (u + v).coords == (v + u).coords == (4, 1)
        assert capped.distance(u, v) == sp.distance(u, v)
        assert Code(sp, [u, v]) == Code(capped, [u.coords, v.coords])
        assert Code(capped, [u, v]).min_distance() == Code(sp, [u, v]).min_distance()

    def test_odometer_order(self):
        sp = chain_space(3, (1, 1))
        got = [v.coords for v in sp.vectors()]
        assert got[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_vector_at_inverts_the_odometer(self):
        sp = antichain_space(3, (2, 1))
        assert [sp.vector_at(i) for i in range(sp.size())] == list(sp.vectors())


class TestCoverCounts:
    def test_counts_translates_and_caps_at_two(self):
        sp = antichain_space(5, (1,))
        ball = [(0,), (1,), (4,)]
        assert list(sp.cover_counts([(0,)], ball)) == [1, 1, 0, 0, 1]
        assert list(sp.cover_counts([(0,), (1,)], ball)) == [2, 2, 1, 0, 1]
        assert list(sp.cover_counts([(0,), (1,), (4,)], ball)) == [2, 2, 1, 1, 2]

    def test_matches_counting_every_sum(self):
        sp = chain_space(4, (1, 2))
        centers = [(0, 0, 0), (1, 2, 3), (3, 3, 1)]
        ball = [(0, 0, 0), (0, 1, 0), (2, 0, 3), (0, 0, 1)]
        counts = sp.cover_counts(centers, ball)
        for idx, v in enumerate(sp.vectors()):
            hits = sum(tuple((a + b) % 4 for a, b in zip(c, w)) == v.coords
                       for c in centers for w in ball)
            assert counts[idx] == min(hits, 2)

    def test_bounded_by_the_cap(self):
        sp = chain_space(5, (1, 1))
        capped = BlockSpace(5, sp.pomset, sp.pi, cap=24)
        with pytest.raises(SpaceTooLarge):
            capped.cover_counts([(0, 0)], [(0, 0)])

    def test_a_one_shot_ball_serves_every_center(self):
        sp = chain_space(5, (1, 1))
        ball = [(0, 0), (0, 1)]
        centers = [(0, 0), (1, 0)]
        listed = sp.cover_counts(centers, ball)
        assert sp.cover_counts(centers, iter(ball)) == listed
        assert sp.cover_counts(centers, (b for b in ball)) == listed
        assert list(listed).count(1) == 4


@st.composite
def tally_cases(draw):
    """Z_m^N with 2 <= m <= 7 and 1 <= N <= 5 (so odd N, and N = 1 with
    an empty head half), and two lists of at most 12 vectors each, either
    possibly empty or the longer one, and either repeating members."""
    m = draw(st.integers(2, 7))
    n_coords = draw(st.integers(1, 5))
    pi = (n_coords,) if draw(st.booleans()) else (1,) * n_coords
    space = chain_space(m, pi)
    vector = st.tuples(*[st.integers(0, m - 1)] * n_coords)

    def listing():
        words = draw(st.lists(vector, max_size=8))
        if words:
            words += draw(st.lists(st.sampled_from(words), max_size=4))
        return draw(st.permutations(words))

    return space, listing(), listing()


@given(tally_cases())
@settings(max_examples=300, deadline=None)
def test_cover_counts_matches_the_pair_sums(case):
    space, centers, ball = case
    assert space.cover_counts(centers, ball) == cover_counts_by_pair_sums(
        space, centers, ball)


def test_cover_counts_either_list_longer_repeated_or_empty():
    sp = chain_space(3, (1, 1, 1))
    few = [(0, 1, 2), (0, 1, 2)]
    many = [(0, 0, 0), (1, 2, 0), (1, 2, 0), (2, 2, 2), (0, 1, 1)]
    for centers, ball in [(few, many), (many, few), (few, []), ([], many)]:
        assert sp.cover_counts(centers, ball) == cover_counts_by_pair_sums(
            sp, centers, ball)
        assert sp.cover_counts(centers, ball) == sp.cover_counts(ball, centers)
    assert not any(sp.cover_counts([], many))


class TestWeightTable:
    def test_built_once_per_space(self):
        sp = chain_space(5, (1, 1))
        assert sp.weights() is sp.weights()

    def test_weights_past_one_byte(self):
        # the top weight 300 needs more than a byte per entry
        sp = antichain_space(601, (1,))
        assert list(sp.weights()) == [lee_weight(x, 601) for x in range(601)]

    def test_read_only(self):
        sp = chain_space(5, (1, 1))
        with pytest.raises(TypeError):
            sp.weights()[0] = 3

    def test_bounded_by_the_cap(self):
        sp = chain_space(5, (1, 1))
        capped = BlockSpace(5, sp.pomset, sp.pi, cap=24)
        with pytest.raises(SpaceTooLarge):
            capped.weights()
        with pytest.raises(SpaceTooLarge):
            capped.max_lee_tables()


class TestSupportAndWeight:
    def test_wide_space_block_support(self):
        sp = wide_space()
        v = parse_vector(sp, "0 0 0 0 0 0 0 0 0 0 1 0 1 0 0 0 2 0")
        assert v.support() == Multiset.parse("1/4 2/6", 6, 3)
        assert v.weight() == 12
        assert v.poset_weight() == 5

    def test_free_lower_blocks_do_not_change_the_weight(self):
        sp = wide_space()
        v = parse_vector(sp, "3 1 2 5 6 0 0 0 0 0 1 0 1 4 2 0 2 0")
        assert v.weight() == 12

    def test_zero_vector(self):
        sp = wide_space()
        assert sp.zero().support() == Multiset.empty(6, 3)
        assert sp.zero().weight() == 0
        assert sp.zero().poset_weight() == 0

    def test_full_support(self):
        sp = antichain_space(4, (1, 2))
        v = sp.vector((2, 0, 2))
        assert v.support() == Multiset.full(2, 2)
        assert v.weight() == 4

    def test_small_chain_weight(self):
        sp = chain_space(5, (1, 1))
        assert sp.vector((0, 1)).weight() == 3  # filled bottom plus Lee 1 on top
        assert sp.vector((2, 0)).weight() == 2

    def test_antichain_poset_weight_counts_nonzero_blocks(self):
        sp = antichain_space(5, (1, 2, 1))
        assert sp.vector((1, 0, 0, 3)).poset_weight() == 2

    def test_distance_uses_difference(self):
        sp = chain_space(5, (1, 1))
        assert sp.distance(sp.vector((1, 1)), sp.vector((1, 1))) == 0
        assert sp.distance(sp.vector((0, 1)), sp.vector((0, 0))) == 3
        assert sp.poset_distance(sp.vector((0, 1)), sp.vector((0, 0))) == 2

    def test_weight_bound_and_negation(self):
        for sp in (chain_space(6, (1, 2)), antichain_space(7, (2, 1))):
            bound = sp.n * sp.max_lee
            for v in sp.vectors():
                w = v.weight()
                assert 0 <= w <= bound
                assert w == (-v).weight()


class TestUnitBlockWeights:
    def test_pw_weight_matches_hand_value(self):
        sp = chain_space(5, (1, 1))
        assert pw_weight(sp.vector((3, 1))) == 3

    def test_rejects_wide_blocks(self):
        with pytest.raises(NonUnitBlocks):
            pw_weight(chain_space(5, (1, 2)).zero())

    def test_pointwise_equal_to_block_weight(self):
        for sp in (
            chain_space(5, (1, 1)),
            antichain_space(6, (1, 1, 1)),
            space_with_order(7, (1, 1, 1), [(1, 3)]),
        ):
            for v in sp.vectors():
                assert pw_weight(v) == v.weight()


random_spaces = st.integers(4, 9).flatmap(
    lambda m: st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(m),
            st.lists(st.integers(1, 2), min_size=n, max_size=n),
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda ij: ij[0] < ij[1]
                ),
                max_size=3,
            ),
        )
    )
)


@given(random_spaces, st.data())
@settings(max_examples=120)
def test_weight_subadditive_on_random_orders(config, data):
    m, pi, pairs = config
    sp = space_with_order(m, tuple(pi), pairs)
    coords = st.tuples(*[st.integers(0, m - 1)] * sp.N)
    u = sp.vector(data.draw(coords))
    v = sp.vector(data.draw(coords))
    assert (u + v).weight() <= u.weight() + v.weight()
    assert u.weight() == (-u).weight()
    assert (u.weight() == 0) == u.is_zero


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("order", ["chain", "antichain"])
def test_metric_axioms_exhaustive(m, order):
    sp = chain_space(m, (1, 2)) if order == "chain" else antichain_space(m, (1, 2))
    vecs = list(sp.vectors())
    for u in vecs:
        for v in vecs:
            d = sp.distance(u, v)
            assert d == sp.distance(v, u)
            assert (d == 0) == (u == v)
    # triangle inequality via translation: w(x + y) <= w(x) + w(y)
    for x in vecs:
        wx = x.weight()
        for y in vecs:
            assert (x + y).weight() <= wx + y.weight()


def test_tiny_moduli_behave():
    # m = 2 and m = 3 have height 1: every ideal is full count and the
    # weight counts down-closed block positions
    for m in (2, 3):
        sp = chain_space(m, (1, 2))
        assert sp.max_lee == 1
        for v in sp.vectors():
            assert v.weight() == v.poset_weight()
            assert v.weight() == (-v).weight()
        from pomsetblock import weight_distribution, weight_distribution_enumerated

        assert (
            weight_distribution(sp).shells
            == weight_distribution_enumerated(sp).shells
        )
        assert all(i.is_full_count() for i in sp.pomset.ideals())


def test_ball_containment_between_metrics():
    # poset-ball of radius t sits inside the block-metric ball of radius
    # t*h, and stays inside for radius t*h + k as well
    sp = space_with_order(5, (1, 2), [(1, 2)])
    h = sp.max_lee
    x = sp.vector((1, 0, 3))
    for t in range(1, sp.n + 1):
        poset_ball = {v.coords for v in sp.vectors()
                      if sp.poset_distance(x, v) <= t}
        pm_ball = {v.coords for v in sp.vectors()
                   if sp.distance(x, v) <= t * h}
        assert poset_ball <= pm_ball
        if t < sp.n:
            for k in range(1, h + 1):
                bigger = {v.coords for v in sp.vectors()
                          if sp.distance(x, v) <= t * h + k}
                assert poset_ball <= bigger
