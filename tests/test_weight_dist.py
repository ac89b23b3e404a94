"""Shell counts: scalar, per-block, full-space, and the chain closed form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomsetblock import (
    NonUnitBlocks,
    NotAChain,
    WeightDistribution,
    antichain_space,
    block_shell_size,
    block_shell_size_enumerated,
    chain_shell_size,
    chain_space,
    i_sphere_size,
    lee_shell_size,
    pw_weight,
    r_ball_size,
    r_sphere_size,
    space_with_order,
    weight_distribution,
    weight_distribution_enumerated,
)

from helpers import shells_by_cardinality, sphere_by_maximal_count


class TestLeeShells:
    def test_sizes(self):
        assert lee_shell_size(7, 0) == 1
        assert lee_shell_size(7, 3) == 2
        assert lee_shell_size(6, 3) == 1
        assert lee_shell_size(6, 2) == 2

    def test_partition_of_residues(self):
        for m in range(2, 12):
            assert sum(lee_shell_size(m, r) for r in range(m // 2 + 1)) == m

    def test_range_checked(self):
        with pytest.raises(ValueError):
            lee_shell_size(7, 4)


class TestBlockShells:
    def test_hand_values(self):
        assert block_shell_size(5, 2, 1) == 8
        assert block_shell_size(5, 2, 2) == 16
        assert block_shell_size(9, 1, 0) == 1

    def test_zero_convention(self):
        for m in range(3, 8):
            for k in range(1, 4):
                assert block_shell_size(m, k, 0) == 1

    def test_top_shell_both_parities(self):
        assert block_shell_size(6, 2, 3) == 6**2 - 5**2
        assert block_shell_size(7, 2, 3) == 7**2 - 5**2

    def test_matches_enumeration_and_partitions(self):
        for m in range(3, 10):
            for k in range(1, 4):
                shells = [block_shell_size(m, k, r) for r in range(m // 2 + 1)]
                assert shells == [
                    block_shell_size_enumerated(m, k, r) for r in range(m // 2 + 1)
                ]
                assert sum(shells) == m**k

    @pytest.mark.parametrize("k, r, message", [
        (1, -1, "weight -1 outside 0..2"),
        (1, 3, "weight 3 outside 0..2"),
        (1, 9, "weight 9 outside 0..2"),
        (0, 1, "block length must be positive"),
    ], ids=["-1", "3", "9", "k=0"])
    def test_oracle_rejects_what_the_closed_form_rejects(self, k, r, message):
        with pytest.raises(ValueError) as closed:
            block_shell_size(5, k, r)
        with pytest.raises(ValueError) as oracle:
            block_shell_size_enumerated(5, k, r)
        assert str(oracle.value) == str(closed.value) == message


class TestWeightShells:
    def test_small_chain_distribution(self):
        sp = chain_space(5, (1, 1))
        assert weight_distribution(sp).shells == (1, 2, 2, 10, 10)
        assert weight_distribution_enumerated(sp).shells == (1, 2, 2, 10, 10)

    def test_single_block_reduces_to_block_shells(self):
        sp = antichain_space(7, (3,))
        for r in range(sp.max_lee + 1):
            assert r_sphere_size(sp, r) == block_shell_size(7, 3, r)

    def test_top_shell_uses_the_unique_full_ideal(self):
        for sp in (chain_space(5, (1, 2)), antichain_space(6, (2, 1)),
                   space_with_order(4, (1, 1, 2), [(1, 3)])):
            top = sp.n * sp.max_lee
            full = sp.pomset.ideals_of_cardinality(top)
            assert len(full) == 1
            assert r_sphere_size(sp, top) == i_sphere_size(sp, full[0])

    def test_shells_agree_with_radius_spheres(self):
        sp = space_with_order(5, (1, 2), [(1, 2)])
        enum = weight_distribution_enumerated(sp).shells
        for r in range(sp.n * sp.max_lee + 1):
            assert r_sphere_size(sp, r) == enum[r]

    def test_distribution_invariants_enforced(self):
        sp = chain_space(5, (1, 1))
        with pytest.raises(ValueError):
            WeightDistribution(sp, (1, 2, 2, 10, 9))
        with pytest.raises(ValueError):
            WeightDistribution(sp, (2, 2, 2, 10, 9))
        with pytest.raises(ValueError):
            WeightDistribution(sp, (1, 2, 2, 10))


class TestChainClosedForm:
    def test_small_chain_values(self):
        sp = chain_space(5, (1, 1))
        assert [chain_shell_size(sp, r) for r in range(5)] == [1, 2, 2, 10, 10]
        assert chain_shell_size(sp, 3) == 10  # m^(k_1) times the Lee pair

    def test_low_weights_live_in_the_bottom_block(self):
        sp = chain_space(7, (2, 1))
        for r in range(1, sp.max_lee + 1):
            assert chain_shell_size(sp, r) == block_shell_size(7, 2, r)

    def test_unit_blocks_lowest_shell(self):
        for m in (4, 5, 6, 7):
            sp = chain_space(m, (1, 1))
            assert chain_shell_size(sp, 1) == 2

    def test_against_formula_and_enumeration(self):
        for sp in (chain_space(5, (1, 2)), chain_space(6, (2, 2)),
                   chain_space(4, (1, 1, 2))):
            enum = weight_distribution_enumerated(sp).shells
            for r in range(sp.n * sp.max_lee + 1):
                assert chain_shell_size(sp, r) == r_sphere_size(sp, r) == enum[r]

    def test_rejects_non_chains(self):
        with pytest.raises(NotAChain):
            chain_shell_size(antichain_space(5, (1, 1)), 1)


class TestUnitBlockComparison:
    # equal weights pointwise give equal distributions shell by shell
    def test_matches_on_small_spaces(self):
        for sp in (chain_space(5, (1, 1)), antichain_space(6, (1, 1)),
                   antichain_space(5, (1,)),
                   space_with_order(6, (1, 1, 1), [(1, 3)])):
            assert all(pw_weight(v) == v.weight() for v in sp.vectors())

    def test_rejects_wide_blocks(self):
        with pytest.raises(NonUnitBlocks):
            pw_weight(chain_space(5, (1, 2)).vector((1, 0, 0)))


@st.composite
def random_spaces(draw):
    """A random order on up to 5 blocks, relabelled by a random permutation,
    with random block lengths and m, of at most 5*10^4 vectors."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []
    perm = draw(st.permutations(range(1, n + 1)))
    max_len = 0
    while m ** (max_len + 1) <= 5 * 10**4:
        max_len += 1
    spare = max_len - n
    pi = []
    for _ in range(n):
        extra = draw(st.integers(0, min(2, spare)))
        spare -= extra
        pi.append(1 + extra)
    relabelled = [(perm[i - 1], perm[j - 1]) for i, j in chosen]
    return space_with_order(m, pi, relabelled)


class TestWeightEnumerator:
    @given(random_spaces())
    @settings(max_examples=150, deadline=None)
    def test_matches_multiset_ideal_sums_and_the_scan(self, space):
        shells = weight_distribution(space).shells
        assert shells == shells_by_cardinality(space)
        assert shells == weight_distribution_enumerated(space).shells
        for r in range(len(shells)):
            assert r_sphere_size(space, r) == sphere_by_maximal_count(space, r)
            assert r_sphere_size(space, r) == shells[r]
            assert r_ball_size(space, r) == sum(shells[: r + 1])

    @given(st.integers(2, 11), st.lists(st.integers(1, 4), min_size=1, max_size=10),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_chain_closed_form_is_the_general_form(self, m, pi, data):
        order = data.draw(st.permutations(range(1, len(pi) + 1)))
        space = space_with_order(m, pi, list(zip(order, order[1:])))
        shells = weight_distribution(space).shells
        assert [chain_shell_size(space, r) for r in range(len(shells))] == list(shells)

    def test_wide_antichain_is_a_power_of_the_block_polynomial(self):
        # Z_9^10, past a whole-space scan: each unit block contributes the
        # factor 1 + 2x + 2x^2 + 2x^3 + 2x^4
        space = antichain_space(9, (1,) * 10)
        want = [1]
        for _ in range(10):
            grown = [0] * (len(want) + 4)
            for i, a in enumerate(want):
                grown[i] += a
                for c in range(1, 5):
                    grown[i + c] += 2 * a
            want = grown
        shells = weight_distribution(space).shells
        assert sum(shells) == 9**10
        assert list(shells) == want
        for r in (0, 1, 20, 40):
            assert r_sphere_size(space, r) == want[r]
        assert r_ball_size(space, 40) == 9**10
