"""Chain-order code theory: packing radius, Singleton bound, MDS, duality."""

import random

import pytest

from pomsetblock import (
    BadCardinality,
    BlockVector,
    Code,
    NotAChain,
    Pomset,
    antichain_space,
    block_repetition_code,
    chain_elements,
    chain_prefix_ideal,
    chain_space,
    construct_perfect_full,
    construct_perfect_partial,
    dual_code,
    duality_equivalence,
    is_mds,
    mds_iperfect_bridge,
    mds_metric_comparison,
    packing_radius,
    packing_radius_chain,
    parse_ideal,
    repetition_codes,
    singleton_report,
    unit_repetition_code,
    verify_perfect,
)

from helpers import random_code


def small_chain():
    return chain_space(5, (1, 1))


def diagonal():
    return Code.from_generators(small_chain(), [(1, 1)])


class TestChainBasics:
    def test_chain_elements_rejects_others(self):
        with pytest.raises(NotAChain):
            chain_elements(antichain_space(5, (1, 1)).pomset)

    def test_prefix_ideals(self):
        p = chain_space(5, (1, 1, 1)).pomset
        assert chain_prefix_ideal(p, 0).counts.literal() == "-"
        assert chain_prefix_ideal(p, 3).counts.literal() == "2/1 1/2"
        assert chain_prefix_ideal(p, 6).counts.literal() == "2/1 2/2 2/3"
        with pytest.raises(ValueError):
            chain_prefix_ideal(p, 7)

    def test_prefix_ideal_is_the_unique_one(self):
        p = chain_space(7, (1, 2)).pomset
        for t in range(0, 7):
            assert p.ideals_of_cardinality(t) == [chain_prefix_ideal(p, t)]


class TestPackingRadius:
    def test_diagonal_code(self):
        c = diagonal()
        assert packing_radius(c) == 2
        assert packing_radius_chain(c) == 2

    def test_whole_space(self):
        sp = small_chain()
        c = Code(sp, [v.coords for v in sp.vectors()])
        assert packing_radius(c) == 0
        assert packing_radius_chain(c) == 0

    def test_unit_repetition_three_blocks(self):
        c = unit_repetition_code(chain_space(5, (1, 1, 1)))
        assert packing_radius_chain(c) == 4
        assert packing_radius(c) == 4

    def test_one_weight_scan_whatever_the_radius(self, monkeypatch):
        # radius h(n-1) = 10 on 4 words: every radius reads the one weight
        # table, which weighs each block profile once and no vector singly
        sp = chain_space(4, (1,) * 6)
        c = unit_repetition_code(sp)
        weighed, closures = [], []
        weight, closure = BlockVector.weight, Pomset.generated_counts
        monkeypatch.setattr(BlockVector, "weight",
                            lambda v: weighed.append(1) or weight(v))
        monkeypatch.setattr(Pomset, "generated_counts",
                            lambda p, counts: closures.append(1) or closure(p, counts))
        assert packing_radius(c) == 10
        assert not weighed
        assert len(closures) <= (sp.max_lee + 1) ** sp.n

    def test_single_word_packs_everything(self):
        sp = small_chain()
        c = Code(sp, [(1, 2)])
        assert packing_radius(c) == 4 == packing_radius_chain(c)

    def test_formula_rejects_non_chain(self):
        sp = antichain_space(5, (1, 1))
        with pytest.raises(NotAChain):
            packing_radius_chain(Code(sp, [(0, 0), (1, 1)]))

    @pytest.mark.parametrize("m,pi", [(4, (1, 1)), (5, (1, 1)), (4, (1, 2)),
                                      (5, (1, 1, 1))])
    def test_formula_matches_brute_force(self, m, pi):
        sp = chain_space(m, pi)
        rng = random.Random(17)
        codes = [unit_repetition_code(sp)]
        for card in range(0, sp.n * sp.max_lee + 1, sp.max_lee):
            full = construct_perfect_full(sp, chain_prefix_ideal(sp.pomset, card))
            if len(full) >= 2:
                codes.append(full)
        codes += [random_code(sp, rng) for _ in range(8)]
        for code in codes:
            assert packing_radius(code) == packing_radius_chain(code)


class TestSingleton:
    def test_diagonal_is_mds(self):
        rep = singleton_report(diagonal())
        assert (rep.d, rep.r, rep.prefix_len, rep.rhs) == (3, 1, 1, 1)
        assert rep.is_mds

    def test_axis_is_not(self):
        rep = singleton_report(Code.from_generators(small_chain(), [(1, 0)]))
        assert (rep.d, rep.r, rep.prefix_len, rep.rhs) == (1, 0, 0, 1)
        assert rep.holds and not rep.is_mds

    def test_whole_space_is_mds(self):
        sp = small_chain()
        rep = singleton_report(Code(sp, [v.coords for v in sp.vectors()]))
        assert rep.is_mds and rep.prefix_len == rep.rhs == 0

    def test_bound_holds_for_random_codes(self):
        rng = random.Random(23)
        for m, pi in [(4, (1, 1)), (5, (1, 2)), (6, (2, 1)), (5, (1, 1, 1))]:
            sp = chain_space(m, pi)
            for _ in range(60):
                assert singleton_report(random_code(sp, rng)).holds

    def test_rejects_non_chain(self):
        with pytest.raises(NotAChain):
            singleton_report(Code(antichain_space(5, (1, 1)), [(0, 0), (1, 1)]))


class TestMetricComparison:
    def test_diagonal_is_mds_in_both(self):
        rep = mds_metric_comparison(diagonal())
        assert rep.pomset_mds and rep.poset_mds and rep.implication_holds
        poset_rep = singleton_report(diagonal(), "poset")
        assert (poset_rep.d, poset_rep.r, poset_rep.prefix_len, poset_rep.rhs) \
            == (2, 1, 1, 1)
        assert poset_rep.is_mds

    def test_poset_report_on_random_codes(self):
        # d_poset - 1 prefix blocks pinned, against N - ceil(log_m |C|)
        rng = random.Random(31)
        for m, pi in [(4, (1, 1)), (5, (1, 2)), (6, (2, 1)), (5, (1, 1, 1))]:
            sp = chain_space(m, pi)
            for _ in range(30):
                code = random_code(sp, rng)
                d = code.min_distance("poset")
                q = next(q for q in range(sp.N + 1) if m**q >= len(code))
                rep = singleton_report(code, "poset")
                assert (rep.d, rep.r, rep.prefix_len, rep.rhs) == (
                    d, d - 1, sum(pi[:d - 1]), sp.N - q)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            singleton_report(diagonal(), "hamming")

    def test_floor_inequality_on_random_codes(self):
        rng = random.Random(29)
        for m, pi in [(4, (1, 1)), (5, (1, 2)), (7, (1, 1))]:
            sp = chain_space(m, pi)
            for _ in range(40):
                rep = mds_metric_comparison(random_code(sp, rng))
                assert rep.floor_inequality
                assert rep.implication_holds

    def test_single_block_chain(self):
        sp = chain_space(7, (2,))
        rng = random.Random(41)
        for _ in range(20):
            rep = mds_metric_comparison(random_code(sp, rng))
            assert rep.implication_holds


class TestBridge:
    def test_diagonal_both_directions(self):
        bridge = mds_iperfect_bridge(diagonal())
        assert bridge.ideal.counts.literal() == "2/1"
        assert bridge.mds and bridge.i_perfect
        assert bridge.mds_implies_perfect and bridge.perfect_implies_mds

    def test_constructed_perfect_codes_are_mds(self):
        for m, pi in [(5, (1, 1)), (4, (1, 1, 1)), (5, (2, 2))]:
            sp = chain_space(m, pi)
            h, k = sp.max_lee, sp.pi[0]
            for blocks in range(sp.n + 1):
                ideal = chain_prefix_ideal(sp.pomset, h * blocks)
                code = construct_perfect_full(sp, ideal)
                assert is_mds(code)
                assert mds_iperfect_bridge(code).perfect_implies_mds

    def test_partial_count_perfect_code_is_mds(self):
        sp = chain_space(9, (1,))
        code = construct_perfect_partial(sp, parse_ideal(sp, "1/1"))
        assert is_mds(code)

    def test_non_mds_code_fails_cleanly(self):
        bridge = mds_iperfect_bridge(Code.from_generators(small_chain(), [(1, 0)]))
        assert not bridge.mds and not bridge.i_perfect
        assert bridge.mds_implies_perfect and bridge.perfect_implies_mds

    def test_bad_cardinalities_rejected(self):
        sp = small_chain()
        with pytest.raises(BadCardinality):
            mds_iperfect_bridge(Code(sp, [(0, 0), (1, 1), (2, 2)]))
        sp2 = chain_space(5, (2, 2))
        five_words = Code.from_generators(sp2, [(1, 1, 1, 1)])
        with pytest.raises(BadCardinality):
            mds_iperfect_bridge(five_words)  # exponent 1 not divisible by k=2


class TestUniformBlockSize:
    def test_perfect_code_root_size_identity(self):
        # |C| = m^k with uniform length l forces |I*| = (l n - k) / l
        for m, l, n in [(4, 2, 2), (5, 1, 3), (5, 2, 2)]:
            sp = chain_space(m, (l,) * n)
            h = sp.max_lee
            for blocks in range(n + 1):
                ideal = chain_prefix_ideal(sp.pomset, h * blocks)
                code = construct_perfect_full(sp, ideal)
                k = 0
                while m**k < len(code):
                    k += 1
                assert m**k == len(code)
                assert len(ideal.root_set) * l == l * n - k


class TestDuality4:
    def test_diagonal_all_true(self):
        rep = duality_equivalence(diagonal())
        assert rep.statements == (True, True, True, True)

    def test_axis_all_false(self):
        rep = duality_equivalence(Code.from_generators(small_chain(), [(1, 0)]))
        assert rep.statements == (False, False, False, False)

    def test_whole_space_corner(self):
        sp = small_chain()
        rep = duality_equivalence(Code(sp, [v.coords for v in sp.vectors()]))
        assert rep.all_equal and rep.mds_primal

    def test_z4_configurations(self):
        sp2 = chain_space(4, (1, 1))
        assert duality_equivalence(
            Code.from_generators(sp2, [(1, 1)])
        ).statements == (True, True, True, True)
        assert duality_equivalence(
            Code.from_generators(sp2, [(1, 0)])
        ).statements == (False, False, False, False)
        sp3 = chain_space(4, (1, 1, 1))
        assert duality_equivalence(
            Code.from_generators(sp3, [(1, 1, 1)])
        ).statements == (True, True, True, True)
        assert duality_equivalence(
            Code.from_generators(sp3, [(1, 0, 0)])
        ).statements == (False, False, False, False)

    def test_random_linear_codes_stay_equivalent(self):
        rng = random.Random(53)
        sp = chain_space(4, (1, 1))
        for _ in range(10):
            gens = [tuple(rng.randrange(4) for _ in range(2))]
            code = Code.from_generators(sp, gens)
            q = 0
            while 4**q < len(code):
                q += 1
            if 4**q != len(code):
                continue  # e.g. the span of (2, 2) has 2 words
            assert duality_equivalence(code).all_equal


    @pytest.mark.parametrize("m, pi, gens", [
        (5, (1, 1), [(0, 0)]),
        (5, (1, 1), [(1, 1)]),
        (5, (1, 1), [(1, 0)]),
        (4, (1, 1, 1), [(1, 0, 0), (0, 1, 1)]),
        (3, (2, 2), [(1, 0, 2, 1), (0, 1, 1, 1)]),
        (3, (2, 2, 2), [(1, 2, 0, 0, 1, 1), (0, 1, 1, 0, 2, 0)]),
    ])
    def test_dual_matched_ideal_is_the_complement(self, m, pi, gens):
        # |C-dual| = m^(N - q) with N - q a multiple of k, so the dual's
        # own matched ideal is the complement the four-way report uses
        code = Code.from_generators(chain_space(m, pi), gens)
        dual = dual_code(code).in_space(code.space.dual())
        assert (mds_iperfect_bridge(dual).ideal
                == mds_iperfect_bridge(code).ideal.complement())


class TestRepetitionCodes:
    def test_unit_repetition_examples(self):
        for m, n in [(5, 2), (5, 3), (4, 2)]:
            code = unit_repetition_code(chain_space(m, (1,) * n))
            assert len(code) == m
            assert is_mds(code)

    def test_unit_repetition_distance(self):
        code = unit_repetition_code(chain_space(5, (1, 1, 1)))
        assert code.min_distance("pomset") == 5

    def test_block_repetition_examples(self):
        for m, n in [(4, 1), (4, 2), (5, 2), (6, 1)]:
            code = block_repetition_code(m, n)
            assert len(code) == m
            assert code.space.N == n * (m - 1)
            assert is_mds(code)

    def test_pair_helper(self):
        sp = chain_space(5, (1, 1))
        unit, block = repetition_codes(sp)
        assert is_mds(unit) and is_mds(block)
        assert block.space.m == 5 and block.space.N == 8


class TestPerfectRadiusEquivalence:
    @pytest.mark.parametrize("m,pi", [(5, (1, 1)), (4, (1, 1))])
    def test_r_perfect_iff_prefix_ideal_perfect(self, m, pi):
        sp = chain_space(m, pi)
        rng = random.Random(61)
        codes = [
            unit_repetition_code(sp),
            construct_perfect_full(sp, chain_prefix_ideal(sp.pomset, sp.max_lee)),
        ] + [random_code(sp, rng) for _ in range(6)]
        for code in codes:
            for r in range(0, sp.n * sp.max_lee + 1):
                by_radius = verify_perfect(code, radius=r).is_perfect
                by_ideal = verify_perfect(
                    code, ideal=chain_prefix_ideal(sp.pomset, r)
                ).is_perfect
                assert by_radius == by_ideal


def test_mds_distance_bracket():
    # every uniform-block MDS code keeps d within the half-open bracket
    # around h*(n - q/k); checked in integer arithmetic times k
    rng = random.Random(67)
    for m, pi in [(4, (1, 1)), (5, (1, 1)), (4, (2, 2)), (5, (1, 1, 1))]:
        sp = chain_space(m, pi)
        h, k, n = sp.max_lee, sp.pi[0], sp.n
        codes = [unit_repetition_code(sp)] + [random_code(sp, rng) for _ in range(30)]
        for code in codes:
            if not is_mds(code):
                continue
            d = code.min_distance("pomset")
            q = 0
            while m**q < len(code):
                q += 1
            assert h * (n * k - q) + k <= d * k <= h * (n * k - q + k)


def test_ball_equality_at_multiples_of_the_top_lee_weight():
    # the block-metric r-ball sits inside the poset ball of radius t+1 for
    # r = t*h + s (1 <= s <= h), with equality exactly at multiples of h
    sp = chain_space(5, (1, 1))
    h = sp.max_lee
    for x in (sp.zero(), sp.vector((3, 1))):
        for r in range(1, sp.n * h + 1):
            t, s = divmod(r - 1, h)
            pm_ball = {v.coords for v in sp.vectors() if sp.distance(x, v) <= r}
            poset_ball = {v.coords for v in sp.vectors()
                          if sp.poset_distance(x, v) <= t + 1}
            assert pm_ball <= poset_ball
            assert (pm_ball == poset_ball) == (r % h == 0)
