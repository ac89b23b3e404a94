"""Codes: linearity, distances, perfect constructions, duals."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomsetblock import (
    BlockSpace,
    Code,
    DivisibilityFails,
    NotFullCount,
    NotLinear,
    SingletonCode,
    SpaceTooLarge,
    antichain_space,
    chain_space,
    construct_perfect_full,
    construct_perfect_partial,
    dual_code,
    packing_radius,
    parse_ideal,
    perp_duality_report,
    space_with_order,
    verify_perfect,
)

from pomsetblock import codes

from helpers import (
    GRID,
    grid_space,
    packing_radius_by_pair_scan,
    perfect_by_pair_scan,
    perp_by_dot_scan,
    random_code,
)


def small_chain():
    return chain_space(5, (1, 1))


class TestCode:
    def test_dedup_and_order(self):
        sp = small_chain()
        c = Code(sp, [(1, 1), (0, 0), (1, 1)])
        assert [w.coords for w in c] == [(0, 0), (1, 1)]

    def test_membership_reduces_residues(self):
        # construction reduces each word, so membership must too
        sp = small_chain()
        code = Code(sp, [(5, 0)])
        assert code.words == ((0, 0),)
        assert (5, 0) in code and (-5, 10) in code and (0, 0) in code
        assert sp.vector((5, 0)) in code
        assert (1, 0) not in code

    @pytest.mark.parametrize("bad", [2.5, "3"])
    def test_non_integer_word_entry_is_a_type_error(self, bad):
        with pytest.raises(TypeError):
            Code(small_chain(), [(bad, 0), (3, 1)])

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            Code(small_chain(), [])

    def test_linearity_is_verified(self):
        sp = small_chain()
        assert Code.from_generators(sp, [(1, 1)]).linear
        assert not Code(sp, [(0, 0), (1, 1), (2, 2)]).linear  # not closed
        assert not Code(sp, [(1, 1), (2, 2)]).linear  # no zero

    def test_submodules_built_as_such_are_not_spanned_again(self, monkeypatch):
        spans = []
        real_span = BlockSpace.span

        def counted(space, rows, limit):
            spans.append(limit)
            return real_span(space, rows, limit)

        monkeypatch.setattr(BlockSpace, "span", counted)
        sp = antichain_space(9, (1, 2))
        closed = Code(sp, [(0, 0, 0), (3, 0, 3), (6, 0, 6)])
        open_ = Code(sp, [(0, 0, 0), (1, 1, 1)])
        assert closed.linear and not open_.linear  # one span each
        built = [Code.from_generators(sp, [(1, 2, 3)]),
                 dual_code(closed),
                 construct_perfect_partial(sp, parse_ideal(sp, "1/1 4/2")),
                 closed.in_space(sp.dual()),
                 open_.in_space(sp.dual())]
        before = len(spans)
        verdicts = [code.linear for code in built]
        assert len(spans) == before
        # and each verdict is what a fresh span finds
        assert verdicts == [Code(c.space, c.words).linear for c in built] == [
            True, True, True, True, False]

    def test_span_expansion(self):
        sp = small_chain()
        c = Code.from_generators(sp, [(1, 0), (0, 1)])
        assert len(c) == 25
        assert Code.from_generators(sp, [(2, 2)]) == Code.from_generators(sp, [(1, 1)])

    def test_min_distance_small_chain(self):
        sp = small_chain()
        diagonal = Code.from_generators(sp, [(1, 1)])
        assert diagonal.min_distance("pomset") == 3
        assert diagonal.min_distance("poset") == 2

    def test_min_distance_of_whole_space(self):
        sp = small_chain()
        everything = Code(sp, [v.coords for v in sp.vectors()])
        assert everything.min_distance("pomset") == 1
        assert everything.min_distance("poset") == 1

    def test_linear_shortcut_equals_pairwise(self):
        sp = chain_space(4, (1, 2))
        rng = random.Random(5)
        for _ in range(5):
            gens = [tuple(rng.randrange(4) for _ in range(3))]
            c = Code.from_generators(sp, gens)
            if len(c) < 2:
                continue
            assert c.linear
            pairwise = min(
                (a - b).weight()
                for i, a in enumerate(c)
                for b in list(c)[i + 1:]
            )
            assert c.min_distance("pomset") == pairwise

    def test_pair_scan_bounded_by_the_cap(self):
        # three words, not closed under addition: three pairs to weigh
        words = [(0, 0), (1, 1), (2, 2)]
        sp = small_chain()
        at_cap = Code(BlockSpace(5, sp.pomset, sp.pi, cap=3), words)
        assert at_cap.min_distance("pomset") == 3
        below = Code(BlockSpace(5, sp.pomset, sp.pi, cap=2), words)
        for metric in ("pomset", "poset"):
            with pytest.raises(SpaceTooLarge, match="3 codeword pairs.*above the cap 2"):
                below.min_distance(metric)
        # the linear path weighs |C| words and ignores the pair count
        diagonal = Code(below.space, [(k, k) for k in range(5)])
        assert diagonal.linear and diagonal.min_distance("pomset") == 3

    def test_singleton_has_no_distance(self):
        with pytest.raises(SingletonCode):
            Code(small_chain(), [(0, 0)]).min_distance()


class TestPerfectFull:
    def test_small_chain_construction(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1")
        code = construct_perfect_full(sp, ideal)
        assert {w.coords for w in code} == {(0, b) for b in range(5)}
        assert verify_perfect(code, ideal=ideal).is_perfect

    def test_trivial_ideals(self):
        sp = small_chain()
        assert len(construct_perfect_full(sp, parse_ideal(sp, "-"))) == 25
        assert len(construct_perfect_full(sp, parse_ideal(sp, "2/1 2/2"))) == 1

    def test_cardinality_and_distance_promise(self):
        for sp in (chain_space(4, (1, 2)), antichain_space(5, (1, 1, 1))):
            chain = sp.pomset.is_chain()
            for ideal in sp.pomset.ideals():
                if not ideal.is_full_count():
                    continue
                code = construct_perfect_full(sp, ideal)
                pinned = sum(sp.pi[i - 1] for i in ideal.root_set)
                assert len(code) == sp.m ** (sp.N - pinned)
                assert verify_perfect(code, ideal=ideal).is_perfect
                if len(code) < 2:
                    continue
                # no codeword difference fits inside the ideal (this is what
                # ball disjointness needs); on a chain, where ideals are
                # totally ordered by inclusion, it forces distance > |I|
                words = list(code)
                assert all(
                    not (a - b).support().is_submset(ideal.counts)
                    for i, a in enumerate(words)
                    for b in words[i + 1:]
                )
                if chain:
                    assert code.min_distance("pomset") > ideal.cardinality

    def test_partial_count_rejected(self):
        sp = small_chain()
        with pytest.raises(NotFullCount):
            construct_perfect_full(sp, parse_ideal(sp, "1/1"))


class TestPerfectPartial:
    def test_mod_nine_scalar(self):
        sp = antichain_space(9, (1,))
        code = construct_perfect_partial(sp, parse_ideal(sp, "1/1"))
        assert {w.coords[0] for w in code} == {0, 3, 6}
        assert verify_perfect(code, ideal=parse_ideal(sp, "1/1")).is_perfect

    def test_mod_nine_wide_block(self):
        sp = antichain_space(9, (2,))
        ideal = parse_ideal(sp, "1/1")
        code = construct_perfect_partial(sp, ideal)
        assert len(code) == 9
        assert verify_perfect(code, ideal=ideal).is_perfect

    def test_mixed_full_partial_on_chain(self):
        sp = chain_space(9, (1, 1))
        ideal = parse_ideal(sp, "4/1 1/2")
        code = construct_perfect_partial(sp, ideal)
        assert len(code) == 3  # block 1 pinned to zero, block 2 over {0,3,6}
        assert verify_perfect(code, ideal=ideal).is_perfect

    def test_free_blocks_stay_free(self):
        sp = antichain_space(9, (1, 1))
        ideal = parse_ideal(sp, "1/2")
        code = construct_perfect_partial(sp, ideal)
        assert len(code) == 27
        assert verify_perfect(code, ideal=ideal).is_perfect

    def test_full_count_ideals_give_the_zero_section(self):
        # with no partial count the construction is construct_perfect_full's:
        # every vector vanishing on the root blocks
        for m, pi, order in GRID:
            sp = grid_space(m, pi, order)
            for ideal in sp.pomset.ideals():
                if not ideal.is_full_count():
                    continue
                code = construct_perfect_partial(sp, ideal)
                assert code == construct_perfect_full(sp, ideal)
                pinned = [idx for i in ideal.root_set
                          for idx in range(*sp.block_bounds(i))]
                assert len(code) == m ** (sp.N - len(pinned))
                assert not any(w.coords[idx] for w in code for idx in pinned)

    def test_divisibility_failure(self):
        sp = antichain_space(7, (1,))
        with pytest.raises(DivisibilityFails) as exc:
            construct_perfect_partial(sp, parse_ideal(sp, "1/1"))
        assert exc.value.index == 1 and exc.value.count == 1

    def test_cap_is_checked_before_any_block_product(self, monkeypatch):
        # height 500: 500/2 pins block 2 and leaves block 1 free, 1001^2
        # words; 2/2 also fails 5 | 1001, which is reported before the cap
        sp = antichain_space(1001, (2, 1))
        capped = BlockSpace(1001, sp.pomset, sp.pi, cap=10)

        def no_product(*args, **kwargs):
            raise AssertionError("a block product was built before the cap check")

        monkeypatch.setattr(codes, "product", no_product)
        with pytest.raises(SpaceTooLarge, match="above the cap 10"):
            construct_perfect_partial(capped, parse_ideal(capped, "500/2"))
        with pytest.raises(DivisibilityFails):
            construct_perfect_partial(capped, parse_ideal(capped, "2/2"))
        # m = 10^30 + 1: the free block 2 alone has more residues than any
        # list can hold, so they are counted, not listed
        huge = antichain_space(10**30 + 1, (1, 1))
        with pytest.raises(SpaceTooLarge, match=r"10{29}1 codewords, above the cap"):
            construct_perfect_partial(huge, parse_ideal(huge, f"{huge.max_lee}/1"))

    def test_cap_words_a_product_past_4300_digits_as_powers(self):
        # 1/1 takes the multiples of 3 on block 1 and leaves block 2 free
        sp = antichain_space(9, (10**8, 10**8))
        with pytest.raises(SpaceTooLarge) as refused:
            construct_perfect_partial(sp, parse_ideal(sp, "1/1"))
        assert str(refused.value) == ("construction would emit 3^100000000 * "
                                      "9^100000000 codewords, above the cap 10000000")

    def test_centers_alone_are_disjoint(self):
        # the partial-block centers give disjoint balls even before the
        # free blocks are added
        sp = antichain_space(9, (1, 1))
        ideal = parse_ideal(sp, "1/2")
        centers = Code(sp, [(0, t) for t in (0, 3, 6)])
        cert = verify_perfect(centers, ideal=ideal)
        assert cert.disjoint and not cert.covering


class TestVerifyPerfect:
    def test_overlap_witness_is_genuine(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1")
        cert = verify_perfect(Code(sp, [(0, 0), (1, 0)]), ideal=ideal)
        assert not cert.disjoint
        v, c1, c2 = cert.overlap
        assert (v - c1).support().is_submset(ideal.counts)
        assert (v - c2).support().is_submset(ideal.counts)

    def test_uncovered_witness_is_genuine(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1")
        cert = verify_perfect(Code(sp, [(0, 0)]), ideal=ideal)
        assert not cert.covering
        assert not (cert.uncovered - sp.zero()).support().is_submset(ideal.counts)

    def test_single_word_with_full_ideal(self):
        sp = small_chain()
        cert = verify_perfect(Code(sp, [(0, 0)]), ideal=parse_ideal(sp, "2/1 2/2"))
        assert cert.is_perfect

    def test_radius_variant(self):
        sp = small_chain()
        diagonal = Code.from_generators(sp, [(1, 1)])
        assert verify_perfect(diagonal, radius=2).is_perfect
        assert not verify_perfect(diagonal, radius=3).is_perfect

    def test_exactly_one_parameter(self):
        sp = small_chain()
        code = Code(sp, [(0, 0)])
        with pytest.raises(ValueError):
            verify_perfect(code)
        with pytest.raises(ValueError):
            verify_perfect(code, ideal=parse_ideal(sp, "-"), radius=1)


@st.composite
def codes_with_balls(draw):
    """A random order on at most 3 blocks of length at most 2, relabelled,
    with m <= 7 and at most 3000 vectors; a code of 1..12 arbitrary words,
    one of its space's ideals and one radius."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 3))
    pi = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)
              .filter(lambda pi: m ** sum(pi) <= 3000))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    perm = draw(st.permutations(range(1, n + 1)))
    space = space_with_order(m, pi, [(perm[i - 1], perm[j - 1]) for i, j in chosen])
    word = st.tuples(*[st.integers(0, m - 1)] * space.N)
    words = draw(st.lists(word, min_size=1, max_size=12, unique=True))
    ideal = draw(st.sampled_from(space.pomset.ideals()))
    radius = draw(st.integers(0, space.n * space.max_lee))
    return Code(space, words), ideal, radius


@given(codes_with_balls())
@settings(max_examples=300, deadline=None)
def test_tally_matches_the_pair_scan(case):
    code, ideal, radius = case
    assert verify_perfect(code, ideal=ideal) == perfect_by_pair_scan(code, ideal=ideal)
    assert verify_perfect(code, radius=radius) == perfect_by_pair_scan(
        code, radius=radius)
    assert packing_radius(code) == packing_radius_by_pair_scan(code)


class TestDuals:
    def test_axis_dual(self):
        sp = small_chain()
        c = Code.from_generators(sp, [(1, 0)])
        assert {w.coords for w in dual_code(c)} == {(0, b) for b in range(5)}

    def test_trivial_duals(self):
        sp = small_chain()
        zero = Code(sp, [(0, 0)])
        assert len(dual_code(zero)) == 25
        everything = Code(sp, [v.coords for v in sp.vectors()])
        assert {w.coords for w in dual_code(everything)} == {(0, 0)}

    def test_size_product(self):
        sp = small_chain()
        rng = random.Random(2)
        for _ in range(6):
            c = Code.from_generators(
                sp, [tuple(rng.randrange(5) for _ in range(2))]
            )
            assert len(c) * len(dual_code(c)) == sp.size()

    def test_requires_linearity(self):
        sp = small_chain()
        with pytest.raises(NotLinear):
            dual_code(Code(sp, [(1, 1), (2, 2)]))

    def test_generating_set_need_not_be_minimal(self):
        # over Z_4 the first sorted word (0, 2) is twice (2, 1), which the
        # greedy pass keeps too
        sp = chain_space(4, (1, 1))
        code = Code.from_generators(sp, [(2, 1)])
        assert [w.coords for w in code][:2] == [(0, 0), (0, 2)]
        assert {w.coords for w in dual_code(code)} == {
            (0, 0), (1, 2), (2, 0), (3, 2)}

    def test_bounded_by_the_cap(self):
        sp = small_chain()
        capped = BlockSpace(5, sp.pomset, sp.pi, cap=24)
        diagonal = Code.from_generators(capped, [(1, 1)])
        with pytest.raises(SpaceTooLarge, match="above the cap 24"):
            dual_code(diagonal)

    def test_perp_duality_true_and_false_instances(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1")
        aligned = construct_perfect_full(sp, ideal)  # the (0, b) section
        report = perp_duality_report(aligned, ideal)
        assert report.code_perfect and report.dual_perfect and report.holds
        axis = Code.from_generators(sp, [(1, 0)])
        report = perp_duality_report(axis, ideal)
        assert not report.code_perfect and not report.dual_perfect
        assert report.holds

    def test_perp_duality_random_linear_codes(self):
        sp = small_chain()
        rng = random.Random(9)
        ideal = parse_ideal(sp, "2/1")
        for _ in range(8):
            c = Code.from_generators(
                sp, [tuple(rng.randrange(5) for _ in range(2))]
            )
            assert perp_duality_report(c, ideal).holds


@st.composite
def linear_codes_over_composite_moduli(draw):
    """A code spanned by random rows over Z_m^N, m in {4, 6, 8} and at
    most 512 vectors, with redundant rows (combinations of earlier ones)
    and zero-divisor multiples mixed in, so the generating set kept from
    the sorted codewords need not be minimal."""
    m = draw(st.sampled_from([4, 6, 8]))
    n_coords = draw(st.integers(1, {4: 4, 6: 3, 8: 3}[m]))
    space = chain_space(m, (1,) * n_coords)
    row = st.tuples(*[st.integers(0, m - 1)] * n_coords)
    rows = draw(st.lists(row, max_size=3))
    scalars = st.integers(0, m - 1)
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
        cs = [draw(scalars) for _ in picked]
        rows.append(tuple(sum(c * r[j] for c, r in zip(cs, picked)) % m
                          for j in range(n_coords)))
    divisors = [d for d in range(2, m) if m % d == 0]
    for r in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []:
        d = draw(st.sampled_from(divisors))
        rows.append(tuple(d * x % m for x in r))
    return Code.from_generators(space, draw(st.permutations(rows)))


@given(linear_codes_over_composite_moduli())
@settings(max_examples=150, deadline=None)
def test_dual_matches_the_dot_scan(code):
    dual = dual_code(code)
    assert {w.coords for w in dual} == perp_by_dot_scan(code.space, code.coord_set)
    assert len(code) * len(dual) == code.space.size()


def test_random_codes_never_break_certificates():
    sp = chain_space(4, (1, 1))
    rng = random.Random(31)
    for _ in range(10):
        code = random_code(sp, rng, max_size=6)
        for ideal in sp.pomset.ideals():
            cert = verify_perfect(code, ideal=ideal)
            # recompute both flags naively
            balls = [
                {v.coords for v in sp.vectors()
                 if (v - c).support().is_submset(ideal.counts)}
                for c in code
            ]
            disjoint = all(
                not (balls[i] & balls[j])
                for i in range(len(balls))
                for j in range(i + 1, len(balls))
            )
            covering = set().union(*balls) == {v.coords for v in sp.vectors()}
            assert cert.disjoint == disjoint
            assert cert.covering == covering
