"""Balls and spheres: membership, enumeration order, closed forms, structure."""

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

from pomsetblock import (
    BlockSpace,
    Code,
    NotFullCount,
    SpaceMismatch,
    SpaceTooLarge,
    antichain_space,
    chain_space,
    construct_perfect_full,
    construct_perfect_partial,
    full_count_structure,
    i_ball,
    i_ball_coords,
    i_ball_size,
    i_ball_size_enumerated,
    i_sphere_size,
    nonlinearity_witness,
    parse_ideal,
    perp_duality_report,
    r_ball,
    r_ball_coords,
    r_ball_size,
    r_sphere_size,
    support_census,
    verify_perfect,
    weight_distribution,
)
from pomsetblock import balls

from helpers import (
    GRID,
    grid_space,
    i_sphere,
    i_sphere_size_enumerated,
    in_i_ball,
    perp_by_dot_scan,
    r_ball_by_scan,
    r_sphere,
    random_vector,
)

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pomsetblock import space_with_order


def small_chain():
    return chain_space(5, (1, 1))


class TestMembership:
    def test_center_always_inside(self):
        sp = small_chain()
        u = sp.vector((3, 2))
        for ideal in sp.pomset.ideals():
            assert in_i_ball(u, u, ideal)

    def test_small_chain_ball(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1")
        got = {v.coords for v in sp.vectors() if in_i_ball(sp.zero(), v, ideal)}
        assert got == {(a, 0) for a in range(5)}

    def test_full_ideal_swallows_everything(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1 2/2")
        assert all(in_i_ball(sp.zero(), v, ideal) for v in sp.vectors())


class TestEnumerators:
    def test_i_ball_matches_predicate_scan(self):
        for sp in (small_chain(), antichain_space(6, (2, 1)),
                   chain_space(4, (1, 2))):
            rng = random.Random(7)
            for ideal in sp.pomset.ideals():
                center = random_vector(sp, rng)
                members = i_ball(center, ideal)
                scanned = [v for v in sp.vectors() if in_i_ball(center, v, ideal)]
                assert members == scanned  # same sets, same odometer order

    def test_i_sphere_within_ball(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1 1/2")
        ball = {v.coords for v in i_ball(sp.zero(), ideal)}
        sphere = {v.coords for v in i_sphere(sp.zero(), ideal)}
        assert sphere <= ball

    def test_sphere_members_small_chain(self):
        sp = small_chain()
        got = {v.coords for v in i_sphere(sp.zero(), parse_ideal(sp, "2/1"))}
        assert got == {(2, 0), (3, 0)}

    def test_r_ball_radius_zero_and_two(self):
        sp = small_chain()
        assert [v.coords for v in r_ball(sp.zero(), 0)] == [(0, 0)]
        assert {v.coords for v in r_ball(sp.zero(), 2)} == {(a, 0) for a in range(5)}

    @pytest.mark.parametrize("radius", [-1, 5, 99])
    def test_r_ball_rejects_the_radii_r_ball_size_rejects(self, radius):
        # the top weight of a 2-block chain over Z_5 is 4
        sp = small_chain()
        with pytest.raises(ValueError) as closed:
            r_ball_size(sp, radius)
        with pytest.raises(ValueError) as enumerated:
            r_ball(sp.zero(), radius)
        assert str(enumerated.value) == str(closed.value)

    def test_r_ball_is_union_of_ideal_balls(self):
        sp = small_chain()
        rng = random.Random(3)
        u = random_vector(sp, rng)
        for r in range(0, 5):
            by_radius = {v.coords for v in r_ball(u, r)}
            by_ideals = set()
            for ideal in sp.pomset.ideals_of_cardinality(r):
                by_ideals |= {v.coords for v in i_ball(u, ideal)}
            if r == 0:
                by_ideals = {u.coords}
            assert by_radius == by_ideals

    def test_ball_translation(self):
        sp = small_chain()
        base = {v.coords for v in r_ball(sp.zero(), 3)}
        for u in sp.vectors():
            shifted = {tuple((x + y) % 5 for x, y in zip(u.coords, b))
                       for b in base}
            assert {v.coords for v in r_ball(u, 3)} == shifted

    def test_same_ball_iff_within_distance(self):
        sp = small_chain()
        vecs = list(sp.vectors())
        for r in range(0, 5):
            ideals = sp.pomset.ideals_of_cardinality(r)
            for u in vecs:
                for v in vecs:
                    together = any(in_i_ball(u, v, i) for i in ideals)
                    assert together == (sp.distance(u, v) <= r)


class TestClosedForms:
    def test_full_count_sphere_small_chain(self):
        sp = small_chain()
        assert i_sphere_size(sp, parse_ideal(sp, "2/1")) == 2

    def test_empty_ideal_sphere_is_center(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "-")
        assert i_sphere_size(sp, ideal) == 1
        assert [v.coords for v in i_sphere(sp.zero(), ideal)] == [(0, 0)]

    def test_partial_sphere_single_wide_block(self):
        sp = antichain_space(7, (2,))
        assert i_sphere_size(sp, parse_ideal(sp, "1/1")) == 8
        assert i_sphere_size_enumerated(sp, parse_ideal(sp, "1/1")) == 8

    def test_every_ideal_matches_enumeration(self):
        for sp in (small_chain(), antichain_space(6, (1, 2)),
                   chain_space(7, (2, 1))):
            census = support_census(sp)
            for ideal in sp.pomset.ideals():
                assert i_sphere_size(sp, ideal) == census.get(ideal.counts.counts, 0)

    def test_sphere_size_center_independent(self):
        sp = chain_space(6, (1, 2))
        rng = random.Random(11)
        for ideal in (parse_ideal(sp, "3/1"), parse_ideal(sp, "3/1 2/2")):
            sizes = {len(i_sphere(random_vector(sp, rng), ideal)) for _ in range(3)}
            assert sizes == {i_sphere_size(sp, ideal)}

    def test_radius_formulas(self):
        sp = small_chain()
        assert r_ball_size(sp, 0) == 1
        assert r_ball_size(sp, 2) == 5
        assert r_ball_size(sp, sp.n * sp.max_lee) == sp.size()
        for r in range(0, 5):
            assert r_sphere_size(sp, r) == len(r_sphere(sp.zero(), r))
            assert r_ball_size(sp, r) == len(r_ball(sp.zero(), r))
        with pytest.raises(ValueError):
            r_ball_size(sp, 5)

    def test_ball_size_formula(self):
        sp9 = antichain_space(9, (1,))
        assert i_ball_size(sp9, parse_ideal(sp9, "1/1")) == 3
        sp72 = antichain_space(7, (2,))
        assert i_ball_size(sp72, parse_ideal(sp72, "1/1")) == 9
        sp = small_chain()
        assert i_ball_size(sp, parse_ideal(sp, "2/1 1/2")) == 15
        for ideal in sp.pomset.ideals():
            assert i_ball_size(sp, ideal) == i_ball_size_enumerated(sp, ideal)
            assert i_ball_size(sp, ideal) == len(i_ball(sp.zero(), ideal))


def random_orders(moduli):
    """(m, pi, pairs): a modulus drawn from ``moduli``, at most 3 blocks of
    length at most 2, and at most 3 order pairs."""
    return moduli.flatmap(lambda m: st.integers(1, 3).flatmap(
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
    ))


tiny_spaces = random_orders(st.integers(4, 9))


@given(tiny_spaces)
@settings(max_examples=40, deadline=None)
def test_closed_forms_match_census_on_random_spaces(config):
    m, pi, pairs = config
    sp = space_with_order(m, tuple(pi), pairs)
    census = support_census(sp)
    assert sum(census.values()) == sp.size()
    running = 1
    for ideal in sp.pomset.ideals():
        assert i_sphere_size(sp, ideal) == census.get(ideal.counts.counts, 0)
    for r in range(sp.n * sp.max_lee + 1):
        want = sum(c for key, c in census.items() if sum(key) == r)
        assert r_sphere_size(sp, r) == want
        if r:
            running += want
        assert r_ball_size(sp, r) == running


@given(random_orders(st.integers(2, 7)))
@settings(max_examples=60, deadline=None)
def test_down_set_sums_match_the_brute_filter(config):
    m, pi, pairs = config
    sp = space_with_order(m, tuple(pi), pairs)
    profiles, supports = balls.profile_census(sp), support_census(sp)
    by_profile = balls.down_set_sums(sp, profiles)
    by_support = balls.down_set_sums(sp, supports)

    def below(census, p):
        return sum(mult for key, mult in census.items()
                   if all(a <= b for a, b in zip(key, p)))

    for ideal in sp.pomset.ideals():
        p = ideal.counts.counts
        assert by_profile[p] == by_support[p] == below(supports, p)
    assert len(by_profile) == (sp.max_lee + 1) ** sp.n
    for p, total in by_profile.items():
        assert total == below(profiles, p)


@pytest.mark.parametrize("entry", [
    lambda sp, ideal: i_ball_coords(sp.zero(), ideal),
    i_sphere_size,
    i_ball_size,
    i_ball_size_enumerated,
    full_count_structure,
    nonlinearity_witness,
    lambda sp, ideal: verify_perfect(Code(sp, [sp.zero()]), ideal=ideal),
    construct_perfect_partial,
    construct_perfect_full,
    lambda sp, ideal: perp_duality_report(Code(sp, [sp.zero()]), ideal),
], ids=["i_ball_coords", "i_sphere_size", "i_ball_size",
        "i_ball_size_enumerated", "full_count_structure",
        "nonlinearity_witness", "verify_perfect", "construct_perfect_partial",
        "construct_perfect_full", "perp_duality_report"])
def test_an_ideal_of_another_order_is_rejected(entry):
    # on the 3-block chain: an ideal of the 3-block antichain, which is no
    # ideal of the chain, and an ideal of a 2-block chain
    sp = chain_space(5, (1, 1, 1))
    for ideal in (parse_ideal(antichain_space(5, (1, 1, 1)), "1/3"),
                  parse_ideal(chain_space(5, (1, 1)), "2/1 1/2")):
        with pytest.raises(SpaceMismatch, match="not of the space's"):
            entry(sp, ideal)


@st.composite
def relabelled_spaces(draw):
    """A random order on at most 3 blocks of length at most 2, relabelled
    by a random permutation, with m <= 7 and at most 3000 vectors."""
    m = draw(st.integers(2, 7))
    n = draw(st.integers(1, 3))
    pi = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)
              .filter(lambda pi: m ** sum(pi) <= 3000))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    perm = draw(st.permutations(range(1, n + 1)))
    return space_with_order(m, pi, [(perm[i - 1], perm[j - 1]) for i, j in chosen])


@given(relabelled_spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_weight_table_and_radius_balls_match_the_scan(space, data):
    assert list(space.weights()) == [v.weight() for v in space.vectors()]
    word = st.tuples(*[st.integers(0, space.m - 1)] * space.N)
    for _ in range(3):
        center = space.vector(data.draw(word))
        r = data.draw(st.integers(0, space.n * space.max_lee))
        want = r_ball_by_scan(center, r)
        assert r_ball(center, r) == want
        assert r_ball_coords(center, r) == [v.coords for v in want]
        ideal = data.draw(st.sampled_from(space.pomset.ideals()))
        assert i_ball_coords(center, ideal) == [
            v.coords for v in space.vectors() if in_i_ball(center, v, ideal)]


def test_weight_enumerator_bounded_by_the_cap():
    # a 2-block chain at m = 9 has n*h + 1 = 2*4 + 1 = 9 coefficients and
    # 3 set ideals, which the walk counts at n = 2 each
    sp = chain_space(9, (1, 1))
    at_cap = BlockSpace(9, sp.pomset, sp.pi, cap=9)
    assert balls.weight_enumerator(at_cap) == balls.weight_enumerator(sp)
    below = BlockSpace(9, sp.pomset, sp.pi, cap=8)
    for closed_form in (r_sphere_size, r_ball_size):
        with pytest.raises(SpaceTooLarge, match="9 coefficients, above the cap 8"):
            closed_form(below, 2)
    with pytest.raises(SpaceTooLarge, match="above the cap 8"):
        weight_distribution(below)
    # at m = 5 the 5 coefficients fit a cap of 5, but the walk's 3 * 2 does not
    sp = small_chain()
    with pytest.raises(SpaceTooLarge, match="more than 2 ideals to enumerate"):
        balls.weight_enumerator(BlockSpace(5, sp.pomset, sp.pi, cap=5))
    at_cap = BlockSpace(5, sp.pomset, sp.pi, cap=6)
    assert balls.weight_enumerator(at_cap) == balls.weight_enumerator(sp)


class TestFullCountStructure:
    def test_small_chain_report(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1")
        report = full_count_structure(sp, ideal)
        assert report.ok
        assert i_ball_size_enumerated(sp, ideal) == 5
        assert report.coordinate_form

    def test_empty_ideal_ball_is_zero_submodule(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "-")
        report = full_count_structure(sp, ideal)
        assert report.ok and i_ball_size_enumerated(sp, ideal) == 1
        assert report.coordinate_form

    def test_full_ideal_ball_is_whole_space(self):
        sp = small_chain()
        ideal = parse_ideal(sp, "2/1 2/2")
        report = full_count_structure(sp, ideal)
        assert report.ok and i_ball_size_enumerated(sp, ideal) == sp.size()
        assert report.coordinate_form

    def test_perp_is_complement_ball_in_dual(self):
        sp = small_chain()
        report = full_count_structure(sp, parse_ideal(sp, "2/1"))
        assert report.perp_equals_dual_ball

    def test_partial_count_rejected(self):
        sp = small_chain()
        with pytest.raises(NotFullCount):
            full_count_structure(sp, parse_ideal(sp, "1/1"))


def test_perp_verdict_needs_the_coordinate_form(monkeypatch):
    # hand-made balls off the coordinate form: one with a stray vector off
    # the root block, whose dot-product perp no longer is the vectors
    # vanishing on the root coordinates, and one a member short
    sp = small_chain()
    ideal = parse_ideal(sp, "2/1")
    real = balls.i_ball_coords
    members = real(sp.zero(), ideal)
    stray = (0, 1)
    dual_ball = set(real(sp.dual().zero(), ideal.complement()))
    assert perp_by_dot_scan(sp, members + [stray]) != dual_ball
    for forged_members in (members + [stray], members[:-1]):
        forged = []

        def forged_i_ball_coords(center, ideal_):
            if center != sp.zero():
                return real(center, ideal_)
            forged.append(center)
            return forged_members

        monkeypatch.setattr(balls, "i_ball_coords", forged_i_ball_coords)
        report = full_count_structure(sp, ideal)
        assert forged, "full_count_structure no longer reads the forged builder"
        assert not report.coordinate_form
        assert not report.perp_equals_dual_ball
        assert not report.ok


@given(relabelled_spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_two_comparisons_give_the_five_clause_verdict(space, data):
    # a forged zero-centre builder: the true ball, or one a member short,
    # with a member repeated, with a stray vector, shuffled, or another
    # full-count ideal's ball; the closure, size and tiling clauses the
    # report no longer computes must never change its verdict
    full = [i for i in space.pomset.ideals() if i.is_full_count()]
    ideal = data.draw(st.sampled_from(full))
    real = balls.i_ball_coords
    members = real(space.zero(), ideal)
    inside = {idx for i in ideal.root_set
              for idx in range(*space.block_bounds(i))}
    index = st.integers(0, len(members) - 1)
    how = data.draw(st.sampled_from(
        ["true", "missing", "repeated", "stray", "shuffled", "other"]))
    forged = list(members)
    if how == "missing":
        del forged[data.draw(index)]
    elif how == "repeated":
        forged.insert(data.draw(index), forged[data.draw(index)])
    elif how == "stray":
        strays = [w for w in space.coord_tuples()
                  if any(w[idx] for idx in range(space.N) if idx not in inside)]
        assume(strays)
        forged.insert(data.draw(index), data.draw(st.sampled_from(strays)))
    elif how == "shuffled":
        forged = data.draw(st.permutations(members))
    elif how == "other":
        forged = real(space.zero(), data.draw(st.sampled_from(full)))

    def forged_i_ball_coords(center, ideal_):
        return forged if center.space is space else real(center, ideal_)

    with patch.object(balls, "i_ball_coords", forged_i_ball_coords):
        report = full_count_structure(space, ideal)
    expected_size = space.m ** len(inside)
    perp = [w for w in space.coord_tuples() if not any(w[idx] for idx in inside)]
    five_clauses = (
        len(forged) == expected_size
        and (len(forged) == space.size()
             or space.span(forged, len(forged)) == set(forged))
        and report.coordinate_form
        and set(space.cover_counts(perp, forged)) == {1}
        and report.perp_equals_dual_ball
    )
    assert report.ok == five_clauses == (forged == members)


# grid spaces small enough for the |space| x |ball| dot-product scan
SMALL_GRID = [cfg for cfg in GRID if cfg[0] ** sum(cfg[1]) <= 625]


@pytest.mark.parametrize("config", SMALL_GRID, ids=str)
def test_perp_verdict_matches_dot_product_scan(config):
    space = grid_space(*config)
    dual_zero = space.dual().zero()
    for ideal in space.pomset.ideals():
        if not ideal.is_full_count():
            continue
        members = [v.coords for v in i_ball(space.zero(), ideal)]
        dual_ball = {v.coords for v in i_ball(dual_zero, ideal.complement())}
        want = perp_by_dot_scan(space, members) == dual_ball
        assert full_count_structure(space, ideal).perp_equals_dual_ball == want


class TestPartialBallTranslates:
    # a partial ball and its shift by one of its own nonzero members
    # always overlap without coinciding, so member translates cannot tile
    @pytest.mark.parametrize("m,literal,pi", [
        (9, "1/1", (1,)),
        (9, "3/1", (1,)),
        (7, "2/1", (1,)),
        (9, "1/1", (2,)),
    ])
    def test_member_shifts_neither_disjoint_nor_identical(self, m, literal, pi):
        sp = antichain_space(m, pi)
        ideal = parse_ideal(sp, literal)
        ball = {v.coords for v in i_ball(sp.zero(), ideal)}
        for x in sorted(ball):
            if not any(x):
                continue
            shifted = {tuple((a + b) % m for a, b in zip(x, v)) for v in ball}
            assert ball & shifted, x
            assert ball != shifted, x


class TestPartialBallNonlinearity:
    def test_witness_on_single_block(self):
        sp = antichain_space(9, (1,))
        ideal = parse_ideal(sp, "1/1")
        u, v = nonlinearity_witness(sp, ideal)
        assert in_i_ball(sp.zero(), u, ideal)
        assert in_i_ball(sp.zero(), v, ideal)
        assert not in_i_ball(sp.zero(), u + v, ideal)

    def test_witness_with_awkward_arithmetic(self):
        # Lee(2c) can wrap back inside the ball; the witness must dodge that
        sp = antichain_space(9, (1,))
        ideal = parse_ideal(sp, "3/1")
        u, v = nonlinearity_witness(sp, ideal)
        assert not in_i_ball(sp.zero(), u + v, ideal)

    def test_forged_membership_fails_under_optimisation(self):
        # the verification must not be an assert, which python -O strips
        script = (
            "from pomsetblock import Multiset, antichain_space, balls, parse_ideal\n"
            "Multiset.__le__ = lambda self, other: False\n"
            "sp = antichain_space(9, (1,))\n"
            "balls.nonlinearity_witness(sp, parse_ideal(sp, '1/1'))\n"
        )
        src = str(Path(balls.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode != 0
        assert "AssertionError: no nonlinearity witness" in proc.stderr

    def test_full_count_has_no_witness(self):
        sp = small_chain()
        with pytest.raises(ValueError):
            nonlinearity_witness(sp, parse_ideal(sp, "2/1"))

    def test_every_partial_ideal_has_one(self):
        for sp in (small_chain(), antichain_space(6, (1, 2)),
                   chain_space(9, (1, 1))):
            for ideal in sp.pomset.ideals():
                if ideal.is_full_count():
                    continue
                u, v = nonlinearity_witness(sp, ideal)
                assert not in_i_ball(sp.zero(), u + v, ideal)
