"""Acceptance gate: every closed form against its enumerator, end to end.

One test per criterion; each prints a pass/fail line with its runtime and
enforces the stated budget. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from itertools import product

import pomsetblock as pb

from helpers import (
    CHAIN_GRID,
    GRID,
    UNIT_GRID,
    acceptance_report,
    cached_support_census,
    coords_to_index,
    five_pomset,
    grid_space,
    i_sphere,
    in_i_ball,
    random_code,
    wide_space,
)


def test_01_worked_examples():
    started = time.perf_counter()
    failures = []

    p = five_pomset()
    ms = lambda text: pb.Multiset.parse(text, 5, 3)
    checks = [
        ("generated", p.ideal_generated(ms("2/3")).counts, ms("3/1 2/3")),
        ("sum", ms("2/1").mset_sum(ms("3/1 1/3")), ms("3/1 1/3")),
        ("diff", ms("2/1").mset_diff(ms("3/1 1/3")), pb.Multiset.empty(5, 3)),
        ("union", ms("3/1 1/3").union(ms("3/1 3/2 2/3 2/4")),
         ms("3/1 3/2 2/3 2/4")),
        ("intersection", ms("3/1 1/3").intersection(ms("3/1 3/2 2/3 2/4")),
         ms("3/1 1/3")),
        ("dual-minima", p.dual().minimal_indices(), (3, 4, 5)),
    ]
    for name, got, want in checks:
        if got != want:
            failures.append((name, got, want))

    v = pb.parse_vector(wide_space(), "0 0 0 0 0 0 0 0 0 0 1 0 1 0 0 0 2 0")
    if v.weight() != 12:
        failures.append(("wide-weight", v.weight(), 12))

    acceptance_report("worked-examples", 1.0, started, failures)


def test_02_metric_axioms():
    started = time.perf_counter()
    failures = []
    rng = random.Random(2024)

    for m, pi, order in GRID:
        space = grid_space(m, pi, order)
        w = space.weights()
        size, N = space.size(), space.N

        # identity of indiscernibles: only the zero vector has weight zero
        if w[0] != 0 or any(x == 0 for x in w[1:]):
            failures.append((m, pi, order, "identity"))

        # symmetry via negation
        for idx, coords in enumerate(space.coord_tuples()):
            neg = coords_to_index(((m - c) % m for c in coords), m)
            if w[idx] != w[neg]:
                failures.append((m, pi, order, "symmetry", coords))
                break

        # triangle inequality: exhaustive on small spaces, sampled elsewhere
        if size <= 700:
            pairs = product(space.coord_tuples(), repeat=2)
        else:
            pairs = (
                (
                    tuple(rng.randrange(m) for _ in range(N)),
                    tuple(rng.randrange(m) for _ in range(N)),
                )
                for _ in range(100_000)
            )
        for a, b in pairs:
            s = coords_to_index(((x + y) % m for x, y in zip(a, b)), m)
            if w[s] > w[coords_to_index(a, m)] + w[coords_to_index(b, m)]:
                failures.append((m, pi, order, "triangle", a, b))
                break

        # the distance plumbing itself, on a few triples
        for _ in range(20):
            u, v, t = (
                space.vector(tuple(rng.randrange(m) for _ in range(N)))
                for _ in range(3)
            )
            if space.distance(u, v) != space.distance(v, u):
                failures.append((m, pi, order, "d-symmetry"))
            if space.distance(u, v) > space.distance(u, t) + space.distance(t, v):
                failures.append((m, pi, order, "d-triangle"))

    acceptance_report("metric-axioms", 120.0, started, failures)


def test_03_sphere_and_ball_formulas():
    started = time.perf_counter()
    failures = []

    for m, pi, order in GRID:
        space = grid_space(m, pi, order)
        census = cached_support_census(m, pi, order)

        for ideal in space.pomset.ideals():
            formula = pb.i_sphere_size(space, ideal)
            oracle = census.get(ideal.counts.counts, 0)
            if formula != oracle:
                failures.append((m, pi, order, "sphere", ideal.counts.literal(),
                                 formula, oracle))

        by_card = {}
        for key, mult in census.items():
            by_card[sum(key)] = by_card.get(sum(key), 0) + mult
        running = 0
        for r in range(space.n * space.max_lee + 1):
            got = pb.r_sphere_size(space, r)
            want = by_card.get(r, 0)
            if got != want:
                failures.append((m, pi, order, "r-sphere", r, got, want))
            running += want
            if pb.r_ball_size(space, r) != running:
                failures.append((m, pi, order, "r-ball", r))

    # cardinalities are center independent: spot-check off-zero centers
    rng = random.Random(3)
    for m, pi, order in [(5, (1, 1), "chain"), (6, (1, 1, 2), "sample")]:
        space = grid_space(m, pi, order)
        for ideal in space.pomset.ideals():
            want = pb.i_sphere_size(space, ideal)
            for _ in range(3):
                u = space.vector(tuple(rng.randrange(m) for _ in range(space.N)))
                if len(i_sphere(u, ideal)) != want:
                    failures.append((m, pi, order, "center", ideal.counts.literal()))

    acceptance_report("sphere-and-ball-formulas", 300.0, started, failures)


def test_04_block_shell_counts():
    started = time.perf_counter()
    failures = []
    for m in range(3, 10):
        for k in range(1, 4):
            shells = [pb.block_shell_size(m, k, r) for r in range(m // 2 + 1)]
            oracle = [pb.block_shell_size_enumerated(m, k, r)
                      for r in range(m // 2 + 1)]
            if shells != oracle:
                failures.append((m, k, shells, oracle))
            if sum(shells) != m**k:
                failures.append((m, k, "total", sum(shells)))
    acceptance_report("block-shell-counts", 10.0, started, failures)


def test_05_weight_distribution_formula():
    started = time.perf_counter()
    failures = []

    for m, pi, order in GRID:
        space = grid_space(m, pi, order)
        formula = pb.weight_distribution(space).shells
        oracle = pb.weight_distribution_enumerated(space).shells
        if formula != oracle:
            failures.append((m, pi, order, formula, oracle))
        if sum(formula) != space.size():
            failures.append((m, pi, order, "total"))

        # the top shell comes from the unique full ideal
        full = space.pomset.ideals_of_cardinality(space.n * space.max_lee)
        if len(full) != 1 or formula[-1] != pb.i_sphere_size(space, full[0]):
            failures.append((m, pi, order, "top-shell"))

        # unit blocks: the inner term collapses to scalar Lee shells with a
        # plain m^(l-j) factor
        if set(pi) == {1}:
            for r in range(1, space.n * space.max_lee + 1):
                total = 0
                for ideal in space.pomset.ideals_of_cardinality(r):
                    maximal = ideal.maximal_root()
                    scal = 1
                    for i in maximal:
                        scal *= pb.lee_shell_size(m, ideal.count(i))
                    total += scal * m ** (len(ideal.root_set) - len(maximal))
                if total != formula[r]:
                    failures.append((m, pi, order, "unit-form", r))

        # uniform blocks: the per-block factors and the free factor both
        # carry the common exponent k
        k = pi[0]
        if k > 1 and all(ki == k for ki in pi):
            for r in range(1, space.n * space.max_lee + 1):
                total = 0
                for ideal in space.pomset.ideals_of_cardinality(r):
                    maximal = ideal.maximal_root()
                    term = 1
                    for i in maximal:
                        term *= pb.block_shell_size(m, k, ideal.count(i))
                    total += term * m ** (
                        k * (len(ideal.root_set) - len(maximal)))
                if total != formula[r]:
                    failures.append((m, pi, order, "uniform-form", r))

    acceptance_report("weight-distribution-formula", 300.0, started, failures)


def test_06_unit_block_weight_equivalence():
    started = time.perf_counter()
    failures = []
    for m, pi, order in UNIT_GRID:
        space = grid_space(m, pi, order)
        for v in space.vectors():
            if pb.pw_weight(v) != v.weight():
                failures.append((m, pi, order, "pointwise", v.coords))
                break
    acceptance_report("unit-block-weight-equivalence", 60.0, started, failures)


def test_07_full_count_ball_structure():
    started = time.perf_counter()
    failures = []
    for m, pi, order in GRID:
        space = grid_space(m, pi, order)
        for ideal in space.pomset.ideals():
            if not ideal.is_full_count():
                continue
            report = pb.full_count_structure(space, ideal)
            if not report.ok:
                failures.append((m, pi, order, ideal.counts.literal(), report))
            ball = pb.i_ball_coords(space.zero(), ideal)
            if len(ball) != pb.i_ball_size(space, ideal):
                failures.append((m, pi, order, ideal.counts.literal(), "size"))
            # closure is the span's fact; the whole space is trivially closed
            if len(ball) < space.size() and space.span(ball, len(ball)) != set(ball):
                failures.append((m, pi, order, ideal.counts.literal(), "closure"))
    acceptance_report("full-count-ball-structure", 120.0, started, failures)


def test_08_perfect_code_constructions():
    started = time.perf_counter()
    failures = []

    # full-count constructions across the grid
    for m, pi, order in GRID:
        space = grid_space(m, pi, order)
        for ideal in space.pomset.ideals():
            if not ideal.is_full_count():
                continue
            pinned = sum(space.pi[i - 1] for i in ideal.root_set)
            expected = m ** (space.N - pinned)
            code = pb.construct_perfect_full(space, ideal)
            if len(code) != expected:
                failures.append((m, pi, order, ideal.counts.literal(), "size"))
            if not pb.verify_perfect(code, ideal=ideal).is_perfect:
                failures.append((m, pi, order, ideal.counts.literal(), "perfect"))

    # partial-count constructions: scalar, wide block, two-block, mixed
    cases = [
        (pb.antichain_space(9, (1,)), "1/1", 3),
        (pb.antichain_space(9, (2,)), "1/1", 9),
        (pb.antichain_space(9, (1, 1)), "1/1 1/2", 9),
        (pb.antichain_space(9, (1, 1)), "1/2", 27),
        (pb.chain_space(9, (1, 1)), "4/1 1/2", 3),
    ]
    for space, literal, expected in cases:
        ideal = pb.parse_ideal(space, literal)
        code = pb.construct_perfect_partial(space, ideal)
        if len(code) != expected:
            failures.append((space.m, space.pi, literal, "size", len(code)))
        if not pb.verify_perfect(code, ideal=ideal).is_perfect:
            failures.append((space.m, space.pi, literal, "perfect"))

    # scalar translate partition behind the construction
    for m, t in [(9, 1), (15, 1), (15, 2), (25, 2)]:
        step = 2 * t + 1
        small = {x % m for x in range(-t, t + 1)}
        translates = [{(i + s) % m for s in small} for i in range(0, m, step)]
        union = set().union(*translates)
        disjoint = all(
            not (translates[a] & translates[b])
            for a in range(len(translates))
            for b in range(a + 1, len(translates))
        )
        if union != set(range(m)) or not disjoint:
            failures.append((m, t, "scalar-partition"))

    # partial-block centers alone give disjoint (not covering) balls
    space = pb.antichain_space(9, (1, 1))
    ideal = pb.parse_ideal(space, "1/2")
    centers = pb.Code(space, [(0, t) for t in (0, 3, 6)])
    cert = pb.verify_perfect(centers, ideal=ideal)
    if not cert.disjoint or cert.covering:
        failures.append(("centers-only",))

    # divisibility failures carry the offender
    try:
        pb.construct_perfect_partial(
            pb.antichain_space(7, (1,)), pb.parse_ideal(pb.antichain_space(7, (1,)), "1/1")
        )
        failures.append(("divisibility", "not raised"))
    except pb.DivisibilityFails as exc:
        if (exc.index, exc.count) != (1, 1):
            failures.append(("divisibility", exc.index, exc.count))

    acceptance_report("perfect-code-constructions", 60.0, started, failures)


def test_09_perp_duality_biconditional():
    started = time.perf_counter()
    failures = []
    space = pb.chain_space(5, (1, 1))
    ideal = pb.parse_ideal(space, "2/1")

    aligned = pb.construct_perfect_full(space, ideal)
    report = pb.perp_duality_report(aligned, ideal)
    if not (report.code_perfect and report.dual_perfect and report.holds):
        failures.append(("true-instance", report))

    axis = pb.Code.from_generators(space, [(1, 0)])
    report = pb.perp_duality_report(axis, ideal)
    if report.code_perfect or report.dual_perfect or not report.holds:
        failures.append(("false-instance", report))

    acceptance_report("perp-duality-biconditional", 10.0, started, failures)


def test_10_chain_code_suite():
    started = time.perf_counter()
    failures = []
    rng = random.Random(10)

    # packing radius: closed form equals brute force
    for m, pi in [(4, (1, 1)), (5, (1, 1)), (4, (1, 2)), (5, (1, 1, 1))]:
        space = pb.chain_space(m, pi)
        codes = [pb.unit_repetition_code(space)]
        for card in range(0, space.n * space.max_lee + 1, space.max_lee):
            full = pb.construct_perfect_full(
                space, pb.chain_prefix_ideal(space.pomset, card))
            if len(full) >= 2:
                codes.append(full)
        codes += [random_code(space, rng) for _ in range(10)]
        for code in codes:
            if pb.packing_radius(code) != pb.packing_radius_chain(code):
                failures.append((m, pi, "packing", [w.coords for w in code]))

    # the Singleton-style bound holds for 100 random codes per chain config
    for m, pi, order in CHAIN_GRID:
        space = grid_space(m, pi, order)
        for _ in range(100):
            code = random_code(space, rng)
            if not pb.singleton_report(code).holds:
                failures.append((m, pi, "bound", [w.coords for w in code]))

    # repetition codes are MDS; every MDS code respects the distance bracket
    mds_found = []
    for m, pi, order in CHAIN_GRID:
        if set(pi) != {pi[0]}:
            continue
        space = grid_space(m, pi, order)
        unit = pb.unit_repetition_code(space)
        if set(pi) == {1} and not pb.is_mds(unit):
            failures.append((m, pi, "unit-repetition"))
        mds_found += [c for c in [unit] + [random_code(space, rng) for _ in range(30)]
                      if pb.is_mds(c)]
    for m, n in [(4, 1), (4, 2), (5, 2), (6, 1), (7, 1)]:
        block = pb.block_repetition_code(m, n)
        if not pb.is_mds(block):
            failures.append((m, n, "block-repetition"))
        mds_found.append(block)
    for code in mds_found:
        space = code.space
        h, k, n = space.max_lee, space.pi[0], space.n
        d = code.min_distance("pomset") if len(code) > 1 else None
        q = 0
        while space.m**q < len(code):
            q += 1
        if d is not None and not (
            h * (n * k - q) + k <= d * k <= h * (n * k - q + k)
        ):
            failures.append((space.m, space.pi, "bracket", d))

    # the four-way duality on the named instances
    sp52 = pb.chain_space(5, (1, 1))
    sp42 = pb.chain_space(4, (1, 1))
    sp43 = pb.chain_space(4, (1, 1, 1))
    instances = [
        (sp52, (1, 1), (True,) * 4),
        (sp52, (1, 0), (False,) * 4),
        (sp42, (1, 1), (True,) * 4),
        (sp42, (1, 0), (False,) * 4),
        (sp43, (1, 1, 1), (True,) * 4),
        (sp43, (1, 0, 0), (False,) * 4),
    ]
    for space, gen, expected in instances:
        report = pb.duality_equivalence(pb.Code.from_generators(space, [gen]))
        if report.statements != expected or not report.all_equal:
            failures.append((space.m, space.pi, gen, report.statements))

    # radius-perfect and prefix-ideal-perfect coincide on chains
    for m, pi in [(5, (1, 1)), (4, (1, 1))]:
        space = pb.chain_space(m, pi)
        codes = [pb.unit_repetition_code(space),
                 pb.construct_perfect_full(
                     space, pb.chain_prefix_ideal(space.pomset, space.max_lee))]
        codes += [random_code(space, rng) for _ in range(5)]
        for code in codes:
            for r in range(space.n * space.max_lee + 1):
                by_r = pb.verify_perfect(code, radius=r).is_perfect
                by_i = pb.verify_perfect(
                    code, ideal=pb.chain_prefix_ideal(space.pomset, r)
                ).is_perfect
                if by_r != by_i:
                    failures.append((m, pi, "r-vs-ideal", r))

    acceptance_report("chain-code-suite", 300.0, started, failures)


def test_11_partial_ball_nonlinearity():
    started = time.perf_counter()
    failures = []
    for m, pi, order in GRID:
        space = grid_space(m, pi, order)
        zero = space.zero()
        for ideal in space.pomset.ideals():
            if ideal.is_full_count():
                continue
            u, v = pb.nonlinearity_witness(space, ideal)
            ok = (
                in_i_ball(zero, u, ideal)
                and in_i_ball(zero, v, ideal)
                and not in_i_ball(zero, u + v, ideal)
            )
            if not ok:
                failures.append((m, pi, order, ideal.counts.literal()))
    acceptance_report("partial-ball-nonlinearity", 30.0, started, failures)
