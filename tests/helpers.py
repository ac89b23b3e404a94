"""Shared test machinery: the verification grid, cached oracles, builders."""

from __future__ import annotations

import time
from functools import lru_cache
from itertools import product

import pomsetblock as pb

# A five-element order with two incomparable chains: 1<3, 2<4, 2<5.
SAMPLE_PAIRS = ((1, 3), (2, 4), (2, 5))

# The verification grid: modulus, block lengths, order family. Orders are
# "antichain", "chain", and "sample" (SAMPLE_PAIRS restricted to the first
# n elements, which differs from the antichain only for n >= 3). One
# deliberately heavy config (7, (2,2,2), chain) exercises the budgets.
GRID = [
    (4, (1,), "antichain"),
    (4, (3,), "antichain"),
    (4, (1, 2), "chain"),
    (4, (1, 2), "antichain"),
    (4, (1, 1, 1), "chain"),
    (4, (1, 1, 1), "antichain"),
    (4, (1, 1, 1), "sample"),
    (4, (2, 2, 2), "chain"),
    (4, (2, 2, 2), "antichain"),
    (4, (2, 2, 2), "sample"),
    (5, (2,), "antichain"),
    (5, (1, 1), "chain"),
    (5, (1, 1), "antichain"),
    (5, (1, 2), "chain"),
    (5, (1, 2), "antichain"),
    (5, (1, 2, 3), "chain"),
    (5, (1, 2, 3), "antichain"),
    (5, (1, 2, 3), "sample"),
    (6, (4,), "antichain"),
    (6, (2, 2), "chain"),
    (6, (2, 2), "antichain"),
    (6, (1, 1, 2), "chain"),
    (6, (1, 1, 2), "antichain"),
    (6, (1, 1, 2), "sample"),
    (7, (2,), "antichain"),
    (7, (1, 1), "chain"),
    (7, (1, 1), "antichain"),
    (7, (1, 1, 1), "chain"),
    (7, (1, 1, 1), "antichain"),
    (7, (1, 1, 1), "sample"),
    (7, (2, 2, 2), "chain"),
]

UNIT_GRID = [cfg for cfg in GRID if set(cfg[1]) == {1}]
CHAIN_GRID = [cfg for cfg in GRID if cfg[2] == "chain"]


def order_pairs(order: str, n: int):
    if order == "antichain":
        return ()
    if order == "chain":
        return tuple((i, i + 1) for i in range(1, n))
    if order == "sample":
        return tuple((i, j) for i, j in SAMPLE_PAIRS if i <= n and j <= n)
    raise ValueError(order)


@lru_cache(maxsize=None)
def grid_space(m: int, pi: tuple[int, ...], order: str) -> pb.BlockSpace:
    return pb.space_with_order(m, pi, order_pairs(order, len(pi)))


@lru_cache(maxsize=None)
def cached_support_census(m: int, pi: tuple[int, ...], order: str):
    return pb.support_census(grid_space(m, pi, order))


def in_i_ball(u: pb.BlockVector, v: pb.BlockVector, ideal: pb.Ideal) -> bool:
    """Oracle for ``i_ball_coords``: true iff the support of u - v fits in
    ``ideal`` pointwise. Because I is down-closed this is equivalent to the
    generated ideal of the support being contained in I."""
    return (u - v).support().is_submset(ideal.counts)


def i_sphere(center: pb.BlockVector, ideal: pb.Ideal) -> list[pb.BlockVector]:
    """Oracle for ``i_sphere_size``: the vectors whose difference support
    generates exactly ``ideal``, by a whole-space scan."""
    space = center.space
    want = ideal.counts.counts
    return [v for v in space.vectors()
            if space.pomset.generated_counts((center - v).support().counts) == want]


def r_ball_by_scan(center: pb.BlockVector, r: int) -> list[pb.BlockVector]:
    """Oracle for ``r_ball``: weigh the difference to every vector of the
    space, in odometer order."""
    space = center.space
    space.pomset.check_cardinality(r, "radius")
    return [v for v in space.vectors() if (center - v).weight() <= r]


def r_sphere(center: pb.BlockVector, r: int) -> list[pb.BlockVector]:
    """Oracle for ``r_sphere_size``: the vectors at distance exactly r."""
    return [v for v in center.space.vectors() if (center - v).weight() == r]


def i_sphere_size_enumerated(space: pb.BlockSpace, ideal: pb.Ideal) -> int:
    """Oracle for ``i_sphere_size``, read off the support census."""
    return pb.support_census(space).get(ideal.counts.counts, 0)


def odometer_span(space: pb.BlockSpace, rows) -> set[tuple[int, ...]]:
    """Oracle for ``BlockSpace.span``: walk all m^len(rows) coefficient
    vectors and collect every Z_m-combination of the rows."""
    m, N = space.m, space.N
    words = set()
    for coeffs in product(range(m), repeat=len(rows)):
        acc = [0] * N
        for a, g in zip(coeffs, rows):
            for idx, x in enumerate(g):
                acc[idx] += a * x
        words.add(tuple(v % m for v in acc))
    return words


def pair_scan_closed(space: pb.BlockSpace, words) -> bool:
    """Oracle for closure: the set holds 0 and every pair sum of its
    members (scalar multiples then follow over Z_m)."""
    m = space.m
    inside = set(words)
    return (0,) * space.N in inside and all(
        tuple((x + y) % m for x, y in zip(a, b)) in inside
        for a in inside
        for b in inside
    )


def shells_by_cardinality(space: pb.BlockSpace) -> tuple[int, ...]:
    """Oracle for the weight enumerator: for each weight r, sum over the
    multiset ideals of cardinality r the block shells of the maximal root
    elements times the full freedom of the remaining root blocks."""
    m = space.m
    shells = [1]
    for r in range(1, space.n * space.max_lee + 1):
        total = 0
        for ideal in space.pomset.ideals_of_cardinality(r):
            maximal = ideal.maximal_root()
            term = 1
            for i in maximal:
                term *= pb.block_shell_size(m, space.pi[i - 1], ideal.count(i))
            for l in ideal.root_set - maximal:
                term *= m ** space.pi[l - 1]
            total += term
        shells.append(total)
    return tuple(shells)


def sphere_by_maximal_count(space: pb.BlockSpace, r: int) -> int:
    """Oracle for ``r_sphere_size``: the ideals of cardinality r grouped by
    how many maximal elements they have, each adding its sphere size."""
    if r == 0:
        return 1
    return sum(
        pb.i_sphere_size(space, ideal)
        for j in range(1, min(r, space.n) + 1)
        for ideal in space.pomset.ideals_by_maximal_count(r, j)
    )


def perp_by_dot_scan(space: pb.BlockSpace, words) -> set[tuple[int, ...]]:
    """Oracle for ``dual_code`` and the perp in ``full_count_structure``:
    every vector whose dot product with each of ``words`` vanishes mod m."""
    m = space.m
    return {
        coords for coords in space.coord_tuples()
        if all(sum(x * y for x, y in zip(coords, w)) % m == 0 for w in words)
    }


def cover_counts_by_pair_sums(space: pb.BlockSpace, centers, ball) -> bytearray:
    """Oracle for ``BlockSpace.cover_counts``: every center against every
    member, the odometer index of c + b summed coordinate by coordinate,
    each hit counted up to 2."""
    space.check_enumerable()
    m = space.m
    ball = list(ball)
    counts = bytearray(space.size())
    for c in centers:
        for b in ball:
            idx = 0
            for x, y in zip(c, b):
                idx = idx * m + (x + y) % m
            if counts[idx] < 2:
                counts[idx] += 1
    return counts


def perfect_by_pair_scan(code: pb.Code, ideal: pb.Ideal | None = None,
                         radius: int | None = None) -> pb.PerfectnessCertificate:
    """Oracle for ``verify_perfect``: test every vector against every
    codeword, in odometer order then code order, and keep the first vector
    in two balls (with those two codewords) and the first in none."""
    space = code.space
    if ideal is not None:
        member = lambda c, v: in_i_ball(c, v, ideal)
    else:
        space.pomset.check_cardinality(radius, "radius")
        member = lambda c, v: (c - v).weight() <= radius
    overlap = None
    uncovered = None
    for v in space.vectors():
        hits = []
        for c in code:
            if member(c, v):
                hits.append(c)
                if len(hits) > 1:
                    break
        if len(hits) > 1 and overlap is None:
            overlap = (v, hits[0], hits[1])
        elif not hits and uncovered is None:
            uncovered = v
        if overlap is not None and uncovered is not None:
            break
    return pb.PerfectnessCertificate(
        disjoint=overlap is None,
        covering=uncovered is None,
        overlap=overlap,
        uncovered=uncovered,
    )


def packing_radius_by_pair_scan(code: pb.Code) -> int:
    """Oracle for ``packing_radius``: one less than the smallest distance
    from any vector to its second-nearest codeword."""
    space = code.space
    top = space.n * space.max_lee
    if len(code) < 2:
        return top
    best = top + 1
    for v in space.vectors():
        d1, d2 = None, None
        for c in code:
            d = (v - c).weight()
            if d1 is None or d < d1:
                d1, d2 = d, d1
            elif d2 is None or d < d2:
                d2 = d
        if d2 < best:
            best = d2
    return best - 1


def coords_to_index(coords, m: int) -> int:
    idx = 0
    for c in coords:
        idx = idx * m + c
    return idx


def five_pomset(height: int = 3) -> pb.Pomset:
    """The five-element order 1<3, 2<4, 2<5 at the given height."""
    return pb.Pomset(5, height, SAMPLE_PAIRS)


def wide_space() -> pb.BlockSpace:
    """Z_7^18 with blocks (2,3,4,4,3,2) ordered by 1<2<4, 5<6."""
    return pb.space_with_order(
        7, (2, 3, 4, 4, 3, 2), [(1, 2), (2, 4), (1, 4), (5, 6)]
    )


def brute_force_ideal_vectors(pomset: pb.Pomset) -> list[tuple[int, ...]]:
    """Oracle: filter every count vector by the down-closure law directly."""
    return [counts for counts in product(range(pomset.height + 1), repeat=pomset.n)
            if is_ideal_by_law(pomset, counts)]


def closure_by_matrix(n: int, relations) -> list[frozenset[int]]:
    """Oracle for the closure ``Pomset`` stores: Warshall's closure on an
    (n+1)^2 Boolean reach matrix. The set of elements that reach each of
    0..n (0 unused); an element on a cycle is in its own set."""
    reach = [[False] * (n + 1) for _ in range(n + 1)]
    for i, j in relations:
        reach[i][j] = True
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            if reach[i][k]:
                for j in range(1, n + 1):
                    if reach[k][j]:
                        reach[i][j] = True
    return [frozenset(i for i in range(1, n + 1) if reach[i][j]) for j in range(n + 1)]


def is_ideal_by_law(pomset: pb.Pomset, counts) -> bool:
    """Oracle for ``Pomset.is_ideal``: a positive count at i forces the
    full height on every element strictly below i."""
    h = pomset.height
    return all(counts[j - 1] == h
               for i, c in enumerate(counts, 1) if c > 0
               for j in range(1, pomset.n + 1) if pomset.is_below(j, i))


def cover_pairs_by_scan(pomset: pb.Pomset) -> list[tuple[int, int]]:
    """Oracle for ``Pomset.cover_pairs``: each related pair with no third
    element strictly between, found by trying every element."""
    return [(i, j) for i, j in sorted(pomset.relation)
            if not any(pomset.is_below(i, k) and pomset.is_below(k, j)
                       for k in range(1, pomset.n + 1))]


def is_chain_by_pairs(pomset: pb.Pomset) -> bool:
    """Oracle for ``Pomset.is_chain``: every two elements are comparable."""
    return all(pomset.is_below(i, j) or pomset.is_below(j, i)
               for i in range(1, pomset.n + 1) for j in range(i + 1, pomset.n + 1))


def maximal_root_by_above(ideal: pb.Ideal) -> frozenset[int]:
    """Oracle for ``Ideal.maximal_root``: root elements with no root
    element strictly above them."""
    root = ideal.root_set
    return frozenset(i for i in root
                     if not any(ideal.pomset.is_below(i, j) for j in root))


def random_vector(space: pb.BlockSpace, rng) -> pb.BlockVector:
    return space.vector(tuple(rng.randrange(space.m) for _ in range(space.N)))


def random_code(space: pb.BlockSpace, rng, max_size: int = 8) -> pb.Code:
    size = rng.randrange(2, max_size + 1)
    words = set()
    while len(words) < min(size, space.size()):
        words.add(tuple(rng.randrange(space.m) for _ in range(space.N)))
    return pb.Code(space, words)


def acceptance_report(name: str, budget_s: float, started: float, failures: list):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.1f}s of {budget_s}s budget)")
    # raised, not asserted: pytest rewrites the asserts of test modules
    # only, so under python -O a plain assert here would vanish
    if failures:
        raise AssertionError(f"{name}: first failures: {failures[:5]}")
    if elapsed >= budget_s:
        raise AssertionError(f"{name} took {elapsed:.1f}s, over {budget_s}s")
