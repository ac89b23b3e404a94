"""Balls and spheres of the block metric: enumeration and counting.

For an ideal I, the I-ball around u holds every v whose difference support
fits inside I pointwise; the I-sphere holds those whose difference support
generates exactly I. Balls are built as coordinate tuples; closed-form
cardinalities are provided alongside enumeration-based counterparts so each
can falsify the other.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain, compress, product
from operator import add

from .block_space import BlockSpace, BlockVector, block_shell_size
from .errors import NotFullCount
from .pomset import Ideal


def i_ball_coords(center: BlockVector, ideal: Ideal) -> list[tuple[int, ...]]:
    """The I-ball around ``center`` as coordinate tuples, in odometer order.

    A block's maximum Lee weight is at most the ideal's count c there
    exactly when each of its entries' is, so the ball is a product over
    the flat coordinates: each takes the residues within Lee distance c of
    the center's entry.
    """
    space = center.space
    space.check_ideal(ideal)
    space.check_enumerable()
    m = space.m
    per_coord = []
    for i in range(1, space.n + 1):
        c = ideal.count(i)
        per_coord += [sorted({(a + d) % m for d in range(-c, c + 1)})
                      for a in center.block(i)]
    return list(product(*per_coord))


def r_ball_coords(center: BlockVector, r: int) -> list[tuple[int, ...]]:
    """The r-ball around ``center`` as coordinate tuples, in odometer order:
    the zero ball read off :meth:`BlockSpace.weights`, translated by the
    center (the weight is symmetric, so d(u, v) = w(v - u))."""
    space = center.space
    space.pomset.check_cardinality(r, "radius")
    m = space.m
    zero_ball = compress(space.coord_tuples(), (w <= r for w in space.weights()))
    if not any(center.coords):
        return list(zero_ball)
    return sorted(tuple((a + b) % m for a, b in zip(center.coords, d))
                  for d in zero_ball)


def i_ball(center: BlockVector, ideal: Ideal) -> list[BlockVector]:
    """:func:`i_ball_coords` as vectors."""
    return [BlockVector(center.space, c) for c in i_ball_coords(center, ideal)]


def r_ball(center: BlockVector, r: int) -> list[BlockVector]:
    """:func:`r_ball_coords` as vectors."""
    return [BlockVector(center.space, c) for c in r_ball_coords(center, r)]


# ----- closed forms ----------------------------------------------------------


def i_sphere_size(space: BlockSpace, ideal: Ideal) -> int:
    """Closed-form |I-sphere|, independent of the center.

    Maximal root elements contribute blocks of exact maximum Lee weight;
    the remaining root elements (necessarily at full count) are free.
    """
    space.check_ideal(ideal)
    maximal = ideal.maximal_root()
    total = 1
    for i in maximal:
        total *= block_shell_size(space.m, space.pi[i - 1], ideal.count(i))
    for l in ideal.root_set - maximal:
        total *= space.m ** space.pi[l - 1]
    return total


def i_ball_size(space: BlockSpace, ideal: Ideal) -> int:
    """Closed-form |I-ball|: the product over blocks of min(2c + 1, m)^k,
    the number of residues within Lee distance c of an entry (c the
    block's count, k its length); so 1 off the root, 2c + 1 on a partial
    count and m, for either parity of m, on a full one."""
    space.check_ideal(ideal)
    total = 1
    for c, k in zip(ideal.counts.counts, space.pi):
        total *= min(2 * c + 1, space.m) ** k
    return total


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def weight_enumerator(space: BlockSpace) -> tuple[int, ...]:
    """Shell counts A_0..A_{n*h}, h = floor(m/2), as the coefficients of the
    weight enumerator.

    Let J be the set ideal (down-set) of a vector's nonzero blocks. The
    ideal its support generates fills every element of J - Max J to the
    height and keeps the block's maximum Lee weight on each element of
    Max J, so the blocks on J - Max J are free and those on Max J nonzero:

        sum over set ideals J of  prod_{i in J - Max J} m^{k_i} x^h
                                  * prod_{i in Max J} (B_i(x) - 1),

    with B_i(x) = sum_c block_shell_size(m, k_i, c) x^c. The set ideals
    are the ideals of the block order at height 1. The n*h + 1 coefficients
    and the set ideals, at n each, count against the space's cap.
    """
    m, h = space.m, space.max_lee
    space.check_cap(space.n * h + 1,
                    f"weight enumerator has {space.n * h + 1} coefficients")
    nonzero = {k: [0] + [block_shell_size(m, k, c) for c in range(1, h + 1)]
               for k in set(space.pi)}
    enumerator = [0] * (space.n * h + 1)
    for counts in space.pomset.ideal_vectors(1, limit=space.cap // space.n):
        root = {i for i, c in enumerate(counts, 1) if c}
        inner = space.pomset.strictly_below_set(root)  # root less its maximal elements
        term = [m ** sum(space.pi[i - 1] for i in inner)]
        for i in root - inner:
            term = _poly_mul(term, nonzero[space.pi[i - 1]])
        shift = h * len(inner)
        for c, a in enumerate(term):
            enumerator[shift + c] += a
    return tuple(enumerator)


def _shells_upto(space: BlockSpace, r: int) -> tuple[int, ...]:
    """The weight enumerator's shells 0..r, once r is checked to be a
    radius some vector reaches."""
    space.pomset.check_cardinality(r, "radius")
    return weight_enumerator(space)[: r + 1]


def r_sphere_size(space: BlockSpace, r: int) -> int:
    """Closed-form |r-sphere|: coefficient r of the weight enumerator."""
    return _shells_upto(space, r)[r]


def r_ball_size(space: BlockSpace, r: int) -> int:
    """Closed-form |r-ball|: the weight enumerator's shells up to r."""
    return sum(_shells_upto(space, r))


# ----- enumeration-based counting --------------------------------------------


def profile_census(space: BlockSpace) -> Counter:
    """Count vectors by block-support profile via one full-space sweep.

    Every vector of the space is visited exactly once, as a combination of
    entries of the space's per-block max-Lee tables.
    """
    return Counter(product(*space.max_lee_tables()))


def support_census(space: BlockSpace) -> dict[tuple[int, ...], int]:
    """Count vectors by the ideal their support generates (center 0)."""
    pomset = space.pomset
    census: dict[tuple[int, ...], int] = {}
    for profile, mult in profile_census(space).items():
        key = pomset.generated_counts(profile)
        census[key] = census.get(key, 0) + mult
    return census


def down_set_sums(space: BlockSpace, census) -> dict[tuple[int, ...], int]:
    """For each profile p in {0..h}^n, the census total over keys pointwise
    <= p, by one prefix sum per axis: n*(h+1)^n steps. An ideal is down-closed,
    so the profile and the support census give the same sum at every ideal."""
    base = space.max_lee + 1
    profiles = list(product(range(base), repeat=space.n))
    sums = [census.get(p, 0) for p in profiles]
    chunk = len(sums) // base
    for _ in range(space.n):
        # rotate the last axis to the front, then sum along it chunk by chunk
        sums = list(chain.from_iterable(sums[r::base] for r in range(base)))
        for lo in range(chunk, len(sums), chunk):
            sums[lo:lo + chunk] = map(add, sums[lo - chunk:lo], sums[lo:lo + chunk])
    return dict(zip(profiles, sums))


def weight_sums(space: BlockSpace, census) -> list[int]:
    """For each weight r in 0..n*h, the census total over keys of
    cardinality r: a support census summed this way is the distribution."""
    sums = [0] * (space.n * space.max_lee + 1)
    for key, mult in census.items():
        sums[sum(key)] += mult
    return sums


def i_ball_size_enumerated(space: BlockSpace, ideal: Ideal) -> int:
    """Oracle for :func:`i_ball_size`: one census sweep, summed below the ideal."""
    space.check_ideal(ideal)
    return down_set_sums(space, profile_census(space))[ideal.counts.counts]


# ----- full-count ball structure ----------------------------------------------


class FullCountBallReport(
        namedtuple("FullCountBallReport", "coordinate_form perp_equals_dual_ball")):
    """Structure verification for the ball of a full-count ideal."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.coordinate_form and self.perp_equals_dual_ball


def full_count_structure(space: BlockSpace, ideal: Ideal) -> FullCountBallReport:
    """Verify, by two list comparisons, the structure of a full-count ball:

    * the ball, in odometer order, is exactly the vectors vanishing off
      the root blocks (``coordinate_form``);
    * its dot-product perp (the vectors orthogonal to the unit vectors of
      the root coordinates) equals the complement ideal's ball in the dual
      space.

    The coordinate form implies the rest: the vectors vanishing off the
    root blocks are closed under addition, number m^(root length), and
    their translates by the vectors vanishing on the root blocks cover
    every vector exactly once. A ball off that form fails the first
    comparison, so no closure, size or tiling check can change ``ok``;
    :meth:`BlockSpace.span` and :func:`~pomsetblock.codes.verify_perfect`
    own those facts.
    """
    space.check_ideal(ideal)
    if not ideal.is_full_count():
        raise NotFullCount(f"{ideal!r} has a partial count")
    m, N = space.m, space.N
    members = i_ball_coords(space.zero(), ideal)
    inside = {idx for i in ideal.root_set
              for idx in range(*space.block_bounds(i))}
    coordinate_form = members == list(
        product(*[range(m) if idx in inside else (0,) for idx in range(N)]))

    # the vectors vanishing on the root coordinates, in odometer order: the
    # perp of those coordinates' unit vectors, which span the ball once the
    # coordinate form holds (so the perp verdict also requires it)
    perp = list(product(*[(0,) if idx in inside else range(m) for idx in range(N)]))
    dual_ball = i_ball_coords(space.dual().zero(), ideal.complement())
    return FullCountBallReport(
        coordinate_form=coordinate_form,
        perp_equals_dual_ball=coordinate_form and perp == dual_ball,
    )


def nonlinearity_witness(space: BlockSpace, ideal: Ideal) -> tuple[BlockVector, BlockVector]:
    """A pair u, v in the ball of a partial-count ideal with u + v outside.

    Put the partial count c and the residue 1 on the same coordinate of a
    partial block: Lee(c + 1) = c + 1 > c because c + 1 <= floor(m/2).
    The pair is verified before being returned.
    """
    space.check_ideal(ideal)
    partial = ideal.partial_indices()
    if not partial:
        raise ValueError("ideal has full count; its ball is closed under addition")
    i = partial[0]
    c = ideal.count(i)
    lo, _ = space.block_bounds(i)
    coords = [0] * space.N
    coords[lo] = c
    u = space.vector(tuple(coords))
    coords[lo] = 1
    v = space.vector(tuple(coords))
    counts = ideal.counts
    if not (u.support() <= counts and v.support() <= counts
            and not (u + v).support() <= counts):
        raise AssertionError(f"no nonlinearity witness at block {i} for {ideal!r}")
    return u, v
