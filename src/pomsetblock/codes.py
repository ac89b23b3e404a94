"""Block codes: explicit codeword sets, distances, perfect codes, duals."""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .balls import i_ball_coords, r_ball_coords
from .block_space import BlockSpace, BlockVector
from .errors import (
    DivisibilityFails,
    NotFullCount,
    NotLinear,
    SingletonCode,
    SpaceMismatch,
)
from .pomset import Ideal


class Code:
    """A nonempty deduplicated set of vectors from one block space, kept as
    ``words``: the sorted reduced coordinate tuples. Iterating yields them
    as vectors.

    ``linear`` is a verified property (the code equals its own span),
    computed on first use, never a trust flag: only submodules built here
    and ``in_space`` copies pass it in, as ``_linear``.
    """

    __slots__ = ("space", "words", "_coord_set", "_linear")

    def __init__(self, space: BlockSpace, codewords, *, _linear: bool | None = None):
        coords = {space._reduce(w) for w in codewords}
        if not coords:
            raise ValueError("a code must contain at least one word")
        self.space = space
        self.words = tuple(sorted(coords))
        self._coord_set = frozenset(coords)
        self._linear = _linear

    @classmethod
    def from_generators(cls, space: BlockSpace, rows) -> Code:
        """The span of the given rows: all Z_m-linear combinations.

        Raises ``SpaceTooLarge`` as soon as the span passes the space's cap.
        """
        gens = [space._reduce(r) for r in rows]
        words = space.span(gens, space.cap)
        space.check_cap(len(words), f"span of {len(gens)} generator rows has "
                                    f"at least {len(words)} words")
        return cls(space, words, _linear=True)

    @property
    def coord_set(self) -> frozenset[tuple[int, ...]]:
        return self._coord_set

    @property
    def linear(self) -> bool:
        if self._linear is None:
            inside = self._coord_set
            self._linear = self.space.span(inside, len(inside)) == inside
        return self._linear

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return (BlockVector(self.space, w) for w in self.words)

    def __contains__(self, v) -> bool:
        return self.space._reduce(v) in self._coord_set

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Code)
            and self.space == other.space
            and self._coord_set == other._coord_set
        )

    def __hash__(self) -> int:
        return hash((self.space, self._coord_set))

    def in_space(self, other: BlockSpace) -> Code:
        """The same coordinate set viewed in another space (same m, pi)."""
        if other.m != self.space.m or other.pi != self.space.pi:
            raise SpaceMismatch("target space has different modulus or labels")
        return Code(other, self._coord_set, _linear=self._linear)

    def min_distance(self, metric: str = "pomset") -> int:
        """Least distance between distinct codewords.

        ``metric`` is "pomset" (block-support weight of the difference) or
        "poset" (order-ideal size of the nonzero block positions). Linear
        codes use the minimum nonzero weight; other codes weigh every pair,
        and more than the space's cap of pairs raises ``SpaceTooLarge``.
        """
        if len(self.words) < 2:
            raise SingletonCode("minimum distance needs two codewords")
        if metric == "pomset":
            weigh = BlockVector.weight
        elif metric == "poset":
            weigh = BlockVector.poset_weight
        else:
            raise ValueError(f"unknown metric {metric!r}")
        vectors = list(self)
        if self.linear:
            return min(weigh(w) for w in vectors if not w.is_zero)
        pairs = len(vectors) * (len(vectors) - 1) // 2
        self.space.check_cap(pairs, f"{pairs} codeword pairs to weigh")
        return min(
            weigh(vectors[i] - vectors[j])
            for i in range(len(vectors))
            for j in range(i + 1, len(vectors))
        )

    def __repr__(self) -> str:
        return f"Code(|C|={len(self.words)}, space={self.space!r})"


class PerfectnessCertificate(
        namedtuple("PerfectnessCertificate", "disjoint covering overlap uncovered")):
    """Outcome of a whole-space disjointness-and-cover tally: the two
    verdicts, and as witnesses ``overlap``, the first vector found in two
    codeword balls (with those codewords), and ``uncovered``, the first
    vector in none; a witness that does not exist is None.
    """

    __slots__ = ()

    @property
    def is_perfect(self) -> bool:
        return self.disjoint and self.covering


def verify_perfect(code: Code, ideal: Ideal | None = None,
                   radius: int | None = None) -> PerfectnessCertificate:
    """Tally the codeword balls over the whole space; every vector must sit
    in exactly one.

    Since d(u, v) = w(u - v), the ball at c is c plus the zero ball, so one
    :meth:`BlockSpace.cover_counts` over the codewords decides both
    verdicts. The witnesses are the first vectors in odometer order with
    two hits and with none; an overlap names the first two codewords, in
    code order, whose balls hold it.
    """
    if (ideal is None) == (radius is None):
        raise ValueError("give exactly one of ideal= or radius=")
    space = code.space
    zero = space.zero()
    if ideal is not None:
        ball = set(i_ball_coords(zero, ideal))
    else:
        ball = set(r_ball_coords(zero, radius))
    hits = space.cover_counts(code.coord_set, ball)
    crowded, empty = hits.find(2), hits.find(0)
    overlap = uncovered = None
    if crowded >= 0:
        v = space.vector_at(crowded)
        overlap = (v, *[c for c in code if (v - c).coords in ball][:2])
    if empty >= 0:
        uncovered = space.vector_at(empty)
    return PerfectnessCertificate(
        disjoint=overlap is None,
        covering=uncovered is None,
        overlap=overlap,
        uncovered=uncovered,
    )


def construct_perfect_full(space: BlockSpace, ideal: Ideal) -> Code:
    """The zero-section transversal for a full-count ideal: all vectors
    vanishing on the root blocks. One codeword per ball, hence perfect;
    it is what :func:`construct_perfect_partial` builds when no count is
    partial."""
    space.check_ideal(ideal)
    if not ideal.is_full_count():
        raise NotFullCount(f"{ideal!r} has a partial count")
    return construct_perfect_partial(space, ideal)


def construct_perfect_partial(space: BlockSpace, ideal: Ideal) -> Code:
    """Perfect-code centers for any ideal: every vector whose block i
    entries are the m // s multiples of a step s, counted against the cap
    before any is listed. Blocks with a full count are pinned to zero
    (s = m); a block with partial count t takes the multiples of 2t+1
    (which requires (2t+1) | m); blocks off the root are free (s = 1).
    """
    space.check_ideal(ideal)
    m = space.m
    steps = [1 if t == 0 else m if t == space.max_lee else 2 * t + 1
             for t in ideal.counts.counts]
    residues = {}  # residues per coordinate, m // step: coordinates with that many
    for i, (step, k) in enumerate(zip(steps, space.pi), 1):
        if m % step:
            raise DivisibilityFails(i, ideal.count(i), m)
        residues[m // step] = residues.get(m // step, 0) + k
    space.check_cap_powers(residues, "construction would emit {} codewords")
    # a product of subgroups of Z_m, hence a submodule
    return Code(space, product(*[range(0, m, step) for step, k in zip(steps, space.pi)
                                 for _ in range(k)]), _linear=True)


def dual_code(code: Code) -> Code:
    """All vectors orthogonal (dot product mod m over flat coordinates)
    to every codeword, met in the middle.

    Orthogonality to the code is orthogonality to a generating set G,
    kept greedily: each codeword outside the span of those kept before
    it. Every vector is split at coordinate cut = N // 2; the tails of
    Z_m^(N - cut) are grouped by their dot products with G, and each head
    takes the tails whose products cancel its own: (m^floor(N/2) +
    m^ceil(N/2))*|G|*N + |C-perp| work, not m^N*|C|.
    """
    if not code.linear:
        raise NotLinear("dual of a non-linear code is not defined here")
    space = code.space
    space.check_enumerable()
    m, N = space.m, space.N
    cut = N // 2
    gens = []
    spanned = {(0,) * N}
    for w in code.words:
        if w not in spanned:
            gens.append(w)
            spanned = space.span(gens, len(code))
    tails_by_key = {}
    for t in product(range(m), repeat=N - cut):
        key = tuple(sum(x * y for x, y in zip(t, g[cut:])) % m for g in gens)
        tails_by_key.setdefault(key, []).append(t)
    perp = []
    for h in product(range(m), repeat=cut):
        key = tuple(-sum(x * y for x, y in zip(h, g)) % m for g in gens)
        perp.extend(h + t for t in tails_by_key.get(key, ()))
    return Code(space, perp, _linear=True)


class PerpDualityReport(
        namedtuple("PerpDualityReport", "code_perfect dual_perfect")):
    """Both sides of the full-count perfectness duality, evaluated
    independently: the code against I, its dual against the complement
    ideal in the dual space."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.code_perfect == self.dual_perfect


def perp_duality_report(code: Code, ideal: Ideal) -> PerpDualityReport:
    code.space.check_ideal(ideal)
    if not ideal.is_full_count():
        raise NotFullCount(f"{ideal!r} has a partial count")
    left = verify_perfect(code, ideal=ideal).is_perfect
    dual_space = code.space.dual()
    dualc = dual_code(code).in_space(dual_space)
    right = verify_perfect(dualc, ideal=ideal.complement()).is_perfect
    return PerpDualityReport(code_perfect=left, dual_perfect=right)
