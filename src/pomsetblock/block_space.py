"""Z_m^N split into labelled blocks, with Lee weight, the residue and block
shell counts, and the block metrics.

A block space is Z_m^{k_1} + ... + Z_m^{k_n} together with a pomset of
height floor(m/2) on the block positions. The block support of a vector
assigns each nonzero block its maximum Lee weight; the weight of the
vector is the cardinality of the ideal generated by that support.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from itertools import product
from math import prod
from operator import index

from .errors import (
    DimensionMismatch,
    NonUnitBlocks,
    SpaceMismatch,
    SpaceTooLarge,
)
from .multiset import Multiset
from .pomset import Pomset

#: Default work guard: on the vectors a scan visits, the words a code is
#: built with, the codeword pairs weighed, the weight enumerator's
#: coefficients and the ideals walked (n per ideal).
DEFAULT_CAP = 10**7


def lee_weight(x: int, m: int) -> int:
    """min(x, m - x) for the residue of ``x`` mod ``m``."""
    x %= m
    return min(x, m - x)


def block_max_lee(block, m: int) -> int:
    """Largest Lee weight among the entries; 0 iff the block is zero."""
    return max(lee_weight(x, m) for x in block)


def lee_shell_size(m: int, r: int) -> int:
    """Number of residues mod m with Lee weight exactly r (blocks of one)."""
    return block_shell_size(m, 1, r)


def check_block_weight(m: int, k: int, r: int) -> None:
    """Reject a block length k below 1 or a maximum Lee weight r outside
    0..floor(m/2): the one check before any block shell is counted."""
    if k < 1:
        raise ValueError("block length must be positive")
    if not 0 <= r <= m // 2:
        raise ValueError(f"weight {r} outside 0..{m // 2}")


def block_shell_size(m: int, k: int, r: int) -> int:
    """Number of blocks in Z_m^k with maximum Lee weight exactly r.

    The residues within Lee distance r of an entry number min(2r + 1, m),
    so the blocks within r less those within r - 1 give
    min(2r + 1, m)^k - max(2r - 1, 0)^k, for either parity of m.
    """
    check_block_weight(m, k, r)
    return min(2 * r + 1, m) ** k - max(2 * r - 1, 0) ** k


def _translate_row(x, m: int, scale: int) -> list[int]:
    """``scale`` times the odometer index of x + y, for every y in
    Z_m^len(x) in odometer order."""
    row = [0]
    for a in x:
        shifted = [(a + d) % m * scale for d in range(m)]
        row = [i * m + s for i in row for s in shifted]
    return row


class BlockSpace:
    """The space Z_m^N with blocks of lengths ``pi`` ordered by ``pomset``.

    ``cap`` bounds every scan of the space, every code built in it, the
    codeword pairs a minimum distance weighs, the weight enumerator's
    coefficients and every ideal walk (n per ideal); a resource guard, it
    takes no part in equality, hashing or the repr.
    """

    __slots__ = ("m", "pomset", "pi", "cap", "_offsets", "_dual",
                 "_max_lee_tables", "_weights")

    def __init__(self, m: int, pomset: Pomset, pi, cap: int = DEFAULT_CAP):
        m, cap = index(m), index(cap)  # a non-integer is a TypeError
        if m < 2:
            raise ValueError("modulus must be at least 2")
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        pi = tuple(map(index, pi))
        if any(k < 1 for k in pi):
            raise ValueError("block lengths must be positive")
        if pomset.n != len(pi):
            raise DimensionMismatch(
                f"pomset has {pomset.n} elements but pi labels {len(pi)} blocks"
            )
        if pomset.height != m // 2:
            raise ValueError(
                f"pomset height {pomset.height} != floor({m}/2) = {m // 2}"
            )
        self.m = m
        self.pomset = pomset
        self.pi = pi
        self.cap = cap
        offsets = [0]
        for k in pi:
            offsets.append(offsets[-1] + k)
        self._offsets = tuple(offsets)
        self._dual = None
        self._max_lee_tables = None
        self._weights = None

    @property
    def n(self) -> int:
        return len(self.pi)

    @property
    def N(self) -> int:
        return self._offsets[-1]

    @property
    def max_lee(self) -> int:
        """The largest Lee weight of a residue, floor(m/2)."""
        return self.m // 2

    def size(self) -> int:
        return self.m ** self.N

    def block_bounds(self, i: int) -> tuple[int, int]:
        """Flat-coordinate range of block ``i`` (1-based)."""
        return self._offsets[i - 1], self._offsets[i]

    # ----- vectors ----------------------------------------------------------

    def vector(self, coords) -> BlockVector:
        return BlockVector(self, tuple(coords))

    def _reduce(self, coords) -> tuple[int, ...]:
        """``self.vector(coords).coords`` without the vector: ``coords`` checked
        for length N and reduced mod m, or a vector's own if it is of this space."""
        if isinstance(coords, BlockVector):
            if coords.space != self:
                raise SpaceMismatch("codeword from a different space")
            return coords.coords
        coords = tuple(coords)
        if len(coords) != self.N:
            raise DimensionMismatch(
                f"expected {self.N} coordinates, got {len(coords)}"
            )
        # residues are reduced, not rejected; a non-integer is a TypeError
        return tuple(index(x) % self.m for x in coords)

    def zero(self) -> BlockVector:
        return BlockVector(self, (0,) * self.N)

    def check_ideal(self, ideal) -> None:
        """Reject an ideal of any order but this space's block order."""
        if ideal.pomset != self.pomset:
            raise SpaceMismatch(f"{ideal!r} is an ideal of {ideal.pomset!r}, "
                                f"not of the space's {self.pomset!r}")

    def check_cap(self, amount: int, what: str) -> None:
        """The one cap refusal: ``SpaceTooLarge``, "{what}, above the cap",
        if ``amount`` is more than the cap."""
        if amount > self.cap:
            raise SpaceTooLarge(f"{what}, above the cap {self.cap}")

    def check_cap_powers(self, powers: dict[int, int], what: str) -> None:
        """:meth:`check_cap` for the product of b**e over ``powers`` ({b: e}),
        with no b raised past the cap's bit length, where a b of 2 or more
        alone passes the cap. ``what`` holds "{}" for the product: decimal
        up to the 4300 digits Python prints, ``b^e`` factors beyond."""
        clip = self.cap.bit_length()
        amount = prod(b ** min(e, clip) for b, e in powers.items())
        if amount <= self.cap:
            return
        words = " * ".join(f"{b}^{e}" for b, e in sorted(powers.items()) if b > 1)
        # the product is at least 2**sum((bits(b) - 1) * e); 10**4300 < 2**14285
        if sum((b.bit_length() - 1) * e for b, e in powers.items()) < 14285:
            exact = prod(b ** e for b, e in powers.items())
            if exact < 10**4300:
                words = str(exact)
        self.check_cap(amount, what.format(words))

    def check_enumerable(self) -> None:
        self.check_cap_powers({self.m: self.N}, "space has {} vectors")

    def coord_tuples(self) -> Iterator[tuple[int, ...]]:
        """All coordinate tuples in odometer order (last coordinate fastest)."""
        self.check_enumerable()
        return product(range(self.m), repeat=self.N)

    def vectors(self) -> Iterator[BlockVector]:
        for coords in self.coord_tuples():
            yield BlockVector(self, coords)

    def max_lee_tables(self) -> tuple[tuple[int, ...], ...]:
        """Per block, the maximum Lee weight of every block of Z_m^{k_i} in
        odometer order; built once per block length, on first use."""
        self.check_enumerable()
        if self._max_lee_tables is None:
            m = self.m
            by_length = {k: tuple(block_max_lee(b, m)
                                  for b in product(range(m), repeat=k))
                         for k in set(self.pi)}
            self._max_lee_tables = tuple(by_length[k] for k in self.pi)
        return self._max_lee_tables

    def weights(self) -> memoryview:
        """The block-metric weight of every vector, in odometer order.

        A vector's profile (its blocks' maximum Lee weights) fixes its
        weight, so the ideal closure runs once per profile, (h + 1)^n
        times, and each vector costs one table lookup. Built on first use
        and kept, one byte per vector while the top weight fits in one,
        read-only.
        """
        tables = self.max_lee_tables()
        if self._weights is None:
            closure = self.pomset.generated_counts
            weight_of = {p: sum(closure(p))
                         for p in product(range(self.max_lee + 1), repeat=self.n)}
            typecode = "B" if self.n * self.max_lee < 256 else "Q"
            self._weights = memoryview(
                array(typecode, map(weight_of.__getitem__, product(*tables)))
            ).toreadonly()
        return self._weights

    def vector_at(self, index: int) -> BlockVector:
        """The vector at position ``index`` of the odometer order."""
        coords = []
        for _ in range(self.N):
            index, x = divmod(index, self.m)
            coords.append(x)
        return BlockVector(self, tuple(reversed(coords)))

    def cover_counts(self, centers, ball) -> bytearray:
        """How many translates c + b (c in ``centers``, b in ``ball``, both
        reduced coordinate tuples) hold each vector, capped at 2 and
        indexed by odometer position; a member listed twice counts twice.

        Every vector is split at coordinate cut = N // 2 into a head and a
        tail, meeting in the middle (Horowitz and Sahni, J. ACM 21, 1974).
        Since c + b = b + c, the longer list is indexed once as (head index,
        tail index) pairs, and each vector x of the shorter one builds two
        rows: the index of x's head plus every head, scaled by m^(N - cut),
        and that of x's tail plus every tail. A pair then costs two lookups
        and an add: min(|C|, |B|)*(m^floor(N/2) + m^ceil(N/2)) + |C|*|B| +
        m^N work. Both lists are read once, so one-shot iterators serve.
        """
        self.check_enumerable()
        m, N = self.m, self.N
        cut = N // 2
        outer, inner = sorted((list(centers), list(ball)), key=len)
        head_at = {h: i for i, h in enumerate(product(range(m), repeat=cut))}
        tail_at = {t: i for i, t in enumerate(product(range(m), repeat=N - cut))}
        head_idx = [head_at[b[:cut]] for b in inner]
        tail_idx = [tail_at[b[cut:]] for b in inner]
        scale = m ** (N - cut)
        counts = bytearray(self.size())
        for x in outer:
            heads = _translate_row(x[:cut], m, scale)
            tails = _translate_row(x[cut:], m, 1)
            for h, t in zip(head_idx, tail_idx):
                idx = heads[h] + tails[t]
                c = counts[idx]
                if c < 2:
                    counts[idx] = c + 1
        return counts

    def span(self, rows, limit: int) -> set[tuple[int, ...]]:
        """The Z_m-span of ``rows`` (reduced coordinate tuples).

        Starts from {0}; each row not yet in the set replaces it with
        {w + c*row : w in the set, c in Z_m}, which is again a subgroup.
        Stops as soon as the set holds more than ``limit`` words and
        returns that partial set, so ``len(result) > limit`` says the span
        is larger than ``limit`` and ``span(S, len(S)) == S`` says exactly
        that a finite set S is closed under addition (hence a submodule).
        """
        m = self.m
        words = {(0,) * self.N}
        for row in rows:
            if row in words:
                continue
            top = min(m, limit + 1)  # past ``limit`` multiples it is too large
            multiples = [tuple(c * x % m for x in row) for c in range(1, top)]
            grown = set(words)
            for w in words:
                for step in multiples:
                    grown.add(tuple((a + b) % m for a, b in zip(w, step)))
                if len(grown) > limit:
                    return grown
            words = grown
        return words

    # ----- metrics ----------------------------------------------------------

    def distance(self, u: BlockVector, v: BlockVector) -> int:
        """The pomset block distance, a metric on the space."""
        return (u - v).weight()

    def poset_distance(self, u: BlockVector, v: BlockVector) -> int:
        return (u - v).poset_weight()

    def dual(self) -> BlockSpace:
        """Same modulus and labels over the reversed order."""
        if self._dual is None:
            d = BlockSpace(self.m, self.pomset.dual(), self.pi, self.cap)
            d._dual = self
            self._dual = d
        return self._dual

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BlockSpace)
            and self.m == other.m
            and self.pi == other.pi
            and self.pomset == other.pomset
        )

    def __hash__(self) -> int:
        return hash((self.m, self.pi, self.pomset))

    def __repr__(self) -> str:
        return f"BlockSpace(m={self.m}, pi={self.pi}, {self.pomset!r})"


class BlockVector:
    __slots__ = ("space", "coords")

    def __init__(self, space: BlockSpace, coords):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", space._reduce(coords))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.space, self.coords)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.space, self.coords) == (other.space, other.coords)

    def __hash__(self) -> int:
        return hash((self.space, self.coords))

    def block(self, i: int) -> tuple[int, ...]:
        lo, hi = self.space.block_bounds(i)
        return self.coords[lo:hi]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.block(i) for i in range(1, self.space.n + 1))

    def block_max_lee(self, i: int) -> int:
        return block_max_lee(self.block(i), self.space.m)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def _profile(self) -> tuple[int, ...]:
        return tuple(self.block_max_lee(i) for i in range(1, self.space.n + 1))

    def support(self) -> Multiset:
        """Block support: each block's maximum Lee weight (0 for zero blocks)."""
        space = self.space
        return Multiset(space.n, space.max_lee, self._profile())

    def weight(self) -> int:
        """Cardinality of the ideal generated by the block support."""
        return sum(self.space.pomset.generated_counts(self._profile()))

    def poset_weight(self) -> int:
        """Number of block positions in the down-set of the nonzero blocks."""
        return sum(1 for c in self.space.pomset.generated_counts(self._profile()) if c)

    def literal(self) -> str:
        return " ".join(str(x) for x in self.coords)

    # ----- arithmetic --------------------------------------------------------

    def _check(self, other: BlockVector) -> None:
        if self.space != other.space:
            raise SpaceMismatch("vectors live in different block spaces")

    def __add__(self, other: BlockVector) -> BlockVector:
        self._check(other)
        return BlockVector(
            self.space, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: BlockVector) -> BlockVector:
        self._check(other)
        return BlockVector(
            self.space, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> BlockVector:
        return BlockVector(self.space, tuple(-a for a in self.coords))

    def __rmul__(self, scalar: int) -> BlockVector:
        return BlockVector(self.space, tuple(scalar * a for a in self.coords))

    def __repr__(self) -> str:
        return f"BlockVector({self.literal()!r})"


def pw_weight(v: BlockVector) -> int:
    """Weighted-coordinates poset weight for unit-block spaces.

    Sums the Lee weights over the maximal elements of the down-set of the
    support and charges floor(m/2) for every non-maximal element. Agrees
    with ``BlockVector.weight`` pointwise.
    """
    space = v.space
    if any(k != 1 for k in space.pi):
        raise NonUnitBlocks("weighted-coordinates weight needs unit blocks")
    root = {i for i in range(1, space.n + 1) if v.coords[i - 1]}
    # everything strictly below the support is charged in full; what is
    # left of the support is the maximal part of its down-set
    below = space.pomset.strictly_below_set(root)
    return sum(lee_weight(v.coords[i - 1], space.m) for i in root - below) + (
        space.max_lee * len(below)
    )


def antichain_space(m: int, pi) -> BlockSpace:
    pi = tuple(pi)
    return BlockSpace(m, Pomset(len(pi), m // 2), pi)


def chain_space(m: int, pi) -> BlockSpace:
    """Blocks totally ordered 1 < 2 < ... < n."""
    pi = tuple(pi)
    n = len(pi)
    return BlockSpace(m, Pomset(n, m // 2, [(i, i + 1) for i in range(1, n)]), pi)


def space_with_order(m: int, pi, pairs) -> BlockSpace:
    pi = tuple(pi)
    return BlockSpace(m, Pomset(len(pi), m // 2, pairs), pi)
