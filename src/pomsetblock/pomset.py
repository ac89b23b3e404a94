"""Partial orders on {1..n} over a fixed height, and their ideals.

Every related pair of the underlying structure carries the full
``height x height`` count, so a strict partial order on {1..n} together
with the height captures everything. Ideals are multisets obeying the
down-closure law: a positive count anywhere forces full count on every
element strictly below it.
"""

from __future__ import annotations

from .errors import CycleDetected, DimensionMismatch, NotAnIdeal, SpaceTooLarge
from .multiset import Multiset


class Pomset:
    """An immutable strict partial order on {1..n} with a height.

    ``relations`` is any iterable of pairs ``(i, j)`` meaning *i strictly
    below j* (1-based). The transitive closure is built once, as the set
    of elements strictly below each element, and every order or ideal
    fact is read off it; a cycle in the closure is a construction error.
    """

    __slots__ = ("n", "height", "_below", "_above", "_pairs", "_dual")

    def __init__(self, n: int, height: int, relations=()):
        if n < 1:
            raise ValueError("ground set must have at least one element")
        if height < 1:
            raise ValueError("height must be positive")
        self.n = n
        self.height = height

        below = [set() for _ in range(n + 1)]
        for i, j in relations:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"pair ({i}, {j}) outside 1..{n}")
            if i == j:
                raise ValueError(f"pair ({i}, {i}) relates an element to itself")
            below[j].add(i)
        # Warshall (J. ACM 9, 1962): after step k each set holds every
        # element that reaches its owner through intermediates from 1..k
        for k in range(1, n + 1):
            for down in below:
                if k in down:
                    down |= below[k]
        for i in range(1, n + 1):
            if i in below[i]:
                raise CycleDetected(f"element {i} lies strictly below itself")

        self._below = tuple(frozenset(down) for down in below)
        self._above = tuple(frozenset(j for j in range(1, n + 1) if i in below[j])
                            for i in range(n + 1))
        self._pairs = frozenset((i, j) for j in range(1, n + 1) for i in below[j])
        self._dual = None

    # ----- the order ------------------------------------------------------

    def is_below(self, i: int, j: int) -> bool:
        """True iff ``i`` is strictly below ``j``."""
        return i in self._below[j]

    def strictly_below(self, i: int) -> frozenset[int]:
        return self._below[i]

    def strictly_above(self, i: int) -> frozenset[int]:
        return self._above[i]

    def strictly_below_set(self, elements) -> set[int]:
        """Elements strictly below some member of ``elements``; with the
        members themselves this is their down-set."""
        down: set[int] = set()
        for i in elements:
            down |= self._below[i]
        return down

    @property
    def relation(self) -> frozenset[tuple[int, int]]:
        """All strict pairs ``(i, j)`` with i below j, transitively closed."""
        return self._pairs

    def cover_pairs(self) -> list[tuple[int, int]]:
        """The transitive reduction, sorted; empty for an antichain: the
        related pairs with no element strictly between them."""
        return sorted((i, j) for i, j in self._pairs
                      if not self._above[i] & self._below[j])

    def dual(self) -> Pomset:
        """Same elements and height, order reversed; an involution."""
        if self._dual is None:
            d = Pomset(self.n, self.height, [(j, i) for i, j in self._pairs])
            d._dual = self
            self._dual = d
        return self._dual

    def is_chain(self) -> bool:
        # a strict order relates each of the n(n-1)/2 pairs at most once
        return len(self._pairs) == self.n * (self.n - 1) // 2

    def is_antichain(self) -> bool:
        return not self._pairs

    def maximal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if not self._above[i])

    def minimal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if not self._below[i])

    def linear_extension(self) -> tuple[int, ...]:
        # in a transitively closed order, i below j implies |below(i)| < |below(j)|
        return tuple(
            sorted(range(1, self.n + 1), key=lambda i: (len(self._below[i]), i))
        )

    # ----- multisets and ideals --------------------------------------------

    def _check_mset(self, mset: Multiset) -> None:
        if mset.n != self.n or mset.height != self.height:
            raise DimensionMismatch(
                f"multiset ({mset.n}, h={mset.height}) does not match "
                f"pomset ({self.n}, h={self.height})"
            )

    def is_ideal(self, mset: Multiset) -> bool:
        """Down-closure law: positive count at i forces full count below i,
        that is, ``mset`` is its own closure under :meth:`generated_counts`."""
        self._check_mset(mset)
        return self.generated_counts(mset.counts) == mset.counts

    def generated_counts(self, counts) -> tuple[int, ...]:
        """Closure of a raw count sequence (index 0 holds element 1)."""
        h = self.height
        gen = list(counts)
        for j in self.strictly_below_set([i for i, c in enumerate(counts, 1) if c]):
            gen[j - 1] = h
        return tuple(gen)

    def ideal_generated(self, mset: Multiset) -> Ideal:
        """Smallest ideal containing ``mset``: keep each count and fill
        everything strictly below a positive count up to the height."""
        self._check_mset(mset)
        return Ideal(self, Multiset(self.n, self.height,
                                    self.generated_counts(mset.counts)))

    def ideals_of_cardinality(self, t: int, limit: int | None = None) -> list[Ideal]:
        """All ideals of total count ``t``, in lexicographic count order;
        ``limit`` as in :meth:`ideals`."""
        if not 0 <= t <= self.n * self.height:
            raise ValueError(f"cardinality {t} outside 0..{self.n * self.height}")
        return [Ideal(self, Multiset(self.n, self.height, counts))
                for counts in self._ideal_vectors(t, limit)]

    def ideals(self, limit: int | None = None) -> list[Ideal]:
        """Every ideal, in lexicographic count order; more than ``limit`` of
        them (no bound by default) raise ``SpaceTooLarge``."""
        return [Ideal(self, Multiset(self.n, self.height, counts))
                for counts in self._ideal_vectors(None, limit)]

    def ideals_by_maximal_count(self, t: int, j: int) -> list[Ideal]:
        """The ideals of cardinality ``t`` whose root set has exactly ``j``
        maximal elements."""
        if not 1 <= j <= min(t, self.n):
            raise ValueError(f"maximal-element count {j} outside 1..min({t}, {self.n})")
        return [ideal for ideal in self.ideals_of_cardinality(t)
                if len(ideal.maximal_root()) == j]

    def _ideal_vectors(self, t: int | None, limit: int | None) -> list[tuple[int, ...]]:
        # Assign counts along a linear extension; a count short of h holds
        # every element above it at 0. The ``free`` elements still to come
        # can add any total in 0..h*free, so a count is tried only if t stays
        # reachable: every branch ends in an ideal, and ``limit`` bounds them.
        order = self.linear_extension()
        h, n, above = self.height, self.n, self._above
        counts = [0] * n
        blocked = [0] * (n + 1)  # the short counts below each element
        out: list[tuple[int, ...]] = []

        def rec(pos: int, total: int, free: int) -> None:
            if pos == n:
                out.append(tuple(counts))
                if limit is not None and len(out) > limit:
                    raise SpaceTooLarge(f"more than {limit} ideals to enumerate")
                return
            i = order[pos]
            if blocked[i]:
                return rec(pos + 1, total, free)
            rest = short = free - 1
            for j in above[i]:
                short -= not blocked[j]
                blocked[j] += 1
            lo, hi = 0, h - 1
            if t is not None:
                lo, hi = max(0, t - total - h * short), min(h - 1, t - total)
            for c in range(lo, hi + 1):
                counts[i - 1] = c
                rec(pos + 1, total + c, short)
            for j in above[i]:
                blocked[j] -= 1
            if t is None or h <= t - total <= h * free:
                counts[i - 1] = h
                rec(pos + 1, total + h, rest)
            counts[i - 1] = 0

        rec(0, 0, n)
        out.sort()
        return out

    # ----- housekeeping ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pomset)
            and self.n == other.n
            and self.height == other.height
            and self._pairs == other._pairs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.height, self._pairs))

    def __repr__(self) -> str:
        rel = " ".join(f"{i}<{j}" for i, j in self.cover_pairs())
        return f"Pomset(n={self.n}, height={self.height}, {rel or 'antichain'})"


class Ideal:
    """A multiset certified against a pomset's down-closure law."""

    __slots__ = ("pomset", "counts")

    def __init__(self, pomset: Pomset, counts: Multiset):
        if not pomset.is_ideal(counts):
            raise NotAnIdeal(f"{counts.literal()} violates down-closure")
        self.pomset = pomset
        self.counts = counts

    @property
    def cardinality(self) -> int:
        return self.counts.cardinality

    @property
    def root_set(self) -> frozenset[int]:
        return self.counts.root_set

    def count(self, i: int) -> int:
        return self.counts.count(i)

    def maximal_root(self) -> frozenset[int]:
        """Root elements with nothing of the ideal strictly above them."""
        root = self.counts.root_set
        return root - self.pomset.strictly_below_set(root)

    def maximal_elements(self) -> Multiset:
        """The ideal's counts restricted to its maximal root elements."""
        keep = self.maximal_root()
        return Multiset(
            self.counts.n,
            self.counts.height,
            tuple(c if i in keep else 0
                  for i, c in enumerate(self.counts.counts, 1)),
        )

    def is_full_count(self) -> bool:
        h = self.counts.height
        return all(c in (0, h) for c in self.counts.counts)

    def partial_indices(self) -> tuple[int, ...]:
        """Root elements carrying less than the full height, ascending."""
        h = self.counts.height
        return tuple(i for i, c in enumerate(self.counts.counts, 1) if 0 < c < h)

    def complement(self) -> Ideal:
        """The complement multiset, which is an ideal of the dual order."""
        return Ideal(self.pomset.dual(), self.counts.complement())

    def shrink(self, s: int) -> Ideal:
        """A sub-ideal of cardinality ``s``; canonical witness obtained by
        repeatedly decrementing the largest maximal element."""
        if not 0 <= s <= self.cardinality:
            raise ValueError(f"target {s} outside 0..{self.cardinality}")
        current = self
        while current.cardinality > s:
            i = max(current.maximal_root())
            current = Ideal(
                current.pomset,
                current.counts.with_count(i, current.count(i) - 1),
            )
        return current

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.pomset == other.pomset
            and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return hash((self.pomset, self.counts))

    def __repr__(self) -> str:
        return f"Ideal({self.counts.literal()!r})"
