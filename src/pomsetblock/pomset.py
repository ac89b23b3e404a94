"""Partial orders on {1..n} over a fixed height, and their ideals.

Every related pair of the underlying structure carries the full
``height x height`` count, so a strict partial order on {1..n} together
with the height captures everything. Ideals are multisets obeying the
down-closure law: a positive count anywhere forces full count on every
element strictly below it.
"""

from __future__ import annotations

from operator import index

from .errors import CycleDetected, DimensionMismatch, NotAnIdeal, SpaceTooLarge
from .multiset import Multiset


class Pomset:
    """An immutable strict partial order on {1..n} with a height.

    ``relations`` is any iterable of pairs ``(i, j)`` meaning *i strictly
    below j* (1-based). Its transitive closure is kept as bitmasks, bit i of
    ``_below[j]`` set iff i is strictly below j, and ``_above`` their
    transpose; a cycle is a construction error.
    """

    __slots__ = ("n", "height", "_below", "_above", "_dual")

    def __init__(self, n: int, height: int, relations=()):
        n, height = index(n), index(height)  # a non-integer is a TypeError
        if n < 1:
            raise ValueError("ground set must have at least one element")
        if height < 1:
            raise ValueError("height must be positive")
        self.n = n
        self.height = height

        preds = [[] for _ in range(n + 1)]
        succs = [[] for _ in range(n + 1)]
        for pair in relations:
            i, j = map(index, pair)  # a non-integer is a TypeError
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"pair ({i}, {j}) outside 1..{n}")
            if i == j:
                raise ValueError(f"pair ({i}, {i}) relates an element to itself")
            preds[j].append(i)
            succs[i].append(j)
        # Kahn (CACM 5, 1962): an element joins once its direct predecessors have
        below = [0] * (n + 1)
        waiting = [len(p) for p in preds]
        order = [j for j in range(1, n + 1) if not waiting[j]]
        for i in order:  # also visits what the loop appends
            for j in succs[i]:
                below[j] |= below[i] | 1 << i
                waiting[j] -= 1
                if not waiting[j]:
                    order.append(j)
        if len(order) < n:
            # stepping back through left-over predecessors revisits a cycle
            i = next(j for j, w in enumerate(waiting) if w)
            while waiting[i] > 0:
                waiting[i] = -1  # seen
                i = next(p for p in preds[i] if waiting[p])
            raise CycleDetected(f"element {i} lies strictly below itself")
        above = [0] * (n + 1)
        for i in reversed(order):
            for j in succs[i]:
                above[i] |= above[j] | 1 << j
        self._below = tuple(below)
        self._above = tuple(above)
        self._dual = None

    # ----- the order ------------------------------------------------------

    def is_below(self, i: int, j: int) -> bool:
        """True iff ``i`` is strictly below ``j``."""
        return bool(self._below[j] >> i & 1)

    def strictly_below_set(self, elements) -> set[int]:
        """Elements strictly below some member of ``elements``; with the
        members themselves this is their down-set."""
        down = 0
        for i in elements:
            down |= self._below[i]
        return {i for i in range(1, down.bit_length()) if down >> i & 1}

    @property
    def relation(self) -> frozenset[tuple[int, int]]:
        """All strict pairs ``(i, j)`` with i below j, transitively closed."""
        return frozenset((i, j) for j in range(1, self.n + 1)
                         for i in self.strictly_below_set([j]))

    def cover_pairs(self) -> list[tuple[int, int]]:
        """The transitive reduction, sorted; empty for an antichain: the
        related pairs with no element strictly between them."""
        return sorted((i, j) for i, j in self.relation
                      if not self._above[i] & self._below[j])

    def dual(self) -> Pomset:
        """Same elements and height, order reversed; an involution."""
        if self._dual is None:
            d = Pomset.__new__(Pomset)
            d.n, d.height, d._dual = self.n, self.height, self
            d._below, d._above, self._dual = self._above, self._below, d
        return self._dual

    def is_chain(self) -> bool:
        # a strict order relates each of the n(n-1)/2 pairs at most once
        return sum(map(int.bit_count, self._below)) == self.n * (self.n - 1) // 2

    def is_antichain(self) -> bool:
        return not any(self._below)

    def maximal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if not self._above[i])

    def minimal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if not self._below[i])

    def linear_extension(self) -> tuple[int, ...]:
        # i below j makes below(i) a proper subset of below(j)
        return tuple(sorted(range(1, self.n + 1),
                            key=lambda i: self._below[i].bit_count()))

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
        down = 0
        for i, c in enumerate(counts, 1):
            if c:
                down |= self._below[i]
        gen = list(counts)
        while down:
            low = down & -down  # the lowest element left, i, sits at index i - 1
            gen[low.bit_length() - 2] = self.height
            down ^= low
        return tuple(gen)

    def ideal_generated(self, mset: Multiset) -> Ideal:
        """Smallest ideal containing ``mset``: keep each count and fill
        everything strictly below a positive count up to the height."""
        self._check_mset(mset)
        return Ideal(self, Multiset(self.n, self.height,
                                    self.generated_counts(mset.counts)))

    def check_cardinality(self, t: int, noun: str = "cardinality") -> None:
        """Reject ``t`` unless some ideal has that total, 0..n*height: the one
        range check for a cardinality, radius or weight; ``noun`` names t in
        the error."""
        top = self.n * self.height
        if not 0 <= t <= top:
            raise ValueError(f"{noun} {t} outside 0..{top}")

    def ideals_of_cardinality(self, t: int, limit: int | None = None) -> list[Ideal]:
        """All ideals of total count ``t``, in lexicographic count order;
        ``limit`` as in :meth:`ideals`."""
        self.check_cardinality(t)
        return [Ideal(self, Multiset(self.n, self.height, counts))
                for counts in sorted(self.ideal_vectors(self.height, t, limit))]

    def ideals(self, limit: int | None = None) -> list[Ideal]:
        """Every ideal, in lexicographic count order; more than ``limit`` of
        them (no bound by default) raise ``SpaceTooLarge``."""
        return [Ideal(self, Multiset(self.n, self.height, counts))
                for counts in sorted(self.ideal_vectors(self.height, None, limit))]

    def ideals_by_maximal_count(self, t: int, j: int) -> list[Ideal]:
        """The ideals of cardinality ``t`` whose root set has exactly ``j``
        maximal elements."""
        if not 1 <= j <= min(t, self.n):
            raise ValueError(f"maximal-element count {j} outside 1..min({t}, {self.n})")
        return [ideal for ideal in self.ideals_of_cardinality(t)
                if len(ideal.maximal_root()) == j]

    def ideal_vectors(self, h: int, t: int | None = None, limit: int | None = None):
        """Yield the counts of each ideal at height ``h`` (1: the set ideals),
        of total ``t`` if given, in walk order; past ``limit`` raise SpaceTooLarge."""
        n, above, order = self.n, self._above, self.linear_extension()
        counts = [0] * n
        found = 0
        # an entry writes count c at pos in the linear extension, then the total,
        # the elements still free and those held at 0, by a count short of h or
        # by a total already at t; a count is tried only if t stays reachable,
        # so every entry ends in an ideal of its own, counted before it is pushed
        stack = [(-1, 0, 0, n, 0)]  # a write that position n - 1 overwrites
        while stack:
            pos, c, total, free, held = stack.pop()
            counts[order[pos] - 1] = c
            pos += 1
            while pos < n and (total == t or held >> order[pos] & 1):
                counts[order[pos] - 1] = 0
                pos += 1
            if pos == n:
                found += 1
                if limit is not None and found > limit:
                    raise SpaceTooLarge(f"more than {limit} ideals to enumerate")
                yield tuple(counts)
                continue
            i = order[pos]
            if t is None or h <= t - total <= h * free:
                stack.append((pos, h, total + h, free - 1, held))
            short = free - 1 - (above[i] & ~held).bit_count()
            lo = 0 if t is None else max(0, t - total - h * short)
            hi = h - 1 if t is None else min(h - 1, t - total)
            if limit is not None and found + len(stack) + hi - lo >= limit:
                raise SpaceTooLarge(f"more than {limit} ideals to enumerate")
            for c in range(hi, lo - 1, -1):
                stack.append((pos, c, total + c, short, held | above[i]))

    # ----- housekeeping ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pomset)  # n is the length of ``_below`` less one
            and self.height == other.height
            and self._below == other._below
        )

    def __hash__(self) -> int:
        return hash((self.n, self.height, self._below))

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
