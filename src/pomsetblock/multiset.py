"""Height-bounded multisets over {1..n} and their clipped algebra.

Counts live in 0..height; the binary operations are pointwise max / min /
clipped sum / floored difference, and complement is taken against the
height. Indices are 1-based everywhere in the public interface.
"""

from __future__ import annotations

from operator import index

from .errors import DimensionMismatch, ParseError


class Multiset:
    __slots__ = ("n", "height", "counts")

    def __init__(self, n: int, height: int, counts):
        n, height = index(n), index(height)  # a non-integer is a TypeError
        if n < 1:
            raise ValueError("ground set must have at least one element")
        if height < 1:
            raise ValueError("height must be positive")
        counts = tuple(map(index, counts))
        if len(counts) != n:
            raise DimensionMismatch(f"expected {n} counts, got {len(counts)}")
        for i, c in enumerate(counts, 1):
            if not 0 <= c <= height:
                raise ValueError(f"count {c} at index {i} is outside 0..{height}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.n, self.height, self.counts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.height, self.counts) == (
            other.n, other.height, other.counts)

    def __hash__(self) -> int:
        return hash((self.n, self.height, self.counts))

    # ----- constructors -------------------------------------------------

    @classmethod
    def empty(cls, n: int, height: int) -> Multiset:
        return cls(n, height, (0,) * n)

    @classmethod
    def full(cls, n: int, height: int) -> Multiset:
        return cls(n, height, (height,) * n)

    @classmethod
    def parse(cls, text: str, n: int, height: int) -> Multiset:
        """Parse a literal of ``count/index`` tokens, e.g. ``3/1 1/3``.

        Omitted indices have count 0; a lone ``-`` (or empty text) is the
        empty multiset. Duplicate indices are rejected.
        """
        counts = [0] * n
        seen = set()
        for tok in text.split():
            if tok == "-":
                continue
            head, sep, tail = tok.partition("/")
            if not sep:
                raise ParseError(f"bad multiset token {tok!r}; want count/index")
            try:
                c, i = int(head), int(tail)
            except ValueError:
                raise ParseError(f"bad multiset token {tok!r}") from None
            if not 1 <= i <= n:
                raise ParseError(f"index {i} outside 1..{n}")
            if i in seen:
                raise ParseError(f"duplicate index {i} in multiset literal")
            seen.add(i)
            counts[i - 1] = c
        try:
            return cls(n, height, tuple(counts))
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    # ----- accessors ----------------------------------------------------

    def count(self, i: int) -> int:
        """Count of element ``i`` (1-based)."""
        return self.counts[i - 1]

    @property
    def cardinality(self) -> int:
        return sum(self.counts)

    @property
    def root_set(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.counts, 1) if c > 0)

    def literal(self) -> str:
        """Inverse of :meth:`parse`; the empty multiset renders as ``-``."""
        parts = [f"{c}/{i}" for i, c in enumerate(self.counts, 1) if c > 0]
        return " ".join(parts) if parts else "-"

    # ----- algebra ------------------------------------------------------

    def _check(self, other: Multiset) -> None:
        if self.n != other.n or self.height != other.height:
            raise DimensionMismatch(
                f"({self.n}, h={self.height}) vs ({other.n}, h={other.height})"
            )

    def is_submset(self, other: Multiset) -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.counts, other.counts))

    def _pointwise(self, other: Multiset, op) -> Multiset:
        self._check(other)
        return Multiset(self.n, self.height, tuple(map(op, self.counts, other.counts)))

    def mset_sum(self, other: Multiset) -> Multiset:
        """Pointwise sum, clipped at the height."""
        return self._pointwise(other, lambda a, b: min(a + b, self.height))

    def mset_diff(self, other: Multiset) -> Multiset:
        """Pointwise difference, floored at zero."""
        return self._pointwise(other, lambda a, b: max(a - b, 0))

    def union(self, other: Multiset) -> Multiset:
        return self._pointwise(other, max)

    def intersection(self, other: Multiset) -> Multiset:
        return self._pointwise(other, min)

    def complement(self) -> Multiset:
        return Multiset(
            self.n, self.height, tuple(self.height - c for c in self.counts)
        )

    def with_count(self, i: int, c: int) -> Multiset:
        counts = list(self.counts)
        counts[i - 1] = c
        return Multiset(self.n, self.height, tuple(counts))

    # operator sugar: <= is submset order, | union, & intersection
    def __le__(self, other: Multiset) -> bool:
        return self.is_submset(other)

    def __or__(self, other: Multiset) -> Multiset:
        return self.union(other)

    def __and__(self, other: Multiset) -> Multiset:
        return self.intersection(other)

    def __repr__(self) -> str:
        return f"Multiset({self.literal()!r}, n={self.n}, height={self.height})"
