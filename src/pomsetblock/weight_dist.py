"""Weight distributions: full-space shells, by the closed form and by a scan.

``weight_distribution`` gives every shell at once, read off the one
``balls.weight_enumerator``, whose single shell r is
``balls.r_sphere_size``. The block shells are differences of Lee-ball counts
(:mod:`block_space`), the chain shells chain I-spheres (:mod:`chain`). Each
closed form has an enumeration-based twin: ``weight_distribution_enumerated``
sums ``balls.support_census`` by cardinality (``balls.weight_sums``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .block_space import BlockSpace, block_max_lee, check_block_weight
from .balls import support_census, weight_enumerator, weight_sums


def block_shell_size_enumerated(m: int, k: int, r: int) -> int:
    """Oracle for :func:`block_shell_size` by scanning Z_m^k."""
    check_block_weight(m, k, r)
    return sum(1 for block in product(range(m), repeat=k)
               if block_max_lee(block, m) == r)


class WeightDistribution(namedtuple("WeightDistribution", "space shells")):
    """Shell counts A_0..A_{n*floor(m/2)}; sums to the space size."""

    __slots__ = ()

    def __init__(self, space: BlockSpace, shells: tuple[int, ...]):
        # tuple.__new__ has stored the fields; this only checks them
        expected = space.n * space.max_lee + 1
        if len(shells) != expected:
            raise ValueError(f"expected {expected} shells, got {len(shells)}")
        if shells[0] != 1:
            raise ValueError("the zero shell must hold exactly the zero vector")
        if sum(shells) != space.size():
            raise ValueError("shells do not sum to the space size")


def weight_distribution(space: BlockSpace) -> WeightDistribution:
    """All shell counts by the closed form: the weight enumerator's
    coefficients, computed once."""
    return WeightDistribution(space, weight_enumerator(space))


def weight_distribution_enumerated(space: BlockSpace) -> WeightDistribution:
    """All shell counts by a full-space scan: the support census by weight."""
    return WeightDistribution(space, tuple(weight_sums(space, support_census(space))))

