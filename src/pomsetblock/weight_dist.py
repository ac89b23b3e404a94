"""Weight distributions: full-space shells, by the closed form and by a scan.

``weight_distribution`` gives every shell at once, read off the one
``balls.weight_enumerator``, whose single shell r is
``balls.r_sphere_size``; ``chain_shell_size`` is the chain-order closed
form. The residue and block shells (``lee_shell_size``,
``block_shell_size``) sit in :mod:`block_space` beside ``lee_weight``. Each
closed form has an enumeration-based twin: ``weight_distribution_enumerated``
sums ``balls.support_census`` by cardinality (``balls.weight_sums``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .block_space import BlockSpace, block_max_lee, block_shell_size
from .errors import NotAChain
from .balls import support_census, weight_enumerator, weight_sums


def block_shell_size_enumerated(m: int, k: int, r: int) -> int:
    """Oracle for :func:`block_shell_size` by scanning Z_m^k."""
    if k < 1:
        raise ValueError("block length must be positive")
    if not 0 <= r <= m // 2:
        raise ValueError(f"weight {r} outside 0..{m // 2}")
    return sum(1 for block in product(range(m), repeat=k)
               if block_max_lee(block, m) == r)


@dataclass(frozen=True)
class WeightDistribution:
    """Shell counts A_0..A_{n*floor(m/2)}; sums to the space size."""

    space: BlockSpace
    shells: tuple[int, ...]

    def __post_init__(self):
        expected = self.space.n * self.space.max_lee + 1
        if len(self.shells) != expected:
            raise ValueError(f"expected {expected} shells, got {len(self.shells)}")
        if self.shells[0] != 1:
            raise ValueError("the zero shell must hold exactly the zero vector")
        if sum(self.shells) != self.space.size():
            raise ValueError("shells do not sum to the space size")


def weight_distribution(space: BlockSpace) -> WeightDistribution:
    """All shell counts by the closed form: the weight enumerator's
    coefficients, computed once."""
    return WeightDistribution(space, weight_enumerator(space))


def weight_distribution_enumerated(space: BlockSpace) -> WeightDistribution:
    """All shell counts by a full-space scan: the support census by weight."""
    return WeightDistribution(space, tuple(weight_sums(space, support_census(space))))


def chain_shell_size(space: BlockSpace, r: int) -> int:
    """Shell count over a chain order, in closed form.

    Weight r = t*h + c with 1 <= c <= h pins the unique ideal: the bottom
    t blocks filled and count c on block t+1. The filled blocks are free
    (m to their total length) and the top block contributes its shell;
    the exponent counts only the filled lower blocks, not the top one.
    """
    pomset = space.pomset
    if not pomset.is_chain():
        raise NotAChain("closed-form shells need a total order on the blocks")
    space.check_weight(r, "weight")
    if r == 0:
        return 1
    h = space.max_lee
    order = pomset.linear_extension()
    t, c = divmod(r - 1, h)
    c += 1
    free = sum(space.pi[i - 1] for i in order[:t])
    return space.m**free * block_shell_size(space.m, space.pi[order[t] - 1], c)

