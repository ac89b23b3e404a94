"""Weight distributions: scalar Lee shells, block shells, full-space shells.

``lee_shell_size`` counts residues of a given Lee weight, ``block_shell_size``
counts blocks of a given maximum Lee weight, and ``weight_shell_size`` counts
vectors of a given block-metric weight. Each closed form has an
enumeration-based twin.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .block_space import DEFAULT_CAP, BlockSpace, lee_weight, pw_weight
from .errors import NonUnitBlocks, NotAChain
from .balls import profile_census


def lee_shell_size(m: int, r: int) -> int:
    """Number of residues mod m with Lee weight exactly r."""
    if not 0 <= r <= m // 2:
        raise ValueError(f"Lee weight {r} outside 0..{m // 2}")
    if r == 0:
        return 1
    if m % 2 == 0 and r == m // 2:
        return 1
    return 2


def block_shell_size(m: int, k: int, r: int) -> int:
    """Number of blocks in Z_m^k with maximum Lee weight exactly r.

    r = 0 counts only the zero block. For r >= 1 the count is
    (2r - 1 + |shell_r|)^k - (2r - 1)^k, which covers the top shell
    r = floor(m/2) for both parities of m.
    """
    if k < 1:
        raise ValueError("block length must be positive")
    if not 0 <= r <= m // 2:
        raise ValueError(f"weight {r} outside 0..{m // 2}")
    if r == 0:
        return 1
    return (2 * r - 1 + lee_shell_size(m, r)) ** k - (2 * r - 1) ** k


def block_shell_size_enumerated(m: int, k: int, r: int) -> int:
    """Oracle for :func:`block_shell_size` by scanning Z_m^k."""
    return sum(
        1
        for block in product(range(m), repeat=k)
        if max(lee_weight(x, m) for x in block) == r
    )


def weight_shell_size(space: BlockSpace, r: int) -> int:
    """Closed-form count of vectors of block-metric weight exactly r.

    Sums, over the ideals of cardinality r, the block shells of the
    maximal root elements times the full freedom of the remaining root
    blocks.
    """
    if r == 0:
        return 1
    if not 1 <= r <= space.n * space.max_lee:
        raise ValueError(f"weight {r} outside 0..{space.n * space.max_lee}")
    m = space.m
    total = 0
    for ideal in space.pomset.ideals_of_cardinality(r):
        maximal = ideal.maximal_root()
        term = 1
        for i in maximal:
            term *= block_shell_size(m, space.pi[i - 1], ideal.count(i))
        for l in ideal.root_set - maximal:
            term *= m ** space.pi[l - 1]
        total += term
    return total


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
    """All shell counts by the closed form."""
    top = space.n * space.max_lee
    return WeightDistribution(
        space, tuple(weight_shell_size(space, r) for r in range(top + 1))
    )


def weight_distribution_enumerated(space: BlockSpace,
                                   cap: int = DEFAULT_CAP) -> WeightDistribution:
    """All shell counts by a full-space scan (the oracle)."""
    pomset = space.pomset
    shells = [0] * (space.n * space.max_lee + 1)
    for profile, mult in profile_census(space, cap).items():
        shells[sum(pomset.generated_counts(profile))] += mult
    return WeightDistribution(space, tuple(shells))


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
    h = space.max_lee
    if r == 0:
        return 1
    if not 1 <= r <= space.n * h:
        raise ValueError(f"weight {r} outside 0..{space.n * h}")
    order = pomset.linear_extension()
    t, c = divmod(r - 1, h)
    c += 1
    free = sum(space.pi[i - 1] for i in order[:t])
    return space.m**free * block_shell_size(space.m, space.pi[order[t] - 1], c)


def pw_matches_pomset_distribution(space: BlockSpace,
                                   cap: int = DEFAULT_CAP) -> bool:
    """Whether the weighted-coordinates and block-metric weight histograms
    agree shell by shell (unit blocks only)."""
    if any(k != 1 for k in space.pi):
        raise NonUnitBlocks("comparison defined for unit blocks")
    top = space.n * space.max_lee
    from_pw = [0] * (top + 1)
    from_block = [0] * (top + 1)
    for v in space.vectors(cap):
        from_pw[pw_weight(v)] += 1
        from_block[v.weight()] += 1
    return from_pw == from_block
