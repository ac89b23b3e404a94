"""Code theory over chain orders: packing radius, Singleton bound, MDS,
the perfect-code bridge, duality, and repetition codes.

On a chain there is exactly one ideal of each cardinality (a filled prefix
plus a partial top count), which is what makes the closed forms below
possible.
"""

from __future__ import annotations

from collections import namedtuple

from .balls import i_sphere_size, r_ball_coords
from .block_space import BlockSpace, chain_space
from .codes import Code, dual_code, verify_perfect
from .errors import (
    BadCardinality,
    NotAChain,
    NotLinear,
    NonUniformBlocks,
)
from .multiset import Multiset
from .pomset import Ideal, Pomset


def chain_elements(pomset: Pomset) -> tuple[int, ...]:
    """The blocks in ascending chain order; rejects non-chains."""
    if not pomset.is_chain():
        raise NotAChain("operation defined only for totally ordered blocks")
    return pomset.linear_extension()


def chain_prefix_ideal(pomset: Pomset, card: int) -> Ideal:
    """The unique chain ideal of the given cardinality: full counts on a
    bottom prefix, the remainder on the next element."""
    order = chain_elements(pomset)
    h = pomset.height
    pomset.check_cardinality(card)
    counts = [0] * pomset.n
    full, rest = divmod(card, h)
    for i in order[:full]:
        counts[i - 1] = h
    if rest:
        counts[order[full] - 1] = rest
    return Ideal(pomset, Multiset(pomset.n, h, tuple(counts)))


def chain_shell_size(space: BlockSpace, r: int) -> int:
    """Shell count over a chain order: a chain has one ideal of each
    cardinality, so shell r is the I-sphere of :func:`chain_prefix_ideal`."""
    space.pomset.check_cardinality(r, "weight")
    return i_sphere_size(space, chain_prefix_ideal(space.pomset, r))


def _ceil_log(m: int, size: int) -> int:
    q = 0
    while m**q < size:
        q += 1
    return q


def packing_radius(code: Code) -> int:
    """Greatest r whose r-balls at distinct codewords are pairwise disjoint.

    The zero ball of each radius 1, 2, ... is read off the space's one
    weight table (:meth:`BlockSpace.weights`) and its translates over the
    code are tallied until two overlap. The balls of radius
    n*floor(m/2) are the whole space, so that happens by then for two or
    more words. Works for any order, not just chains. A one-word code
    packs the whole space.
    """
    space = code.space
    if len(code) < 2:
        return space.n * space.max_lee
    zero = space.zero()
    r = 0
    while 2 not in space.cover_counts(code.coord_set, r_ball_coords(zero, r + 1)):
        r += 1
    return r


def packing_radius_chain(code: Code) -> int:
    """Closed form on chains: floor(m/2) times (poset minimum distance - 1)."""
    chain_elements(code.space.pomset)
    if len(code) < 2:
        return code.space.n * code.space.max_lee
    return code.space.max_lee * (code.min_distance("poset") - 1)


class SingletonReport(namedtuple("SingletonReport", "d r prefix_len rhs")):
    """The chain Singleton-type bound for the pomset or the poset block metric.

    ``r`` counts the chain prefix blocks pinned by the minimum distance;
    the bound says their total length ``prefix_len`` is at most
    ``N - ceil(log_m |C|)``; MDS means equality. A one-word code is
    treated as attaining the bound (``d`` is None then).
    """

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.prefix_len <= self.rhs

    @property
    def is_mds(self) -> bool:
        return self.prefix_len == self.rhs


def singleton_report(code: Code, metric: str = "pomset") -> SingletonReport:
    """The bound under ``metric``: "pomset", where a distance d pins
    (d - 1) // floor(m/2) prefix blocks, or "poset" (the poset block metric
    of Alves et al.), where it pins d - 1."""
    space = code.space
    order = chain_elements(space.pomset)
    per_block = {"pomset": space.max_lee, "poset": 1}.get(metric)
    if per_block is None:
        raise ValueError(f"unknown metric {metric!r}")
    q = _ceil_log(space.m, len(code))
    if len(code) == 1:
        d, r = None, space.n
    else:
        d = code.min_distance(metric)
        r = (d - 1) // per_block
    prefix_len = sum(space.pi[i - 1] for i in order[:r])
    return SingletonReport(d=d, r=r, prefix_len=prefix_len, rhs=space.N - q)


def is_mds(code: Code) -> bool:
    return singleton_report(code).is_mds


class MetricComparisonReport(
        namedtuple("MetricComparisonReport", "pomset_mds poset_mds floor_inequality")):
    """Block-metric MDS versus poset-metric MDS, plus the floor inequality
    floor((d_pomset - 1) / floor(m/2)) <= d_poset - 1 that links them."""

    __slots__ = ()

    @property
    def implication_holds(self) -> bool:
        return (not self.pomset_mds) or self.poset_mds


def mds_metric_comparison(code: Code) -> MetricComparisonReport:
    # the two sides of the floor inequality are the reports' prefix counts
    pomset = singleton_report(code)
    poset = singleton_report(code, "poset")
    return MetricComparisonReport(
        pomset_mds=pomset.is_mds,
        poset_mds=poset.is_mds,
        floor_inequality=pomset.r <= poset.r,
    )


def _matched_ideal(code: Code) -> Ideal:
    """The full-count chain ideal matched to a chain code with blocks of
    one length k and size m^q, k | q: the bottom n - q/k blocks filled."""
    space = code.space
    chain_elements(space.pomset)
    k = space.pi[0]
    if any(ki != k for ki in space.pi):
        raise NonUniformBlocks("all blocks must share one length")
    q = _ceil_log(space.m, len(code))
    if space.m**q != len(code):
        raise BadCardinality(f"|C| = {len(code)} is not a power of {space.m}")
    if q % k:
        raise BadCardinality(f"exponent {q} is not a multiple of the block length {k}")
    return chain_prefix_ideal(space.pomset, space.max_lee * (space.n - q // k))


class PerfectMdsBridge(namedtuple("PerfectMdsBridge", "ideal mds i_perfect")):
    """MDS versus perfectness at the matched full-count chain ideal.

    Both properties are evaluated independently, so either implication
    can be seen to fail rather than assumed.
    """

    __slots__ = ()

    @property
    def mds_implies_perfect(self) -> bool:
        return (not self.mds) or self.i_perfect

    @property
    def perfect_implies_mds(self) -> bool:
        return (not self.i_perfect) or self.mds


def mds_iperfect_bridge(code: Code) -> PerfectMdsBridge:
    """Evaluate the bridge for a uniform-block chain code whose size is an
    exact power of m with exponent divisible by the block length."""
    target = _matched_ideal(code)
    return PerfectMdsBridge(
        ideal=target,
        mds=singleton_report(code).is_mds,
        i_perfect=verify_perfect(code, ideal=target).is_perfect,
    )


class DualityReport(
        namedtuple("DualityReport", "mds_primal perfect_primal perfect_dual mds_dual")):
    """The four-way equivalence for uniform-block chain codes of size m^q:
    MDS here, perfect at the matched full-count ideal here, the dual code
    perfect at the complement ideal in the dual space, and the dual code
    MDS there. Each statement is evaluated independently."""

    __slots__ = ()

    @property
    def statements(self) -> tuple[bool, bool, bool, bool]:
        return (self.mds_primal, self.perfect_primal,
                self.perfect_dual, self.mds_dual)

    @property
    def all_equal(self) -> bool:
        return len(set(self.statements)) == 1


def duality_equivalence(code: Code) -> DualityReport:
    """The bridge on the code and on its dual in the dual space. The dual
    has m^(N - q) words, and N - q is a multiple of the block length, so
    its matched ideal is the complement of the code's."""
    _matched_ideal(code)
    if not code.linear:
        raise NotLinear("the duality equivalence is about linear codes")
    primal = mds_iperfect_bridge(code)
    dual = mds_iperfect_bridge(dual_code(code).in_space(code.space.dual()))
    return DualityReport(
        mds_primal=primal.mds,
        perfect_primal=primal.i_perfect,
        perfect_dual=dual.i_perfect,
        mds_dual=dual.mds,
    )


def unit_repetition_code(space: BlockSpace) -> Code:
    """The span of the all-ones vector of a chain space.

    MDS whenever every block has length one (on wider blocks the bound's
    two sides differ by k - 1).
    """
    chain_elements(space.pomset)
    return Code.from_generators(space, [(1,) * space.N])


def block_repetition_code(m: int, n: int) -> Code:
    """The span of (1 x n, 2 x n, ..., (m-1) x n) in its own unit-block
    chain space of length n(m-1); MDS for every m >= 2, n >= 1."""
    if m < 2 or n < 1:
        raise ValueError("need modulus >= 2 and n >= 1")
    space = chain_space(m, (1,) * (n * (m - 1)))
    gen = tuple(j for j in range(1, m) for _ in range(n))
    return Code.from_generators(space, [gen])


def repetition_codes(space: BlockSpace) -> tuple[Code, Code]:
    """The unit repetition code of ``space`` and the block repetition code
    built from its modulus and block count."""
    return unit_repetition_code(space), block_repetition_code(space.m, space.n)
