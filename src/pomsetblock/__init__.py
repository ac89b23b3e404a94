"""Block codes under the pomset metric on Z_m^N.

The space Z_m^{k_1} + ... + Z_m^{k_n} carries a weight built from a
partial order on the block positions and the Lee weight of residues:
each nonzero block contributes its maximum Lee weight as a multiset
count, and the weight of a vector is the size of the ideal its support
generates. This package implements the multiset algebra, pomsets and
their ideals, ball and sphere cardinalities, complete weight
distributions, perfect-code constructions, and the chain-order theory
(packing radius, Singleton bound, MDS, duality), always pairing closed
forms with brute-force enumerators.
"""

from .errors import (
    BadCardinality,
    CycleDetected,
    DimensionMismatch,
    DivisibilityFails,
    NonUniformBlocks,
    NonUnitBlocks,
    NotAChain,
    NotAnIdeal,
    NotFullCount,
    NotLinear,
    ParseError,
    PomsetBlockError,
    SingletonCode,
    SpaceMismatch,
    SpaceTooLarge,
)
from .multiset import Multiset
from .pomset import Ideal, Pomset
from .block_space import (
    DEFAULT_CAP,
    BlockSpace,
    BlockVector,
    antichain_space,
    block_max_lee,
    block_shell_size,
    chain_space,
    check_block_weight,
    lee_shell_size,
    lee_weight,
    pw_weight,
    space_with_order,
)
from .balls import (
    FullCountBallReport,
    full_count_structure,
    i_ball,
    i_ball_coords,
    i_ball_size,
    i_ball_size_enumerated,
    i_sphere_size,
    nonlinearity_witness,
    profile_census,
    r_ball,
    r_ball_coords,
    r_ball_size,
    r_sphere_size,
    support_census,
)
from .weight_dist import (
    WeightDistribution,
    block_shell_size_enumerated,
    weight_distribution,
    weight_distribution_enumerated,
)
from .codes import (
    Code,
    PerfectnessCertificate,
    PerpDualityReport,
    construct_perfect_full,
    construct_perfect_partial,
    dual_code,
    perp_duality_report,
    verify_perfect,
)
from .chain import (
    DualityReport,
    MetricComparisonReport,
    PerfectMdsBridge,
    SingletonReport,
    block_repetition_code,
    chain_elements,
    chain_prefix_ideal,
    chain_shell_size,
    duality_equivalence,
    is_mds,
    mds_iperfect_bridge,
    mds_metric_comparison,
    packing_radius,
    packing_radius_chain,
    repetition_codes,
    singleton_report,
    unit_repetition_code,
)
from .fileio import (
    format_code,
    format_space,
    load_code,
    load_space,
    parse_code,
    parse_ideal,
    parse_space,
    parse_vector,
)

__version__ = "0.1.0"
