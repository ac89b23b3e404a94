"""Command-line frontend: space-file driven computations, TSV output.

Exit codes: 0 the computation succeeded / the property holds, 1 the
property fails (a certificate is printed), 2 invalid input.
"""

from __future__ import annotations

import argparse
import sys
from itertools import accumulate

from . import chain as chain_ops
from .balls import (
    down_set_sums,
    full_count_structure,
    i_ball_coords,
    i_ball_size,
    i_ball_size_enumerated,
    i_sphere_size,
    nonlinearity_witness,
    r_ball_coords,
    r_ball_size,
    support_census,
    weight_sums,
)
from .block_space import DEFAULT_CAP, block_shell_size
from .codes import construct_perfect_partial, dual_code, verify_perfect
from .errors import DivisibilityFails, PomsetBlockError
from .fileio import (
    format_code,
    load_code,
    load_space,
    parse_ideal,
    parse_vector,
)
from .weight_dist import (
    block_shell_size_enumerated,
    weight_distribution,
    weight_distribution_enumerated,
)


def _err(msg: str) -> None:
    print(f"pomsetblock: {msg}", file=sys.stderr)


def _tsv(rows) -> str:
    """Tab-separated text, one line per row: a boolean cell reads
    true/false and a missing one (None) reads -."""
    def cell(x) -> str:
        if isinstance(x, bool):
            return "true" if x else "false"
        return "-" if x is None else str(x)
    return "".join("\t".join(map(cell, row)) + "\n" for row in rows)


# Each handler returns (status, text): status 0 or 1, text its whole stdout.

def _cmd_weight(space, args) -> tuple[int, str]:
    return 0, _tsv([(parse_vector(space, args.vector).weight(),)])


def _cmd_ideals(space, args) -> tuple[int, str]:
    ideals = space.pomset.ideals_of_cardinality(args.card, limit=space.cap // space.n)
    return 0, _tsv((ideal.counts.literal(),) for ideal in ideals)


def _cmd_ballsize(space, args) -> tuple[int, str]:
    if args.radius is not None:
        space.pomset.check_cardinality(args.radius, "radius")
    center = None if args.center is None else parse_vector(space, args.center)
    ideal = None if args.ideal is None else parse_ideal(space, args.ideal)
    # --center comes only with --enumerate, as a cross-check path
    if center is not None and ideal is not None:
        size = len(i_ball_coords(center, ideal))
    elif center is not None:
        size = len(r_ball_coords(center, args.radius))
    elif args.enumerate and ideal is not None:
        size = i_ball_size_enumerated(space, ideal)
    elif args.enumerate:
        size = sum(weight_distribution_enumerated(space).shells[: args.radius + 1])
    elif ideal is not None:
        size = i_ball_size(space, ideal)
    else:
        size = r_ball_size(space, args.radius)
    return 0, _tsv([(size,)])


def _cmd_wdist(space, args) -> tuple[int, str]:
    distribution = weight_distribution_enumerated if args.oracle else weight_distribution
    return 0, _tsv(enumerate(distribution(space).shells)) + f"# total {space.size()}\n"


def _cmd_perfect(space, args) -> tuple[int, str]:
    if args.action == "construct":
        ideal = parse_ideal(space, args.ideal)
        try:
            code = construct_perfect_partial(space, ideal)
        except DivisibilityFails as exc:
            return 1, _tsv([("divisibility-fails", f"index={exc.index}",
                             f"count={exc.count}")])
        return 0, format_code(code)
    # verify
    code = load_code(space, args.code)
    if args.ideal is not None:
        cert = verify_perfect(code, ideal=parse_ideal(space, args.ideal))
    else:
        cert = verify_perfect(code, radius=args.radius)
    rows = [("disjoint", cert.disjoint), ("covering", cert.covering)]
    if cert.overlap is not None:
        rows.append(("overlap", *(v.literal() for v in cert.overlap)))
    if cert.uncovered is not None:
        rows.append(("uncovered", cert.uncovered.literal()))
    return (0 if cert.is_perfect else 1), _tsv(rows)


def _cmd_mds(space, args) -> tuple[int, str]:
    report = chain_ops.singleton_report(load_code(space, args.code))
    return (0 if report.is_mds else 1), _tsv([
        ("min-distance", report.d), ("prefix-blocks", report.r),
        ("prefix-length", report.prefix_len), ("bound", report.rhs),
        ("mds", report.is_mds),
    ])


def _cmd_dual(space, args) -> tuple[int, str]:
    return 0, format_code(dual_code(load_code(space, args.code)))


def _cmd_packrad(space, args) -> tuple[int, str]:
    code = load_code(space, args.code)
    brute = chain_ops.packing_radius(code)
    if not space.pomset.is_chain():
        return 0, _tsv([("bruteforce", brute)])
    formula = chain_ops.packing_radius_chain(code)
    return (0 if formula == brute else 1), _tsv([("bruteforce", brute),
                                                 ("formula", formula)])


def _cmd_duality4(space, args) -> tuple[int, str]:
    report = chain_ops.duality_equivalence(load_code(space, args.code))
    return (0 if report.all_equal else 1), _tsv([
        ("mds", report.mds_primal), ("perfect", report.perfect_primal),
        ("dual-perfect", report.perfect_dual), ("dual-mds", report.mds_dual),
        ("equivalent", report.all_equal),
    ])


def _aggregate(kind: str, pairs: list[tuple[int, int]]):
    """One selftest row for many (closed form, oracle) pairs of ideals:
    their number, both sums, and whether every pair agrees."""
    forms, oracles = zip(*pairs)
    return kind, f"{len(pairs)} ideals", sum(forms), sum(oracles), forms == oracles


def _witnessed(space, ideal) -> bool:
    """Whether the ideal's nonlinearity witness passes its own check."""
    try:
        nonlinearity_witness(space, ideal)
    except AssertionError:
        return False
    return True


def _cmd_selftest(space, args) -> tuple[int, str]:
    census = support_census(space)
    ball_sizes = down_set_sums(space, census)  # the census below each ideal
    ideals = space.pomset.ideals()
    rows = [_aggregate("sphere-size-ideal", [
        (i_sphere_size(space, ideal), census.get(ideal.counts.counts, 0))
        for ideal in ideals])]

    # per-radius sphere sizes and their running sums, the ball sizes, all
    # read off one closed-form distribution
    shells = weight_distribution(space).shells
    by_weight = weight_sums(space, census)
    for r, (f, o, f_ball, o_ball) in enumerate(zip(
            shells, by_weight, accumulate(shells), accumulate(by_weight))):
        rows += [("sphere-size", f"r={r}", f, o, f == o),
                 ("ball-size", f"r={r}", f_ball, o_ball, f_ball == o_ball)]

    for k in sorted(set(space.pi)):
        radii = range(space.max_lee + 1)
        shells_f = [block_shell_size(space.m, k, r) for r in radii]
        shells_o = [block_shell_size_enumerated(space.m, k, r) for r in radii]
        rows.append(("block-shells", f"k={k}", sum(shells_f), sum(shells_o),
                     shells_f == shells_o and sum(shells_f) == space.m**k))

    full = [ideal for ideal in ideals if ideal.is_full_count()]
    partial = [ideal for ideal in ideals if not ideal.is_full_count()]
    for ideal in full:
        f = i_ball_size(space, ideal)
        o = ball_sizes[ideal.counts.counts]
        rows.append(("full-count-ball", ideal.counts.literal(), f, o,
                     full_count_structure(space, ideal).ok and f == o))
    if partial:
        rows.append(_aggregate("partial-ball-size", [
            (i_ball_size(space, ideal), ball_sizes[ideal.counts.counts])
            for ideal in partial]))
        witnesses = sum(_witnessed(space, ideal) for ideal in partial)
        rows.append(("partial-ball-nonlinear", f"{witnesses} witnesses",
                     witnesses, len(partial), witnesses == len(partial)))

    if space.pomset.is_chain():
        for r, o in enumerate(by_weight):
            f = chain_ops.chain_shell_size(space, r)
            rows.append(("chain-shells", f"r={r}", f, o, f == o))

    return (0 if all(row[4] for row in rows) else 1), _tsv(
        (*row[:4], "ok" if row[4] else "FAIL") for row in rows)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pomsetblock",
        description="Block codes under the pomset metric on Z_m^N.",
        epilog=(
            "Space file: 'm M', 'blocks k1 ... kn', optional 'order i<j ...' "
            "(1-based; no order line means an antichain). Vector literal: N "
            "residues. Ideal literal: count/index tokens such as '3/1 1/3' "
            "('-' for empty). Code file: 'explicit' plus one vector per "
            "line, or 'linear' plus generator rows."
        ),
    )
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="work guard (default 10^7) on vectors scanned, code "
                             "words spanned or constructed, codeword pairs weighed, "
                             "enumerator coefficients and ideals walked (n each)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weight", help="block-metric weight of a vector")
    p.add_argument("space")
    p.add_argument("vector", help="vector literal, quoted")
    p.set_defaults(handler=_cmd_weight)

    p = sub.add_parser("ideals", help="list ideals of a given cardinality")
    p.add_argument("space")
    p.add_argument("--card", type=int, required=True)
    p.set_defaults(handler=_cmd_ideals)

    p = sub.add_parser("ballsize", help="cardinality of a ball")
    p.add_argument("space")
    p.add_argument("--ideal", help="ideal literal")
    p.add_argument("--radius", type=int)
    p.add_argument("--enumerate", action="store_true",
                   help="count by scanning rather than the closed form")
    p.add_argument("--center", help="vector literal (with --enumerate)")
    p.set_defaults(handler=_cmd_ballsize)

    p = sub.add_parser("wdist", help="weight distribution as TSV")
    p.add_argument("space")
    p.add_argument("--oracle", action="store_true",
                   help="full-space scan instead of the closed form")
    p.set_defaults(handler=_cmd_wdist)

    p = sub.add_parser("perfect", help="construct or verify perfect codes")
    p.add_argument("action", choices=("construct", "verify"))
    p.add_argument("space")
    p.add_argument("code", nargs="?", help="code file (verify only)")
    p.add_argument("--ideal", help="ideal literal")
    p.add_argument("--radius", type=int)
    p.set_defaults(handler=_cmd_perfect)

    p = sub.add_parser("mds", help="chain Singleton bound report")
    p.add_argument("action", choices=("check",))
    p.add_argument("space")
    p.add_argument("code")
    p.set_defaults(handler=_cmd_mds)

    p = sub.add_parser("dual", help="dual code, meeting in the middle")
    p.add_argument("space")
    p.add_argument("code")
    p.set_defaults(handler=_cmd_dual)

    p = sub.add_parser("packrad", help="packing radius (brute force; plus "
                                       "the closed form on chains)")
    p.add_argument("space")
    p.add_argument("code")
    p.set_defaults(handler=_cmd_packrad)

    p = sub.add_parser("duality4", help="four-way MDS/perfect duality report")
    p.add_argument("space")
    p.add_argument("code")
    p.set_defaults(handler=_cmd_duality4)

    p = sub.add_parser("selftest", help="closed forms vs enumeration on one space")
    p.add_argument("space")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _misuse(args) -> str | None:
    """What is wrong with a combination of options that argparse lets
    through, if anything; checked before any file is read."""
    for name, value in vars(args).items():
        # argparse without the '--' fix (3.10, 3.11, early 3.12) reads --name=-- as []
        if isinstance(value, list):
            return f"argument --{name}: expected one argument"
    verify = args.command == "perfect" and args.action == "verify"
    if verify and args.code is None:
        return "perfect verify needs a code file"
    if args.command == "perfect" and args.action == "construct" and args.ideal is None:
        return "perfect construct needs --ideal"
    if (verify or args.command == "ballsize") and (args.ideal is None) == (args.radius is None):
        return "give exactly one of --ideal or --radius"
    if args.command == "ballsize" and args.center is not None and not args.enumerate:
        return ("--center only makes sense with --enumerate; "
                "the closed forms are center independent")
    return None


def main(argv=None) -> int:
    """Run one subcommand. Every exit 2 is decided here, and stdout is
    written here only, once the handler has returned its whole text, so a
    run that exits 2 writes nothing to stdout."""
    args = build_parser().parse_args(argv)
    misuse = _misuse(args)
    if misuse is not None:
        _err(misuse)
        return 2
    try:
        status, text = args.handler(load_space(args.space, args.cap), args)
        sys.stdout.write(text)
    except (OSError, PomsetBlockError, ValueError) as exc:
        _err(str(exc))
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
