"""Check the benchmark's oracles against the library's brute-force paths.

The oracles in oracles.py decide whether the CLI's output is right, so they
are checked in turn, on spaces small enough to enumerate, against
`pomsetblock`'s enumerators (`weight_distribution_enumerated`,
`i_ball_size_enumerated`, `i_ball`, `r_ball`, `verify_perfect`,
`dual_code`, `Code.from_generators`, the Singleton and duality reports) and
against `BlockVector.weight` vector by vector. Every benchmark run calls
`run`; it takes about a second.

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import random
import sys
from itertools import product
from pathlib import Path

import oracles

TINY = [
    (4, (1, 2), [(1, 2)]),
    (4, (1, 1, 1), []),
    (5, (1, 1, 1), [(1, 3)]),
    (6, (2, 1), []),
    (4, (1, 1, 1, 1), [(1, 3), (2, 4), (2, 3)]),
    (5, (1, 1, 1), [(1, 2), (2, 3)]),
    (4, (1, 1, 1, 1), [(1, 2), (2, 3), (3, 4)]),
]


def run(src: Path) -> list[str]:
    """Problems found; empty when every oracle agrees with the library."""
    sys.path.insert(0, str(src))
    import pomsetblock as pb

    problems = []
    rng = random.Random(0)
    for m, blocks, pairs in TINY:
        ours = oracles.Space(m, blocks, pairs)
        space = pb.space_with_order(m, blocks, pairs)
        zero = space.zero()
        tag = f"m={m} blocks={blocks} order={pairs}"

        def want(cond, what):
            if not cond:
                problems.append(f"selfcheck {tag}: {what}")

        vectors = list(space.vectors())
        want(all(ours.weight(v.coords) == v.weight()
                 and ours.poset_weight(v.coords) == v.poset_weight() for v in vectors),
             "weight differs from BlockVector.weight")
        want(oracles.weight_enumerator(ours)
             == list(pb.weight_distribution_enumerated(space).shells),
             "weight enumerator differs from the full-space scan")
        ideals = [c for c in product(range(ours.h + 1), repeat=ours.n)
                  if space.pomset.is_ideal(pb.Multiset(ours.n, ours.h, c))]
        by_card = [sum(1 for c in ideals if sum(c) == t) for t in range(ours.top + 1)]
        want(oracles.ideal_count_poly(ours) == by_card
             and oracles.distinct_ideals(ours) == len(ideals),
             "ideal counts differ from filtering by Pomset.is_ideal")
        for counts in ideals:
            ideal = pb.Ideal(space.pomset, pb.Multiset(ours.n, ours.h, counts))
            want(oracles.ideal_ball_size(ours, counts)
                 == pb.i_ball_size_enumerated(space, ideal)
                 and set(oracles.ideal_ball(ours, counts))
                 == {v.coords for v in pb.i_ball(zero, ideal)},
                 f"ideal ball {counts} differs")
        for r in range(ours.top + 1):
            want(set(oracles.radius_ball(ours, r)) == {v.coords for v in pb.r_ball(zero, r)},
                 f"radius ball {r} differs")

        # perfectness verdicts, on perfect and on random codes
        full = [c for c in ideals if all(x in (0, ours.h) for x in c)]
        codes = [[v.coords for v in pb.construct_perfect_full(
            space, pb.Ideal(space.pomset, pb.Multiset(ours.n, ours.h, c)))]
            for c in rng.sample(full, 2)]
        codes += [rng.sample([v.coords for v in vectors], rng.randint(2, 12))
                  for _ in range(2)]
        for words in codes:
            code = pb.Code(space, words)
            for counts in rng.sample(ideals, 2):
                cert = pb.verify_perfect(code, ideal=pb.Ideal(
                    space.pomset, pb.Multiset(ours.n, ours.h, counts)))
                want(oracles.tally(ours, words, oracles.ideal_ball(ours, counts))
                     == (cert.disjoint, cert.covering), f"ideal tally {counts} differs")
            r = rng.randrange(ours.top + 1)
            cert = pb.verify_perfect(code, radius=r)
            want(oracles.tally(ours, words, oracles.radius_ball(ours, r))
                 == (cert.disjoint, cert.covering), f"radius tally {r} differs")
            if len(code) > 1:
                want(oracles.min_distance(ours, sorted(set(words)), False,
                                          ours.poset_weight)
                     == code.min_distance("poset"), "poset distance differs")

        # span, dual, and on chains the Singleton and duality reports
        rows = [tuple(rng.randrange(m) for _ in range(ours.N)) for _ in range(2)]
        rows.append(tuple((a + 2 * b) % m for a, b in zip(*rows)))
        code = pb.Code.from_generators(space, rows)
        words = sorted(oracles.span(m, rows))
        want(words == sorted(code.coord_set), "span differs from Code.from_generators")
        want(sorted(oracles.dual_words(ours, words))
             == sorted(pb.dual_code(code).coord_set), "dual differs from dual_code")
        if ours.is_chain():
            report = pb.singleton_report(code)
            mine = oracles.singleton(ours, words, False)
            want((mine["min-distance"], mine["prefix-length"], mine["bound"],
                  mine["mds"]) == (report.d, report.prefix_len, report.rhs, report.is_mds),
                 "Singleton report differs")
            if len(set(blocks)) == 1:
                for gens in ([(1,) * ours.N], [rows[0]]):
                    code = pb.Code.from_generators(space, gens)
                    words = sorted(code.coord_set)
                    if len(words) != m ** oracles.ceil_log(m, len(words)):
                        continue
                    rep = pb.duality_equivalence(code)
                    want(oracles.duality(ours, words) == {
                        "mds": rep.mds_primal, "perfect": rep.perfect_primal,
                        "dual-perfect": rep.perfect_dual, "dual-mds": rep.mds_dual},
                        "duality report differs")
    return problems


if __name__ == "__main__":
    found = run(Path(__file__).resolve().parents[1] / "src")
    print("\n".join(found) or "selfcheck: every oracle agrees with the library")
    sys.exit(1 if found else 0)
