"""Write the benchmark's input files for one seed.

    python3 perfbench/gen.py --seed 0 --out perfbench/inputs

makes one directory per workload under ``--out`` with space files
(``*.space``), code files (``*.code``) and ``jobs.json``: the CLI argument
lists of one pass, in order, each with the exit code the oracles expect.
Paths in the argument lists are relative to the workload directory.

The seed draws the random parts: ideals, centres, and in code-scans the
block labels of each space (a random permutation, the order carried
along), the root part of each perfect code, the redundant generator rows
and the words of the packing-radius code. Sizes, order shapes, radii and
cardinalities are fixed, so a pass does about the same work on every
seed; closed-forms and selftest-oracles keep their labels, because there
the labelling changes the path of ideal enumeration and so its cost. The
files under ``perfbench/inputs`` are this script's output for seed 0.
"""

from __future__ import annotations

import argparse
import json
import random
from itertools import product
from pathlib import Path

import oracles

WORKLOADS = ("closed-forms", "code-scans", "selftest-oracles")


def chain(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


class Workload:
    """Writes one workload's files; block labels are 1-based as in the
    space-file format, and the spaces below are given in unpermuted labels."""

    def __init__(self, out: Path, rng: random.Random, relabel: bool):
        self.dir = out
        self.rng = rng
        self.relabel = relabel
        self.jobs: list[dict] = []
        out.mkdir(parents=True, exist_ok=True)

    def space(self, name, m, blocks, pairs):
        """Write ``name.space``, relabelled if the workload says so; returns
        the file name, the parsed space and the label map old -> new (both
        1-based)."""
        n = len(blocks)
        new = list(range(1, n + 1))
        if self.relabel:
            self.rng.shuffle(new)
        label = dict(zip(range(1, n + 1), new))
        lengths = [0] * n
        for i, k in enumerate(blocks, 1):
            lengths[label[i] - 1] = k
        lines = [f"m {m}", "blocks " + " ".join(map(str, lengths))]
        if pairs:
            lines.append("order " + " ".join(f"{label[i]}<{label[j]}"
                                             for i, j in pairs))
        fname = f"{name}.space"
        (self.dir / fname).write_text("\n".join(lines) + "\n")
        return fname, oracles.read_space(self.dir / fname), label

    def code(self, name, space, rows, linear=False) -> str:
        fname = f"{name}.code"
        body = "".join(" ".join(map(str, r)) + "\n" for r in rows)
        (self.dir / fname).write_text(("linear\n" if linear else "explicit\n") + body)
        return fname

    def job(self, *argv):
        argv = [str(a) for a in argv]
        self.jobs.append({"argv": argv,
                          "exit": oracles.expected_exit(argv, self.dir)})

    def write_jobs(self, name, seed):
        doc = {"workload": name, "seed": seed, "jobs": self.jobs}
        (self.dir / "jobs.json").write_text(json.dumps(doc, indent=1) + "\n")

    # ----- random parts ---------------------------------------------------------

    def ideal(self, space) -> str:
        """A random nonempty ideal literal."""
        rng = self.rng
        while True:
            pick = {i for i in range(space.n) if rng.random() < 0.5}
            down = pick.union(*(space.below[i] for i in pick))
            if down:
                break
        top = space.maximal(down)
        counts = [0] * space.n
        for i in down:
            counts[i] = rng.randint(1, space.h) if i in top else space.h
        return oracles.format_ideal(counts)

    def vector(self, space) -> str:
        return " ".join(str(self.rng.randrange(space.m)) for _ in range(space.N))

    def random_words(self, space, size):
        words = set()
        while len(words) < size:
            words.add(tuple(self.rng.randrange(space.m) for _ in range(space.N)))
        return sorted(words)

    def transversal(self, space, root, linear=False, redundant=0):
        """A perfect code for the full-count ideal on the blocks ``root``
        (0-based, down-closed): the free coordinates run over all of
        Z_m^f, the root coordinates are a random function of them (a
        random linear map when ``linear``). Returns explicit words, or
        generator rows with ``redundant`` extra random combinations."""
        m, rng = space.m, self.rng
        inside, free = split(space, root)
        if not linear:
            words = []
            for y in product(range(m), repeat=len(free)):
                w = [0] * space.N
                for x, val in zip(free, y):
                    w[x] = val
                for x in inside:
                    w[x] = rng.randrange(m)
                words.append(w)
            return words
        basis = []
        for f in free:
            row = [0] * space.N
            row[f] = 1
            for x in inside:
                row[x] = rng.randrange(m)
            basis.append(row)
        rows = list(basis)
        for _ in range(redundant):
            coeffs = [rng.randrange(m) for _ in basis]
            rows.append([sum(a * b[x] for a, b in zip(coeffs, basis)) % m
                         for x in range(space.N)])
        rng.shuffle(rows)
        return rows

    def defect(self, space, root, words):
        """An explicit transversal made non-perfect: the word of the ball
        around 0 moves into the coset of the first vector outside that
        ball, so 0 is uncovered and that vector is covered twice. Both
        witnesses come early in the scan whatever the seed."""
        inside, free = split(space, root)
        last = max(free)
        c0 = next(c for c in words if not any(c[x] for x in free))
        c1 = next(c for c in words if c[last] == 1
                  and not any(c[x] for x in free if x != last))
        moved = list(c1)
        while moved == c1:
            for x in inside:
                moved[x] = self.rng.randrange(space.m)
        return [c for c in words if c is not c0] + [moved]


def split(space, root) -> tuple[list[int], list[int]]:
    """Flat coordinates inside the blocks ``root`` and outside them."""
    o = space.offsets
    inside = [x for i in sorted(root) for x in range(o[i], o[i + 1])]
    return inside, [x for x in range(space.N) if x not in inside]


def prefix_literal(space, full: int) -> str:
    return oracles.format_ideal(oracles.chain_prefix_ideal(space, full))


def closed_forms(w: Workload):
    """Spaces far beyond enumeration; only ideal enumeration and the
    per-ideal products run. Chains and the wide order have few ideals, so
    their jobs take about an interpreter start; the antichain and the
    mixed order carry the work, with nine of the seventeen jobs taking over
    0.3 s so that the median job is one of theirs. The antichain's top
    radius (32) is left out: that one job takes longer than the rest of the
    pass together."""
    anti, space, _ = w.space("antichain-m9-n8", 9, [1] * 8, [])
    w.job("wdist", anti)
    for r in (8, 10, 12):
        w.job("ballsize", anti, "--radius", r)
    w.job("ballsize", anti, "--ideal", w.ideal(space))
    w.job("ideals", anti, "--card", 10)
    mixed = w.space("mixed-m8-n10", 8, [1, 2, 1, 2, 1, 1, 2, 1, 1, 2],
                    [(1, 3), (2, 3), (3, 5), (4, 6), (6, 7), (8, 9)])[0]
    w.job("wdist", mixed)
    for r in (10, 12, 17, 40):
        w.job("ballsize", mixed, "--radius", r)
    for name, m, blocks, pairs, top, card in [
        ("wide-m7", 7, [2, 3, 4, 4, 3, 2], [(1, 2), (2, 4), (5, 6)], 18, 9),
        ("chain-m11-n10", 11, [1] * 10, chain(10), 50, 23),
    ]:
        f = w.space(name, m, blocks, pairs)[0]
        w.job("wdist", f)
        w.job("ballsize", f, "--radius", top)
        w.job("ideals", f, "--card", card)


def code_scans(w: Workload):
    """Enumerable chain and mixed spaces of 4^5 to 5^6 vectors; perfect
    codes force full scans, defective ones exit 1 early with a certificate."""
    f, s, _ = w.space("chain-m4-n6", 4, [1] * 6, chain(6))
    bottom3 = set(s.chain_order()[:3])
    words = w.transversal(s, bottom3)
    perfect = w.code("chain4-perfect64", s, words)
    defect = w.code("chain4-defect64", s, w.defect(s, bottom3, words))
    w.job("perfect", "verify", f, perfect, "--radius", 6)
    w.job("perfect", "verify", f, defect, "--ideal", prefix_literal(s, 3))
    w.job("perfect", "verify", f, defect, "--radius", 6)
    w.job("packrad", f, w.code("chain4-random32", s, w.random_words(s, 32)))
    w.job("perfect", "construct", f, "--ideal", prefix_literal(s, 2))

    f, s, _ = w.space("chain-m5-k2", 5, [2, 2, 2], chain(3))
    bottom2 = set(s.chain_order()[:2])
    lin = w.code("chain5-linear25-8rows", s, w.transversal(s, bottom2, True, 6), True)
    w.job("perfect", "verify", f, lin, "--ideal", prefix_literal(s, 2))
    w.job("mds", "check", f, lin)
    w.job("dual", f, lin)
    defect = w.defect(s, bottom2, w.transversal(s, bottom2))
    w.job("perfect", "verify", f, w.code("chain5-defect25", s, defect), "--radius", 4)
    w.job("perfect", "construct", f, "--ideal", prefix_literal(s, 1))

    f, s, label = w.space("mixed-m4", 4, [1, 1, 2, 1, 1], [(1, 2), (1, 3), (4, 5)])
    root = {label[i] - 1 for i in (1, 2, 4)}
    counts = [s.h if i in root else 0 for i in range(s.n)]
    w.job("perfect", "verify", f, w.code("mixed-perfect64", s, w.transversal(s, root)),
          "--ideal", oracles.format_ideal(counts))
    w.job("dual", f, w.code("mixed-linear256-6rows", s,
                            w.transversal(s, {label[1] - 1, label[2] - 1}, True, 2),
                            True))

    f, s, _ = w.space("chain-m4-n5", 4, [1] * 5, chain(5))
    w.job("duality4", f, w.code("chain4n5-linear4-2rows", s,
                                w.transversal(s, set(s.chain_order()[:4]), True, 1),
                                True))


def selftest_oracles(w: Workload):
    """Enumerable spaces of 1.5*10^4 to 5*10^4 vectors in three order
    shapes; every job runs a brute-force path. The radius ball at an
    explicit centre is a full scan, a second one on the five-element order
    making the median job a scan rather than an interpreter start."""
    for name, m, blocks, pairs, radii in [
        ("five-m7", 7, [1] * 5, [(1, 3), (2, 4), (2, 5)], (5, 9)),
        ("antichain-m5-k2", 5, [2, 2, 2], [], (3,)),
        ("mixed-m6-k2", 6, [2, 2, 2], [(1, 2)], (5,)),
    ]:
        f, space, _ = w.space(name, m, blocks, pairs)
        w.job("selftest", f)
        w.job("wdist", f, "--oracle")
        w.job("ballsize", f, "--ideal", w.ideal(space), "--enumerate")
        for r in radii:
            w.job("ballsize", f, "--radius", r, "--enumerate", "--center", w.vector(space))


BUILDERS = {"closed-forms": closed_forms, "code-scans": code_scans,
            "selftest-oracles": selftest_oracles}


def generate(seed: int, out: Path, names=WORKLOADS) -> None:
    for name in names:
        # one stream per workload, so a workload's inputs do not depend
        # on which other workloads were generated
        w = Workload(out / name, random.Random(f"{seed}/{name}"),
                     relabel=name == "code-scans")
        BUILDERS[name](w)
        w.write_jobs(name, seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.seed, args.out)


if __name__ == "__main__":
    main()
