"""Independent checks of `pomsetblock` CLI output.

Nothing here imports `pomsetblock`: spaces and codes are re-read from
their files and every expected value is recomputed from the definitions.

* Weight distributions and radius balls come from the weight enumerator
  summed over the set ideals J of the block poset,
      sum_J  prod_{i in J - Max J} m^{k_i} x^h  *  prod_{i in Max J} (B_i(x) - 1),
  where B_i(x) counts the blocks of Z_m^{k_i} by maximum Lee weight, found
  by scanning Z_m^{k_i} directly.
* Ideal balls are products of per-block counts of entries of Lee weight
  at most the ideal's count.
* Perfectness is a tally of codeword translates of the zero-centred ball
  over flat indices; every vector must be hit exactly once.

`check(job, stdout, workdir)` returns a list of problems, empty when the
output of one CLI job is right.
"""

from __future__ import annotations

import functools
from itertools import product


class Space:
    """Z_m^N with blocks of lengths ``blocks`` ordered by ``below``.

    Block indices are 0-based here; ``below[j]`` is the set of blocks
    strictly below block j (transitively closed).
    """

    def __init__(self, m: int, blocks, pairs):
        self.m = m
        self.h = m // 2
        self.blocks = tuple(blocks)
        self.n = len(self.blocks)
        self.N = sum(self.blocks)
        below = [set() for _ in range(self.n)]
        for i, j in pairs:
            below[j - 1].add(i - 1)
        for k in range(self.n):  # Warshall closure
            for b in below:
                if k in b:
                    b |= below[k]
        self.below = tuple(frozenset(b) for b in below)
        offsets = [0]
        for k in self.blocks:
            offsets.append(offsets[-1] + k)
        self.offsets = tuple(offsets)
        self.top = self.n * self.h

    def dual(self) -> Space:
        """Same blocks, order reversed."""
        pairs = [(i + 1, j + 1) for i in range(self.n) for j in self.below[i]]
        return Space(self.m, self.blocks, pairs)

    def is_chain(self) -> bool:
        return all(i in self.below[j] or j in self.below[i]
                   for i in range(self.n) for j in range(i + 1, self.n))

    def chain_order(self) -> list[int]:
        """Blocks bottom first (for a chain, |below| is the position)."""
        return sorted(range(self.n), key=lambda i: len(self.below[i]))

    # ----- weights -----------------------------------------------------------

    def profile(self, v) -> tuple[int, ...]:
        """Maximum Lee weight of each block of ``v``."""
        m, o = self.m, self.offsets
        return tuple(max(min(x, m - x) for x in v[o[i]:o[i + 1]])
                     for i in range(self.n))

    def closure_weight(self, profile) -> int:
        """Cardinality of the ideal generated by a block profile."""
        gen = list(profile)
        for i, c in enumerate(profile):
            if c:
                for j in self.below[i]:
                    gen[j] = self.h
        return sum(gen)

    def weight(self, v) -> int:
        return self.closure_weight(self.profile(v))

    def poset_weight(self, v) -> int:
        o = self.offsets
        root = {i for i in range(self.n) if any(v[o[i]:o[i + 1]])}
        return len(root.union(*(self.below[i] for i in root)))

    # ----- set ideals --------------------------------------------------------

    def down_sets(self) -> list[frozenset[int]]:
        out = []
        for mask in range(1 << self.n):
            s = frozenset(i for i in range(self.n) if mask >> i & 1)
            if all(self.below[i] <= s for i in s):
                out.append(s)
        return out

    def maximal(self, ideal) -> frozenset[int]:
        return frozenset(i for i in ideal
                         if not any(i in self.below[j] for j in ideal))


def read_space(path) -> Space:
    m = blocks = None
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, *rest = line.split("#", 1)[0].split() or [None]
            if key == "m":
                m = int(rest[0])
            elif key == "blocks":
                blocks = [int(t) for t in rest]
            elif key == "order":
                pairs += [tuple(int(x) for x in tok.split("<")) for tok in rest]
    return Space(m, blocks, pairs)


def parse_vector(space: Space, text: str) -> tuple[int, ...]:
    v = tuple(int(t) % space.m for t in text.split())
    if len(v) != space.N:
        raise ValueError(f"vector {text!r} has {len(v)} coordinates, want {space.N}")
    return v


def parse_ideal(space: Space, text: str) -> tuple[int, ...]:
    """Counts of a ``count/index`` literal (``-`` is empty)."""
    counts = [0] * space.n
    for tok in text.split():
        if tok != "-":
            c, i = tok.split("/")
            counts[int(i) - 1] = int(c)
    return tuple(counts)


def format_ideal(counts) -> str:
    return " ".join(f"{c}/{i}" for i, c in enumerate(counts, 1) if c) or "-"


def is_ideal(space: Space, counts) -> bool:
    return all(counts[j] == space.h
               for i, c in enumerate(counts) if c for j in space.below[i])


def span(m: int, rows) -> set[tuple[int, ...]]:
    """Z_m-span of ``rows`` by closure under adding a row."""
    zero = (0,) * len(rows[0])
    words, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for w in frontier:
            for g in rows:
                s = tuple((a + b) % m for a, b in zip(w, g))
                if s not in words:
                    words.add(s)
                    nxt.append(s)
        frontier = nxt
    return words


def read_code(space: Space, path) -> tuple[list[tuple[int, ...]], bool]:
    """Sorted distinct codewords and whether the file was ``linear``."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    rows = [parse_vector(space, ln) for ln in lines[1:]]
    linear = lines[0] == "linear"
    return sorted(span(space.m, rows) if linear else set(rows)), linear


# ----- counting ----------------------------------------------------------------


@functools.cache
def block_lists(m: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Blocks of Z_m^k grouped by maximum Lee weight, by a direct scan."""
    groups = [[] for _ in range(m // 2 + 1)]
    for b in product(range(m), repeat=k):
        groups[max(min(x, m - x) for x in b)].append(b)
    return tuple(tuple(g) for g in groups)


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def weight_enumerator(space: Space) -> list[int]:
    """A_0..A_top: the number of vectors of each block-metric weight."""
    m, h = space.m, space.h
    total = [0] * (space.top + 1)
    for ideal in space.down_sets():
        top = space.maximal(ideal)
        term = [1]
        for i in ideal - top:
            term = poly_mul(term, [0] * h + [m ** space.blocks[i]])
        for i in top:
            term = poly_mul(term, [0] + [len(g) for g in
                                         block_lists(m, space.blocks[i])[1:]])
        for r, a in enumerate(term):
            total[r] += a
    return total


def ideal_count_poly(space: Space) -> list[int]:
    """Number of (multiset) ideals of each cardinality: the maximal
    elements of the root set take counts 1..h, the others h."""
    h = space.h
    total = [0] * (space.top + 1)
    for ideal in space.down_sets():
        top = space.maximal(ideal)
        term = [0] * (h * len(ideal - top)) + [1]
        for _ in top:
            term = poly_mul(term, [0] + [1] * h)
        for r, a in enumerate(term):
            total[r] += a
    return total


def distinct_ideals(space: Space) -> int:
    return sum(space.h ** len(space.maximal(j)) for j in space.down_sets())


def ideal_ball_size(space: Space, counts) -> int:
    m = space.m
    total = 1
    for c, k in zip(counts, space.blocks):
        total *= sum(1 for x in range(m) if min(x, m - x) <= c) ** k
    return total


# ----- balls and perfectness -----------------------------------------------------


def ideal_ball(space: Space, counts) -> list[tuple[int, ...]]:
    """Zero-centred ideal ball: block i has every entry of Lee weight <= c_i."""
    per_block = [[b for g in block_lists(space.m, k)[:c + 1] for b in g]
                 for k, c in zip(space.blocks, counts)]
    return [sum(bs, ()) for bs in product(*per_block)]


def radius_ball(space: Space, r: int) -> list[tuple[int, ...]]:
    """Zero-centred radius ball, block profile by block profile."""
    lists = [block_lists(space.m, k) for k in space.blocks]
    out = []
    for prof in product(range(space.h + 1), repeat=space.n):
        if space.closure_weight(prof) <= r:
            out.extend(sum(bs, ()) for bs in
                       product(*(lists[i][c] for i, c in enumerate(prof))))
    return out


def flat_index(v, m: int) -> int:
    idx = 0
    for x in v:
        idx = idx * m + x
    return idx


def tally(space: Space, words, ball) -> tuple[bool, bool]:
    """(disjoint, covering) for the translates ``c + ball`` of the codewords."""
    m = space.m
    hits = bytearray(m ** space.N)
    for c in words:
        for b in ball:
            idx = flat_index([(x + y) % m for x, y in zip(c, b)], m)
            if hits[idx] < 2:
                hits[idx] += 1
    return hits.count(2) == 0, hits.count(0) == 0


def in_ball(space: Space, center, v, ideal=None, radius=None) -> bool:
    d = tuple((a - b) % space.m for a, b in zip(v, center))
    if ideal is not None:
        return all(p <= c for p, c in zip(space.profile(d), ideal))
    return space.weight(d) <= radius


def min_distance(space: Space, words, linear: bool, metric) -> int:
    """Least ``metric`` weight of a difference of distinct codewords."""
    m = space.m
    if linear:
        return min(metric(w) for w in words if any(w))
    return min(metric(tuple((a - b) % m for a, b in zip(u, v)))
               for i, u in enumerate(words) for v in words[i + 1:])


def ceil_log(m: int, size: int) -> int:
    q = 0
    while m ** q < size:
        q += 1
    return q


def singleton(space: Space, words, linear: bool) -> dict:
    """The chain Singleton report, recomputed from codeword differences."""
    order = space.chain_order()
    d = min_distance(space, words, linear, space.weight)
    r = (d - 1) // space.h
    prefix = sum(space.blocks[i] for i in order[:r])
    rhs = space.N - ceil_log(space.m, len(words))
    return {"min-distance": d, "prefix-blocks": r, "prefix-length": prefix,
            "bound": rhs, "mds": prefix == rhs}


def chain_prefix_ideal(space: Space, full: int) -> tuple[int, ...]:
    """Full count on the ``full`` lowest chain blocks."""
    counts = [0] * space.n
    for i in space.chain_order()[:full]:
        counts[i] = space.h
    return tuple(counts)


def dual_words(space: Space, words) -> list[tuple[int, ...]]:
    """Every vector orthogonal to all ``words``, by scanning the space."""
    m = space.m
    return [v for v in product(range(m), repeat=space.N)
            if all(sum(a * b for a, b in zip(v, w)) % m == 0 for w in words)]


def duality(space: Space, words) -> dict:
    """The four statements of the chain duality equivalence, each
    evaluated on its own (uniform blocks, |C| = m^q, k | q)."""
    k = space.blocks[0]
    q = ceil_log(space.m, len(words))
    ideal = chain_prefix_ideal(space, space.n - q // k)
    dspace = space.dual()
    dwords = dual_words(space, words)
    comp = tuple(space.h - c for c in ideal)
    return {
        "mds": singleton(space, words, True)["mds"],
        "perfect": all(tally(space, words, ideal_ball(space, ideal))),
        "dual-perfect": all(tally(dspace, dwords, ideal_ball(dspace, comp))),
        "dual-mds": singleton(dspace, dwords, True)["mds"],
    }


# ----- job verdicts and output checks ------------------------------------------------


def parse_argv(argv) -> tuple[list[str], dict]:
    """Positional arguments and ``--option`` values of a CLI job."""
    pos, opts = [], {}
    it = iter(argv)
    for tok in it:
        if tok in ("--enumerate", "--oracle"):
            opts[tok[2:]] = True
        elif tok.startswith("--"):
            opts[tok[2:]] = next(it)
        else:
            pos.append(tok)
    return pos, opts


def job_files(argv) -> list[str]:
    """The space file and, if the job reads one, the code file."""
    pos, _ = parse_argv(argv)
    return pos[2:] if pos[0] in ("perfect", "mds") else pos[1:]


def _read(argv, workdir):
    """The job's space, and its codewords and ``linear`` flag if any."""
    space_file, *code_file = job_files(argv)
    space = read_space(f"{workdir}/{space_file}")
    if not code_file:
        return space, None, None
    words, linear = read_code(space, f"{workdir}/{code_file[0]}")
    return space, words, linear


def _ball(space, opts):
    if "ideal" in opts:
        return ideal_ball(space, parse_ideal(space, opts["ideal"]))
    return radius_ball(space, int(opts["radius"]))


def expected_exit(argv, workdir) -> int:
    """The exit code the CLI must give, from the oracles: 1 when the
    property a command tests fails, 0 otherwise."""
    pos, opts = parse_argv(argv)
    cmd = pos[0]
    if cmd not in ("perfect", "mds", "duality4") or pos[1] == "construct":
        return 0
    space, words, linear = _read(argv, workdir)
    if cmd == "perfect":
        ok = all(tally(space, words, _ball(space, opts)))
    elif cmd == "mds":
        ok = singleton(space, words, linear)["mds"]
    else:
        ok = len(set(duality(space, words).values())) == 1
    return 0 if ok else 1


def _rows(stdout: str) -> list[list[str]]:
    return [line.split("\t") for line in stdout.splitlines()]


def _kv(stdout: str) -> dict[str, str]:
    return {row[0]: row[1] if len(row) > 1 else "" for row in _rows(stdout)}


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def check(argv, stdout: str, workdir) -> list[str]:
    """Problems with one job's stdout; empty when it is right."""
    pos, opts = parse_argv(argv)
    cmd = pos[0]
    action = pos[1] if cmd in ("perfect", "mds") else None
    space, words, linear = _read(argv, workdir)
    problems: list[str] = []

    def want(cond, what):
        if not cond:
            problems.append(what)

    if cmd == "wdist":
        dist = weight_enumerator(space)
        text = "".join(f"{r}\t{a}\n" for r, a in enumerate(dist))
        want(stdout == text + f"# total {space.m ** space.N}\n",
             "weight distribution differs from the enumerator")
    elif cmd == "ballsize":
        if "ideal" in opts:
            size = ideal_ball_size(space, parse_ideal(space, opts["ideal"]))
        else:
            size = sum(weight_enumerator(space)[:int(opts["radius"]) + 1])
        want(stdout == f"{size}\n", f"ball size {stdout.strip()!r} != {size}")
    elif cmd == "ideals":
        card = int(opts["card"])
        lines = stdout.splitlines()
        got = [parse_ideal(space, ln) for ln in lines]
        want(len(set(lines)) == len(lines), "repeated ideal line")
        want(all(format_ideal(c) == ln for c, ln in zip(got, lines)),
             "malformed ideal literal")
        want(all(is_ideal(space, c) and sum(c) == card
                 and all(0 <= x <= space.h for x in c) for c in got),
             "a line is not a down-closed ideal of the asked cardinality")
        count = ideal_count_poly(space)[card]
        want(len(lines) == count, f"{len(lines)} ideals, the enumerator says {count}")
    elif cmd == "perfect" and action == "verify":
        problems += _check_verify(space, words, opts, stdout)
    elif cmd == "perfect":
        ideal = parse_ideal(space, opts["ideal"])
        lines = stdout.splitlines()
        got = [parse_vector(space, ln) for ln in lines[1:]]
        root = [i for i, c in enumerate(ideal) if c]
        o = space.offsets
        root_len = sum(space.blocks[i] for i in root)
        want(lines[0] == "explicit", "construct output is not a code file")
        want(len(set(got)) == len(got) == space.m ** (space.N - root_len),
             "constructed code has the wrong size or repeats a word")
        want(all(not any(v[o[i]:o[i + 1]]) for v in got for i in root),
             "a constructed word is nonzero on a root block")
        want(all(tally(space, got, ideal_ball(space, ideal))),
             "constructed code is not perfect")
    elif cmd == "packrad":
        h = space.h
        d = min_distance(space, words, False, space.poset_weight)
        radius = h * (d - 1)
        want(stdout == f"bruteforce\t{radius}\nformula\t{radius}\n",
             f"packing radius output {stdout!r}, want {radius} twice")
    elif cmd == "dual":
        lines = stdout.splitlines()
        got = [parse_vector(space, ln) for ln in lines[1:]]
        m = space.m
        want(lines[0] == "explicit", "dual output is not a code file")
        want(len(set(got)) == len(got), "dual code repeats a word")
        want(len(got) * len(words) == m ** space.N, "|C| |C-perp| != m^N")
        want(all(sum(a * b for a, b in zip(u, w)) % m == 0
                 for u in got for w in words),
             "a dual word is not orthogonal to every codeword")
    elif cmd == "mds":
        rep = singleton(space, words, False)
        kv = _kv(stdout)
        want(rep["prefix-length"] <= rep["bound"], "Singleton bound fails")
        for key, val in rep.items():
            shown = _bool(val) if isinstance(val, bool) else str(val)
            want(kv.get(key) == shown, f"{key} {kv.get(key)!r}, want {shown}")
    elif cmd == "duality4":
        rep = duality(space, words)
        rep["equivalent"] = len(set(rep.values())) == 1
        kv = _kv(stdout)
        for key, val in rep.items():
            want(kv.get(key) == _bool(val), f"{key} {kv.get(key)!r}, want {_bool(val)}")
    elif cmd == "selftest":
        problems += _check_selftest(space, stdout)
    else:
        problems.append(f"no check for {cmd!r}")
    return problems


def _check_verify(space, words, opts, stdout) -> list[str]:
    problems = []
    ideal = parse_ideal(space, opts["ideal"]) if "ideal" in opts else None
    radius = int(opts["radius"]) if "radius" in opts else None
    disjoint, covering = tally(space, words, _ball(space, opts))
    kv = _kv(stdout)
    rows = {row[0]: row[1:] for row in _rows(stdout)}
    if kv.get("disjoint") != _bool(disjoint):
        problems.append(f"disjoint {kv.get('disjoint')!r}, tally says {disjoint}")
    if kv.get("covering") != _bool(covering):
        problems.append(f"covering {kv.get('covering')!r}, tally says {covering}")
    code = set(words)
    if disjoint == ("overlap" in rows):
        problems.append("an overlap line must appear exactly when the balls are not disjoint")
    elif not disjoint:
        v, c1, c2 = (parse_vector(space, t) for t in rows["overlap"])
        if not (c1 != c2 and c1 in code and c2 in code
                and in_ball(space, c1, v, ideal, radius)
                and in_ball(space, c2, v, ideal, radius)):
            problems.append("overlap witness is not in two codeword balls")
    if covering == ("uncovered" in rows):
        problems.append("an uncovered line must appear exactly when the balls do not cover")
    elif not covering:
        v = parse_vector(space, rows["uncovered"][0])
        if any(in_ball(space, c, v, ideal, radius) for c in words):
            problems.append("uncovered witness lies in a codeword ball")
    return problems


def _check_selftest(space, stdout) -> list[str]:
    problems = []
    dist = weight_enumerator(space)
    prefix = [sum(dist[:r + 1]) for r in range(len(dist))]
    seen_top = False
    for row in _rows(stdout):
        if len(row) != 5 or row[4] != "ok":
            problems.append(f"selftest row {row!r} is not ok")
            continue
        name, inst, formula, oracle = row[0], row[1], row[2], row[3]
        if inst.startswith("r="):
            r = int(inst[2:])
            truth = {"sphere-size": dist, "weight-shells": dist,
                     "chain-shells": dist, "ball-size": prefix}.get(name)
            if truth is not None and not formula == oracle == str(truth[r]):
                problems.append(f"{name} {inst}: {formula}/{oracle}, want {truth[r]}")
            if name == "ball-size" and r == space.top:
                seen_top = formula == oracle == str(space.m ** space.N)
    if not seen_top:
        problems.append("no top-radius ball row equal to m^N")
    return problems
