"""The CLI under fuzz: every subcommand, run in-process through main() with
a cap of 1000, on malformed space and code files and on integers up to
10^30 in size, ends in exit 0, 1 or 2, and an exit 2 prints exactly one
``pomsetblock: `` line on stderr and nothing on stdout.

Most spaces have at most 12 blocks, small enough that the scans fit the
cap and run; one in four has 500 to 1500 unit blocks, as an antichain or a
chain, where the cap and the bitmask orders must keep every path short.
Blocks stay at length 3 or less: the closed forms still raise m to a
block's length, which no cap bounds."""

import contextlib
import io
import tempfile
import time
from itertools import cycle, islice
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pomsetblock.cli import main

HUGE = 10**30
big = st.integers(-HUGE, HUGE)
moduli = st.one_of(st.integers(2, 9), st.integers(2, HUGE),
                   st.sampled_from([HUGE, HUGE + 1]))
junk = st.text(alphabet="0123456789 -/<#abmx\n", max_size=30)
# a literal of more entries than this tiles a few drawn values, which keeps
# a 1500-entry vector within hypothesis's data budget
TILED = 100


def tiled(length, values):
    """``length`` entries cycling through the drawn ``values``."""
    return list(islice(cycle(values), length))


@st.composite
def space_texts(draw):
    """A space file, its block count and its length; one in four is
    corrupted."""
    if draw(st.integers(0, 3)):
        m = draw(moduli)
        n = draw(st.one_of(st.integers(1, 4), st.integers(1, 12)))
        blocks = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                              max_size=4))
        # mostly upward pairs, so that most orders are acyclic
        pairs = [(i, j) if draw(st.integers(0, 7)) else (j, i)
                 for i, j in map(sorted, pairs) if i != j]
    else:
        m = draw(st.integers(2, 9))
        n = draw(st.integers(500, 1500))
        blocks = [1] * n
        pairs = [(i, i + 1) for i in range(1, n)] if draw(st.booleans()) else []
    lines = [f"m {m}", "blocks " + " ".join(map(str, blocks))]
    if pairs:
        lines.append("order " + " ".join(f"{i}<{j}" for i, j in pairs))
    if not draw(st.integers(0, 3)):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(junk)]
    return "\n".join(lines) + "\n", n, sum(blocks)


def vector_literals(N):
    """N residues, small or huge, and now and then one too few or many."""
    size = st.sampled_from([N] * 12 + [N + 1] + [N - 1] * (N > 1))
    entry = st.one_of(st.integers(-3, 9), big)
    if N > TILED:
        entries = st.tuples(size, st.lists(entry, min_size=1, max_size=3)).map(
            lambda kv: tiled(*kv))
    else:
        entries = size.flatmap(lambda k: st.lists(entry, min_size=k, max_size=k))
    return entries.map(lambda xs: " ".join(map(str, xs)))


def ideal_literals(n):
    if n > TILED:
        # counts on blocks 1..j, up to one past the last
        counts = st.lists(st.one_of(st.integers(0, 4), big), min_size=1, max_size=3)
        tokens = st.tuples(st.integers(0, n + 1), counts).map(
            lambda jv: [f"{c}/{i}" for i, c in enumerate(tiled(*jv), 1)])
    else:
        token = st.tuples(big, st.integers(0, n + 1)).map(lambda ci: f"{ci[0]}/{ci[1]}")
        tokens = st.lists(token, max_size=n)
    return st.one_of(st.just("-"), junk, tokens.map(" ".join))


@st.composite
def code_texts(draw, N):
    head = draw(st.sampled_from(["explicit", "linear", "explicit", "linear", "x"]))
    rows = draw(st.lists(vector_literals(N), min_size=1, max_size=4))
    return "\n".join([head, *rows]) + "\n"


@st.composite
def cases(draw):
    """A space file, a code file and the argv that reads them."""
    space, n, N = draw(space_texts())
    code = draw(code_texts(N))
    center = draw(vector_literals(N))
    ball = draw(st.one_of(ideal_literals(n).map(lambda s: [f"--ideal={s}"]),
                          big.map(lambda r: [f"--radius={r}"])))
    argv = draw(st.sampled_from([
        ["perfect", "verify", "{space}", "{code}", *ball],
        ["ideals", "{space}", f"--card={draw(big)}"],
        ["ballsize", "{space}", *ball],
        ["ballsize", "{space}", *ball, "--enumerate"],
        ["ballsize", "{space}", *ball, "--enumerate", f"--center={center}"],
        ["wdist", "{space}"],
        ["wdist", "{space}", "--oracle"],
        ["perfect", "construct", "{space}", f"--ideal={draw(ideal_literals(n))}"],
        ["weight", "{space}", center],
        ["mds", "check", "{space}", "{code}"],
        ["dual", "{space}", "{code}"],
        ["packrad", "{space}", "{code}"],
        ["duality4", "{space}", "{code}"],
        ["selftest", "{space}"],
    ]))
    return space, code, argv


# m = 10^30 + 1 with a full count on block 1 of two: block 2 has more
# residues than any list can hold
CONSTRUCT = (f"m {HUGE + 1}\nblocks 1 1\n", "explicit\n0 0\n",
             ["perfect", "construct", "{space}", f"--ideal={HUGE // 2}/1"])

# argparse without the "--" fix (3.10, 3.11, early 3.12) reads --ideal=--
# as an empty list, not a string
DASHES = ("\nm 2\nblocks 1 1 3 3\n", "explicit\n0 0 0 0 0 0 0 0\n",
          ["perfect", "construct", "{space}", "--ideal=--"])


def run(case):
    space, code, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{space}": Path(tmp, "f.space"), "{code}": Path(tmp, "f.code")}
        paths["{space}"].write_text(space)
        paths["{code}"].write_text(code)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["--cap", "1000", *[str(paths.get(a, a)) for a in argv]])
    return status, out.getvalue(), err.getvalue()


@given(cases())
@example(CONSTRUCT)
@example(DASHES)
@settings(max_examples=150, deadline=None)
def test_every_subcommand_exits_cleanly(case):
    status, out, err = run(case)
    assert status in (0, 1, 2)
    if status == 2:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("pomsetblock: ")


def test_construct_counts_residues_before_listing_them():
    started = time.perf_counter()
    status, out, err = run(CONSTRUCT)
    assert time.perf_counter() - started < 1
    assert (status, out) == (2, "")
    assert err == (f"pomsetblock: construction would emit {HUGE + 1} "
                   "codewords, above the cap 1000\n")
