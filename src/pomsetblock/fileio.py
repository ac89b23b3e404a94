"""Line-oriented text formats for spaces, vectors, ideals, and codes.

Space file::

    m 5
    blocks 1 1
    order 1<2          # optional; absent means antichain

Vector literal: N space-separated residues. Multiset/ideal literal:
``count/index`` tokens (``-`` for empty). Code file: a directive line
``explicit`` (one vector per line) or ``linear`` (generator rows,
expanded to their span on load). ``#`` starts a comment anywhere.
"""

from __future__ import annotations

from .block_space import DEFAULT_CAP, BlockSpace, BlockVector
from .codes import Code
from .errors import ParseError
from .multiset import Multiset
from .pomset import Ideal, Pomset


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_space(text: str, cap: int = DEFAULT_CAP) -> BlockSpace:
    m = None
    blocks = None
    pairs: list[tuple[int, int]] = []
    for lineno, line in _content_lines(text):
        key, *rest = line.split()
        if (key == "m" and m is not None) or (key == "blocks" and blocks is not None):
            raise ParseError(f"repeated {key!r} line", lineno)
        if key == "m":
            if len(rest) != 1:
                raise ParseError("want exactly one modulus", lineno)
            try:
                m = int(rest[0])
            except ValueError:
                raise ParseError(f"bad modulus {rest[0]!r}", lineno) from None
            if m < 2:
                raise ParseError(f"modulus must be at least 2, got {m}", lineno)
        elif key == "blocks":
            try:
                blocks = tuple(int(t) for t in rest)
            except ValueError:
                raise ParseError("block lengths must be integers", lineno) from None
            if not blocks:
                raise ParseError("need at least one block length", lineno)
        elif key == "order":
            for tok in rest:
                lo, sep, hi = tok.partition("<")
                if not sep:
                    raise ParseError(f"bad order token {tok!r}; want i<j", lineno)
                try:
                    pairs.append((int(lo), int(hi)))
                except ValueError:
                    raise ParseError(f"bad order token {tok!r}", lineno) from None
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if m is None:
        raise ParseError("missing 'm' line")
    if blocks is None:
        raise ParseError("missing 'blocks' line")
    try:
        pomset = Pomset(len(blocks), m // 2, pairs)
        return BlockSpace(m, pomset, blocks, cap)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_space(space: BlockSpace) -> str:
    lines = [
        f"m {space.m}",
        "blocks " + " ".join(str(k) for k in space.pi),
    ]
    covers = space.pomset.cover_pairs()
    if covers:
        lines.append("order " + " ".join(f"{i}<{j}" for i, j in covers))
    return "\n".join(lines) + "\n"


def parse_vector(space: BlockSpace, text: str) -> BlockVector:
    toks = text.split()
    if len(toks) != space.N:
        raise ParseError(f"expected {space.N} coordinates, got {len(toks)}")
    try:
        return space.vector(tuple(int(t) for t in toks))
    except ValueError:
        raise ParseError(f"bad vector literal {text!r}") from None


def parse_ideal(space: BlockSpace, text: str) -> Ideal:
    return Ideal(space.pomset, Multiset.parse(text, space.n, space.max_lee))


def parse_code(space: BlockSpace, text: str) -> Code:
    """Parse a code file; a ``linear`` file is expanded to its span, which
    may hold at most the space's cap of words."""
    directive = None
    rows: list[BlockVector] = []
    for lineno, line in _content_lines(text):
        if directive is None:
            if line not in ("explicit", "linear"):
                raise ParseError(
                    f"first line must be 'explicit' or 'linear', got {line!r}",
                    lineno,
                )
            directive = line
            continue
        try:
            rows.append(parse_vector(space, line))
        except ParseError as exc:
            raise ParseError(str(exc), lineno) from None
    if directive is None:
        raise ParseError("empty code file")
    if not rows:
        raise ParseError("code file lists no vectors")
    if directive == "linear":
        return Code.from_generators(space, rows)
    return Code(space, rows)


def format_code(code: Code) -> str:
    lines = ["explicit"]
    lines.extend(" ".join(map(str, w)) for w in code.words)
    return "\n".join(lines) + "\n"


def load_space(path, cap: int = DEFAULT_CAP) -> BlockSpace:
    with open(path, encoding="utf-8") as fh:
        return parse_space(fh.read(), cap)


def load_code(space: BlockSpace, path) -> Code:
    with open(path, encoding="utf-8") as fh:
        return parse_code(space, fh.read())
