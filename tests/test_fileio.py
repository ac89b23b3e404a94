"""Text formats: parsing, formatting, round trips, line-numbered errors."""

import pytest

from pomsetblock import (
    Code,
    Multiset,
    ParseError,
    chain_space,
    format_code,
    format_space,
    parse_code,
    parse_ideal,
    parse_space,
    parse_vector,
    space_with_order,
)


SPACE_TEXT = """\
# a two-block space
m 5
blocks 1 1
order 1<2
"""


class TestSpaceFiles:
    def test_parse(self):
        sp = parse_space(SPACE_TEXT)
        assert sp.m == 5 and sp.pi == (1, 1)
        assert sp.pomset.is_below(1, 2)

    def test_order_optional(self):
        sp = parse_space("m 6\nblocks 2 1\n")
        assert sp.pomset.is_antichain()

    def test_round_trip(self):
        for sp in (
            chain_space(5, (1, 1)),
            space_with_order(7, (2, 3, 4, 4, 3, 2), [(1, 2), (2, 4), (5, 6)]),
        ):
            assert parse_space(format_space(sp)) == sp

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_space("m 5\nblocks 1 1\nwat 3\n")
        assert exc.value.line == 3
        with pytest.raises(ParseError) as exc:
            parse_space("m five\nblocks 1\n")
        assert exc.value.line == 1

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_space("blocks 1 1\n")
        with pytest.raises(ParseError):
            parse_space("m 5\n")

    def test_modulus_below_two_is_named(self):
        with pytest.raises(ParseError) as exc:
            parse_space("m 1\nblocks 1\n")
        assert exc.value.line == 1 and "modulus" in str(exc.value)

    def test_repeated_modulus_line(self):
        with pytest.raises(ParseError) as exc:
            parse_space("m 5\nblocks 1 1\nm 7\n")
        assert exc.value.line == 3 and "'m'" in str(exc.value)

    def test_repeated_blocks_line(self):
        with pytest.raises(ParseError) as exc:
            parse_space("m 5\nblocks 1 1\n# again\nblocks 2\n")
        assert exc.value.line == 4 and "'blocks'" in str(exc.value)

    def test_construction_errors_become_parse_errors(self):
        with pytest.raises(ParseError):
            parse_space("m 5\nblocks 1 1\norder 1<3\n")


class TestVectorsAndIdeals:
    def test_vector(self):
        sp = parse_space(SPACE_TEXT)
        assert parse_vector(sp, "3 4").coords == (3, 4)
        with pytest.raises(ParseError):
            parse_vector(sp, "3")
        with pytest.raises(ParseError):
            parse_vector(sp, "3 x")

    def test_multiset_and_ideal(self):
        sp = parse_space(SPACE_TEXT)
        assert Multiset.parse("2/1", 2, 2).counts == (2, 0)
        assert parse_ideal(sp, "2/1").cardinality == 2
        assert parse_ideal(sp, "-").cardinality == 0


class TestCodeFiles:
    def test_explicit(self):
        sp = parse_space(SPACE_TEXT)
        code = parse_code(sp, "explicit\n0 0\n1 1\n")
        assert len(code) == 2

    def test_linear_expands_generators(self):
        sp = parse_space(SPACE_TEXT)
        code = parse_code(sp, "linear\n1 1\n")
        assert len(code) == 5 and code.linear

    def test_round_trip(self):
        sp = parse_space(SPACE_TEXT)
        code = Code.from_generators(sp, [(1, 2)])
        assert parse_code(sp, format_code(code)) == code

    def test_bad_directive_and_empty(self):
        sp = parse_space(SPACE_TEXT)
        with pytest.raises(ParseError):
            parse_code(sp, "wat\n0 0\n")
        with pytest.raises(ParseError):
            parse_code(sp, "")
        with pytest.raises(ParseError):
            parse_code(sp, "explicit\n")

    def test_vector_errors_carry_line_numbers(self):
        sp = parse_space(SPACE_TEXT)
        with pytest.raises(ParseError) as exc:
            parse_code(sp, "explicit\n0 0\n0\n")
        assert exc.value.line == 3
