"""End-to-end CLI checks, run in-process through main()."""

import random
import time
from math import comb
from types import SimpleNamespace

import pytest

from pomsetblock import Multiset, chain, cli
from pomsetblock.balls import weight_enumerator
from pomsetblock.cli import main


@pytest.fixture
def small(tmp_path):
    p = tmp_path / "small.space"
    p.write_text("m 5\nblocks 1 1\norder 1<2\n")
    return str(p)


@pytest.fixture
def wide(tmp_path):
    p = tmp_path / "wide.space"
    p.write_text("m 7\nblocks 2 3 4 4 3 2\norder 1<2 2<4 1<4 5<6\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWeight:
    def test_worked_example(self, capsys, wide):
        code, out, _ = run(
            capsys, "weight", wide, "0 0 0 0 0 0 0 0 0 0 1 0 1 0 0 0 2 0"
        )
        assert code == 0 and out.strip() == "12"

    def test_zero_vector(self, capsys, small):
        code, out, _ = run(capsys, "weight", small, "0 0")
        assert code == 0 and out.strip() == "0"

    def test_wrong_length_is_invalid_input(self, capsys, small):
        code, _, err = run(capsys, "weight", small, "0 0 0")
        assert code == 2 and "coordinates" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "weight", "/nonexistent.space", "0 0")
        assert code == 2 and err


class TestIdeals:
    def test_lists_all_of_a_cardinality(self, capsys, tmp_path):
        p = tmp_path / "five.space"
        p.write_text("m 7\nblocks 1 1 1 1 1\norder 1<3 2<4 2<5\n")
        code, out, _ = run(capsys, "ideals", str(p), "--card", "3")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 4
        assert sorted(lines) == sorted(["3/1", "3/2", "2/1 1/2", "1/1 2/2"])


    def test_cap_bounds_the_ideal_walk(self, capsys, tmp_path):
        # a 40-block ternary antichain has C(40, 20) ideals of cardinality 20,
        # which the walk counts at 40 each against the cap
        p = tmp_path / "anti40.space"
        p.write_text("m 3\nblocks" + " 1" * 40 + "\n")
        code, out, err = run(capsys, "--cap", "1000", "ideals", str(p), "--card", "20")
        assert (code, out) == (2, "")
        assert err == "pomsetblock: more than 25 ideals to enumerate\n"

    def test_cap_bounds_the_walk_before_a_tall_count_is_pushed(self, capsys, tmp_path):
        # at height 5*10^29 the first block could take any of 15 669 149
        # counts, each a stack entry, before a single ideal is yielded
        p = tmp_path / "tall.space"
        p.write_text(f"m {10**30 + 1}\nblocks 3 1 2 2\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "--cap", "1000", "ideals", str(p), "--card", "15669148")
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (2, "", "pomsetblock: more than 250 ideals to enumerate\n")


class TestBallsize:
    def test_formula_and_enumeration_agree(self, capsys, small):
        for extra in ([], ["--enumerate"], ["--enumerate", "--center", "3 1"]):
            code, out, _ = run(capsys, "ballsize", small, "--radius", "2", *extra)
            assert code == 0 and out.strip() == "5"

    @pytest.mark.parametrize("radius", ["5", "99", "-1"])
    def test_radius_out_of_range_on_every_path(self, capsys, small, radius):
        for extra in ([], ["--enumerate"], ["--enumerate", "--center", "3 1"]):
            code, out, err = run(capsys, "ballsize", small, "--radius", radius,
                                 *extra)
            assert (code, out) == (2, "")
            assert err == f"pomsetblock: radius {radius} outside 0..4\n"

    def test_ideal_ball(self, capsys, small):
        code, out, _ = run(capsys, "ballsize", small, "--ideal", "2/1 1/2")
        assert code == 0 and out.strip() == "15"

    def test_requires_one_parameter(self, capsys, small):
        code, _, err = run(capsys, "ballsize", small)
        assert code == 2

    def test_options_are_checked_before_the_space_file_is_read(self, capsys):
        code, out, err = run(capsys, "ballsize", "/nonexistent.space")
        assert (code, out) == (2, "")
        assert err == "pomsetblock: give exactly one of --ideal or --radius\n"

    def test_center_needs_enumerate(self, capsys, small):
        code, _, err = run(capsys, "ballsize", small, "--radius", "2",
                           "--center", "1 1")
        assert code == 2 and "center" in err

    def test_bad_ideal_literal(self, capsys, small):
        code, _, err = run(capsys, "ballsize", small, "--ideal", "1/2")
        assert code == 2  # {1/2} is not down-closed on the chain

    # each of the six paths, with its options as (flag, bad value, error,
    # good value) in the order they are checked, then the cap refusal
    # once all are good (None where the path has no cap to pass)
    RADIUS = ("--radius", "9", "radius 9 outside 0..4", "2")
    CENTER = ("--center", "1 2 3", "expected 2 coordinates, got 3", "1 2")
    IDEAL = ("--ideal", "1/2", "1/2 violates down-closure", "2/1")
    ENUMERATED = "space has 25 vectors, above the cap 0"

    @pytest.mark.parametrize("scan, options, capped", [
        (False, [RADIUS], "weight enumerator has 5 coefficients, above the cap 0"),
        (False, [IDEAL], None),
        (True, [RADIUS], ENUMERATED),
        (True, [IDEAL], ENUMERATED),
        (True, [RADIUS, CENTER], ENUMERATED),
        (True, [CENTER, IDEAL], ENUMERATED),
    ], ids=["radius", "ideal", "enumerate-radius", "enumerate-ideal",
            "center-radius", "center-ideal"])
    def test_errors_in_one_order_on_every_path(self, capsys, small, scan,
                                               options, capped):
        # step s leaves the options before s good and the rest bad
        head = ["ballsize", small] + ["--enumerate"] * scan
        for step, (_, _, error, _) in enumerate(options):
            argv = [a for i, (flag, bad, _, good) in enumerate(options)
                    for a in (flag, good if i < step else bad)]
            assert run(capsys, *head, *argv) == (2, "", f"pomsetblock: {error}\n")
        argv = [a for flag, _, _, good in options for a in (flag, good)]
        code, out, err = run(capsys, "--cap", "0", *head, *argv)
        if capped is None:
            assert (code, err) == (0, "")
        else:
            assert (code, out, err) == (2, "", f"pomsetblock: {capped}\n")


class TestWdist:
    def test_table_and_trailer(self, capsys, small):
        for extra in ([], ["--oracle"]):
            code, out, _ = run(capsys, "wdist", small, *extra)
            assert code == 0
            lines = out.strip().splitlines()
            assert lines[-1] == "# total 25"
            rows = [tuple(map(int, l.split("\t"))) for l in lines[:-1]]
            assert rows == [(0, 1), (1, 2), (2, 2), (3, 10), (4, 10)]


    def test_cap_bounds_the_set_ideal_walk(self, capsys, tmp_path):
        # a 12-block binary antichain has 2^12 = 4096 set ideals, which the
        # walk counts at 12 each against the cap
        p = tmp_path / "anti12.space"
        p.write_text("m 2\nblocks" + " 1" * 12 + "\n")
        code, out, err = run(capsys, "--cap", "1000", "wdist", str(p))
        assert (code, out) == (2, "")
        assert err == "pomsetblock: more than 83 ideals to enumerate\n"
        code, out, err = run(capsys, "--cap", "49152", "wdist", str(p))
        assert (code, err) == (0, "")
        assert out == "".join(f"{r}\t{comb(12, r)}\n" for r in range(13)) + "# total 4096\n"

    def test_a_shell_too_long_to_print_leaves_stdout_empty(self, capsys, tmp_path):
        # the one block's second shell, 2^15000 - 1, has more than the 4300
        # digits Python will print: the shell of weight 0 above it must not
        # reach stdout either
        p = tmp_path / "long.space"
        p.write_text("m 2\nblocks 15000\n")
        code, out, err = run(capsys, "wdist", str(p))
        assert (code, out) == (2, "")
        assert err.startswith("pomsetblock: ") and err.count("\n") == 1


def binary_space(tmp_path, n: int, chain: bool) -> str:
    """An n-block binary space of unit blocks, ordered as a chain or not at all."""
    p = tmp_path / f"{'chain' if chain else 'antichain'}{n}.space"
    order = "order" + "".join(f" {i}<{i + 1}" for i in range(1, n)) + "\n" if chain else ""
    p.write_text("m 2\nblocks" + " 1" * n + "\n" + order)
    return str(p)


class TestFifteenHundredBlocks:
    # nothing recurses once per block: each command ends, or is refused with
    # one line, but never dies with a RecursionError (exit 1)
    @pytest.mark.parametrize("chain", [True, False], ids=["chain", "antichain"])
    @pytest.mark.parametrize("argv", [["wdist"], ["ballsize", "--radius", "1"],
                                      ["ideals", "--card", "1"]], ids=str)
    def test_exit_0_or_2_with_one_line(self, capsys, tmp_path, chain, argv):
        code, out, err = run(capsys, argv[0], binary_space(tmp_path, 1500, chain), *argv[1:])
        assert code in (0, 2)
        if code == 2:
            assert out == "" and err.startswith("pomsetblock: ") and err.count("\n") == 1
        else:
            assert err == ""

    def test_chain_distribution(self, capsys, tmp_path):
        # weight r >= 1 puts the top nonzero block at r, with 2^(r-1) choices below
        code, out, err = run(capsys, "wdist", binary_space(tmp_path, 1500, True))
        assert (code, err) == (0, "")
        assert out == ("0\t1\n" + "".join(f"{r}\t{2 ** (r - 1)}\n" for r in range(1, 1501))
                       + f"# total {2 ** 1500}\n")


class TestHugeBlock:
    # one block of 10^7 or 10^8 ternary entries: each scan and construction
    # is refused by the cap before any power of 3 that large is taken
    @pytest.mark.parametrize("length", [10**7, 10**8])
    @pytest.mark.parametrize("command, options, counted", [
        (["wdist"], ["--oracle"], "space has {} vectors"),
        (["selftest"], [], "space has {} vectors"),
        (["ballsize"], ["--enumerate", "--ideal", "1/1"], "space has {} vectors"),
        (["perfect", "construct"], ["--ideal", "-"], "construction would emit {} codewords"),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
    def test_refused_with_one_line_in_bounded_time(self, capsys, tmp_path, length,
                                                   command, options, counted):
        p = tmp_path / "huge.space"
        p.write_text(f"m 3\nblocks {length}\n")
        start = time.perf_counter()
        code, out, err = run(capsys, *command, str(p), *options)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == f"pomsetblock: {counted.format(f'3^{length}')}, above the cap 10000000\n"


class TestPerfect:
    def test_construct_verify_round_trip(self, capsys, small, tmp_path):
        code, out, _ = run(capsys, "perfect", "construct", small, "--ideal", "2/1")
        assert code == 0
        codefile = tmp_path / "c.code"
        codefile.write_text(out)
        code, out, _ = run(capsys, "perfect", "verify", small, str(codefile),
                           "--ideal", "2/1")
        assert code == 0
        assert "disjoint\ttrue" in out and "covering\ttrue" in out

    def test_partial_construction(self, capsys, tmp_path):
        p = tmp_path / "nine.space"
        p.write_text("m 9\nblocks 1\n")
        code, out, _ = run(capsys, "perfect", "construct", str(p), "--ideal", "1/1")
        assert code == 0
        assert out.splitlines() == ["explicit", "0", "3", "6"]

    def test_divisibility_failure_prints_certificate(self, capsys, tmp_path):
        p = tmp_path / "seven.space"
        p.write_text("m 7\nblocks 1\n")
        code, out, _ = run(capsys, "perfect", "construct", str(p), "--ideal", "1/1")
        assert code == 1
        assert out.startswith("divisibility-fails")

    def test_verify_failure_exits_one_with_witness(self, capsys, small, tmp_path):
        codefile = tmp_path / "bad.code"
        codefile.write_text("explicit\n0 0\n1 0\n")
        code, out, _ = run(capsys, "perfect", "verify", small, str(codefile),
                           "--ideal", "2/1")
        assert code == 1
        assert "disjoint\tfalse" in out and "overlap" in out

    def test_verify_options_are_checked_before_the_code_file_is_read(self, capsys, small):
        code, out, err = run(capsys, "perfect", "verify", small, "/nonexistent.code")
        assert (code, out) == (2, "")
        assert err == "pomsetblock: give exactly one of --ideal or --radius\n"

    def test_radius_verify(self, capsys, small, tmp_path):
        codefile = tmp_path / "diag.code"
        codefile.write_text("linear\n1 1\n")
        code, out, _ = run(capsys, "perfect", "verify", small, str(codefile),
                           "--radius", "2")
        assert code == 0


class TestMdsDualPackradDuality:
    def test_mds_check(self, capsys, small, tmp_path):
        good = tmp_path / "good.code"
        good.write_text("linear\n1 1\n")
        code, out, _ = run(capsys, "mds", "check", small, str(good))
        assert code == 0 and "mds\ttrue" in out
        bad = tmp_path / "bad.code"
        bad.write_text("linear\n1 0\n")
        code, out, _ = run(capsys, "mds", "check", small, str(bad))
        assert code == 1 and "mds\tfalse" in out

    def test_cap_bounds_span_expansion(self, capsys, small, tmp_path):
        # eight redundant rows spanning all 25 words of Z_5^2
        rows = tmp_path / "rows.code"
        rows.write_text("linear\n" + "1 0\n0 1\n" * 4)
        code, out, err = run(capsys, "--cap", "10", "mds", "check", small,
                             str(rows))
        assert code == 2 and out == ""
        assert err.startswith("pomsetblock: ") and err.count("\n") == 1
        assert "cap 10" in err
        code, out, _ = run(capsys, "--cap", "25", "mds", "check", small,
                           str(rows))
        assert code == 0 and "min-distance\t1" in out

    def test_cap_bounds_the_pair_scan(self, capsys, tmp_path):
        # 1 200 distinct random words on a six-block chain, not linear:
        # 719 400 pair distances against a cap of 1 000
        sp = tmp_path / "chain.space"
        sp.write_text("m 5\nblocks 1 1 1 1 1 1\norder 1<2 2<3 3<4 4<5 5<6\n")
        rng = random.Random(0)
        words = set()
        while len(words) < 1200:
            words.add(" ".join(str(rng.randrange(5)) for _ in range(6)))
        codefile = tmp_path / "random.code"
        codefile.write_text("explicit\n" + "\n".join(sorted(words)) + "\n")
        started = time.perf_counter()
        code, out, err = run(capsys, "--cap", "1000", "mds", "check", str(sp),
                             str(codefile))
        assert time.perf_counter() - started < 2
        assert code == 2 and out == ""
        assert err == ("pomsetblock: 719400 codeword pairs to weigh, "
                       "above the cap 1000\n")

    def test_dual_round_trips(self, capsys, small, tmp_path):
        axis = tmp_path / "axis.code"
        axis.write_text("linear\n1 0\n")
        code, out, _ = run(capsys, "dual", small, str(axis))
        assert code == 0
        assert out.splitlines()[0] == "explicit"
        assert sorted(out.splitlines()[1:]) == [f"0 {b}" for b in range(5)]
        # emitted file re-parses to the same code
        from pomsetblock import dual_code, load_space, parse_code

        sp = load_space(small)
        reparsed = parse_code(sp, out)
        assert reparsed == dual_code(parse_code(sp, axis.read_text()))

    def test_dual_past_the_cap_is_invalid_input(self, capsys, small, tmp_path):
        diag = tmp_path / "diag.code"
        diag.write_text("linear\n1 1\n")
        code, out, err = run(capsys, "--cap", "24", "dual", small, str(diag))
        assert code == 2 and out == ""
        assert err == "pomsetblock: space has 25 vectors, above the cap 24\n"

    def test_packrad(self, capsys, small, tmp_path):
        diag = tmp_path / "diag.code"
        diag.write_text("linear\n1 1\n")
        code, out, _ = run(capsys, "packrad", small, str(diag))
        assert code == 0
        assert "bruteforce\t2" in out and "formula\t2" in out

    def test_duality4(self, capsys, small, tmp_path):
        diag = tmp_path / "diag.code"
        diag.write_text("linear\n1 1\n")
        code, out, _ = run(capsys, "duality4", small, str(diag))
        assert code == 0 and "equivalent\ttrue" in out
        axis = tmp_path / "axis.code"
        axis.write_text("linear\n1 0\n")
        code, out, _ = run(capsys, "duality4", small, str(axis))
        assert code == 0  # all four false is still equivalent
        assert "mds\tfalse" in out and "equivalent\ttrue" in out


def _shifted_shells(space, r):
    """The closed-form shells with one vector moved from shell r to r + 1:
    sphere rows r and r + 1 and ball row r go wrong."""
    shells = list(weight_enumerator(space))
    shells[r] -= 1
    shells[r + 1] += 1
    return SimpleNamespace(shells=tuple(shells))


class TestSelftest:
    def test_small_chain_passes(self, capsys, small):
        code, out, _ = run(capsys, "selftest", small)
        assert code == 0
        assert "FAIL" not in out
        assert "ball-size\tr=2\t5\t5\tok" in out

    def test_five_block_example_passes(self, capsys, tmp_path):
        p = tmp_path / "five.space"
        p.write_text("m 7\nblocks 1 1 1 1 1\norder 1<3 2<4 2<5\n")
        code, out, _ = run(capsys, "selftest", str(p))
        assert code == 0 and "FAIL" not in out
        rows = out.splitlines()
        assert "partial-ball-size\t118 ideals\t192328\t192328\tok" in rows
        assert "full-count-ball\t3/1 3/2 3/3 3/4 3/5\t16807\t16807\tok" in rows

    @pytest.mark.parametrize("kind, name, forged", [
        ("sphere-size-ideal", "i_sphere_size", lambda space, ideal: 0),
        ("sphere-size", "weight_distribution", lambda space: _shifted_shells(space, 0)),
        ("ball-size", "weight_distribution", lambda space: _shifted_shells(space, 1)),
        ("block-shells", "block_shell_size", lambda m, k, r: 0),
        ("full-count-ball", "full_count_structure",
         lambda space, ideal: SimpleNamespace(ok=False)),
        ("partial-ball-size", "i_ball_size", lambda space, ideal: 0),
        ("chain-shells", "chain.i_sphere_size", lambda space, ideal: 0),
    ])
    def test_forged_closed_form_fails_its_row(self, capsys, monkeypatch, small,
                                              kind, name, forged):
        # each row kind reads a closed form from a name cli (or chain)
        # imports; a wrong one must print FAIL on that row and exit 1
        module, _, attr = name.rpartition(".")
        monkeypatch.setattr(chain if module else cli, attr, forged)
        code, out, err = run(capsys, "selftest", small)
        assert (code, err) == (1, "")
        assert any(row.startswith(f"{kind}\t") and row.endswith("\tFAIL")
                   for row in out.splitlines())

    def test_failed_witness_is_a_fail_row(self, capsys, monkeypatch, tmp_path):
        # with no support inside any ideal, no witness passes its own check
        p = tmp_path / "antichain.space"
        p.write_text("m 5\nblocks 2 2 2\n")
        monkeypatch.setattr(Multiset, "__le__", lambda self, other: False)
        code, out, err = run(capsys, "selftest", str(p))
        assert (code, err) == (1, "")
        assert "partial-ball-nonlinear\t0 witnesses\t0\t19\tFAIL" in out.splitlines()

    def test_corrupt_space_is_invalid_input(self, capsys, tmp_path):
        p = tmp_path / "bad.space"
        p.write_text("m 5\nblocks 1 1\norder 2<2\n")
        code, _, err = run(capsys, "selftest", str(p))
        assert code == 2 and err

    @pytest.mark.parametrize("text, words", [
        ("m 1\nblocks 1\n", "line 1: modulus"),
        ("m 5\nblocks 1 1\nm 7\n", "line 3: repeated 'm'"),
    ])
    def test_bad_space_header_is_invalid_input(self, capsys, tmp_path, text, words):
        p = tmp_path / "bad.space"
        p.write_text(text)
        code, out, err = run(capsys, "selftest", str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"pomsetblock: {words}") and err.count("\n") == 1


# every path that scans Z_5^2, and the two whose output is a code of 25
# words: the whole space (empty ideal) and the span of a basis
CAPPED_PATHS = {
    "ballsize-ideal": ["ballsize", "{space}", "--ideal", "2/1", "--enumerate"],
    "ballsize-radius": ["ballsize", "{space}", "--radius", "3", "--enumerate"],
    "ballsize-ideal-center": ["ballsize", "{space}", "--ideal", "2/1",
                              "--enumerate", "--center", "1 2"],
    "ballsize-radius-center": ["ballsize", "{space}", "--radius", "3",
                               "--enumerate", "--center", "1 2"],
    "wdist-oracle": ["wdist", "{space}", "--oracle"],
    "verify-ideal": ["perfect", "verify", "{space}", "{diag}", "--ideal", "2/1"],
    "verify-radius": ["perfect", "verify", "{space}", "{diag}", "--radius", "2"],
    "dual": ["dual", "{space}", "{diag}"],
    "packrad": ["packrad", "{space}", "{diag}"],
    "duality4": ["duality4", "{space}", "{diag}"],
    "selftest": ["selftest", "{space}"],
    "construct": ["perfect", "construct", "{space}", "--ideal", "-"],
    "linear-code": ["mds", "check", "{space}", "{basis}"],
}


@pytest.mark.parametrize("path", sorted(CAPPED_PATHS))
def test_cap_set_on_the_space_bounds_every_path(capsys, small, tmp_path, path):
    diag = tmp_path / "diag.code"
    diag.write_text("linear\n1 1\n")
    basis = tmp_path / "basis.code"
    basis.write_text("linear\n1 0\n0 1\n")
    argv = [a.format(space=small, diag=diag, basis=basis)
            for a in CAPPED_PATHS[path]]
    code, out, err = run(capsys, "--cap", "24", *argv)
    assert code == 2 and out == ""
    assert err.startswith("pomsetblock: ") and err.count("\n") == 1
    assert "cap 24" in err
    free = run(capsys, *argv)
    assert free[0] in (0, 1) and free[2] == ""
    assert run(capsys, "--cap", "25", *argv) == free


def test_cap_bounds_the_weight_enumerator(capsys, tmp_path):
    # h = 5*10^7: the closed forms would build 5*10^7 + 1 coefficients
    p = tmp_path / "huge.space"
    p.write_text("m 100000001\nblocks 1\n")
    for argv in (["ballsize", str(p), "--radius", "3"], ["wdist", str(p)]):
        started = time.perf_counter()
        code, out, err = run(capsys, "--cap", "1000", *argv)
        assert time.perf_counter() - started < 2
        assert code == 2 and out == ""
        assert err == ("pomsetblock: weight enumerator has 50000001 "
                       "coefficients, above the cap 1000\n")


def test_zero_cap_refuses_the_closed_forms(capsys, small):
    code, out, err = run(capsys, "--cap", "0", "wdist", small)
    assert (code, out) == (2, "")
    assert err == "pomsetblock: weight enumerator has 5 coefficients, above the cap 0\n"


@pytest.mark.parametrize("argv", [
    ["wdist", "{space}"],
    ["ballsize", "{space}", "--radius", "2", "--enumerate"],
])
def test_negative_cap_is_invalid_input(capsys, small, argv):
    argv = [a.format(space=small) for a in argv]
    code, out, err = run(capsys, "--cap", "-5", *argv)
    assert (code, out) == (2, "")
    assert err == "pomsetblock: cap must be non-negative, got -5\n"


def test_byte_determinism(capsys, small):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "wdist", small)
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("argv", [
    ["perfect", "construct", "{space}", "--ideal=--"],
    ["ballsize", "{space}", "--ideal=--"],
    ["ballsize", "{space}", "--radius=--"],
    ["ballsize", "{space}", "--radius", "1", "--enumerate", "--center=--"],
    ["ideals", "{space}", "--card=--"],
    ["--cap=--", "wdist", "{space}"],
], ids=["construct-ideal", "ideal", "radius", "center", "card", "cap"])
def test_an_option_of_dashes_is_invalid_input(capsys, small, argv):
    # argparse without the "--" fix (3.10, 3.11, early 3.12) reads --name=--
    # as an empty list, which main refuses; a fixed argparse passes "--" on,
    # and either argparse or the parser of the value refuses it
    argv = [a.format(space=small) for a in argv]
    option = next(a for a in argv if a.endswith("=--"))[:-3]
    try:
        parsed = vars(cli.build_parser().parse_args(argv))[option[2:]]
    except SystemExit:
        parsed = None
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.splitlines()[-1].startswith("pomsetblock")
    if isinstance(parsed, list):
        assert out.err == f"pomsetblock: argument {option}: expected one argument\n"
