import itertools
import math
import operator
import os
import random
import re
import tracemalloc

import pytest
from conftest import assert_no_children, run_fresh
from hypothesis import given, settings
from hypothesis import strategies as st

from benford2 import _fanout, cli, empirical
from benford2.dyadic import MAX_REPORT_ROWS, DepthError
from benford2.empirical import (
    _ONE,
    FAMILIES,
    SequenceSpec,
    _digit_string,
    _normalize,
    _window_block,
    frequency_report,
    generate_blocks,
    leading_block,
    rearrangement_demo,
)
from benford2.solver import benford_reference

WINDOW_TERMS = 3000


def exact_terms(family: str, count: int) -> list[int]:
    """First ``count`` terms of a family as exact integers, by running products and sums."""
    if family == "fibonacci":
        terms, pair = [], (1, 1)
        for _ in range(count):
            terms.append(pair[0])
            pair = (pair[1], pair[0] + pair[1])
        return terms
    factors = itertools.repeat(3, count) if family == "pow3" else range(1, count + 1)
    return list(itertools.accumulate(factors, operator.mul))


def reference_digit_string(value: int, base: int) -> str:
    """Digits of ``value`` in ``base`` by repeated division, the formatting oracle."""
    if value == 0:
        return "0"
    out = []
    while value:
        value, digit = divmod(value, base)
        out.append("0123456789abcdefghijklmnopqrstuvwxyz"[digit])
    return "".join(reversed(out))


@pytest.mark.parametrize("base", range(2, 37))
def test_digit_string_matches_division(base):
    for value in (0, 1, base - 1, base, base**2 - 1, 3**200, math.factorial(100)):
        assert _digit_string(value, base) == reference_digit_string(value, base)


def test_digit_string_past_decimal_conversion_limit():
    value = 10**5000 - 1  # more digits than the interpreter's default str() limit
    assert _digit_string(value, 10) == "9" * 5000


class TestLeadingBlock:
    def test_binary_of_1000(self):
        # 1000 = 0b1111101000
        assert leading_block(1000, 1, 2) == 0b11
        assert leading_block(1000, 4, 2) == 0b11111

    def test_decimal_leading_digit(self):
        assert leading_block(200, 0, 10) == 2

    def test_powers_of_two(self):
        for m in (0, 3, 17):
            assert leading_block(2**m, 4, 2) == 2 ** min(4, m)

    def test_clipping_short_values(self):
        assert leading_block(1, 1, 2) == 1
        assert leading_block(5, 4, 2) == 0b101

    def test_digit_count_corrects_an_overshooting_log(self):
        # int(math.log(v, base)) is e at v = base^e - 1, which has e digits: the first such e
        # in bases 10, 3, 7 and 16
        assert leading_block(10**16 - 1, 2, 10) == 999
        assert leading_block(3**32 - 1, 1, 3) == 8
        assert leading_block(7**17 - 1, 1, 7) == 48
        assert leading_block(16**12 - 1, 1, 16) == 255

    def test_scale_free(self):
        rng = random.Random(64)
        for base in (2, 10, 7):
            for _ in range(334):
                value = rng.randrange(1, 10**6)
                m = rng.randrange(0, 8)
                assert leading_block(value * base**m, 2, base) == leading_block(value, 2, base)

    def test_guards(self):
        with pytest.raises(ValueError):
            leading_block(0, 1, 2)
        with pytest.raises(ValueError):
            leading_block(5, -1, 2)
        with pytest.raises(ValueError):
            leading_block(5, 1, 1)
        with pytest.raises(TypeError, match="base 2.0 is not an int"):
            leading_block(5, 1, 2.0)
        with pytest.raises(TypeError, match="block_digits True is not an int"):
            leading_block(5, True, 2)


class TestGenerateBlocks:
    def test_powers_of_three_golden(self):
        # 3, 9, 27, 81, 243 = 11, 1001, 11011, 1010001, 11110011
        spec = SequenceSpec("pow3", count=5, block_bits=1, base=2)
        assert generate_blocks(spec) == [0b11, 0b10, 0b11, 0b10, 0b11]

    def test_fibonacci_golden_with_clipping(self):
        spec = SequenceSpec("fibonacci", count=3, block_bits=1, base=2)
        assert generate_blocks(spec) == [1, 1, 0b10]

    def test_factorial_golden(self):
        # 1, 2, 6, 24 = 1, 10, 110, 11000
        spec = SequenceSpec("factorial", count=4, block_bits=1, base=2)
        assert generate_blocks(spec) == [1, 0b10, 0b11, 0b11]

    def test_rearranged_blocks(self):
        spec = SequenceSpec("rearranged", count=8, block_bits=1, base=2)
        expected = [leading_block(v, 1, 2) for v in [1, 4, 2, 8, 3, 12, 5, 16]]
        assert generate_blocks(spec) == expected

    def test_rearranged_blocks_hold_no_list_of_terms(self):
        # the blocks are read from a generator of the terms: past the list of
        # blocks, 8 bytes a term, nothing grows with the count
        count = 200_000
        tracemalloc.start()
        try:
            generate_blocks(SequenceSpec("rearranged", count, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + (1 << 20), peak

    @pytest.mark.parametrize("family", ["pow3", "fibonacci", "factorial"])
    @pytest.mark.parametrize("base", [2, 10])
    @pytest.mark.parametrize("block_bits", [0, 4, 8])
    def test_window_agrees_with_exact_big_integers(self, family, base, block_bits):
        spec = SequenceSpec(family, count=WINDOW_TERMS, block_bits=block_bits, base=base)
        expected = [leading_block(v, block_bits, base) for v in exact_terms(family, WINDOW_TERMS)]
        assert generate_blocks(spec) == expected

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        family=st.sampled_from(["pow3", "fibonacci", "factorial"]),
        base=st.integers(2, 36),
        block_bits=st.integers(0, 8),
    )
    def test_window_agrees_with_exact_any_base(self, family, base, block_bits):
        spec = SequenceSpec(family, count=WINDOW_TERMS, block_bits=block_bits, base=base)
        expected = [leading_block(v, block_bits, base) for v in exact_terms(family, WINDOW_TERMS)]
        assert generate_blocks(spec) == expected

    @pytest.mark.parametrize("base", [3, 9])
    def test_exact_window_needs_no_fallback(self, base, monkeypatch, forks):
        # pow3's window is exact in these bases: only terms too short for a block need 3**i
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        calls = []

        def counting(*args):
            calls.append(args)
            return leading_block(*args)

        monkeypatch.setattr(empirical, "leading_block", counting)
        generate_blocks(SequenceSpec("pow3", count=20_000, block_bits=3, base=base))
        small_terms = sum(1 for i in range(1, 20) if 3**i < base**3)  # fewer than 4 digits
        assert len(calls) == small_terms
        assert forks == []  # one range: every call was counted here

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SequenceSpec("collatz", count=5)
        with pytest.raises(ValueError):
            SequenceSpec("pow3", count=0)
        with pytest.raises(ValueError):
            SequenceSpec("pow3", count=5, block_bits=-1)
        with pytest.raises(ValueError):
            SequenceSpec("pow3", count=5, base=1)
        with pytest.raises(TypeError, match="block_bits 1.5 is not an int"):
            SequenceSpec("pow3", 10, 1.5)
        with pytest.raises(TypeError, match="base 10.0 is not an int"):
            SequenceSpec("pow3", count=5, base=10.0)
        with pytest.raises(TypeError, match="count 10.0 is not an int"):
            SequenceSpec("pow3", 10.0)
        with pytest.raises(TypeError, match="count True is not an int"):
            SequenceSpec("pow3", True)

    def test_families_tuple(self):
        assert FAMILIES == ("pow3", "fibonacci", "factorial", "rearranged")


class TestRanges:
    """pow3 and fibonacci in ranges of terms on every CPU, each seeded from its exact predecessor term."""

    MASKS = [set(range(cpus)) for cpus in (1, 2, 3, 4)]

    @pytest.mark.parametrize(
        "family, count, base, bits",
        [
            ("pow3", (1 << 16) - 1, 2, 3),
            ("pow3", (1 << 16) + 1, 3, 0),
            ("pow3", (2 << 16) + 1, 10, 1),
            ("pow3", (3 << 16) + 1, 36, 1),
            ("fibonacci", (1 << 16) - 1, 36, 0),
            ("fibonacci", (1 << 16) + 1, 10, 3),
            ("fibonacci", (2 << 16) + 1, 3, 1),
            ("fibonacci", (3 << 16) + 1, 2, 1),
        ],
    )
    def test_fan_out_keeps_blocks_and_stdout(self, capsys, monkeypatch, forks, family, count, base, bits):
        generate, generated = empirical.generate_blocks, []

        def recorded(spec):
            generated.append(generate(spec))
            return generated[-1]

        monkeypatch.setattr(empirical, "generate_blocks", recorded)
        argv = ["empirical", "--family", family, "--n", str(count), "--bits", str(bits), "--base", str(base)]
        ranges = -(-count >> 16)
        outputs = []
        for cpus in self.MASKS:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            del forks[:]
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr())
            assert len(forks) == min(len(cpus), ranges) - 1
        assert all(blocks == generated[0] for blocks in generated) and len(generated[0]) == count
        assert all(output == outputs[0] for output in outputs)
        assert_no_children()

    @pytest.mark.parametrize("family", ["pow3", "fibonacci"])
    @pytest.mark.parametrize("base", [2, 3, 10, 36])
    @pytest.mark.parametrize("bits", [0, 1, 3])
    def test_resumed_windows_agree_with_exact(self, monkeypatch, forks, family, base, bits):
        # 2^10-term chunks: 3 * 2^10 + 1 terms are four ranges, each seeded
        # from an exact term, three of them in children on four CPUs
        count = (3 << 10) + 1
        expected = [leading_block(v, bits, base) for v in exact_terms(family, count)]
        monkeypatch.setattr(_fanout, "CHUNK_BITS", 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert generate_blocks(SequenceSpec(family, count, bits, base)) == expected
        assert len(forks) == 3
        assert_no_children()

    @pytest.mark.parametrize("cpus, computed", [({0}, [0, 1, 2, 3]), ({0, 1}, [0, 2]), ({0, 1, 2, 3}, [0])])
    def test_each_range_seeds_from_its_exact_predecessor(self, monkeypatch, forks, cpus, computed):
        # four ranges of 2^10 terms: this process seeds exactly the ranges it
        # computes, each from 3^(lo - 1), whatever ran before it here
        seed, seeded = empirical._seed, []
        monkeypatch.setattr(empirical, "_seed", lambda value, base: seeded.append(value) or seed(value, base))
        monkeypatch.setattr(_fanout, "CHUNK_BITS", 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        spec = SequenceSpec("pow3", 4 << 10, 3, 10)
        assert generate_blocks(spec) == [leading_block(v, 3, 10) for v in exact_terms("pow3", spec.count)]
        assert seeded == [3 ** (r << 10) for r in computed]
        assert len(forks) == len(cpus) - 1
        assert_no_children()

    @pytest.mark.parametrize("failure", ["raises", "raises-late"])
    def test_failed_child_falls_back(self, monkeypatch, forks, failure):
        # the child runs ranges 1 and 3; "raises-late": it sends range 1, then fails
        spec = SequenceSpec("pow3", 4 << 10, 3, 10)
        expected = [leading_block(v, 3, 10) for v in exact_terms("pow3", spec.count)]
        pow3, parent = empirical._pow3_blocks, os.getpid()

        def flaky(lo, *args):
            if os.getpid() != parent and (failure == "raises" or lo > 2 << 10):
                raise RuntimeError("the range failed in the child")
            return pow3(lo, *args)

        monkeypatch.setattr(empirical, "_pow3_blocks", flaky)
        monkeypatch.setattr(_fanout, "CHUNK_BITS", 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert generate_blocks(spec) == expected
        assert len(forks) == 1
        assert_no_children()

    def test_no_child_outlives_interrupt(self, monkeypatch, forks):
        pow3 = empirical._pow3_blocks

        def interrupted(lo, *args):
            if lo == 1:  # in this process, while the child runs range 1
                raise KeyboardInterrupt
            return pow3(lo, *args)

        monkeypatch.setattr(empirical, "_pow3_blocks", interrupted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(KeyboardInterrupt):
            generate_blocks(SequenceSpec("pow3", (1 << 16) + 1))
        assert len(forks) == 1
        assert_no_children()

    def test_forking_run_never_loads_numpy(self):
        # each child reports before its range
        script = """
import contextlib, io, os, sys
from benford2 import _fanout, cli, empirical

pow3, parent = empirical._pow3_blocks, os.getpid()

def reporting(*args):
    if os.getpid() != parent:
        os.write(2, f"{'numpy' in sys.modules} ".encode())
    return pow3(*args)

empirical._pow3_blocks = reporting
_fanout.CHUNK_BITS = 8
os.sched_getaffinity = lambda pid: {0, 1}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["empirical", "--family", "pow3", "--n", "1000", "--bits", "2"])
print(code, "numpy" in sys.modules)
"""
        result = run_fresh(script)
        # four ranges: the child runs ranges 1 and 3
        assert (result.stdout, result.stderr) == ("0 False\n", "False False ")


class TestWindow:
    def test_normalize_rounds_down(self):
        # the one-sided guard rests on this: the window never exceeds the true term
        rng = random.Random(131)
        for _ in range(2000):
            base = rng.randrange(2, 37)
            mantissa = rng.randrange(1, _ONE * base ** rng.randrange(1, 40))
            exponent = rng.randrange(0, 100)
            normalized, new_exponent = _normalize(mantissa, exponent, base, base * _ONE)
            shift = new_exponent - exponent
            assert _ONE <= normalized < base * _ONE or shift == 0
            assert normalized * base**shift <= mantissa < (normalized + 1) * base**shift

    def test_seed_rounds_down(self):
        # every range starts from this window of an exact term
        rng = random.Random(197)
        for _ in range(500):
            base = rng.randrange(2, 37)
            value = rng.randrange(1, base ** rng.randrange(1, 400))
            mantissa, exponent = empirical._seed(value, base)
            assert _ONE <= mantissa < base * _ONE
            assert mantissa * base**exponent <= value * _ONE < (mantissa + 1) * base**exponent

    @pytest.mark.parametrize("steps", [0, 1000])
    def test_block_on_boundary_is_kept(self, steps):
        # 1.5 in base 2, two digits: scaled significand 3 * _ONE, on the boundary of block 0b11
        assert _window_block(3 * _ONE // 2, 5, steps, 1, 2) == 0b11
        assert _window_block(3 * _ONE // 2 + 1, 5, steps, 1, 2) == 0b11
        assert _window_block(2 * _ONE, 5, steps, 0, 1) == 2
        # the guard here is under 2^16, so this is clear of the boundary above
        assert _window_block(3 * _ONE - (1 << 20), 5, steps, 0, 1) == 2

    @pytest.mark.parametrize("steps", [0, 1000])
    def test_block_within_guard_of_next_boundary_falls_back(self, steps):
        assert _window_block(2 * _ONE - 1, 5, steps, 1, 2) == 0
        assert _window_block(3 * _ONE - 1, 5, steps, 0, 1) == 0
        # the guard is at least scaled >> 50, which is 3 << 14 here
        assert _window_block(3 * _ONE - (1 << 15), 5, steps, 0, 1) == 0

    def test_small_term_falls_back(self):
        assert _window_block(3 * _ONE // 2, 0, 0, 1, 2) == 0


class TestFrequencyReport:
    def test_degenerate_input(self):
        report = frequency_report([0b10] * 10, 1, 2)
        assert report.observed == (1.0, 0.0)
        assert report.max_deviation == pytest.approx(1 - 0.5849625007211562)
        assert report.total == 10
        assert report.dof == 1

    def test_expected_column_sums_to_one(self):
        for base, bits in [(2, 1), (2, 6), (10, 0), (10, 1), (3, 2)]:
            report = frequency_report([base**bits], bits, base)
            assert abs(sum(report.expected) - 1.0) <= 1e-12

    def test_chi_square_is_added_left_to_right(self):
        # the same float, and so the same printed bytes, on every Python: sum() of floats
        # compensates its rounding since 3.12 and gives 0.36946977560206123 here
        report = frequency_report(generate_blocks(SequenceSpec("pow3", 100, 3)), 3)
        assert report.chi_square == 0.3694697756020612

    def test_chi_square_hand_computed(self):
        blocks = [0b10] * 6 + [0b11] * 4
        report = frequency_report(blocks, 1, 2)
        p10, p11 = benford_reference(2), benford_reference(3)
        expected = (6 - 10 * p10) ** 2 / (10 * p10) + (4 - 10 * p11) ** 2 / (10 * p11)
        assert report.chi_square == pytest.approx(expected, rel=1e-12)

    def test_clipped_blocks_excluded(self):
        report = frequency_report([1, 1, 0b10, 0b100], 1, 2)
        assert report.total == 1
        assert report.counts == (1, 0)

    def test_empty_after_clipping(self):
        with pytest.raises(ValueError):
            frequency_report([1, 1], 1, 2)

    def test_malformed_block(self):
        with pytest.raises(TypeError, match="'02'"):
            frequency_report(["02"], 1, 2)

    @pytest.mark.parametrize(
        "blocks, bits, base",
        [
            ([0b10, "11"], 1, 2),
            ([0b10, 3.0], 1, 2),
            ([0b10, b"11"], 1, 2),
            ([0b10, (1, 1)], 1, 2),
            ([0b100, None], 2, 2),
            ([0x1A, "1a"], 1, 16),
            ([0b10, 2.0], 1, 2),
            ([0b10, True], 1, 2),
        ],
    )
    def test_malformed_block_named(self, blocks, bits, base):
        # digit strings, floats, bools and bit tuples are not block values
        with pytest.raises(TypeError, match=re.escape(f"block {blocks[1]!r} is not an int")):
            frequency_report(blocks, bits, base)

    def test_first_malformed_block_named(self):
        with pytest.raises(TypeError, match="block '1x'"):
            frequency_report([0b10, "1x", 0b11, "1y", "1x"], 1, 2)

    @pytest.mark.parametrize("bits, base", [(18, 2), (11, 3), (5, 10), (1 << 40, 2)])
    def test_row_budget_checked_before_counting(self, bits, base):
        def never_counted():
            raise AssertionError("blocks were read")
            yield

        with pytest.raises(DepthError, match="report rows"):
            frequency_report(never_counted(), bits, base)

    @pytest.mark.parametrize("bits, base", [(17, 2), (10, 3), (4, 10)])
    def test_row_budget_edge_fits(self, bits, base):
        report = frequency_report([base**bits], bits, base)
        assert len(report.blocks) == (base - 1) * base**bits <= MAX_REPORT_ROWS

    def test_powers_of_three_binary_pair(self):
        spec = SequenceSpec("pow3", count=100_000, block_bits=1, base=2)
        report = frequency_report(generate_blocks(spec), 1, 2)
        assert abs(report.observed[0] - 0.5849625) <= 0.01
        assert abs(report.observed[1] - 0.4150375) <= 0.01
        assert report.max_deviation <= 0.01

    def test_powers_of_three_decimal_first_digit(self):
        spec = SequenceSpec("pow3", count=100_000, block_bits=0, base=10)
        report = frequency_report(generate_blocks(spec), 0, 10)
        assert report.blocks[0] == "1"
        assert abs(report.observed[0] - 0.301) <= 0.01

    def test_rows_iteration(self):
        report = frequency_report([0b10, 0b11, 0b10], 1, 2)
        rows = list(report.rows())
        assert [r[0] for r in rows] == ["10", "11"]
        assert [r[1] for r in rows] == [2, 1]


def rearranged_terms(count: int) -> list[int]:
    """The first ``count`` rearranged terms: 21-digit blocks keep every term below 2^21 whole."""
    return generate_blocks(SequenceSpec("rearranged", count, 20))


class TestRearrangement:
    def test_listed_prefix(self):
        assert rearranged_terms(8) == [1, 4, 2, 8, 3, 12, 5, 16]

    def test_prefix_membership_frequency(self):
        natural, rearranged = rearrangement_demo(8)
        assert rearranged == 0.5
        assert natural == 0.25

    def test_frequencies_are_those_of_the_walk(self):
        # the closed form against the multiples of four counted term by term
        for count in [*range(4, 2001), 200_000, 200_001, 200_003]:
            natural = sum(1 for v in range(1, count + 1) if v % 4 == 0) / count
            rearranged = sum(1 for v in empirical._interleave(count) if v % 4 == 0) / count
            assert rearrangement_demo(count) == (natural, rearranged), count

    def test_limit_frequencies(self):
        natural, rearranged = rearrangement_demo(10_000)
        assert abs(natural - 0.25) <= 1e-3
        assert abs(rearranged - 0.5) <= 1e-3

    def test_is_bijective_rearrangement(self):
        for n in (5, 50, 500):
            terms = rearranged_terms(2 * n)
            assert len(set(terms)) == 2 * n  # no duplicates
            multiples = [v for v in terms if v % 4 == 0]
            assert multiples == [4 * i for i in range(1, n + 1)]
            others = [v for v in terms if v % 4]
            assert len(others) == n
            assert all(v % 4 != 0 for v in others)

    def test_guards(self):
        with pytest.raises(ValueError):
            rearrangement_demo(3)
        with pytest.raises(ValueError):
            rearranged_terms(0)
        with pytest.raises(TypeError, match="count True is not an int"):
            rearranged_terms(True)
        with pytest.raises(TypeError, match="count 8.0 is not an int"):
            rearrangement_demo(8.0)
