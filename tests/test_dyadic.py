import random
from fractions import Fraction

import numpy as np
import pytest

from benford2.dyadic import (
    MAX_VECTOR_DEPTH,
    DepthError,
    as_block_value,
    block_value,
    complement,
    dyadic_value,
    excess_population,
    pack_bits,
    truncate,
    unpack_bits,
    validate_bits,
)

RNG = random.Random(1702)


def random_bits(depth, rng=RNG):
    return tuple(rng.randrange(2) for _ in range(depth))


class TestBlockValue:
    def test_empty_prefix_is_block_one(self):
        assert block_value(()) == 1

    def test_two_zero_bits_is_block_100(self):
        assert block_value((0, 0)) == 4

    def test_all_ones(self):
        assert block_value((1, 1)) == 7

    def test_range(self):
        for k in range(0, 9):
            for packed in range(1 << k):
                value = block_value(unpack_bits(packed, k))
                assert (1 << k) <= value < (1 << (k + 1))

    def test_matches_dyadic_value_exactly(self):
        for k in list(range(0, 9)) + [16, 24]:
            for _ in range(50):
                bits = random_bits(k)
                assert block_value(bits) == (1 << k) * (1 + dyadic_value(bits))

    def test_depth_guard(self):
        with pytest.raises(DepthError):
            block_value((0,) * 25)


class TestDyadicValue:
    def test_examples(self):
        assert dyadic_value((0, 0)) == 0
        assert dyadic_value((0, 1)) == Fraction(1, 4)
        assert dyadic_value((1, 0, 1)) == Fraction(5, 8)

    def test_range_and_denominator(self):
        for k in range(0, 10):
            for _ in range(20):
                value = dyadic_value(random_bits(k))
                assert 0 <= value < 1
                # lowest-terms denominator divides 2^k
                assert (1 << k) % value.denominator == 0

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            dyadic_value((0, 2))


class TestPacking:
    def test_roundtrip(self):
        for k in range(0, 12):
            for _ in range(20):
                bits = random_bits(k)
                assert unpack_bits(pack_bits(bits), k) == bits

    def test_integer_order_equals_dyadic_order(self):
        k = 6
        values = [dyadic_value(unpack_bits(i, k)) for i in range(1 << k)]
        assert values == sorted(values)

    def test_unpack_range_check(self):
        with pytest.raises(ValueError):
            unpack_bits(4, 2)


class TestExcessPopulation:
    def test_equal_vectors_zero(self):
        for k in range(0, 8):
            bits = random_bits(k)
            assert excess_population(bits, bits) == 0

    def test_hand_evaluated_examples(self):
        assert excess_population((1, 0), (0, 1)) == 1
        assert excess_population((0, 1), (0, 0)) == 1
        assert excess_population((1, 1), (0, 0)) == 1
        assert excess_population((0, 1), (1, 0)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            excess_population((0, 1), (0,))
        with pytest.raises(ValueError):
            excess_population((0,), (0, 1))

    def test_equivalence_exhaustive_small_depths(self):
        for k in range(0, 9):
            for a in range(1 << k):
                alpha = unpack_bits(a, k)
                for x in range(1 << k):
                    target = unpack_bits(x, k)
                    value = excess_population(alpha, target)
                    assert value in (0, 1)
                    assert value == int(alpha > target)

    def test_equivalence_random_large_depths(self):
        rng = random.Random(99)
        pairs_per_depth = 6_250  # 16 depths x 6250 = 100k pairs
        for k in range(9, 25):
            for _ in range(pairs_per_depth):
                alpha = random_bits(k, rng)
                target = random_bits(k, rng)
                value = excess_population(alpha, target)
                assert value in (0, 1)
                assert value == int(alpha > target)

    def test_excess_implies_strictly_larger_fraction(self):
        rng = random.Random(7)
        for k in range(1, 16):
            for _ in range(200):
                alpha, target = random_bits(k, rng), random_bits(k, rng)
                if excess_population(alpha, target) == 1:
                    assert dyadic_value(alpha) > dyadic_value(target)


class TestComplement:
    def test_examples(self):
        assert complement((1, 0)) == (0, 1)
        assert complement((1, 1, 1)) == (0, 0, 0)

    def test_involution_and_value_identity(self):
        for k in range(0, 12):
            bits = random_bits(k)
            assert complement(complement(bits)) == bits
            expected = 1 - Fraction(1, 1 << k) - dyadic_value(bits) if k else Fraction(0)
            assert dyadic_value(complement(bits)) == expected


class TestTruncate:
    def test_zero_places(self):
        assert truncate((1, 1, 0), 0) == 0

    def test_examples(self):
        assert truncate((1, 1, 0), 2) == Fraction(3, 4)
        assert truncate((1, 0, 1), 3) == dyadic_value((1, 0, 1))

    def test_monotone_and_sandwich(self):
        for k in range(1, 12):
            bits = random_bits(k)
            value = dyadic_value(bits)
            previous = Fraction(-1)
            for places in range(0, k + 1):
                head = truncate(bits, places)
                assert head >= previous
                assert head <= value <= head + Fraction(1, 1 << places)
                previous = head

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            truncate((1, 0), 3)
        with pytest.raises(ValueError):
            truncate((1, 0), -1)


class TestAsBlockValue:
    def test_variants(self):
        assert as_block_value(0b11) == 3
        assert as_block_value(7) == 7

    def test_invalid(self):
        with pytest.raises(TypeError, match="'11'"):
            as_block_value("11")
        with pytest.raises(ValueError):
            as_block_value(0)


def test_validate_bits_accepts_iterables():
    assert validate_bits([1, 0, 1]) == (1, 0, 1)
    assert validate_bits(()) == ()


def reference_validate_bits(bits, max_depth=MAX_VECTOR_DEPTH):
    """validate_bits as two generator expressions, the form it replaced."""
    out = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in out):
        raise ValueError(f"bits must all be 0 or 1, got {out!r}")
    if len(out) > max_depth:
        raise DepthError(f"depth {len(out)} exceeds the budget of {max_depth}")
    return out


class TestValidateBitsParity:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: [1, 0, 1],
            lambda: (0, 0, 1, 1),
            lambda: (),
            lambda: (b for b in (1, 1, 0)),
            lambda: [True, False, True],
            lambda: [np.int64(1), np.int64(0)],
            lambda: np.array([0, 1, 1], dtype=np.int64),
            lambda: ["0", "1", "1"],
            lambda: "101",
            lambda: [1] * MAX_VECTOR_DEPTH,
        ],
    )
    def test_same_tuple(self, make):
        out = validate_bits(make())
        assert out == reference_validate_bits(make())
        assert all(type(b) is int for b in out)

    @pytest.mark.parametrize("bits", [[1, 2], [0, -1], ["1", "2"], (2,)])
    def test_same_value_error(self, bits):
        with pytest.raises(ValueError) as expected:
            reference_validate_bits(bits)
        with pytest.raises(ValueError) as got:
            validate_bits(bits)
        assert type(got.value) is type(expected.value) is ValueError
        assert str(got.value) == str(expected.value)

    def test_non_numeric_string_raises_int_error(self):
        with pytest.raises(ValueError) as expected:
            int("x")
        with pytest.raises(ValueError) as got:
            validate_bits(["1", "x"])
        assert str(got.value) == str(expected.value)

    def test_over_budget_is_depth_error(self):
        bits = [1, 0] * 12 + [1]
        with pytest.raises(DepthError) as expected:
            reference_validate_bits(bits)
        with pytest.raises(DepthError) as got:
            validate_bits(bits)
        assert str(got.value) == str(expected.value)
