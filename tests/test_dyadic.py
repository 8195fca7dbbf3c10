import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from benford2.analytic import term_value_by_endpoints
from benford2.dyadic import (
    MAX_VECTOR_DEPTH,
    DepthError,
    excess_population,
    harmonic_block_sum,
    pack_bits,
    truncate,
    unpack_bits,
    validate_bits,
)
from benford2.solver import benford_reference
from conftest import run_fresh

RNG = random.Random(1702)


def random_bits(depth, rng=RNG):
    return tuple(rng.randrange(2) for _ in range(depth))


class TestPacking:
    def test_roundtrip(self):
        for k in range(0, 12):
            for _ in range(20):
                bits = random_bits(k)
                assert unpack_bits(pack_bits(bits), k) == bits

    def test_integer_order_equals_dyadic_order(self):
        k = 6
        values = [truncate(unpack_bits(i, k), k) for i in range(1 << k)]
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
            vectors = [unpack_bits(packed, k) for packed in range(1 << k)]
            grid = np.array(vectors, dtype=np.int64).reshape(1 << k, k)
            values = excess_population(grid[:, np.newaxis, :], grid[np.newaxis, :, :]).tolist()
            for a, alpha in enumerate(vectors):
                for x, target in enumerate(vectors):
                    value = values[a][x]
                    assert value in (0, 1)
                    assert value == int(alpha > target)

    def test_equivalence_random_large_depths(self):
        rng = random.Random(99)
        pairs_per_depth = 6_250  # 16 depths x 6250 = 100k pairs
        for k in range(9, 25):
            pairs = [(random_bits(k, rng), random_bits(k, rng)) for _ in range(pairs_per_depth)]
            alphas, targets = zip(*pairs)
            values = excess_population(alphas, targets).tolist()
            for (alpha, target), value in zip(pairs, values):
                assert value in (0, 1)
                assert value == int(alpha > target)

    def test_batch_equals_tuple_form(self):
        # the (2^k, 2^k) table against one scale tuple broadcast over every
        # target at k <= 8, and against single tuple pairs at k <= 5 (a
        # tuple pair costs tens of microseconds)
        for k in range(0, 9):
            vectors = [unpack_bits(packed, k) for packed in range(1 << k)]
            grid = np.array(vectors, dtype=np.int64).reshape(1 << k, k)
            table = excess_population(grid[:, np.newaxis, :], grid[np.newaxis, :, :])
            assert table.shape == (1 << k, 1 << k)
            for a, alpha in enumerate(vectors):
                assert excess_population(alpha, grid).tolist() == table[a].tolist()
                if k <= 5:
                    for x, target in enumerate(vectors):
                        value = excess_population(alpha, target)
                        assert type(value) is int
                        assert value == table[a, x]

    def test_bool_and_unsigned_bits(self):
        alpha = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        target = np.array([False, True])
        assert excess_population(alpha, target).tolist() == [1, 0]
        assert excess_population((True, False), (False, True)) == 1

    @pytest.mark.parametrize(
        "alpha, x, error",
        [
            ((0, 2), (0, 1), ValueError),
            ((0, 1), (-1, 1), ValueError),
            ((0.5, 1), (0, 1), TypeError),  # a bit that is not an int, as in validate_bits
            (("1", "0"), (0, 1), TypeError),
            (np.zeros((3, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64), ValueError),
            (np.zeros((3, 2), dtype=np.int64), np.zeros((4, 2), dtype=np.int64), ValueError),
            (1, (1,), ValueError),
        ],
        ids=["two", "minus-one", "fraction", "strings", "unequal-bit-axes", "no-broadcast", "scalar"],
    )
    def test_malformed_bits_refused(self, alpha, x, error):
        with pytest.raises(error):
            excess_population(alpha, x)

    def test_depth_budget(self):
        ok = (0,) * MAX_VECTOR_DEPTH
        assert excess_population(ok, ok) == 0
        deep = (0,) * (MAX_VECTOR_DEPTH + 1)
        with pytest.raises(DepthError):
            excess_population(deep, deep)
        with pytest.raises(DepthError):
            excess_population(np.zeros((4, MAX_VECTOR_DEPTH + 1), dtype=np.int64), deep)

    def test_excess_implies_strictly_larger_fraction(self):
        rng = random.Random(7)
        for k in range(1, 16):
            pairs = [(random_bits(k, rng), random_bits(k, rng)) for _ in range(200)]
            alphas, targets = zip(*pairs)
            for (alpha, target), value in zip(pairs, excess_population(alphas, targets).tolist()):
                if value == 1:
                    assert truncate(alpha, k) > truncate(target, k)


class TestTruncate:
    def test_zero_places(self):
        assert truncate((1, 1, 0), 0) == 0

    def test_examples(self):
        assert truncate((1, 1, 0), 2) == Fraction(3, 4)
        assert truncate((1, 0, 1), 3) == Fraction(5, 8)

    def test_monotone_and_sandwich(self):
        for k in range(1, 12):
            bits = random_bits(k)
            value = truncate(bits, k)
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


# a block is given as its value, 0b11 for block 11, and checked by check_int
BLOCK_FUNCTIONS = {
    "benford_reference": (benford_reference, math.log2(4 / 3)),
    "harmonic_block_sum": (lambda block: harmonic_block_sum(block, 4), math.fsum(1 / n for n in range(48, 64))),
}


@pytest.mark.parametrize("name", sorted(BLOCK_FUNCTIONS))
class TestBlockArgument:
    def test_value(self, name):
        function, expected = BLOCK_FUNCTIONS[name]
        assert function(0b11) == pytest.approx(expected, rel=1e-15)

    def test_invalid(self, name):
        function, _ = BLOCK_FUNCTIONS[name]
        with pytest.raises(TypeError, match="^block '11' is not an int$"):
            function("11")
        with pytest.raises(ValueError, match="^block must be >= 1, got 0$") as raised:
            function(0)
        assert raised.type is ValueError  # no upper bound, so not a DepthError


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
            lambda: [np.uint8(1), np.int32(0)],
            lambda: np.array([1, 0], dtype=np.uint8),
            lambda: [1] * MAX_VECTOR_DEPTH,
            lambda: [np.bool_(True), np.bool_(False)],
            lambda: np.array([True, False, True]),
        ],
    )
    def test_same_tuple(self, make):
        out = validate_bits(make())
        assert out == reference_validate_bits(make())
        assert all(type(b) is int for b in out)

    @pytest.mark.parametrize("make", [lambda: [np.bool_(True), np.bool_(False)], lambda: np.array([True, False, True])])
    def test_numpy_bools_are_bits_to_excess_population_too(self, make):
        bits = validate_bits(make())
        for x in itertools.product((0, 1), repeat=len(bits)):
            assert excess_population(make(), x) == excess_population(bits, x)

    @pytest.mark.parametrize("bits", [[1, 2], [0, -1], [True, 2], (2,)])
    def test_same_value_error(self, bits):
        with pytest.raises(ValueError) as expected:
            reference_validate_bits(bits)
        with pytest.raises(ValueError) as got:
            validate_bits(bits)
        assert type(got.value) is type(expected.value) is ValueError
        assert str(got.value) == str(expected.value)

    def test_over_budget_is_depth_error(self):
        bits = [1, 0] * 12 + [1]
        with pytest.raises(DepthError) as expected:
            reference_validate_bits(bits)
        with pytest.raises(DepthError) as got:
            validate_bits(bits)
        assert str(got.value) == str(expected.value)


class TestFloatBits:
    # int() would truncate the floats without a word, 0.5 to 0 and 1.7 to 1,
    # and parse the strings; a bit is an int
    @pytest.mark.parametrize(
        "bits",
        [
            (0.5, 1),
            (1.0,),
            [1, np.float64(1.0)],
            np.array([0.0, 1.0]),
            [np.float32(1.7)],
            ["0", "1", "1"],
            "101",
            ["1", "2"],
            ["1", "x"],
        ],
        ids=[
            "half",
            "integral-float",
            "numpy-float64",
            "float-array",
            "numpy-float32",
            "digit-strings",
            "string",
            "non-bit-strings",
            "non-numeric-string",
        ],
    )
    def test_refused_with_type_error(self, bits):
        with pytest.raises(TypeError, match=r"^bit .+ is not an int$"):
            validate_bits(bits)
        with pytest.raises(TypeError, match=r"^bits of dtype .+ are not ints$"):
            excess_population(bits, np.zeros(len(bits), dtype=np.int64))

    def test_truncate_refuses(self):
        with pytest.raises(TypeError, match=r"^bit 0\.5 "):
            truncate((0.5, 1), 2)

    def test_series_term_refuses(self):
        with pytest.raises(TypeError, match=r"^bit 1\.7 "):
            term_value_by_endpoints((1.7,), 1)

    def test_refusal_never_loads_numpy(self):
        # no numpy bool can exist before numpy is loaded, so a float bit is refused without it
        script = """
import sys
from benford2.dyadic import truncate, validate_bits
for refuse in (lambda: validate_bits((0.5,)), lambda: truncate((0.5,), 1)):
    try:
        refuse()
    except TypeError as exc:
        print(exc, "numpy" in sys.modules)
"""
        result = run_fresh(script)
        assert (result.stdout, result.stderr) == ("bit 0.5 is not an int False\n" * 2, "")
