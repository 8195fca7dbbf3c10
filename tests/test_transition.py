import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import DEPTH2_PRINTED

from benford2.analytic import harmonic_block_sum
from benford2.dyadic import DepthError, excess_population, pack_bits, unpack_bits
from benford2.solver import benford_reference, convergence_table, solve
from benford2.transition import (
    apply_dense,
    apply_fast,
    brute_force_element,
    build_dense,
    matrix_element_exact,
)

# the 4x4 matrix of limiting scaled probabilities at depth 2, row by row
DEPTH2_MATRIX = [
    [Fraction(1, 4), Fraction(2, 5), Fraction(1, 3), Fraction(2, 7)],
    [Fraction(1, 4), Fraction(1, 5), Fraction(1, 3), Fraction(2, 7)],
    [Fraction(1, 4), Fraction(1, 5), Fraction(1, 6), Fraction(2, 7)],
    [Fraction(1, 4), Fraction(1, 5), Fraction(1, 6), Fraction(1, 7)],
]


class TestMatrixElement:
    def test_depth2_golden_entries(self):
        assert matrix_element_exact(0b100, 0b101) == Fraction(2, 5)
        assert matrix_element_exact(0b111, 0b111) == Fraction(1, 7)

    def test_depth1_golden_entry(self):
        assert matrix_element_exact(0b10, 0b11) == Fraction(2, 3)

    def test_bounds(self):
        for k in range(1, 7):
            blocks = range(1 << k, 2 << k)
            for scale in blocks:
                for target in blocks:
                    value = matrix_element_exact(target, scale)
                    assert 0 < value <= Fraction(2, 1 << k)
                    assert value >= Fraction(1, 1 << (k + 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            matrix_element_exact(0b10, 0b101)

    def test_block_values_bridge_the_bit_kernel(self):
        # the value comparison against the literal bit-by-bit excess sum
        for k in range(0, 7):
            vectors = [unpack_bits(packed, k) for packed in range(1 << k)]
            grid = np.array(vectors, dtype=np.int64).reshape(1 << k, k)
            excess = excess_population(grid[:, np.newaxis, :], grid[np.newaxis, :, :]).tolist()
            for a, ab in enumerate(vectors):
                scale = (1 << k) | pack_bits(ab)
                for x, xb in enumerate(vectors):
                    expected = Fraction(1 + excess[a][x], scale)
                    assert matrix_element_exact((1 << k) | pack_bits(xb), scale) == expected

    def test_depth2_closed_form(self):
        # (1 + a1*[x1=0] + a2*[x1=a1][x2=0]) / (4 + 2*a1 + a2)
        for a1 in (0, 1):
            for a2 in (0, 1):
                for x1 in (0, 1):
                    for x2 in (0, 1):
                        direct = Fraction(
                            1 + a1 * (x1 == 0) + a2 * (x1 == a1) * (x2 == 0),
                            4 + 2 * a1 + a2,
                        )
                        assert direct == matrix_element_exact(4 + 2 * x1 + x2, 4 + 2 * a1 + a2)


class TestBuildDense:
    def test_depth1_golden(self):
        entries = build_dense(1)
        assert entries.tolist() == [[0.5, 2 / 3], [0.5, 1 / 3]]

    def test_depth2_golden(self):
        entries = build_dense(2)
        for x in range(4):
            for a in range(4):
                assert entries[x, a] == float(DEPTH2_MATRIX[x][a])

    def test_column_sums_float(self):
        for k in (1, 2, 5, 8):
            sums = build_dense(k).sum(axis=0)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_column_sums_exact_rational(self):
        for k in range(1, 7):
            n = 1 << k
            for scale in range(n, 2 * n):
                total = sum(matrix_element_exact(target, scale) for target in range(n, 2 * n))
                assert total == 1

    def test_column_numerators_exact_through_depth_10(self):
        # common denominator n + a: numerators 1 + excess must sum to n + a
        for k in range(1, 11):
            n = 1 << k
            index = np.arange(n, dtype=np.int64)
            counts = np.sum(index[:, np.newaxis] < index[np.newaxis, :], axis=0) + n
            assert np.array_equal(counts, n + index)

    def test_bits_equal_one_division_per_entry(self):
        # the 4^k quotients (1 + excess) / scale, laid out column-major
        for k in range(1, 11):
            n = 1 << k
            index = np.arange(n, dtype=np.int64)
            excess = index[np.newaxis, :] > index[:, np.newaxis]
            scale = (n + index).astype(np.float64)
            expected = np.asfortranarray((1.0 + excess) / scale[np.newaxis, :])
            entries = build_dense(k)
            assert entries.flags.f_contiguous
            assert np.array_equal(entries, expected)

    def test_depth_guard(self):
        with pytest.raises(DepthError):
            build_dense(0)
        with pytest.raises(DepthError):
            build_dense(13)


class TestApply:
    def test_dense_first_column(self):
        result = apply_dense(build_dense(1), np.array([1.0, 0.0]))
        assert result.tolist() == [0.5, 0.5]

    def test_dense_fixed_point_depth1(self):
        vector = np.array([4 / 7, 3 / 7])
        result = apply_dense(build_dense(1), vector)
        assert np.max(np.abs(result - vector)) <= 1e-15

    def test_dense_near_fixed_point_depth2(self):
        vector = np.array(DEPTH2_PRINTED)
        result = apply_dense(build_dense(2), vector)
        assert np.max(np.abs(result - vector)) <= 1e-4

    def test_dense_preserves_sum(self):
        rng = np.random.default_rng(5)
        for k in (1, 3, 6):
            matrix = build_dense(k)
            for _ in range(10):
                vector = rng.random(1 << k)
                assert abs(apply_dense(matrix, vector).sum() - vector.sum()) <= 1e-12

    def test_dense_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_dense(build_dense(2), np.ones(3))

    def test_fast_fixed_point_depth1(self):
        vector = np.array([4 / 7, 3 / 7])
        assert np.max(np.abs(apply_fast(vector, 1) - vector)) <= 1e-12

    def test_fast_uniform_output_strictly_decreasing(self):
        for k in range(1, 11):
            result = apply_fast(np.full(1 << k, 1.0 / (1 << k)), k)
            assert np.all(np.diff(result) < 0)

    def test_fast_matches_dense(self):
        rng = np.random.default_rng(17)
        for k in range(1, 11):
            matrix = build_dense(k)
            trials = 100 if k == 10 else 10
            for _ in range(trials):
                vector = rng.random(1 << k)
                gap = np.abs(apply_fast(vector, k) - apply_dense(matrix, vector))
                assert np.max(gap) <= 1e-12

    def test_fast_bits_equal_suffix_expression(self):
        # w = v / scale, s = reversed cumulative sum of w, product = s[0] + s - w;
        # k up to 18 scans 1, 2, 4 and 8 blocks of APPLY_BLOCK
        rng = np.random.default_rng(29)
        for k in range(1, 19):
            n = 1 << k
            vector = rng.random(n)
            before = vector.copy()
            weights = vector / (n + np.arange(n, dtype=np.float64))
            suffix = np.cumsum(weights[::-1])[::-1]
            assert np.array_equal(apply_fast(vector, k), suffix[0] + suffix - weights)
            assert np.array_equal(vector, before)

    def test_fast_length_check(self):
        with pytest.raises(ValueError):
            apply_fast(np.ones(3), 2)
        with pytest.raises(DepthError):
            apply_fast(np.ones(2), 25)


def traced_peak(run):
    """Peak of the memory traced while ``run()`` executes, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    # at depth 20 one vector is 8 MiB; the kernel's block buffers and the
    # small objects fit in 1 MiB of slack
    VECTOR = 8 << 20
    SLACK = 1 << 20

    def test_apply_fast_allocates_only_its_output(self):
        vector = np.full(1 << 20, 2.0**-20)
        assert traced_peak(lambda: apply_fast(vector, 20)) <= self.VECTOR + self.SLACK

    def test_solve_holds_two_vectors(self):
        assert traced_peak(lambda: solve(20)) <= 2 * self.VECTOR + self.SLACK

    def test_convergence_table_holds_two_vectors(self):
        assert traced_peak(lambda: convergence_table(20)) <= 2 * self.VECTOR + self.SLACK


class TestBruteForceElement:
    def test_closed_form_block_100_scale_100(self):
        # count below 2^(m+2) of numbers starting 100: 1+2+...+2^(m-1) = 2^m - 1
        for m in (1, 4, 8, 16):
            expected = Fraction((1 << m) - 1, 1 << (m + 2))
            assert brute_force_element(0b100, 0b100, m) == expected

    def test_depth1_scale_11(self):
        value = brute_force_element(0b10, 0b11, 10)
        assert abs(value - Fraction(2, 3)) <= Fraction(1, 1 << 9)

    def test_oracle_agreement_exhaustive(self):
        for padding in (8, 16, 24):
            bound = Fraction(2, 1 << padding)
            for k in range(1, 7):
                blocks = range(1 << k, 2 << k)
                for scale in blocks:
                    for target in blocks:
                        gap = abs(
                            brute_force_element(target, scale, padding)
                            - matrix_element_exact(target, scale)
                        )
                        assert gap <= bound

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_force_element(0b10, 0b10, 0)
        with pytest.raises(DepthError):
            brute_force_element(1 << 20, 1 << 20, 30)
        with pytest.raises(ValueError):
            brute_force_element(0b100, 0b10, 8)


ONE_BLOCK = {
    "benford_reference": lambda block: benford_reference(block, 2),
    "harmonic_block_sum": lambda block: harmonic_block_sum(block, 10),
}
TWO_BLOCKS = {
    "matrix_element_exact": matrix_element_exact,
    "brute_force_element": lambda target, scale: brute_force_element(target, scale, 8),
}
MALFORMED_BLOCKS = [
    (4.0, TypeError),
    (2.5, TypeError),
    ("100", TypeError),
    ((0, 0), TypeError),
    (None, TypeError),
    (True, TypeError),
    (0, ValueError),
    (-4, ValueError),
]
MALFORMED_CALLS = (
    [(name, (block,), error) for name in ONE_BLOCK for block, error in MALFORMED_BLOCKS]
    + [
        (name, args, error)
        for name in TWO_BLOCKS
        for block, error in MALFORMED_BLOCKS
        for args in ((block, 0b100), (0b100, block))
    ]
    + [
        (name, args, error)
        for name in TWO_BLOCKS
        for args, error in (((4, 8), ValueError), ((1 << 25, 1 << 25), DepthError))
    ]
)


@pytest.mark.parametrize(
    "name, args, error",
    MALFORMED_CALLS,
    ids=[f"{name}{args!r}" for name, args, _ in MALFORMED_CALLS],
)
def test_malformed_block_refused(name, args, error):
    # a block is an int value >= 1; the two blocks of an oracle share one
    # depth within the vector budget
    with pytest.raises(error) as raised:
        {**ONE_BLOCK, **TWO_BLOCKS}[name](*args)
    assert raised.type is error
    if error is TypeError:
        malformed = next(arg for arg in args if type(arg) is not int)
        assert repr(malformed) in str(raised.value)
