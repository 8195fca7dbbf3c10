import contextlib
import io
import json
import math
import re
from decimal import ROUND_FLOOR, Context, Decimal, Inexact, localcontext
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    DEPTH2_EXACT,
    DEPTH2_MARGINAL_PRINTED,
    DEPTH2_PRINTED,
    EXACT_P10_SLACK,
    exact_p10,
    harmonic_gap,
    rounded_p10,
)

from benford2 import cli, dyadic
from benford2.dyadic import DepthError, harmonic_block_sum
from benford2.solver import (
    ConvergenceError,
    _closed_form,
    aggregate,
    benford_reference,
    convergence_table,
    solve,
)
from benford2.transition import apply_fast, build_dense, matrix_element_exact

BENFORD_P10 = math.log2(1.5)


def exact_fixed_point(depth):
    """Independent oracle: rational null-space solve of (M - I) v = 0, sum 1.

    Plain Gaussian elimination over Fraction entries; shares nothing with
    the power iteration beyond the matrix-element formula.
    """
    n = 1 << depth
    rows = [
        [matrix_element_exact(n + x, n + a) - (1 if x == a else 0) for a in range(n)]
        for x in range(n - 1)
    ]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        scale = rows[col][col]
        rows[col] = [v / scale for v in rows[col]]
        rhs[col] /= scale
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
                rhs[r] -= factor * rhs[col]
    return rhs


class TestSolve:
    def test_depth1_exact(self):
        report = solve(1)
        assert abs(report.probabilities[0] - 4 / 7) <= 1e-12
        assert abs(report.probabilities[1] - 3 / 7) <= 1e-12
        assert abs(report.p10 - 4 / 7) <= 1e-12

    def test_depth2_matches_published_solution(self):
        report = solve(2)
        for got, expected in zip(report.probabilities, DEPTH2_PRINTED):
            assert abs(got - expected) <= 5e-5
        assert abs(report.p10 - DEPTH2_MARGINAL_PRINTED[0]) <= 1e-4

    def test_depth2_matches_exact_rational_oracle(self):
        oracle = exact_fixed_point(2)
        assert oracle == [
            Fraction(168, 533),
            Fraction(140, 533),
            Fraction(120, 533),
            Fraction(105, 533),
        ]
        assert tuple(oracle) == DEPTH2_EXACT
        report = solve(2)
        for got, expected in zip(report.probabilities, oracle):
            assert abs(got - float(expected)) <= 1e-12

    def test_depth3_matches_exact_rational_oracle(self):
        oracle = exact_fixed_point(3)
        for backend in ("dense", "fast"):
            report = solve(3, backend=backend)
            for got, expected in zip(report.probabilities, oracle):
                assert abs(got - float(expected)) <= 1e-12

    def test_depth10_leading_pair(self):
        assert abs(solve(10).p10 - 0.584933) <= 1e-6

    def test_fixed_point_residual(self):
        tolerance = 1e-14
        for depth in (1, 3, 6):
            report = solve(depth, tolerance=tolerance, backend="dense")
            image = build_dense(depth) @ report.probabilities
            assert np.max(np.abs(image - report.probabilities)) <= 10 * tolerance

    def test_normalization(self):
        for depth in (1, 4, 9):
            assert abs(solve(depth).probabilities.sum() - 1.0) <= 1e-12

    def test_p10_p11_complementary(self):
        for depth in (1, 5, 8):
            report = solve(depth)
            assert abs(report.p10 + report.p11 - 1.0) <= 1e-12

    def test_unique_fixed_point_from_random_starts(self):
        depth, n = 5, 32
        reference = solve(depth).probabilities
        rng = np.random.default_rng(11)
        for _ in range(10):
            vector = rng.random(n) + 1e-3
            vector /= vector.sum()
            for _ in range(2000):
                nxt = apply_fast(vector, depth)
                nxt /= nxt.sum()
                if np.max(np.abs(nxt - vector)) <= 1e-15:
                    vector = nxt
                    break
                vector = nxt
            assert np.max(np.abs(vector - reference)) <= 1e-10

    def test_backend_equivalence(self):
        for depth in range(1, 11):
            dense = solve(depth, backend="dense").probabilities
            fast = solve(depth, backend="fast").probabilities
            assert np.max(np.abs(dense - fast)) <= 1e-10

    def test_strictly_decreasing_in_dyadic_order(self):
        for depth in range(1, 13):
            assert np.all(np.diff(solve(depth).probabilities) < 0)

    def test_iteration_cap(self):
        with pytest.raises(ConvergenceError) as excinfo:
            solve(5, tolerance=1e-30, max_iterations=3)
        assert excinfo.value.iterations == 3
        assert excinfo.value.residual > 1e-30

    def test_argument_guards(self):
        with pytest.raises(DepthError):
            solve(0)
        with pytest.raises(DepthError):
            solve(13, backend="dense")
        with pytest.raises(DepthError):
            solve(25, backend="fast")
        with pytest.raises(ValueError):
            solve(3, tolerance=0.0)
        with pytest.raises(ValueError):
            solve(3, backend="magic")
        with pytest.raises(ValueError, match="backend must be one of"):  # closed is convergence_table's alone
            solve(3, backend="closed")
        with pytest.raises(TypeError, match="depth True is not an int"):
            solve(True)
        with pytest.raises(TypeError, match="depth 3.0 is not an int"):
            solve(3.0)

    @pytest.mark.parametrize("tolerance", [True, False, "1e-14", None, 1e-14j])
    def test_tolerance_that_is_not_a_real_number_refused(self, tolerance):
        # True would stop after one step, 3.5e-3 off the converged p10
        for call in (solve, convergence_table):
            with pytest.raises(TypeError, match=re.escape(f"tolerance {tolerance!r} is not a real number")):
                call(3, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [np.float64(1e-14), np.float32(1e-6)])
    def test_numpy_float_tolerance_accepted(self, tolerance):
        report = solve(3, tolerance=tolerance)
        assert report.residual <= tolerance
        assert report.iterations == solve(3, tolerance=float(tolerance)).iterations

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            solve(3, tolerance=tolerance)


class TestClosedFormFixedPoint:
    """The paper's analytic solution pi_V = 1/((V+1)*D), checked exactly."""

    def test_stationary_through_depth_7(self):
        for depth in range(0, 8):
            blocks = range(1 << depth, 2 << depth)
            weights = [Fraction(1, value + 1) for value in blocks]
            normalizer = sum(weights)  # D = H(2n) - H(n)
            closed = {value: weight / normalizer for value, weight in zip(blocks, weights)}
            assert sum(closed.values()) == 1
            for target in blocks:
                image = sum(matrix_element_exact(target, scale) * closed[scale] for scale in blocks)
                assert image == closed[target], (depth, target)

    def test_telescoping_sums_through_depth_12(self):
        # (M pi)_x = sum_a pi_a/(n+a) + sum_{a>x} pi_a/(n+a), and with
        # pi_a = 1/((n+a+1) D) the first sum is 1/(2nD) and the suffix is
        # (1/(n+x+1) - 1/(2n))/D, so (M pi)_x = pi_x at every depth
        for depth in range(0, 13):
            n = 1 << depth
            suffix = Fraction(0)  # over a > x, built from the top down
            for x in range(n - 1, -1, -1):
                assert suffix == Fraction(1, n + x + 1) - Fraction(1, 2 * n), (depth, x)
                suffix += Fraction(1, (n + x) * (n + x + 1))
            assert suffix == Fraction(1, 2 * n), depth


class TestAggregate:
    def test_depth2_onto_first_bit(self):
        marginal = aggregate(solve(2).probabilities, 1)
        assert abs(marginal[0] - DEPTH2_MARGINAL_PRINTED[0]) <= 1e-4
        assert abs(marginal[1] - DEPTH2_MARGINAL_PRINTED[1]) <= 1e-4

    def test_edge_prefixes(self):
        probabilities = solve(3).probabilities
        assert aggregate(probabilities, 0).tolist() == [pytest.approx(1.0, abs=1e-12)]
        assert np.array_equal(aggregate(probabilities, 3), probabilities)

    def test_marginal_sums(self):
        probabilities = solve(6).probabilities
        for j in range(0, 7):
            assert abs(aggregate(probabilities, j).sum() - 1.0) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            aggregate(solve(2).probabilities, 3)
        with pytest.raises(ValueError):
            aggregate(np.ones(3), 1)
        with pytest.raises(ValueError, match=r"shape \(2, 2\)"):
            aggregate(np.ones((2, 2)), 1)
        with pytest.raises(ValueError, match=r"shape \(0,\)"):
            aggregate(np.array([]), 0)


class TestBenfordReference:
    def test_base2_blocks(self):
        assert abs(benford_reference(0b10, 2) - 0.5849625) <= 1e-7
        assert abs(benford_reference(0b11, 2) - 0.4150375) <= 1e-7
        assert benford_reference(0b110) == benford_reference(6, 2)

    def test_base10_leading_digit(self):
        assert abs(benford_reference(1, 10) - 0.301) <= 5e-4

    def test_reference_table_sums_to_one(self):
        for depth in range(0, 11):
            total = sum(benford_reference(v) for v in range(1 << depth, 2 << depth))
            assert abs(total - 1.0) <= 1e-12

    # 1 / V is int true division: V is never converted to a float, which overflows past 2^1024
    def test_block_past_the_float_range(self):
        assert benford_reference(1 << 1100) == 0.0

    def test_subnormal_reference(self):
        expected = math.ldexp(1 / (3 * math.log(2)), -1023)
        assert abs(benford_reference(3 << 1023) - expected) <= 1e-12 * expected

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            benford_reference(0b10, 1)
        with pytest.raises(ValueError):
            benford_reference(0, 2)
        for base in (float("inf"), 2.0, True, "2"):
            with pytest.raises(TypeError, match=f"base {base!r} is not an int"):
                benford_reference(0b10, base)


class TestConvergenceTable:
    PUBLISHED_P10 = [
        0.571428, 0.577861, 0.581339, 0.583135, 0.584045,
        0.584503, 0.584732, 0.584847, 0.584905, 0.584933,
    ]

    def test_matches_published_values(self, table10):
        assert len(table10) == 10
        for row, published in zip(table10, self.PUBLISHED_P10):
            assert abs(row.p10 - published) <= 1e-6

    def test_relative_error_positive_and_decreasing(self, table10):
        errors = [row.rel_err for row in table10]
        assert all(e > 0 for e in errors)
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_each_depth_improves_leading_pair(self, table10):
        gaps = [abs(row.p10 - BENFORD_P10) for row in table10]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_reference_column(self, table10):
        assert all(row.reference == BENFORD_P10 for row in table10)

    def test_dense_backend_agrees(self):
        dense_rows = convergence_table(4, backend="dense")
        fast_rows = convergence_table(4, backend="fast")
        for d, f in zip(dense_rows, fast_rows):
            assert abs(d.p10 - f.p10) <= 1e-10

    def test_depth_guard(self):
        with pytest.raises(DepthError):
            convergence_table(0)
        with pytest.raises(DepthError):
            convergence_table(25)
        with pytest.raises(TypeError, match="depth True is not an int"):
            convergence_table(True)
        with pytest.raises(TypeError, match="depth 2.0 is not an int"):
            convergence_table(2.0)

    def test_dense_depth_checked_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr("benford2.solver.solve", lambda *a, **k: calls.append(a))
        with pytest.raises(DepthError):
            convergence_table(13, backend="dense")
        assert calls == []

    @pytest.mark.parametrize("tolerance", [0.0, math.nan])
    def test_tolerance_checked_before_any_solve(self, monkeypatch, tolerance):
        # the closed backend uses no tolerance, but checks it as the oracles do
        calls = []
        monkeypatch.setattr("benford2.solver.solve", lambda *a, **k: calls.append(a))
        for backend in ("closed", "fast"):
            with pytest.raises(ValueError, match="tolerance"):
                convergence_table(20, tolerance=tolerance, backend=backend)
        assert calls == []

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match=re.escape("backend must be one of ('closed', 'dense', 'fast')")):
            convergence_table(3, backend="magic")


class TestErrorDecayRatios:
    def test_published_neighbour_ratios(self, table10):
        ratios = [b.rel_err / a.rel_err for a, b in zip(table10, table10[1:])]
        # rel_err(5)/rel_err(4) and rel_err(10)/rel_err(9)
        assert ratios[3] == pytest.approx(0.50, abs=0.02)
        assert ratios[8] == pytest.approx(0.505, abs=0.02)

    def test_band_for_depths_3_through_10(self, table10):
        ratios = [b.rel_err / a.rel_err for a, b in zip(table10, table10[1:])]
        for ratio in ratios[1:9]:  # rel_err(k)/rel_err(k-1) for k = 3..10
            assert 0.4 <= ratio <= 0.6


def rel_err_series(order):
    """r_1, ..., r_order with rel_err = sum of r_j 2^(-jk) + O(2^(-(order+1)k)) for the exact p10 at depth k.

    With n = 2^k, p10 = (H_{3n/2} - H_n) / (H_{2n} - H_n) and rel_err =
    (log2 1.5 - p10) / log2 1.5.  By Euler-Maclaurin H_{bn} - H_n = ln b + sum of
    g_j(b) n^-j with g_1 = (1/b - 1)/2, g_2 = -(1/b^2 - 1)/12, g_3 = 0 and
    g_4 = (1/b^4 - 1)/120; the quotient's series is taken by power-series division.
    """
    def scaled_gap(b):  # (H_{bn} - H_n) / ln b as a series in 1/n
        g = [math.log(b), (1 / b - 1) / 2, -(1 / b**2 - 1) / 12, 0.0, (1 / b**4 - 1) / 120]
        return [v / g[0] for v in g[: order + 1]]

    num, den = scaled_gap(1.5), scaled_gap(2.0)
    quotient = []
    for j in range(order + 1):
        quotient.append(num[j] - sum(quotient[i] * den[j - i] for i in range(j)))
    return [-q for q in quotient[1:]]


class TestClosedFormDecay:
    # rel_err * 2^k = C - D 2^-k + O(4^-k)
    C = 1 / (6 * math.log(1.5)) - 1 / (4 * math.log(2))
    D = 5 / (108 * math.log(1.5)) - 1 / (16 * math.log(2)) - C / (4 * math.log(2))

    def test_constants_are_the_series_coefficients(self):
        r1, r2 = rel_err_series(2)
        assert (round(self.C, 7), round(self.D, 7)) == (0.0503768, 0.0058427)
        assert abs(r1 - self.C) <= 1e-15 and abs(-r2 - self.D) <= 1e-15

    @pytest.mark.parametrize("depth", range(14, 25, 2))
    def test_rel_err_decays_with_the_derived_constants(self, depth):
        reference = math.log2(1.5)
        p10 = _closed_form(depth)[0]
        rel_err = (reference - p10) / reference  # reference - p10 is exact (Sterbenz)
        residual = rel_err * 2.0**depth - (self.C - self.D * 2.0**-depth)
        # the next two series terms bound residual * 4^k; past them each term is
        # smaller still by 2^-k.  p10 is within half an ulp, correctly rounded
        # (TestClosedForm), and the reference within an ulp, and 2^k scales both.
        *_, r3, r4 = rel_err_series(4)
        e = abs(r3) + abs(r4) * 2.0**-depth
        eps = (math.ulp(p10) / 2 + math.ulp(reference)) / reference
        assert abs(residual) <= e * 4.0**-depth + 2.0**depth * eps, (depth, residual)


class TestClosedForm:
    @pytest.mark.parametrize("depth", range(1, 15))
    def test_within_two_ulp_of_the_exact_fraction(self, depth):
        # Asserts equality, not two ulp: p10 and p11 are each the exact value
        # correctly rounded.  The name is older than that and the id is kept.
        n = 1 << depth
        (p, q), (r, s) = harmonic_gap(n, 3 * n // 2), harmonic_gap(3 * n // 2, 2 * n)
        # p10 = (p/q) / (p/q + r/s); int / int is correctly rounded, as float(Fraction) is
        whole = p * s + r * q
        assert _closed_form(depth) == (p * s / whole, r * q / whole)

    def test_depth_one_is_four_sevenths(self):
        assert _closed_form(1) == (float(Fraction(4, 7)), float(Fraction(3, 7)))

    @pytest.mark.parametrize("depth", range(15, 27))
    def test_matches_euler_maclaurin(self, depth):
        # 80 digits and two more terms than the closed form takes
        p10, slack = exact_p10(depth), EXACT_P10_SLACK
        for got, exact in zip(_closed_form(depth), (p10, 1 - p10)):
            assert float(exact - slack) == float(exact + slack), depth  # the rounding is decided
            assert got == float(exact), depth

    # every start a <= 40, the least the interval runs at, and n = 2^depth for depths 6 to 12; the
    # ends 3a/2 and 2a make (n, 3n/2) and (n, 2n) of every depth 1 to 12 a case
    @pytest.mark.parametrize("a", [*range(1, 41), *(1 << depth for depth in range(6, 13))])
    def test_euler_maclaurin_gap_is_within_its_remainder_bound(self, a):
        # |B_10|/(10 a^10) = 1/(132 a^10), plus 10^-45 for the arithmetic: the radius the rounding rests on
        for b in {a + 1, a + 2, 2 * a} | ({3 * a // 2} if a % 2 == 0 else set()):
            midpoint, radius = dyadic._euler_maclaurin_gap(a, b)
            with localcontext(Context(prec=50)):
                assert radius == 1 / (132 * Decimal(a) ** 10) + Decimal("1e-45")
            error = Fraction(midpoint) - Fraction(*harmonic_gap(a, b))
            assert abs(error) <= Fraction(radius), (a, b, error)

    def test_exact_integers_decide_only_below_depth_six(self, monkeypatch):
        # up to depth 5 the interval around p10 spans a rounding midpoint, so the exact gaps decide;
        # from depth 6 on the intervals decide every depth of the budget
        starts = []

        def recorded_gap(a, b):
            starts.append(a)
            return harmonic_gap(a, b)

        monkeypatch.setattr(dyadic, "_harmonic_gap", recorded_gap)
        for depth in range(1, 27):
            _closed_form(depth)
        # the two gaps of a depth start at n and 3n/2, both of n's bit length
        assert sorted(start.bit_length() - 1 for start in starts) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    @pytest.mark.parametrize("depth", range(1, 15))
    def test_share_bound_holds_the_exact_p10(self, depth, monkeypatch):
        # the radius harmonic_shares rounds p10 with, (e + p10 f)/(W - f) + 10^-45, holds the exact value
        rounding, intervals = dyadic._rounding, []

        def recorded_rounding(value, bound):
            intervals.append((value, bound))
            return rounding(value, bound)

        monkeypatch.setattr(dyadic, "_rounding", recorded_rounding)
        _closed_form(depth)
        (p10, bound), (p11, same) = intervals
        n = 1 << depth
        (p, q), (r, s) = harmonic_gap(n, 3 * n // 2), harmonic_gap(3 * n // 2, 2 * n)
        exact = Fraction(p * s, p * s + r * q)
        assert bound == same > 0
        assert abs(Fraction(p10) - exact) <= Fraction(bound), depth
        assert abs(Fraction(p11) - (1 - exact)) <= Fraction(bound), depth

    def test_ignores_the_callers_decimal_context(self):
        expected = _closed_form(22)
        with localcontext(Context(prec=5, rounding=ROUND_FLOOR, traps=[Inexact])):
            assert _closed_form(22) == expected

    @pytest.mark.parametrize("depth", [0, 27])
    def test_depth_outside_the_harmonic_budget(self, depth):
        with pytest.raises(DepthError):
            _closed_form(depth)

    @pytest.mark.parametrize("depth", range(2, 25))
    def test_is_the_three_block_sum_formula(self, depth):
        # the same ratio from three correctly rounded exact block sums, each less one term, which
        # rounds more than once: within 2 ulp of the correctly rounded closed form
        n = 1 << depth
        whole = harmonic_block_sum(0b1, depth) - 1 / (2 * n)
        head = harmonic_block_sum(0b10, depth - 1) - 1 / (3 * n)
        tail = harmonic_block_sum(0b11, depth - 1) - 1 / (6 * n)
        for got, summed in zip(_closed_form(depth), (head / whole, tail / whole)):
            assert abs(got - summed) <= 2 * math.ulp(got), (depth, got, summed)


class TestClosedTable:
    """The default table: each row's p10 is the closed form's, and every cell is right to its print."""

    @pytest.fixture(scope="class")
    def printed(self):
        """The CSV rows and the JSON rows of ``table1 --kmax 24``, the depth budget."""
        out = {}
        for fmt in ("csv", "json"):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                assert cli.main(["table1", "--kmax", "24", "--format", fmt]) == 0
            out[fmt] = buffer.getvalue()
        return out["csv"].splitlines()[1:], json.loads(out["json"])

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_p10_within_two_ulp_of_the_exact_fraction(self, depth):
        # Asserts equality, not two ulp: the row's p10 is the exact value
        # correctly rounded.  The name is older than that and the id is kept.
        row = convergence_table(depth)[-1]
        assert row.p10 == _closed_form(depth)[0] == float(exact_p10(depth))

    def test_every_printed_p10_is_the_exact_value_rounded(self, printed):
        _, json_rows = printed
        assert [row["p10"] for row in json_rows] == [rounded_p10(depth) for depth in range(1, 25)]

    def test_cell_is_the_exact_value_rounded(self, printed):
        csv_rows, _ = printed
        assert len(csv_rows) == 24
        for depth, line in enumerate(csv_rows, start=1):
            exact = exact_p10(depth)
            millionths = exact * 10**6
            # the exact value is not within reach of a rounding boundary, so rounding it decides the cell
            assert abs(millionths - math.floor(millionths) - Fraction(1, 2)) > Fraction(1, 10**20)
            assert line.split(",")[1] == f"0.{round(millionths):06d}", depth

    def test_rel_err_is_that_of_the_rows_p10(self, printed, table10):
        _, json_rows = printed
        reference = math.log2(1.5)
        assert len(json_rows) == 24
        for row in json_rows:
            assert row["benford_p10"] == reference
            assert row["rel_err"] == abs(row["p10"] - reference) / reference
        for row in table10:
            assert row.rel_err == abs(row.p10 - row.reference) / row.reference
