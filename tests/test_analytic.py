import math
import random
from decimal import ROUND_FLOOR, Context, Inexact, localcontext
from fractions import Fraction

import numpy as np
import pytest
from conftest import MUTATIONS, harmonic_gap, rounded_block_sum
from hypothesis import given, settings
from hypothesis import strategies as st

from benford2 import analytic, dyadic
from benford2.analytic import (
    MAX_SAMPLES,
    SUITES,
    VerificationReport,
    harmonic_block_sum,
    normalization_check,
    run_suite,
    series_partial_sum,
    term_value_by_endpoints,
    term_value_by_product,
)
from benford2.dyadic import MAX_VECTOR_DEPTH, DepthError, excess_population, pack_bits, truncate, unpack_bits
from benford2.transition import apply_fast, build_dense


def trial_image(depth):
    """The kernel's image of the trial weights 1/(1+a) at depth k: entry x is
    the grid sum of (1 + [a > x]) / (1+a)^2 over a = 0, 1/2^k, ..., whose
    limit is the trial weight 1/(1+x)."""
    n = 1 << depth
    return apply_fast(n / np.arange(n, 2 * n, dtype=np.float64), depth)


def image_at(bits, depth):
    """The image at the target x = 0.b1b2..., zero-extended to the grid depth."""
    return float(trial_image(depth)[pack_bits(bits) << (depth - len(bits))])


class TestRiemannSum:
    # the Riemann sum is the kernel's image of the trial weights
    def test_endpoint_zero(self):
        assert abs(image_at((), 16) - 1.0) <= 2**-13
        assert abs(image_at((0, 0, 0), 16) - 1.0) <= 2**-13

    def test_half(self):
        assert abs(image_at((1,), 16) - 2 / 3) <= 2**-13

    def test_quarter(self):
        assert abs(image_at((0, 1), 18) - 4 / 5) <= 2**-15

    def test_error_bound_and_decay(self):
        targets = [(), (1,), (0, 1), (1, 0, 1, 1), (1,) * 8, (0, 1) * 4]
        previous = None
        for depth in (10, 12, 14, 16):
            worst = 0.0
            for bits in targets:
                limit = 1.0 / (1.0 + float(truncate(bits, len(bits))))
                worst = max(worst, abs(image_at(bits, depth) - limit))
            assert worst <= 8 * 2.0**-depth
            if previous is not None:
                assert worst < previous
            previous = worst

    def test_matches_definitional_kernel(self):
        # the grid sum evaluated with the term-by-term excess instead of the
        # kernel's suffix scan, for every 17th target at depth 8
        depth = 8
        n = 1 << depth
        image = trial_image(depth)
        scales = [unpack_bits(a, depth) for a in range(n)]
        for x in range(0, n, 17):
            target = unpack_bits(x, depth)
            excess = excess_population(scales, target).tolist()
            direct = sum((1 + excess[a]) / (1 + a / n) ** 2 for a in range(n)) / n
            assert abs(image[x] - direct) <= 1e-12


def endpoints_reference(bits, r):
    """Term r as the literal Fraction difference of 1/(1+a) at the ends of [lower, upper]."""
    upper = 1 - truncate(bits, r - 1)
    lower = upper - Fraction(1, 1 << r)
    return bits[r - 1] * (Fraction(1, 1) / (1 + lower) - Fraction(1, 1) / (1 + upper))


def product_reference(bits, r):
    """Term r as the literal Fraction 2^-r / ((2 - head) * (2 - head - 2^-r))."""
    head = truncate(bits, r - 1)
    step = Fraction(1, 1 << r)
    return bits[r - 1] * step / ((2 - head) * (2 - head - step))


class TestTermIntegral:
    @pytest.mark.parametrize("length", range(1, 11))
    def test_each_form_equals_its_fraction_reference(self, length):
        for packed in range(1 << length):
            bits = unpack_bits(packed, length)
            for r in range(1, length + 1):
                by_endpoints = term_value_by_endpoints(bits, r)
                by_product = term_value_by_product(bits, r)
                assert type(by_endpoints) is Fraction and by_endpoints == endpoints_reference(bits, r)
                assert type(by_product) is Fraction and by_product == product_reference(bits, r)

    def test_zero_bit_vanishes(self):
        assert term_value_by_endpoints((0, 1), 1) == 0

    def test_first_term_hand_value(self):
        assert term_value_by_endpoints((1,), 1) == Fraction(1, 6)

    def test_second_term_hand_value(self):
        assert term_value_by_endpoints((1, 1), 2) == Fraction(2, 15)
        assert term_value_by_endpoints((1, 1), 2) == term_value_by_product((1, 1), 2)

    def test_two_forms_exhaustive(self):
        for length in range(1, 9):
            for packed in range(1 << length):
                bits = unpack_bits(packed, length)
                for r in range(1, length + 1):
                    assert term_value_by_endpoints(bits, r) == term_value_by_product(bits, r)

    def test_two_forms_sampled_length_12(self):
        import random

        rng = random.Random(23)
        for _ in range(64):
            bits = tuple(rng.randrange(2) for _ in range(12))
            for r in range(1, 13):
                assert term_value_by_endpoints(bits, r) == term_value_by_product(bits, r)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            term_value_by_endpoints((1, 0), 3)
        with pytest.raises(ValueError):
            term_value_by_endpoints((1, 0), 0)


class TestSeriesPartialSum:
    def test_all_zeros(self):
        for r in range(0, 7):
            assert series_partial_sum((0,) * 6, r) == Fraction(1, 2)

    def test_all_ones_full_order(self):
        for length in (1, 4, 9):
            bits = (1,) * length
            full = series_partial_sum(bits, length)
            assert full == 1 / (2 - truncate(bits, length))
            assert abs(float(full) - 1.0) <= 2.0 ** -(length - 1)

    def test_telescoping_exact_all_orders(self):
        for length in range(1, 11):
            for packed in range(1 << length):
                bits = unpack_bits(packed, length)
                for r in range(0, length + 1):
                    assert series_partial_sum(bits, r) == 1 / (2 - truncate(bits, r))

    def test_partial_sums_nondecreasing(self):
        bits = (1, 0, 1, 1, 0, 1, 0, 0, 1, 1)
        values = [series_partial_sum(bits, r) for r in range(len(bits) + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_tail_bound_to_limit(self):
        for bits in [(1, 0) * 8, (1,) * 16, (0, 1, 1) * 5]:
            limit = 1 / (2 - truncate(bits, len(bits)))
            for r in range(1, len(bits) + 1):
                assert abs(series_partial_sum(bits, r) - limit) <= Fraction(2, 1 << r)

    def test_limit_consistent_with_riemann_target(self):
        # t = x with every bit flipped: the series limit 1/(2-t) equals
        # 1/(1+x) + 2^-k slack
        x = (0, 1, 1, 0, 1)
        t = tuple(1 - b for b in x)
        series_value = series_partial_sum(t, len(t))
        target = 1 / (1 + truncate(x, len(x)))
        assert abs(series_value - target) <= Fraction(1, 1 << len(x))

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            series_partial_sum((1, 0), 3)


class TestHarmonicBlockSum:
    def test_block_10_vs_log(self):
        assert abs(harmonic_block_sum(0b10, 20) - math.log(1.5)) <= 1e-6

    def test_block_11_vs_log(self):
        assert abs(harmonic_block_sum(0b11, 20) - math.log(4 / 3)) <= 1e-6
        assert abs(harmonic_block_sum(3, 20) / math.log(2) - 0.4150375) <= 1e-6

    def test_block_1_vs_log2(self):
        assert abs(harmonic_block_sum(0b1, 20) - math.log(2)) <= 1e-6

    def test_rigorous_error_bound(self):
        for value in (1, 2, 3, 7, 1000):
            for level in (6, 10, 14):
                gap = abs(harmonic_block_sum(value, level) - math.log1p(1.0 / value))
                assert gap <= 1.0 / (value << level)

    def test_bracket(self):
        for value in (2, 5, 9):
            for level in (8, 12):
                upper = harmonic_block_sum(value, level)
                start = value << level
                lower = upper - 1.0 / start + 1.0 / (start + (1 << level))
                target = math.log1p(1.0 / value)
                assert lower <= target + 1e-12
                assert target <= upper + 1e-12

    @pytest.mark.parametrize("value", [1, 2, 3, 1000, (1 << 45) + 7])
    def test_bits_equal_per_term_reference(self, value):
        # The reference is the exact sum of the terms 1/m, correctly rounded: exact integers up to
        # 2^14 terms, a decided 80-digit Euler-Maclaurin value beyond (the name and its ids are older
        # than that).  The first levels of V <= 3 start so low that the Euler-Maclaurin interval spans a
        # rounding midpoint and the exact gap decides; (1 << 45) + 7 scales past 2^53, where float(m) rounds.
        top = 16 if value > 1000 else 18
        for level in range(1, top + 1):
            assert harmonic_block_sum(value, level) == rounded_block_sum(value, level), level

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        level=st.integers(1, 14),
        scaled_bits=st.one_of(st.integers(15, 53), st.integers(54, 62)),
        fraction=st.floats(0, 1, exclude_max=True),
    )
    def test_equals_the_exact_sum_correctly_rounded(self, level, scaled_bits, fraction):
        # levels on both sides of the 2^12 terms past which the exact fallback is all but never
        # reached; scaled values of up to 62 bits, half of them past 2^53 where float(m) rounds
        value_bits = scaled_bits - level
        value = (1 << (value_bits - 1)) + int(fraction * (1 << (value_bits - 1)))
        assert harmonic_block_sum(value, level) == rounded_block_sum(value, level)

    def test_every_swept_block_equals_the_exact_sum_up_to_level_12(self):
        # the harmonic suite's blocks at levels up to 16: every block of k <= 6 bits, plus 1000
        for level in range(1, 13):
            for value in [*range(1, 1 << 7), 1000]:
                assert harmonic_block_sum(value, level) == rounded_block_sum(value, level), (value, level)

    def test_undecided_interval_falls_back_to_the_exact_gap(self, monkeypatch):
        # a bound widened 10^40 times holds a rounding midpoint, so the exact gap decides
        rounding, gaps = dyadic._rounding, []

        def recorded_gap(a, b):
            gaps.append((a, b))
            return harmonic_gap(a, b)

        monkeypatch.setattr(dyadic, "_rounding", lambda value, bound: rounding(value, bound * 10**40))
        monkeypatch.setattr(dyadic, "_harmonic_gap", recorded_gap)
        for value, level in ((1, 10), (3, 12), (1000, 8)):
            gaps.clear()
            assert harmonic_block_sum(value, level) == rounded_block_sum(value, level), (value, level)
            assert gaps == [((value << level) - 1, ((value + 1) << level) - 1)], (value, level)

    def test_ignores_the_callers_decimal_context(self):
        blocks = [(1, 20), (3, 16), (1000, 10), ((1 << 45) + 7, 16)]
        expected = [harmonic_block_sum(value, level) for value, level in blocks]
        with localcontext(Context(prec=5, rounding=ROUND_FLOOR, traps=[Inexact])):
            assert [harmonic_block_sum(value, level) for value, level in blocks] == expected

    @pytest.mark.parametrize("levels", [(10, 16, 20), (3, 13, 17)])
    def test_harmonic_suite_sums_no_exact_gap_past_2_to_12_terms(self, monkeypatch, levels):
        # every other gap of the suite's sweep comes from its decided Euler-Maclaurin value
        gap, sizes = dyadic._harmonic_gap, []

        def recorded_gap(a, b):
            sizes.append(b - a)
            return gap(a, b)

        monkeypatch.setattr(dyadic, "_harmonic_gap", recorded_gap)
        reports = []
        analytic._check_harmonic(reports, levels)
        assert all(report.passed for report in reports)
        assert max(sizes, default=0) <= 1 << 12, max(sizes)

    def test_guards(self):
        with pytest.raises(ValueError):
            harmonic_block_sum(0b10, 0)
        with pytest.raises(DepthError):
            harmonic_block_sum(0b10, 27)
        with pytest.raises(DepthError):
            harmonic_block_sum(1 << 60, 20)

    def test_scaled_values_below_2_to_62(self):
        largest = (1 << 61) - 1  # scaled by 2, one block below 2^62
        assert harmonic_block_sum(largest, 1) == rounded_block_sum(largest, 1)
        with pytest.raises(DepthError, match="2\\^62 or more"):
            harmonic_block_sum(largest + 1, 1)


class TestNormalizationCheck:
    def test_small_depths(self):
        for depth in (1, 2, 10):
            report = normalization_check(depth)
            assert report.passed
            assert report.bound == 1e-12

    def test_depth1_by_hand(self):
        assert math.log2(3 / 2) + math.log2(4 / 3) == pytest.approx(1.0, abs=1e-15)

    def test_guard(self):
        with pytest.raises(DepthError):
            normalization_check(25)


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("bogus")

    def test_selection_list_refused(self):
        # a suite is selected by one name; a list is not a name
        with pytest.raises(ValueError):
            run_suite(["series", "integral"])

    def test_single_suite_reduced_budget(self):
        reports = run_suite("harmonic", harmonic_levels=(6, 8))
        assert reports and all(r.passed for r in reports)
        assert any(r.identity == "harmonic-vs-log" for r in reports)
        assert any(r.identity == "block-weight-normalization" for r in reports)

    def test_matrix_suite_reduced_budget(self):
        reports = run_suite("matrix", oracle_depth=3, oracle_paddings=(6,))
        assert reports and all(r.passed for r in reports)

    def test_all_suites_tiny_budgets(self):
        reports = run_suite(
            "all",
            riemann_depths=(2, 4),
            series_length=4,
            harmonic_levels=(4,),
            oracle_depth=2,
            oracle_paddings=(4,),
            samples=2,
        )
        identities = {r.identity for r in reports}
        for name in (
            "excess-kernel-equivalence",
            "count-oracle-agreement",
            "telescoping-exact",
            "riemann-vs-closed-form",
            "harmonic-vs-log",
        ):
            assert name in identities
        for report in reports:
            assert math.isfinite(report.error) and math.isfinite(report.bound)
            assert report.line().startswith(("PASS", "FAIL"))

    def test_deterministic(self):
        kwargs = dict(riemann_depths=(6, 8), series_length=4, samples=3, seed=5)
        first = run_suite("integral", **kwargs)
        second = run_suite("integral", **kwargs)
        assert first == second

    @pytest.mark.parametrize(
        "budget",
        [
            {"series_length": 0},
            {"oracle_depth": 0},
            {"oracle_depth": 9},
            {"samples": -1},
            {"riemann_depths": ()},
            {"harmonic_levels": ()},
            {"oracle_paddings": ()},
            {"riemann_depths": (10, 30)},
            {"harmonic_levels": (30,)},
            {"oracle_paddings": (0,)},
            {"oracle_depth": 6, "oracle_paddings": (8, 35)},
            {"series_length": 17},
            {"series_length": 25},
            {"samples": MAX_SAMPLES + 1},
            {"samples": 10**12},
            {"riemann_depths": (24,) * 9},
            {"riemann_depths": (24,) * 8 + (1,)},
            {"riemann_depths": (10, 10)},
            {"harmonic_levels": (6, 6)},
            {"oracle_paddings": (8, 8)},
        ],
    )
    def test_budget_guards(self, budget, monkeypatch):
        # every budget is checked before the first suite runs
        calls = []
        for name in ("_check_matrix", "_check_integral", "_check_series", "_check_harmonic"):
            monkeypatch.setattr(
                f"benford2.analytic.{name}", lambda *args, name=name, **kwargs: calls.append(name)
            )
        with pytest.raises(ValueError):
            run_suite("all", **budget)
        assert calls == []

    def test_refused_seed_raises_before_any_suite(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("fan_out reached with a seed random.Random refuses")

        monkeypatch.setattr(analytic._fanout, "fan_out", reached)
        with pytest.raises(TypeError, match="seed types"):
            run_suite("all", seed=[1])

    def test_every_distinct_depth_passes_the_guard(self, monkeypatch):
        # the widest grid: each depth once, 2^25 - 2 terms; samples size only
        # the series grid
        calls = []
        monkeypatch.setattr("benford2.analytic._check_integral", lambda *args: calls.append(args))
        run_suite("integral", riemann_depths=tuple(range(1, MAX_VECTOR_DEPTH + 1)), samples=MAX_SAMPLES)
        assert len(calls) == 1

    def test_samples_at_the_cap_run(self):
        reports = run_suite("series", series_length=1, samples=MAX_SAMPLES)
        assert reports and all(r.passed for r in reports)

    def test_suite_names_exported(self):
        assert set(SUITES) == {"matrix", "series", "integral", "harmonic"}


class TestMutationGate:
    # verify checks the program's kernel, dense matrix and reference law, so
    # a slightly wrong version of any of them fails the default run
    def test_unmutated_all_pass(self):
        assert all(report.passed for report in run_suite("all"))

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_fails(self, monkeypatch, name):
        wrong, failing = MUTATIONS[name]
        monkeypatch.setattr(analytic, name, wrong)
        assert {report.identity for report in run_suite("all") if not report.passed} == failing


def reference_series_reports(length, samples, seed):
    """Both series reports rebuilt from one series_partial_sum per vector and order."""
    mismatches = 0
    checked = 0
    for depth in range(1, length + 1):
        for packed in range(1 << depth):
            bits = unpack_bits(packed, depth)
            if series_partial_sum(bits, depth) != 1 / (2 - truncate(bits, depth)):
                mismatches += 1
            checked += 1
    rng = random.Random(seed)
    grid = [(0,) * length, (1,) * length, tuple(i % 2 for i in range(length))]
    grid += [tuple(rng.randrange(2) for _ in range(length)) for _ in range(samples)]
    worst = 0.0
    for bits in grid:
        limit = 1 / (2 - truncate(bits, length))
        for r in range(1, length + 1):
            worst = max(worst, float(abs(series_partial_sum(bits, r) - limit)) / 2.0 ** (1 - r))
    return [
        VerificationReport(
            "telescoping-exact", f"all t of len<={length} ({checked} vectors)", float(mismatches), 0.0
        ),
        VerificationReport(
            "series-tail-bound", f"len={length} all partial orders (error scaled by 2^(1-R))", worst, 1.0
        ),
    ]


class TestSeriesSuite:
    def test_matches_per_order_reference(self):
        reports = run_suite("series", series_length=6, samples=3, seed=11)
        assert reports == reference_series_reports(6, 3, seed=11)
        assert reports[1].error > 0.0

    def test_perturbed_term_fails_telescoping(self, monkeypatch):
        exact = term_value_by_endpoints

        def perturbed(t, r):
            # term 3 of every t that starts 101 is off by 2^-20
            value = exact(t, r)
            return value + Fraction(1, 1 << 20) if (tuple(t)[:r], r) == ((1, 0, 1), 3) else value

        monkeypatch.setattr("benford2.analytic.term_value_by_endpoints", perturbed)
        telescoping = run_suite("series", series_length=6, samples=3, seed=11)[0]
        assert telescoping.identity == "telescoping-exact"
        assert not telescoping.passed
        # the perturbed prefix 101 and its 2 + 4 + 8 extensions up to length 6
        assert telescoping.error == 15.0


def test_report_line_format():
    report = normalization_check(2)
    line = report.line()
    assert line.startswith("PASS block-weight-normalization k=2 err=")
    assert "bound=1e-12" in line
