import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford2.analytic import (
    MAX_INTEGRAL_TERMS,
    MAX_SAMPLES,
    SUITES,
    VerificationReport,
    harmonic_block_sum,
    normalization_check,
    riemann_sum,
    run_suite,
    series_partial_sum,
    term_value_by_endpoints,
    term_value_by_product,
)
from benford2.dyadic import DepthError, excess_population, truncate, unpack_bits


class TestRiemannSum:
    def test_endpoint_zero(self):
        assert abs(riemann_sum((), 16) - 1.0) <= 2**-13
        assert abs(riemann_sum((0, 0, 0), 16) - 1.0) <= 2**-13

    def test_half(self):
        assert abs(riemann_sum((1,), 16) - 2 / 3) <= 2**-13

    def test_quarter(self):
        assert abs(riemann_sum((0, 1), 18) - 4 / 5) <= 2**-15

    def test_error_bound_and_decay(self):
        targets = [(), (1,), (0, 1), (1, 0, 1, 1), (1,) * 8, (0, 1) * 4]
        previous = None
        for depth in (10, 12, 14, 16):
            worst = 0.0
            for bits in targets:
                limit = 1.0 / (1.0 + float(truncate(bits, len(bits))))
                worst = max(worst, abs(riemann_sum(bits, depth) - limit))
            assert worst <= 8 * 2.0**-depth
            if previous is not None:
                assert worst < previous
            previous = worst

    def test_matches_definitional_kernel(self):
        # same sum evaluated with the term-by-term excess instead of the
        # packed comparison, for every target at depth 8
        depth = 8
        n = 1 << depth
        scales = [unpack_bits(a, depth) for a in range(n)]
        for x in range(0, n, 17):
            target = unpack_bits(x, depth)
            excess = excess_population(scales, target).tolist()
            direct = sum((1 + excess[a]) / (1 + a / n) ** 2 for a in range(n)) / n
            assert abs(riemann_sum(target, depth) - direct) <= 1e-12

    def test_guards(self):
        with pytest.raises(ValueError):
            riemann_sum((1, 0, 1), 2)
        with pytest.raises(DepthError):
            riemann_sum((1,), 25)


class TestTermIntegral:
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
        # levels below, at and many times HARMONIC_CHUNK; (1 << 45) + 7
        # scales past 2^53, where a float arange would lose bits
        top = 16 if value > 1000 else 18
        for level in range(1, top + 1):
            start = value << level
            reference = math.fsum(1.0 / (start + i) for i in range(1 << level))
            assert harmonic_block_sum(value, level) == reference, level

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        level=st.integers(1, 14),
        scaled_bits=st.one_of(st.integers(15, 53), st.integers(54, 62)),
        fraction=st.floats(0, 1, exclude_max=True),
    )
    def test_equals_fsum_of_terms(self, level, scaled_bits, fraction):
        # levels on both sides of HARMONIC_CHUNK = 2^12 terms; scaled values
        # of up to 62 bits, half of them past 2^53 where float(n) rounds
        value_bits = scaled_bits - level
        value = (1 << (value_bits - 1)) + int(fraction * (1 << (value_bits - 1)))
        start = value << level
        reference = math.fsum(1.0 / (start + i) for i in range(1 << level))
        assert harmonic_block_sum(value, level) == reference

    def test_guards(self):
        with pytest.raises(ValueError):
            harmonic_block_sum(0b10, 0)
        with pytest.raises(DepthError):
            harmonic_block_sum(0b10, 27)
        with pytest.raises(DepthError):
            harmonic_block_sum(1 << 60, 20)


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
            {"riemann_depths": (24, 24, 24, 24), "samples": MAX_SAMPLES},
            {"riemann_depths": (24,), "samples": 6},
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

    def test_integral_terms_at_the_cap_pass_the_guard(self, monkeypatch):
        calls = []
        monkeypatch.setattr("benford2.analytic._check_integral", lambda *args: calls.append(args))
        assert (5 + 3) << 24 == MAX_INTEGRAL_TERMS
        run_suite("integral", riemann_depths=(24,), samples=5)
        assert len(calls) == 1

    def test_samples_at_the_cap_run(self):
        reports = run_suite("series", series_length=1, samples=MAX_SAMPLES)
        assert reports and all(r.passed for r in reports)

    def test_suite_names_exported(self):
        assert set(SUITES) == {"matrix", "series", "integral", "harmonic"}


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
