"""Numerical verification of the analytic limit of the block recursion.

The depth-k transition operator has an explicit limiting behaviour: the
kernel's image of the trial weights 1/(1+a) at target x is a Riemann sum of
(1 + [a > x]) / (1+a)^2 over the dyadic grid, whose limit is 1/(1+x), the
trial weight itself.
Expanding the excess indicator term by term converts that integral into a
telescoping series for 1/(2-t) with t = 1-x, exact at every finite order in
rational arithmetic.  Summing the trial weights over a block's extensions
produces a harmonic bracket converging to ln((V+1)/V), and those logs
telescope to 1 across a full block range, which is the final normalized
reference law.

Each identity here is checked against an independent closed form, with an
explicit error bound derived from the budget (grid depth, series order,
harmonic level), on the program's own kernel ``apply_fast``, dense matrix
``build_dense`` and reference law ``benford_reference``.  Results are
reported, never raised, so a whole suite can run to completion and be
summarized.
"""

from __future__ import annotations

import math
import random
from contextlib import closing
from dataclasses import astuple, dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from benford2 import _fanout
from benford2.dyadic import (
    MAX_COUNT_BITS,
    MAX_DUMP_DEPTH,
    MAX_HARMONIC_LEVEL,
    MAX_VECTOR_DEPTH,
    Bits,
    check_int,
    excess_population,
    harmonic_block_sum,
    pack_bits,
    truncate,
    unpack_bits,
    validate_bits,
)
from benford2.solver import benford_reference
from benford2.transition import apply_fast, brute_force_element, build_dense, matrix_element_exact

SUITES = ("matrix", "series", "integral", "harmonic")

# A random sample costs 0.10 to 0.11 ms in the series suite at the default
# length (2-vCPU Intel Xeon, Python 3.11.7), so the cap keeps that share
# near 0.1 s.
MAX_SAMPLES = 1 << 10
DEFAULT_SEED = 20260809


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check: observed error against its bound."""

    identity: str
    params: str
    error: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.error <= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.identity} {self.params} err={self.error!r} bound={self.bound!r}"


def term_value_by_endpoints(t: Iterable[int], r: int) -> Fraction:
    """Term r as the integral of 1/(1+a)^2: difference of endpoint values.

    The integral runs over [lower, upper], the range where the scale
    fraction matches t with every bit flipped through r-1 places and then
    jumps; the interval always has width 2^-r.
    """
    tb = validate_bits(t)
    check_int(r, "r", 1, len(tb))
    # over 2^r, with the first r-1 bits packed to h, upper is 2^r - 2h and
    # lower is upper - 1: 2^r/(2^r + lower) - 2^r/(2^r + upper) in integers
    scale = 1 << r
    above = 2 * scale - 2 * pack_bits(tb[: r - 1])
    return Fraction(tb[r - 1] * (scale * above - scale * (above - 1)), (above - 1) * above)


def term_value_by_product(t: Iterable[int], r: int) -> Fraction:
    """Term r in product form: 2^-r over (2 - head) * (2 - head - 2^-r)."""
    tb = validate_bits(t)
    check_int(r, "r", 1, len(tb))
    # over 2^r, with the first r-1 bits packed to h, 2 - head is 2^(r+1) - 2h and the step is 1
    rest = (2 << r) - 2 * pack_bits(tb[: r - 1])
    return Fraction(tb[r - 1] << r, rest * (rest - 1))


def series_partial_sum(t: Iterable[int], terms: int) -> Fraction:
    """Exact partial sum 1/2 + term_1 + ... + term_terms.

    Telescopes exactly: the partial sum through R terms equals
    1 / (2 - truncate(t, R)) as a rational, no approximation involved.
    """
    tb = validate_bits(t)
    check_int(terms, "terms", 0, len(tb))
    total = Fraction(1, 2)
    for r in range(1, terms + 1):
        total += term_value_by_endpoints(tb, r)
    return total


def normalization_check(depth: int) -> VerificationReport:
    """Sum of the reference law over one full depth: must be 1.

    :func:`benford2.solver.benford_reference` gives block V the weight
    log2((V+1)/V), which telescopes from V = 2^k to 2^(k+1), so the 2^k
    weights add to exactly 1; the check bounds the floating error of the
    weights and their sum.
    """
    first = 1 << check_int(depth, "depth", 0, MAX_VECTOR_DEPTH)
    total = math.fsum(benford_reference(v) for v in range(first, 2 * first))
    return VerificationReport(
        identity="block-weight-normalization",
        params=f"k={depth}",
        error=abs(total - 1.0),
        bound=1e-12,
    )


def _bit_grid(depth: int, samples: int, rng: random.Random) -> list[Bits]:
    """Deterministic test vectors: all-zeros, all-ones, alternating, then ``samples`` drawn from ``rng``."""
    grid: list[Bits] = [
        (0,) * depth,
        (1,) * depth,
        tuple(i % 2 for i in range(depth)),
    ]
    for _ in range(samples):
        grid.append(tuple(rng.randrange(2) for _ in range(depth)))
    return grid


def _check_matrix(reports: list[VerificationReport], oracle_depth: int, oracle_paddings: Sequence[int]) -> None:
    import numpy as np

    mismatches = 0
    pairs = 0
    for k in range(0, 8 + 1):
        n = 1 << k
        vectors = np.array([unpack_bits(packed, k) for packed in range(n)], dtype=np.int8).reshape(n, k)
        # every (scale a, target x) pair at once: a on axis 0, x on axis 1
        counted = excess_population(vectors[:, np.newaxis, :], vectors[np.newaxis, :, :])
        index = np.arange(n)
        mismatches += int(np.count_nonzero(counted != (index[:, np.newaxis] > index[np.newaxis, :])))
        pairs += n * n
    reports.append(
        VerificationReport(
            identity="excess-kernel-equivalence",
            params=f"exhaustive k<=8 ({pairs} pairs)",
            error=float(mismatches),
            bound=0.0,
        )
    )

    mismatches = 0
    worst = 0.0
    for k in range(1, MAX_DUMP_DEPTH + 1):
        n = 1 << k
        if k <= 6:
            # literal rational column sums: every column adds to exactly 1, decided in integers over
            # the least common denominator L of its entries as sum(numerator * (L // denominator)) == L
            for scale in range(n, 2 * n):
                column = [matrix_element_exact(target, scale) for target in range(n, 2 * n)]
                common = math.lcm(*(entry.denominator for entry in column))
                if sum(entry.numerator * (common // entry.denominator) for entry in column) != common:
                    mismatches += 1
        # each dense entry is within half an ulp of its rational and the
        # rationals add to 1, so the 2^k - 1 additions of a column leave it
        # within about 2^k * 2^-53 of 1
        sums = build_dense(k).sum(axis=0)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))) / 2.0 ** (k - 53))
    reports.append(
        VerificationReport(
            identity="column-sums-exact",
            params=f"k<=6 exact, dense k<={MAX_DUMP_DEPTH} (error scaled by 2^(k-53))",
            error=math.inf if mismatches else worst,
            bound=1.0,
        )
    )

    for padding in oracle_paddings:
        worst, worst_over = 0, 1  # the worst |counted - exact| as an integer pair
        for k in range(1, oracle_depth + 1):
            blocks = range(1 << k, 2 << k)
            for scale in blocks:
                for target in blocks:
                    counted = brute_force_element(target, scale, padding)
                    exact = matrix_element_exact(target, scale)
                    over = counted.denominator * exact.denominator
                    gap = abs(counted.numerator * exact.denominator - exact.numerator * counted.denominator)
                    if gap * worst_over > worst * over:
                        worst, worst_over = gap, over
        reports.append(
            VerificationReport(
                identity="count-oracle-agreement",
                params=f"k<={oracle_depth} m={padding} exhaustive",
                error=worst / worst_over,  # int true division rounds correctly, as float(Fraction) does
                bound=2.0 ** (1 - padding),
            )
        )

    # depth-2 closed form: (1 + a1*[x1=0] + a2*[x1=a1][x2=0]) / (4 + 2a1 + a2)
    failures = 0
    for a1 in (0, 1):
        for a2 in (0, 1):
            for x1 in (0, 1):
                for x2 in (0, 1):
                    direct = Fraction(
                        1 + a1 * (x1 == 0) + a2 * (x1 == a1) * (x2 == 0),
                        4 + 2 * a1 + a2,
                    )
                    if direct != matrix_element_exact(4 + 2 * x1 + x2, 4 + 2 * a1 + a2):
                        failures += 1
    reports.append(
        VerificationReport(
            identity="depth2-entry-closed-form",
            params="all 16 entries",
            error=float(failures),
            bound=0.0,
        )
    )


def _check_integral(reports: list[VerificationReport], depths: Sequence[int]) -> None:
    import numpy as np

    errors_by_depth: dict[int, float] = {}
    for depth in depths:
        # the trial weights n/(n+a) = 1/(1+a/n); the kernel's image at x is
        # the grid sum of n(1 + [a > x])/(n+a)^2, whose limit is trial[x]
        n = 1 << depth
        trial = n / np.arange(n, 2 * n, dtype=np.float64)
        gap = np.subtract(apply_fast(trial, depth), trial, out=trial)
        worst = float(np.abs(gap, out=gap).max())
        del trial, gap  # two 2^k vectors at a time
        errors_by_depth[depth] = worst
        reports.append(
            VerificationReport(
                identity="riemann-vs-closed-form",
                params=f"k={depth} all {n} targets (kernel image of 1/(1+x))",
                error=worst,
                bound=8.0 * 2.0 ** (-depth),
            )
        )
    ordered = sorted(errors_by_depth)
    decay_pairs = [(a, b) for a, b in zip(ordered, ordered[1:])]
    if decay_pairs:
        worst_ratio = max(errors_by_depth[b] / errors_by_depth[a] for a, b in decay_pairs)
        reports.append(
            VerificationReport(
                identity="riemann-error-decay",
                params=f"depths {ordered} (ratio of successive errors)",
                error=worst_ratio,
                bound=1.0,
            )
        )

    mismatches = 0
    checked = 0
    for length in range(1, 8 + 1):
        for packed in range(1 << length):
            tb = unpack_bits(packed, length)
            for r in range(1, length + 1):
                if term_value_by_endpoints(tb, r) != term_value_by_product(tb, r):
                    mismatches += 1
                checked += 1
    reports.append(
        VerificationReport(
            identity="term-two-forms-equal",
            params=f"exhaustive len<=8 ({checked} terms)",
            error=float(mismatches),
            bound=0.0,
        )
    )


def _check_series(reports: list[VerificationReport], length: int, samples: int, rng: random.Random) -> None:
    # Term R depends only on the first R bits, so a vector's partial sum is
    # its parent prefix's sum plus one term; walk the prefix tree depth-first,
    # carrying t = packed/2^R, whose 1/(2 - t) is 2^R / (2^(R+1) - packed).
    mismatches = 0
    checked = 0
    stack: list[tuple[Bits, int, Fraction]] = [((), 0, Fraction(1, 2))]
    while stack:
        prefix, packed, partial = stack.pop()
        for bit in (0, 1):
            tb, packed_tb = prefix + (bit,), 2 * packed + bit
            total = partial + term_value_by_endpoints(tb, len(tb))
            if total.numerator * ((2 << len(tb)) - packed_tb) != total.denominator << len(tb):
                mismatches += 1
            checked += 1
            if len(tb) < length:
                stack.append((tb, packed_tb, total))
    reports.append(
        VerificationReport(
            identity="telescoping-exact",
            params=f"all t of len<={length} ({checked} vectors)",
            error=float(mismatches),
            bound=0.0,
        )
    )

    # tail bound toward the full limit 1/(2-t): |partial(R) - limit| <= 2^(1-R)
    worst_ratio = 0.0
    for tb in _bit_grid(length, samples, rng):
        limit = 1 / (2 - truncate(tb, length))
        partial = Fraction(1, 2)
        for r in range(1, length + 1):
            partial += term_value_by_endpoints(tb, r)
            worst_ratio = max(worst_ratio, float(abs(partial - limit)) / 2.0 ** (1 - r))
    reports.append(
        VerificationReport(
            identity="series-tail-bound",
            params=f"len={length} all partial orders (error scaled by 2^(1-R))",
            error=worst_ratio,
            bound=1.0,
        )
    )


def _check_harmonic(reports: list[VerificationReport], levels: Sequence[int]) -> None:
    extra_values = (2, 3, 1000)
    for level in levels:
        # full small-block sweep only at affordable levels (2^level terms each)
        small_blocks = (
            [v for k in range(0, 6 + 1) for v in range(1 << k, 2 << k)]
            if level <= 16
            else []
        )
        values = sorted(set(small_blocks) | set(extra_values))
        worst_ratio = 0.0
        worst_bracket = 0.0
        for value in values:
            upper_sum = harmonic_block_sum(value, level)
            target = math.log1p(1.0 / value)
            bound = 1.0 / (value << level)
            worst_ratio = max(worst_ratio, abs(upper_sum - target) / bound)
            # lower companion: shift the range by one term
            start = value << level
            lower_sum = upper_sum - 1.0 / start + 1.0 / (start + (1 << level))
            violation = max(lower_sum - target, target - upper_sum, 0.0)
            worst_bracket = max(worst_bracket, violation)
        swept = f"blocks k<=6 plus {list(extra_values)}" if small_blocks else f"V in {list(extra_values)}"
        reports.append(
            VerificationReport(
                identity="harmonic-vs-log",
                params=f"l={level} {swept} (error scaled by V*2^l)",
                error=worst_ratio,
                bound=1.0,
            )
        )
        reports.append(
            VerificationReport(
                identity="harmonic-bracket",
                params=f"l={level} (log between shifted sums, slack for roundoff)",
                error=worst_bracket,
                bound=1e-12,
            )
        )
    for depth in (1, 2, 10):
        reports.append(normalization_check(depth))


def run_suite(
    which: str = "all",
    *,
    riemann_depths: Sequence[int] = (10, 12, 14, 16),
    series_length: int = 12,
    harmonic_levels: Sequence[int] = (10, 16, 20),
    oracle_depth: int = 6,
    oracle_paddings: Sequence[int] = (8, 16, 24),
    samples: int = 8,
    seed: int = DEFAULT_SEED,
) -> list[VerificationReport]:
    """Run the selected identity checks and return one report each.

    ``which`` is a suite name from ``SUITES`` or "all"; the keywords are
    the budgets of the ``verify`` command, with its defaults.  All bounds
    are derived from the budget, so shrunken budgets stay rigorous.
    Check failures are reported, never raised; an unknown suite, an
    out-of-range budget or a repeated depth, level or padding raises
    ``ValueError``, and a budget that is not an ``int`` or a seed that
    ``random.Random`` refuses ``TypeError``, before any suite runs.

    The selected suites are the items of :func:`benford2._fanout.fan_out`,
    so on W CPUs suite i runs in worker i mod W; this process is worker 0
    and runs the first suite (matrix, under "all").
    ``samples`` and ``seed`` set only the series suite's random vectors,
    which it draws from one ``random.Random(seed)``, built with the budget
    checks.  A suite sends back its reports as ``(identity, params, error,
    bound)`` tuples of ``str`` and ``float``, which marshal carries exactly,
    so the reports are those of running every suite here.
    """
    choices = SUITES + ("all",)
    if which not in choices:
        raise ValueError(f"unknown suite {which!r}; choose from {choices}")
    selected = SUITES if which == "all" else (which,)

    check_int(series_length, "series_length", 1, 2 * MAX_DUMP_DEPTH)  # the series walks 2^(L+1) - 2 prefixes
    check_int(samples, "samples", 0, MAX_SAMPLES)
    check_int(oracle_depth, "oracle_depth", 1, MAX_DUMP_DEPTH)  # the oracle walks 4^k pairs per depth
    for name, values, budget in (
        ("riemann_depths", riemann_depths, MAX_VECTOR_DEPTH),
        ("harmonic_levels", harmonic_levels, MAX_HARMONIC_LEVEL),
        ("oracle_paddings", oracle_paddings, MAX_COUNT_BITS - oracle_depth),
    ):
        if not values:
            raise ValueError(f"{name} must not be empty")
        for value in values:
            check_int(value, name, 1, budget)
        # a repeat checks nothing new; with distinct depths the integral suite
        # makes fewer than 2^(MAX_VECTOR_DEPTH + 1) grid terms, 8 to 13 ns each
        if len(set(values)) < len(values):
            raise ValueError(f"{name} repeats an entry: {list(values)}")
    rng = random.Random(seed)

    def check(item: int) -> list[tuple[str, str, float, float]]:
        reports: list[VerificationReport] = []
        name = selected[item]
        if name == "matrix":
            _check_matrix(reports, oracle_depth, oracle_paddings)
        elif name == "integral":
            _check_integral(reports, riemann_depths)
        elif name == "series":
            _check_series(reports, series_length, samples, rng)
        elif name == "harmonic":
            _check_harmonic(reports, harmonic_levels)
        return [astuple(report) for report in reports]

    if len(selected) > 1:
        import numpy  # once here before any fork, not once in each child
    with closing(_fanout.fan_out(check, len(selected))) as suites:
        return [VerificationReport(*fields) for suite in suites for fields in suite]
