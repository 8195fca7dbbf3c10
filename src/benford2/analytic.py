"""Numerical verification of the analytic limit of the block recursion.

The depth-k transition operator has an explicit limiting behaviour: feeding
it the trial weights 1/(1+a) turns the image at target x into a Riemann sum
of (1 + [a > x]) / (1+a)^2 over the dyadic grid, whose limit is 1/(1+x).
Expanding the excess indicator term by term converts that integral into a
telescoping series for 1/(2-t) with t = 1-x, exact at every finite order in
rational arithmetic.  Summing the trial weights over a block's extensions
produces a harmonic bracket converging to ln((V+1)/V), and those logs
telescope to 1 across a full block range, which is the final normalized
reference law.

Each identity here is checked against an independent closed form, with an
explicit error bound derived from the budget (grid depth, series order,
harmonic level).  Results are reported, never raised, so a whole suite can
run to completion and be summarized.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from benford2._lazy import lazy_import
from benford2.dyadic import (
    MAX_COUNT_BITS,
    MAX_DUMP_DEPTH,
    MAX_VECTOR_DEPTH,
    Bits,
    DepthError,
    as_block_value,
    excess_population,
    pack_bits,
    truncate,
    unpack_bits,
    validate_bits,
)
from benford2.transition import brute_force_element, matrix_element_exact

np = lazy_import("numpy")

SUITES = ("matrix", "series", "integral", "harmonic")

# Level cap keeps the harmonic loop budget near 2^26 terms.
MAX_HARMONIC_LEVEL = 26
# harmonic_block_sum builds its terms 2^12 at a time; a whole 2^26-term
# array would take 512 MB
HARMONIC_CHUNK = 1 << 12
# Each random sample costs about 2 ms in the integral and series suites at
# the default budgets, so the cap keeps that share near 2 s.
MAX_SAMPLES = 1 << 10
# The integral suite sums (samples + 3) * sum(2^depth) grid terms at 20 to
# 32 ns each (a 2^22-term riemann_sum took 0.084 to 0.136 s), so the cap
# keeps that suite within 2.7 to 4.3 s.  It is the least power of two that
# admits MAX_SAMPLES at the default depths (8.9e7 terms; the defaults make
# 9.6e5).
MAX_INTEGRAL_TERMS = 1 << 27
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


def riemann_sum(x: Iterable[int], depth: int) -> float:
    """Grid sum of (1 + [a > x]) / (1+a)^2 over all depth-k dyadic a.

    ``x`` is zero-extended to the grid depth.  As the depth grows the sum
    approaches 1/(1 + x); the left-endpoint discretization plus the single
    straddled jump keep the error below 8 * 2^-depth.
    """
    bits = validate_bits(x)
    if not 1 <= depth <= MAX_VECTOR_DEPTH:
        raise DepthError(f"depth must be in [1, {MAX_VECTOR_DEPTH}], got {depth}")
    if len(bits) > depth:
        raise ValueError(f"x has {len(bits)} bits, more than the grid depth {depth}")
    threshold = pack_bits(bits) << (depth - len(bits))
    n = 1 << depth
    index = np.arange(n, dtype=np.float64)
    numerators = 1.0 + (np.arange(n, dtype=np.int64) > threshold)
    return float(np.sum(numerators / (1.0 + index / n) ** 2) / n)


def term_value_by_endpoints(t: Iterable[int], r: int) -> Fraction:
    """Term r as the integral of 1/(1+a)^2: difference of endpoint values.

    The integral runs over [lower, upper], the range where the scale
    fraction matches t with every bit flipped through r-1 places and then
    jumps; the interval always has width 2^-r.
    """
    tb = validate_bits(t)
    if not 1 <= r <= len(tb):
        raise ValueError(f"term index must be in [1, {len(tb)}], got {r}")
    upper = 1 - truncate(tb, r - 1)
    lower = upper - Fraction(1, 1 << r)
    return tb[r - 1] * (Fraction(1, 1) / (1 + lower) - Fraction(1, 1) / (1 + upper))


def term_value_by_product(t: Iterable[int], r: int) -> Fraction:
    """Term r in product form: 2^-r over (2 - head) * (2 - head - 2^-r)."""
    tb = validate_bits(t)
    if not 1 <= r <= len(tb):
        raise ValueError(f"term index must be in [1, {len(tb)}], got {r}")
    head = truncate(tb, r - 1)
    step = Fraction(1, 1 << r)
    return tb[r - 1] * step / ((2 - head) * (2 - head - step))


def series_partial_sum(t: Iterable[int], terms: int) -> Fraction:
    """Exact partial sum 1/2 + term_1 + ... + term_terms.

    Telescopes exactly: the partial sum through R terms equals
    1 / (2 - truncate(t, R)) as a rational, no approximation involved.
    """
    tb = validate_bits(t)
    if not 0 <= terms <= len(tb):
        raise ValueError(f"terms must be in [0, {len(tb)}], got {terms}")
    total = Fraction(1, 2)
    for r in range(1, terms + 1):
        total += term_value_by_endpoints(tb, r)
    return total


def harmonic_block_sum(block: int, level: int) -> float:
    """Sum of 1/n over the block's scaled range [V*2^level, (V+1)*2^level).

    This is the left Riemann sum of 1/t over the range, so it brackets
    ln((V+1)/V) from above with error below 1/(V*2^level).  The result is
    the correctly rounded exact sum of the float terms ``1.0 / n``, the
    value ``math.fsum`` returns, computed in integers:

    - numpy builds the terms in chunks of ``HARMONIC_CHUNK``.  The int64 to
      float64 cast rounds as ``float(n)`` does past 2^53, and the division
      is correctly rounded, so each term t is ``1.0 / n`` bit for bit.
    - The range lies in one binade, 2^j <= n < 2^(j+1) with
      j = bit_length(start) - 1, so 2^-(j+1) <= t <= 2^-j and every t is
      an integer m in [2^52, 2^53] times 2^-(j+53).  Scaling by a power of
      two makes m exact in float64.
    - m splits into hi = floor(m / 2^26) <= 2^27 and lo = m - hi*2^26 < 2^26.
      A chunk's sums of hi and of lo are integers below 2^39, so float64
      adds them exactly in any order.
    - The Python ints (hi << 26) + lo over all chunks give the exact sum of
      m; one rounding to float and an exact ldexp by -(j+53) give the
      correctly rounded sum.
    """
    value = as_block_value(block)
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if level > MAX_HARMONIC_LEVEL:
        raise DepthError(f"level {level} exceeds the budget {MAX_HARMONIC_LEVEL}")
    if (value << level).bit_length() > 62:
        raise DepthError(f"scaled block value 2^{level} * {value} exceeds the numeric range")
    start = value << level
    stop = start + (1 << level)
    shift = start.bit_length() + 52  # j + 53
    hi_sum = lo_sum = 0
    for first in range(start, stop, HARMONIC_CHUNK):
        m = 1.0 / np.arange(first, min(first + HARMONIC_CHUNK, stop), dtype=np.int64).astype(np.float64)
        m *= 2.0**shift  # the terms scaled to integers, exactly
        hi = np.floor(m * 2.0**-26)
        lo = m - hi * 2.0**26
        hi_sum += int(hi.sum())
        lo_sum += int(lo.sum())
    return math.ldexp(float((hi_sum << 26) + lo_sum), -shift)


def normalization_check(depth: int) -> VerificationReport:
    """Sum of the reference block weights over one full depth: must be 1.

    log2((V+1)/V) telescopes from V = 2^k to 2^(k+1), so the 2^k terms add
    to exactly 1; the check bounds the floating accumulation error.
    """
    if not 0 <= depth <= MAX_VECTOR_DEPTH:
        raise DepthError(f"depth must be in [0, {MAX_VECTOR_DEPTH}], got {depth}")
    first = 1 << depth
    total = math.fsum(math.log2(v + 1) - math.log2(v) for v in range(first, 2 * first))
    return VerificationReport(
        identity="block-weight-normalization",
        params=f"k={depth}",
        error=abs(total - 1.0),
        bound=1e-12,
    )


def _bit_grid(depth: int, samples: int, rng: random.Random) -> list[Bits]:
    """Deterministic test vectors: all-zeros, all-ones, alternating, random."""
    grid: list[Bits] = [
        (0,) * depth,
        (1,) * depth,
        tuple(i % 2 for i in range(depth)),
    ]
    for _ in range(samples):
        grid.append(tuple(rng.randrange(2) for _ in range(depth)))
    return grid


def _check_matrix(reports: list[VerificationReport], oracle_depth: int, oracle_paddings: Sequence[int]) -> None:
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

    worst = 0
    for k in range(1, 10 + 1):
        n = 1 << k
        if k <= 6:
            # literal rational column sums: every column adds to exactly 1
            for scale in range(n, 2 * n):
                if sum(matrix_element_exact(target, scale) for target in range(n, 2 * n)) != 1:
                    worst = max(worst, 1)
        # common-denominator form: numerators over column a must sum to the
        # scale-block value n + a; the excess count is a vectorized kernel pass
        index = np.arange(n, dtype=np.int64)
        counted = np.sum(index[:, np.newaxis] < index[np.newaxis, :], axis=0) + n
        worst = max(worst, int(np.max(np.abs(counted - (n + index)))))
    reports.append(
        VerificationReport(
            identity="column-sums-exact",
            params="k<=10 (rational identity)",
            error=float(worst),
            bound=0.0,
        )
    )

    for padding in oracle_paddings:
        worst_gap = Fraction(0)
        for k in range(1, oracle_depth + 1):
            blocks = range(1 << k, 2 << k)
            for scale in blocks:
                for target in blocks:
                    gap = abs(brute_force_element(target, scale, padding) - matrix_element_exact(target, scale))
                    worst_gap = max(worst_gap, gap)
        reports.append(
            VerificationReport(
                identity="count-oracle-agreement",
                params=f"k<={oracle_depth} m={padding} exhaustive",
                error=float(worst_gap),
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


def _check_integral(
    reports: list[VerificationReport],
    depths: Sequence[int],
    samples: int,
    rng: random.Random,
) -> None:
    grid = _bit_grid(min(min(depths), 12), samples, rng)
    errors_by_depth: dict[int, float] = {}
    for depth in depths:
        worst = 0.0
        for bits in grid:
            target = 1.0 / (1.0 + float(Fraction(pack_bits(bits), 1 << len(bits))))
            worst = max(worst, abs(riemann_sum(bits, depth) - target))
        errors_by_depth[depth] = worst
        reports.append(
            VerificationReport(
                identity="riemann-vs-closed-form",
                params=f"k={depth} grid of {samples + 3} targets",
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


def _check_series(
    reports: list[VerificationReport],
    length: int,
    samples: int,
    rng: random.Random,
) -> None:
    # Term R depends only on the first R bits, so a vector's partial sum is
    # its parent prefix's sum plus one term; walk the prefix tree depth-first.
    mismatches = 0
    checked = 0
    stack: list[tuple[Bits, Fraction]] = [((), Fraction(1, 2))]
    while stack:
        prefix, partial = stack.pop()
        for bit in (0, 1):
            tb = prefix + (bit,)
            total = partial + term_value_by_endpoints(tb, len(tb))
            if total != 1 / (2 - truncate(tb, len(tb))):
                mismatches += 1
            checked += 1
            if len(tb) < length:
                stack.append((tb, total))
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
    Check failures are reported, never raised; an unknown suite or an
    out-of-range budget raises ``ValueError`` before any suite runs.
    """
    choices = SUITES + ("all",)
    if which not in choices:
        raise ValueError(f"unknown suite {which!r}; choose from {choices}")
    selected = SUITES if which == "all" else (which,)

    if series_length < 1 or samples < 0:
        raise ValueError(f"series_length must be >= 1 and samples >= 0, got {series_length}, {samples}")
    if samples > MAX_SAMPLES:
        raise DepthError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    if series_length > 2 * MAX_DUMP_DEPTH:  # the series walks 2^(L+1) - 2 prefixes
        raise DepthError(f"series_length must be <= {2 * MAX_DUMP_DEPTH}, got {series_length}")
    if not 1 <= oracle_depth <= MAX_DUMP_DEPTH:  # the oracle walks 4^k pairs per depth
        raise DepthError(f"oracle_depth must be in [1, {MAX_DUMP_DEPTH}], got {oracle_depth}")
    if not riemann_depths or not harmonic_levels or not oracle_paddings:
        raise ValueError("riemann_depths, harmonic_levels and oracle_paddings must not be empty")
    if any(not 1 <= depth <= MAX_VECTOR_DEPTH for depth in riemann_depths):
        raise DepthError(f"riemann_depths must lie in [1, {MAX_VECTOR_DEPTH}], got {list(riemann_depths)}")
    integral_terms = (samples + 3) * sum(1 << depth for depth in riemann_depths)
    if integral_terms > MAX_INTEGRAL_TERMS:
        raise DepthError(
            f"riemann_depths and samples make {integral_terms} grid terms, "
            f"more than the budget of {MAX_INTEGRAL_TERMS}"
        )
    if any(not 1 <= level <= MAX_HARMONIC_LEVEL for level in harmonic_levels):
        raise DepthError(f"harmonic_levels must lie in [1, {MAX_HARMONIC_LEVEL}], got {list(harmonic_levels)}")
    if any(padding < 1 or oracle_depth + padding > MAX_COUNT_BITS for padding in oracle_paddings):
        raise DepthError(
            f"oracle_paddings must be >= 1 with oracle_depth + padding <= {MAX_COUNT_BITS}, "
            f"got {list(oracle_paddings)} at oracle_depth {oracle_depth}"
        )
    rng = random.Random(seed)
    reports: list[VerificationReport] = []
    for name in selected:
        if name == "matrix":
            _check_matrix(reports, oracle_depth, oracle_paddings)
        elif name == "integral":
            _check_integral(reports, riemann_depths, samples, rng)
        elif name == "series":
            _check_series(reports, series_length, samples, rng)
        elif name == "harmonic":
            _check_harmonic(reports, harmonic_levels)
    return reports
