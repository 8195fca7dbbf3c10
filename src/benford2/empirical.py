"""Leading-digit statistics for classic fast-growing integer sequences.

Families that grow without bound (powers of 3, factorials, Fibonacci) are
tracked by a significand/exponent window instead of full big integers: the
significand is a 64-fraction-bit fixed-point number kept in [1, base), and
each step multiplies or adds, then renormalizes.  Leading blocks need only
the top digits of the significand.  Every step rounds down, so the window
never exceeds the true term and trails it by less than a guard (~2^-50
plus the per-step drift): a term's block differs from the window's only
if the significand sits within the guard below the next block boundary,
and only then is the term recomputed from the exact integer.  Blocks are
counted as integer values, named as digit strings only in the report, and
compared against the reference law log_base(1 + 1/block).

The rearrangement demonstration shows why these frequencies are a property
of ordering rather than cardinality: interleaving the naturals so that
every other term is a multiple of four doubles the occurrence frequency of
those multiples without changing the underlying set.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from benford2.dyadic import MAX_REPORT_ROWS, DepthError
from benford2.solver import benford_reference

FAMILIES = ("pow3", "fibonacci", "factorial", "rearranged")

_FRACTION_BITS = 64
_ONE = 1 << _FRACTION_BITS
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SequenceSpec:
    """Which family to stream and how to block its terms."""

    family: str
    count: int
    block_bits: int = 1  # digits kept after the leading one
    base: int = 2

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.block_bits < 0:
            raise ValueError(f"block_bits must be >= 0, got {self.block_bits}")
        if not 2 <= self.base <= 36:
            raise ValueError(f"base must be in [2, 36], got {self.base}")


@dataclass(frozen=True)
class FrequencyReport:
    """Observed vs reference block frequencies plus summary statistics."""

    base: int
    block_bits: int
    total: int
    blocks: tuple[str, ...]
    counts: tuple[int, ...]
    observed: tuple[float, ...]
    expected: tuple[float, ...]
    chi_square: float
    dof: int
    max_deviation: float

    def rows(self) -> Iterable[tuple[str, int, float, float, float]]:
        for block, count, obs, exp in zip(self.blocks, self.counts, self.observed, self.expected):
            yield block, count, obs, exp, abs(obs - exp)


def _digit_string(value: int, base: int) -> str:
    if value == 0:
        return "0"
    out = []
    while value:
        value, digit = divmod(value, base)
        out.append(_DIGITS[digit])
    return "".join(reversed(out))


def _digit_count(value: int, base: int) -> int:
    if base == 2:
        return value.bit_length()
    if value < base:
        return 1
    estimate = int(math.log(value, base))
    power = base**estimate
    while power > value:
        estimate -= 1
        power //= base
    while power * base <= value:
        estimate += 1
        power *= base
    return estimate + 1


def leading_block(value: int, block_digits: int, base: int = 2) -> int:
    """Value of the first 1 + block_digits significant digits of ``value`` in ``base``.

    Values with fewer digits come back whole (clipped), not padded; scaling
    by any power of the base leaves the result unchanged.
    """
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    if block_digits < 0:
        raise ValueError(f"block_digits must be >= 0, got {block_digits}")
    if not 2 <= base <= 36:
        raise ValueError(f"base must be in [2, 36], got {base}")
    total = _digit_count(value, base)
    keep = min(block_digits + 1, total)
    return value // base ** (total - keep)


def _normalize(mantissa: int, exponent: int, base: int) -> tuple[int, int]:
    top = base * _ONE
    while mantissa >= top:
        mantissa //= base
        exponent += 1
    return mantissa, exponent


def _window_block(mantissa: int, exponent: int, steps: int, block_digits: int, base: int) -> int:
    """Leading block value from the window, or 0 when only the exact term can tell.

    The window never exceeds the true term (every step rounds down) and
    trails it by less than the guard, which widens with the step count.  So
    only a significand within the guard below the next block boundary can
    belong to a term past it; one on or just above a boundary cannot.
    """
    if exponent < block_digits:  # fewer digits than requested: term is small
        return 0
    scaled = mantissa * base**block_digits
    guard = (scaled >> 50) + ((steps * scaled) >> 62) + 1
    if _ONE - (scaled & (_ONE - 1)) < guard:
        return 0
    return scaled >> _FRACTION_BITS


def _fib(n: int) -> int:
    """Exact Fibonacci number by fast doubling (F(1) = F(2) = 1)."""

    def pair(m: int) -> tuple[int, int]:
        if m == 0:
            return 0, 1
        a, b = pair(m >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        return (d, c + d) if m & 1 else (c, d)

    return pair(n)[0]


def _product_blocks(
    count: int,
    block_digits: int,
    base: int,
    factor: Callable[[int], int],
    exact: Callable[[int], int],
) -> list[int]:
    blocks = []
    mantissa, exponent = _ONE, 0
    for i in range(1, count + 1):
        mantissa, exponent = _normalize(mantissa * factor(i), exponent, base)
        blocks.append(
            _window_block(mantissa, exponent, i - 1, block_digits, base)
            or leading_block(exact(i), block_digits, base)
        )
    return blocks


def _fibonacci_blocks(count: int, block_digits: int, base: int) -> list[int]:
    blocks = []
    prev = cur = _normalize(_ONE, 0, base)  # F(1) = F(2) = 1
    for i in range(1, count + 1):
        if i > 2:
            (pm, pe), (cm, ce) = prev, cur
            prev, cur = cur, _normalize(cm + pm // base ** (ce - pe), ce, base)
        mantissa, exponent = cur
        blocks.append(
            _window_block(mantissa, exponent, max(i - 2, 0), block_digits, base)
            or leading_block(_fib(i), block_digits, base)
        )
    return blocks


def rearranged_sequence(count: int) -> list[int]:
    """First terms of the interleave putting a multiple of 4 in every other slot.

    Odd slots walk the non-multiples of four in order, even slots walk the
    multiples of four in order: 1, 4, 2, 8, 3, 12, 5, 16, ...
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    non_multiples = (v for v in itertools.count(1) if v % 4)
    multiples = itertools.count(4, 4)
    return [next(multiples) if i % 2 else next(non_multiples) for i in range(count)]


def generate_blocks(spec: SequenceSpec) -> list[int]:
    """Leading blocks of the first ``spec.count`` terms of the family."""
    j, base, n = spec.block_bits, spec.base, spec.count
    if spec.family == "pow3":
        return _product_blocks(n, j, base, lambda i: 3, lambda i: 3**i)
    if spec.family == "factorial":
        return _product_blocks(n, j, base, lambda i: i, math.factorial)
    if spec.family == "fibonacci":
        return _fibonacci_blocks(n, j, base)
    return [leading_block(v, j, base) for v in rearranged_sequence(n)]


def check_report_rows(block_bits: int, base: int) -> None:
    """Raise :class:`DepthError` if a report has more than ``MAX_REPORT_ROWS`` rows.

    A report has one row per block of 1 + block_bits digits in ``base``.
    """
    if block_bits < 0:
        raise ValueError(f"block_bits must be >= 0, got {block_bits}")
    if not 2 <= base <= 36:
        raise ValueError(f"base must be in [2, 36], got {base}")
    # 2^bit_length is already over the budget, so capping the exponent
    # there avoids a huge power
    if (base - 1) * base ** min(block_bits, MAX_REPORT_ROWS.bit_length()) > MAX_REPORT_ROWS:
        raise DepthError(
            f"block_bits={block_bits} in base {base} gives more than "
            f"{MAX_REPORT_ROWS} report rows"
        )


def frequency_report(blocks: Iterable[int], block_bits: int, base: int = 2) -> FrequencyReport:
    """Tabulate observed block values against the reference law.

    Values outside [base^block_bits, base^(block_bits + 1)), such as
    clipped small terms, are not blocks of 1 + block_bits digits and are
    excluded from the counts; the first block, in input order, that is not
    an ``int`` (a ``bool`` included) raises :class:`TypeError`.
    The expected column telescopes to total probability 1 across the full
    block range.  A range of more than ``MAX_REPORT_ROWS`` blocks raises
    :class:`DepthError` before any block is read.
    """
    check_report_rows(block_bits, base)
    blocks = blocks if isinstance(blocks, list) else list(blocks)  # read twice
    for block in blocks:  # every block: Counter would merge 2.0 into 2
        if type(block) is not int:
            raise TypeError(f"block {block!r} is not an int")
    counted = Counter(blocks)
    values = range(base**block_bits, base ** (block_bits + 1))
    counts = tuple(counted[v] for v in values)
    total = sum(counts)
    if total == 0:
        raise ValueError("no blocks of full depth to count")
    names = tuple(_digit_string(v, base) for v in values)
    observed = tuple(c / total for c in counts)
    expected = tuple(benford_reference(v, base) for v in values)
    chi_square = sum((c - total * p) ** 2 / (total * p) for c, p in zip(counts, expected))
    max_deviation = max(abs(o - p) for o, p in zip(observed, expected))
    return FrequencyReport(
        base=base,
        block_bits=block_bits,
        total=total,
        blocks=names,
        counts=counts,
        observed=observed,
        expected=expected,
        chi_square=chi_square,
        dof=len(names) - 1,
        max_deviation=max_deviation,
    )


def rearrangement_demo(count: int) -> tuple[float, float]:
    """Occurrence frequency of multiples of four, natural vs rearranged.

    Builds the first ``count`` terms of the naturals and of the interleaved
    rearrangement and counts divisibility by four in each; the first
    frequency approaches 1/4, the second 1/2, although both sequences run
    over the same set of integers.
    """
    if count < 4:
        raise ValueError(f"count must be >= 4, got {count}")
    natural = range(1, count + 1)
    natural_freq = sum(1 for v in natural if v % 4 == 0) / count
    rearranged_freq = sum(1 for v in rearranged_sequence(count) if v % 4 == 0) / count
    return natural_freq, rearranged_freq
