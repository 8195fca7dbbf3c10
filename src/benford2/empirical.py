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

Powers of 3 and Fibonacci numbers are generated in contiguous ranges of
terms on every CPU this process may use.  Each range starts from the
exact term before it, 3^(lo-1) or F(lo-2) and F(lo-1), rounded down once,
so its blocks depend on its bounds alone.  The guard still counts the
steps from the first term: i - 1 for 3^i (the first step, 3 * 1, is
exact) and max(i - 2, 0) for F(i).  A seed drifts no more than one step
does, so by term i a window seeded at term lo has drifted at most as much
as i - lo + 2 steps, which is no more than the guard counts once lo >= 3
(pow3) or lo >= 4 (Fibonacci).  The first range's seed, 1, is exact;
every other range starts past term 2^(CHUNK_BITS - 1), and the guard's
fixed 2^-50 alone covers thousands of steps besides.  The blocks are the
exact ones, and which terms fall back depends on the count alone, not on
the number of CPUs.

The rearrangement demonstration shows why these frequencies are a property
of ordering rather than cardinality: interleaving the naturals so that
every other term is a multiple of four doubles the occurrence frequency of
those multiples without changing the underlying set.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from benford2 import _fanout
from benford2.dyadic import MAX_REPORT_ROWS, DepthError, check_int
from benford2.solver import benford_reference

FAMILIES = ("pow3", "fibonacci", "factorial", "rearranged")

_FRACTION_BITS = 64
_ONE = 1 << _FRACTION_BITS
_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _check_digits_and_base(digits: int, base: int, name: str = "block_bits") -> None:
    """Refuse a digit count or base that is not an ``int`` (a ``bool`` included)
    with :class:`TypeError`, a negative digit count with :class:`ValueError`,
    and a base that ``_DIGITS`` cannot name with :class:`DepthError`."""
    check_int(digits, name, 0)
    check_int(base, "base", 2, len(_DIGITS))


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
        check_int(self.count, "count", 1)
        _check_digits_and_base(self.block_bits, self.base)


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
    check_int(value, "value", 1)
    _check_digits_and_base(block_digits, base, "block_digits")
    total = _digit_count(value, base)
    keep = min(block_digits + 1, total)
    return value // base ** (total - keep)


def _normalize(mantissa: int, exponent: int, base: int, top: int) -> tuple[int, int]:
    """``mantissa`` divided down by ``base`` below ``top`` (``base * _ONE``), each division rounding down."""
    while mantissa >= top:
        mantissa //= base
        exponent += 1
    return mantissa, exponent


def _window_block(mantissa: int, exponent: int, steps: int, block_digits: int, scale: int) -> int:
    """Leading block value from the window, or 0 when only the exact term can tell.

    ``scale`` is ``base**block_digits``.  The window never exceeds the true
    term (every step rounds down) and trails it by less than the guard,
    which widens with the step count.  So only a significand within the
    guard below the next block boundary can belong to a term past it; one
    on or just above a boundary cannot.
    """
    if exponent < block_digits:  # fewer digits than requested: term is small
        return 0
    scaled = mantissa * scale
    guard = (scaled >> 50) + ((steps * scaled) >> 62) + 1
    if _ONE - (scaled & (_ONE - 1)) < guard:
        return 0
    return scaled >> _FRACTION_BITS


def _fib_pair(n: int) -> tuple[int, int]:
    """Exact Fibonacci numbers (F(n), F(n + 1)) by fast doubling (F(1) = F(2) = 1)."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def _seed(value: int, base: int) -> tuple[int, int]:
    """The window of ``value``: its significand rounded down once, and its exponent."""
    exponent = _digit_count(value, base) - 1
    return (value << _FRACTION_BITS) // base**exponent, exponent


def _product_blocks(
    lo: int, hi: int, block_digits: int, base: int, factors: Iterable[int], exact: Callable[[int], int]
) -> list[int]:
    """Blocks of terms lo, ..., hi - 1 of a running product, seeded from the exact term lo - 1.

    ``factors`` are the factors of terms lo, ... in order, and ``exact(i)``
    is term i.
    """
    blocks = []
    mantissa, exponent = _seed(exact(lo - 1), base)
    top, scale = base * _ONE, base**block_digits
    for i, factor in zip(range(lo, hi), factors):
        mantissa, exponent = _normalize(mantissa * factor, exponent, base, top)
        blocks.append(
            _window_block(mantissa, exponent, i - 1, block_digits, scale)
            or leading_block(exact(i), block_digits, base)
        )
    return blocks


def _pow3_blocks(lo: int, hi: int, block_digits: int, base: int) -> list[int]:
    """Blocks of 3^lo, ..., 3^(hi - 1), seeded from 3^(lo - 1)."""
    return _product_blocks(lo, hi, block_digits, base, itertools.repeat(3), lambda i: 3**i)


def _fibonacci_blocks(lo: int, hi: int, block_digits: int, base: int) -> list[int]:
    """Blocks of F(lo), ..., F(hi - 1), seeded from F(lo - 2) and F(lo - 1).

    Below term 3 both windows are that of F(1) = F(2) = 1, and no step is
    taken until term 3.
    """
    blocks = []
    (pm, pe), (cm, ce) = (_seed(term, base) for term in (_fib_pair(lo - 2) if lo > 2 else (1, 1)))
    top, scale = base * _ONE, base**block_digits
    for i in range(lo, hi):
        if i > 2:
            pm, pe, (cm, ce) = cm, ce, _normalize(cm + pm // base ** (ce - pe), ce, base, top)
        blocks.append(
            _window_block(cm, ce, max(i - 2, 0), block_digits, scale)
            or leading_block(_fib_pair(i)[0], block_digits, base)
        )
    return blocks


def _ranged_blocks(blocks_of: Callable, count: int, block_digits: int, base: int) -> list[int]:
    """Blocks of terms 1, ..., ``count`` by ``blocks_of``, in ranges spread over the CPUs.

    The ⌈count / 2^CHUNK_BITS⌉ ranges, equal to within a term, are the items of
    :func:`benford2._fanout.fan_out`, so a count up to 2^CHUNK_BITS is one
    range and forks nothing.  Two or more ranges hold at least
    2^(CHUNK_BITS - 1) terms each, tens of milliseconds of work against
    about one for a fork.  Each range starts from the exact term before it.
    """
    ranges = -(-count >> _fanout.CHUNK_BITS)
    bounds = [1 + count * r // ranges for r in range(ranges + 1)]

    def work(item: int) -> list[int]:
        return blocks_of(bounds[item], bounds[item + 1], block_digits, base)

    with closing(_fanout.fan_out(work, ranges)) as parts:
        return list(itertools.chain.from_iterable(parts))


def _interleave(count: int) -> Iterator[int]:
    """The first ``count`` terms of the naturals rearranged to put a multiple of 4 in every other slot.

    Odd slots walk the non-multiples of four in order, even slots walk the
    multiples of four in order: 1, 4, 2, 8, 3, 12, 5, 16, ...  The terms
    are yielded one at a time, so no list of them is built.
    """
    non_multiples = (v for v in itertools.count(1) if v % 4)
    multiples = itertools.count(4, 4)
    return (next(multiples) if i % 2 else next(non_multiples) for i in range(count))


def generate_blocks(spec: SequenceSpec) -> list[int]:
    """Leading blocks of the first ``spec.count`` terms of the family.

    pow3 and fibonacci are generated in ranges on every CPU this process may
    use, each seeded from its exact predecessor term (see the module
    docstring); the blocks are the exact ones.
    """
    j, base, n = spec.block_bits, spec.base, spec.count
    if spec.family == "pow3":
        return _ranged_blocks(_pow3_blocks, n, j, base)
    if spec.family == "fibonacci":
        return _ranged_blocks(_fibonacci_blocks, n, j, base)
    if spec.family == "factorial":  # one range: an exact (lo - 1)! costs about as much as the steps it saves
        return _product_blocks(1, n + 1, j, base, range(1, n + 1), math.factorial)
    return [leading_block(v, j, base) for v in _interleave(n)]


def check_report_rows(block_bits: int, base: int) -> None:
    """Raise :class:`DepthError` if a report has more than ``MAX_REPORT_ROWS`` rows.

    A report has one row per block of 1 + block_bits digits in ``base``.
    """
    _check_digits_and_base(block_bits, base)
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
    chi_square = 0.0  # added left to right, the same float on every Python: sum() compensates since 3.12
    for c, p in zip(counts, expected):
        chi_square += (c - total * p) ** 2 / (total * p)
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

    Among the first ``count`` terms the naturals hold ⌊count/4⌋ multiples of
    four, and the interleaved rearrangement ⌊count/2⌋, one in every second
    slot and none elsewhere; the first frequency approaches 1/4, the second
    1/2, although both sequences run over the same set of integers.
    """
    check_int(count, "count", 4)
    return (count // 4) / count, (count // 2) / count
