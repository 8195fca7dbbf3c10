"""Bit-level building blocks for leading binary blocks and dyadic fractions.

Every positive integer written in base 2 starts with a 1, so a leading
block of 1+k significant digits is fully described by the k bits after the
first one, or by its value V in [2^k, 2^(k+1)): every block argument is
that value.  Every integer argument of the library (a block, depth, level,
padding, count, digit count, base or term index) goes through
:func:`check_int`, the one rule for them.  V - 2^k packs the bits, so
integer order is dyadic order (0.b1b2...bk as a fraction), which lets the
vector and matrix layers index 2^k-sized arrays with ordinary integer
comparisons and suffix scans.  Bits, most-significant-first as a tuple of
0/1 ints, remain where an identity is stated bit by bit: the excess sum and
truncations here, and the series terms of ``analytic``.
The excess sum also takes 0/1 arrays with the bits on the last axis, so
one call covers every (scale, target) pair of a depth; only those calls
import numpy, not the module.  The harmonic core of
``analytic`` and ``solver`` lives here too, in pure Python: one
Euler-Maclaurin interval for a gap H_b - H_a, from which the sum over a
block's range and the ratio of two gaps are rounded, with the exact
integer gap wherever that interval holds a rounding midpoint.

All values derived from bits are exact: integers for block values,
``fractions.Fraction`` for dyadic fractions and truncations.  Floating
point enters only at module boundaries that need it.
"""

from __future__ import annotations

import operator
import sys
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

Bits = tuple[int, ...]

# Resource budgets.  Vector-shaped work allocates 2^k entries, dense matrix
# work allocates 4^k entries, a matrix dump (4^k rows) and the counting
# oracle (4^k pairs) stop at MAX_DUMP_DEPTH, a frequency report names and
# prints at most MAX_REPORT_ROWS blocks, and the integer counting oracle
# walks numbers of k+padding bits.
MAX_VECTOR_DEPTH = 24
MAX_DENSE_DEPTH = 12
MAX_DUMP_DEPTH = 8
MAX_REPORT_ROWS = 1 << 17
MAX_COUNT_BITS = 40
# Harmonic levels and closed-form depths: the range whose roundings the tests
# check against 80-digit references; no cost sets it (see harmonic_block_sum)
MAX_HARMONIC_LEVEL = 26
# A&S 6.3.18: H_m = ln m + gamma + 1/(2m) - 1/(12m^2) + 1/(120m^4) - 1/(252m^6)
# + 1/(240m^8) - R(m), as (numerator, denominator, power of 1/m), with
# 0 < R(m) < |B_10|/(10m^10) = 1/(132m^10) for every m >= 1: the series envelops H_m
_EULER_MACLAURIN_TERMS = ((1, 2, 1), (-1, 12, 2), (1, 120, 4), (-1, 252, 6), (1, 240, 8))
# the harmonic core's decimal arithmetic: 50 digits, not the caller's context, whose
# precision, traps or rounding may differ; each formula it evaluates is off by under 10^-45
_DIGITS = Context(prec=50)
_ROUNDOFF = Decimal("1e-45")


class DepthError(ValueError):
    """An input lies outside its range: an integer argument outside
    [least, most] (see :func:`check_int`), whether ``most`` is a resource
    budget or set by the other arguments, or a size derived from the input,
    such as a bit count or a report's rows, past its cap."""


def check_int(value: int, name: str, least: int, most: int | None = None) -> int:
    """Return ``value`` if it is an ``int`` in range, else raise.

    Anything but an ``int`` (a ``bool`` included) raises :class:`TypeError`
    naming ``name``; with a ``most``, a value outside [least, most] raises
    :class:`DepthError`, and without one a value below ``least``
    :class:`ValueError`.  ``most`` is a resource budget or a bound set by
    the other arguments, such as the number of bits a term index may reach.
    """
    if type(value) is not int:
        raise TypeError(f"{name} {value!r} is not an int")
    if most is not None:
        if not least <= value <= most:
            raise DepthError(f"{name} must be in [{least}, {most}], got {value}")
    elif value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _as_bit(bit: int) -> int:
    try:
        return operator.index(bit)
    except TypeError:
        # numpy's bool has no __index__, but a bool is a bit; none exists before numpy is loaded
        np = sys.modules.get("numpy")
        if np is not None and isinstance(bit, np.bool_):
            return int(bit)
        raise TypeError(f"bit {bit!r} is not an int") from None


def validate_bits(bits: Iterable[int]) -> Bits:
    """The bits as a tuple of 0/1 ints, within the vector depth budget.

    One rule for bits, which :func:`excess_population` applies too: an
    integer (a ``bool``, a numpy integer or a numpy bool included) equal to
    0 or 1 is a bit; any other type, a float or a string included, raises
    :class:`TypeError` instead of being truncated or parsed, and any other
    integer :class:`ValueError`.
    """
    out = tuple(map(_as_bit, bits))
    if out.count(0) + out.count(1) != len(out):
        raise ValueError(f"bits must all be 0 or 1, got {out!r}")
    if len(out) > MAX_VECTOR_DEPTH:
        raise DepthError(f"depth {len(out)} exceeds the budget of {MAX_VECTOR_DEPTH}")
    return out


def pack_bits(bits: Bits) -> int:
    """Pack MSB-first bits into an integer; integer order equals dyadic order."""
    packed = 0
    for b in bits:
        packed = (packed << 1) | b
    return packed


def unpack_bits(packed: int, depth: int) -> Bits:
    """Inverse of :func:`pack_bits` for a known depth."""
    check_int(depth, "depth", 0, MAX_VECTOR_DEPTH)
    check_int(packed, "packed", 0, (1 << depth) - 1)
    return tuple((packed >> (depth - 1 - i)) & 1 for i in range(depth))


def truncate(bits: Iterable[int], places: int) -> Fraction:
    """Exact value of the fraction cut after its first ``places`` bits."""
    out = validate_bits(bits)
    check_int(places, "places", 0, len(out))
    return Fraction(pack_bits(out[:places]), 1 << places)


def _bit_array(bits: ArrayLike) -> NDArray:
    """``bits`` as a bool array whose last axis holds the bits, by the rule of :func:`validate_bits`."""
    import numpy as np

    out = np.asarray(bits)
    if out.size and out.dtype.kind not in "biu":
        raise TypeError(f"bits of dtype {out.dtype} are not ints")
    if out.ndim == 0:
        raise ValueError("bits need an axis of bit positions, got a scalar")
    if out.size and (out.min() < 0 or out.max() > 1):
        raise ValueError("bits must all be 0 or 1")
    if out.shape[-1] > MAX_VECTOR_DEPTH:
        raise DepthError(f"depth {out.shape[-1]} exceeds the budget of {MAX_VECTOR_DEPTH}")
    return out.astype(bool)


def excess_population(alpha: ArrayLike, x: ArrayLike) -> int | NDArray:
    """Extra population units the enhancement chunks of a scale contribute.

    Splitting the integers below the scale ``1 a1 ... ak 0...0`` into a base
    chunk plus one enhancement chunk per scale bit, chunk r holds numbers
    starting with the target block ``1 x1 ... xk`` exactly when the scale
    bits match the target up to position r-1 and the target bit x_r is 0.
    Term by term that is ``a_r * [x_r = 0] * prod_{i<r} [a_i = x_i]``, and
    this function evaluates the sum literally (the prefix-match product is
    carried along instead of being recomputed per term).  Only a 1-over-0
    first difference fires, so the sum is 1 exactly when alpha > x, the
    comparison :mod:`benford2.transition` uses and ``verify`` checks.

    ``alpha`` and ``x`` are 0/1 arrays (or tuples) whose last axis holds the
    k bits, most significant first; their leading axes broadcast, and the
    sum is taken for every pair at once, one bit position at a time.  Two
    single bit vectors, such as two tuples, give a plain ``int``; otherwise
    the result is an int array of the broadcast leading shape.
    """
    import numpy as np

    a = _bit_array(alpha)
    t = _bit_array(x)
    if a.shape[-1] != t.shape[-1]:
        raise ValueError(f"bit vectors differ in length: {a.shape[-1]} vs {t.shape[-1]}")
    shape = np.broadcast_shapes(a.shape[:-1], t.shape[:-1])
    total = np.zeros(shape, dtype=np.int64)
    prefix_match = np.ones(shape, dtype=bool)
    for r in range(t.shape[-1]):
        a_r, x_r = a[..., r], t[..., r]
        total += a_r & ~x_r & prefix_match
        prefix_match &= a_r == x_r
    return int(total) if total.ndim == 0 else total


def _harmonic_gap(a: int, b: int) -> tuple[int, int]:
    """H_b - H_a, the sum of 1/m over a < m <= b, as (numerator, denominator), by binary splitting."""
    if b - a == 1:
        return 1, b
    mid = (a + b) // 2
    (p, q), (r, s) = _harmonic_gap(a, mid), _harmonic_gap(mid, b)
    return p * s + r * q, q * s


def _euler_maclaurin_gap(a: int, b: int) -> tuple[Decimal, Decimal]:
    """H_b - H_a for 1 <= a < b, as a 50-digit midpoint from the terms of
    ``_EULER_MACLAURIN_TERMS`` and a radius that holds the exact gap.

    Both remainders R(a) and R(b) lie in (0, 1/(132a^10)), so R(b) - R(a)
    lies within 1/(132a^10); the radius adds 10^-45 for the arithmetic.
    """
    with localcontext(_DIGITS):
        x, y = Decimal(a), Decimal(b)
        total = (y / x).ln()
        for numerator, denominator, power in _EULER_MACLAURIN_TERMS:
            total += Decimal(numerator) / denominator * (1 / y**power - 1 / x**power)
        return total, 1 / (132 * x**10) + _ROUNDOFF


def _rounding(value: Decimal, bound: Decimal) -> float | None:
    """The float every number within ``bound`` of ``value`` rounds to, or ``None`` if the ends differ."""
    with localcontext(_DIGITS):
        low = float(value - bound)
        return low if low == float(value + bound) else None


def harmonic_shares(a: int, b: int, c: int) -> tuple[float, float]:
    """(H_b - H_a)/(H_c - H_a) and (H_c - H_b)/(H_c - H_a) for 1 <= a < b < c,
    each correctly rounded, as ``float(Fraction)`` rounds.

    With two intervals of :func:`_euler_maclaurin_gap`, A +- e for H_b - H_a
    and W +- f for the whole gap, the exact share lies within
    (e + (A/W)f)/(W - f) of A/W, and the other share, one minus it, as far
    from 1 - A/W; 10^-45 more covers the arithmetic.  Where the interval
    around either share holds a rounding midpoint, the shares come from the
    exact integer gaps, each quotient rounded once by int true division.
    """
    (head, e), (whole, f) = _euler_maclaurin_gap(a, b), _euler_maclaurin_gap(a, c)
    with localcontext(_DIGITS):
        share = head / whole
        bound = (e + share * f) / (whole - f) + _ROUNDOFF
        rounded = _rounding(share, bound), _rounding(1 - share, bound)
    if None not in rounded:
        return rounded
    (p, q), (r, s) = _harmonic_gap(a, b), _harmonic_gap(b, c)
    head, tail = p * s, r * q
    return head / (head + tail), tail / (head + tail)


def harmonic_block_sum(block: int, level: int) -> float:
    """Sum of 1/m over the block's scaled range [V*2^level, (V+1)*2^level), correctly rounded.

    This is the left Riemann sum of 1/t over the range, so it brackets
    ln((V+1)/V) from above with error below 1/(V*2^level).  It is H_b - H_a
    with a = V*2^level - 1 and b = a + 2^level, rounded once, as
    ``float(Fraction)`` rounds: from the interval of
    :func:`_euler_maclaurin_gap` where it rounds to one float, and
    otherwise, as at the smallest starts, from the exact integer gap.  The
    exact sum is never a rounding midpoint: a prime above 2^level divides
    exactly one term (Bertrand's postulate for V = 1, Sylvester's theorem
    otherwise).  The gap exceeds 1/(V+1); from 2^13 terms on V is below
    2^49 and the radius below 2^-136, so the interval holds a midpoint with
    a chance below 2^-34 (2^-72 for V <= 2^10): past 2^12 terms the exact
    fallback is reached only with negligible probability.  A scaled value
    of 2^62 or more raises :class:`DepthError`: below it the gap exceeds
    2^-61 and half its ulp 2^-114, far above the 10^-45.
    """
    start = check_int(block, "block", 1) << check_int(level, "level", 1, MAX_HARMONIC_LEVEL)
    if start.bit_length() > 62:
        raise DepthError(f"scaled block value 2^{level} * {block} is 2^62 or more")
    a, b = start - 1, start - 1 + (1 << level)
    rounded = _rounding(*_euler_maclaurin_gap(a, b))
    if rounded is not None:
        return rounded
    p, q = _harmonic_gap(a, b)
    return p / q
