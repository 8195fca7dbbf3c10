"""Bit-level building blocks for leading binary blocks and dyadic fractions.

Every positive integer written in base 2 starts with a 1, so a leading
block of 1+k significant digits is fully described by the k bits after the
first one, or by its value V in [2^k, 2^(k+1)): every block argument is
that value, checked by :func:`as_block_value`.  V - 2^k packs the bits, so
integer order is dyadic order (0.b1b2...bk as a fraction), which lets the
vector and matrix layers index 2^k-sized arrays with ordinary integer
comparisons and suffix scans.  Bits, most-significant-first as a tuple of
0/1 ints, remain where an identity is stated bit by bit: the excess sum and
truncations here, and the series terms of ``analytic``.
The excess sum also takes 0/1 arrays with the bits on the last axis, so
one call covers every (scale, target) pair of a depth; numpy is loaded on
that first call, not at import.

All values derived from bits are exact: integers for block values,
``fractions.Fraction`` for dyadic fractions and truncations.  Floating
point enters only at module boundaries that need it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from benford2._lazy import lazy_import

if TYPE_CHECKING:
    from numpy.typing import ArrayLike, NDArray

np = lazy_import("numpy")

Bits = tuple[int, ...]

# Resource budgets.  Vector-shaped work allocates 2^k entries, dense matrix
# work allocates 4^k entries, Python loops over all 4^k matrix entries (a
# matrix dump, the counting oracle) stop at MAX_DUMP_DEPTH, a frequency
# report names and prints at most MAX_REPORT_ROWS blocks, and the integer
# counting oracle walks numbers of k+padding bits.
MAX_VECTOR_DEPTH = 24
MAX_DENSE_DEPTH = 12
MAX_DUMP_DEPTH = 8
MAX_REPORT_ROWS = 1 << 17
MAX_COUNT_BITS = 40


class DepthError(ValueError):
    """Requested depth exceeds the configured resource budget."""


def _as_bit(bit: int | str) -> int:
    try:
        return int(bit) if isinstance(bit, str) else operator.index(bit)
    except TypeError:
        raise TypeError(f"bit {bit!r} is not an int or a digit string") from None


def validate_bits(bits: Iterable[int]) -> Bits:
    """Coerce integers (bools and numpy's included) and digit strings to a
    tuple of 0/1 ints, enforcing the vector depth budget; any other bit, a
    float included, raises :class:`TypeError` instead of being truncated."""
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
    if not 0 <= packed < (1 << depth):
        raise ValueError(f"packed value {packed} does not fit in {depth} bits")
    return tuple((packed >> (depth - 1 - i)) & 1 for i in range(depth))


def truncate(bits: Iterable[int], places: int) -> Fraction:
    """Exact value of the fraction cut after its first ``places`` bits."""
    out = validate_bits(bits)
    if not 0 <= places <= len(out):
        raise ValueError(f"places must be in [0, {len(out)}], got {places}")
    return Fraction(pack_bits(out[:places]), 1 << places)


def _bit_array(bits: ArrayLike) -> NDArray:
    """``bits`` as a bool array whose last axis holds the bits."""
    out = np.asarray(bits)
    if out.ndim == 0:
        raise ValueError("bits need an axis of bit positions, got a scalar")
    if out.size and (out.dtype.kind not in "biu" or out.min() < 0 or out.max() > 1):
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


def as_block_value(block: int) -> int:
    """Check a block given as its value, such as ``0b101``: anything but an
    ``int`` (a ``bool`` included) raises :class:`TypeError` and a value
    below 1 :class:`ValueError`."""
    if type(block) is not int:
        raise TypeError(f"block {block!r} is not an int")
    if block < 1:
        raise ValueError(f"block value must be >= 1, got {block}")
    return block
