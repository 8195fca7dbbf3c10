"""Scaled-population transition matrix over leading binary blocks.

Fix a depth k and a scale of the form ``1 a1 ... ak`` followed by m zeros.
Among the integers below that scale, the fraction whose binary expansion
starts with the block ``1 x1 ... xk`` tends, as m grows, to

    (1 + excess) / (2^k * (1 + a))

where ``a`` is the dyadic fraction 0.a1...ak and ``excess`` is 1 when the
scale block's value exceeds the target block's and 0 otherwise, since
blocks of one depth compare as their dyadic fractions do (``verify`` checks
this for every pair at k <= 8 against one broadcast call per depth of
:func:`benford2.dyadic.excess_population`, the literal sum).
The denominator 2^k*(1+a) is just the integer value of the scale block, so
every entry is an exact small rational.

Collected over all 2^k scale blocks these limits form a strictly positive
column-stochastic matrix.  This module materializes it densely, applies it
matrix-free in O(2^k) via a suffix scan, and checks it against an exact
integer-counting oracle evaluated at finite scales.  The entry and the
oracle take blocks as values, since only their order and the scale enter;
bits remain in the excess sum, which is stated bit by bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from benford2.dyadic import (
    MAX_COUNT_BITS,
    MAX_DENSE_DEPTH,
    MAX_VECTOR_DEPTH,
    DepthError,
    check_int,
)

if TYPE_CHECKING:
    import numpy as np

# apply_fast scans 2^15 entries (256 KB of float64) at a time, so the
# block's weights stay in cache between the division and the scan
APPLY_BLOCK = 1 << 15


def _block_pair(target: int, scale: int) -> int:
    """Depth of a target and a scale block value, which must share it."""
    depth = check_int(target, "target", 1).bit_length() - 1
    if check_int(scale, "scale", 1).bit_length() - 1 != depth:
        raise ValueError(f"blocks differ in depth: {target} vs {scale}")
    if depth > MAX_VECTOR_DEPTH:
        raise DepthError(f"depth {depth} exceeds the budget of {MAX_VECTOR_DEPTH}")
    return depth


def matrix_element_exact(target: int, scale: int) -> Fraction:
    """Exact limiting entry (1 + [scale > target]) / scale of two block values."""
    _block_pair(target, scale)
    return Fraction(1 + (scale > target), scale)


def build_dense(depth: int) -> np.ndarray:
    """Materialize all 4^k entries for 1 <= k <= 12.

    Entry ``[x, a]`` is indexed by packed target bits x (row) and packed
    scale bits a (column).  The array is column-major so that column sums
    and the power iteration both stream whole columns.

    Every entry is the quotient of two exact small integers, so a single
    float64 division yields the correctly rounded value of the exact
    rational; no further arithmetic touches the entries.  The 2's are
    filled in as doubled 1/scale values, which is exact: 2*fl(1/s) equals
    fl(2/s).  The transpose ``[a, x]`` is built row by row in C order, and
    its ``.T`` is the column-major ``[x, a]`` view with no copy.
    """
    import numpy as np

    n = 1 << check_int(depth, "depth", 1, MAX_DENSE_DEPTH)
    transposed = np.empty((n, n))
    transposed[...] = 1.0 / np.arange(n, 2 * n, dtype=np.float64)[:, np.newaxis]
    # below the diagonal of [a, x] the scale exceeds the target: numerator 2
    np.multiply(transposed, 2.0, out=transposed, where=np.tri(n, k=-1, dtype=bool))
    return transposed.T


def apply_dense(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Plain matrix-vector product against the dense entries."""
    import numpy as np

    v = np.asarray(vector, dtype=np.float64)
    if v.shape != matrix.shape[:1]:
        raise ValueError(f"vector shape {v.shape} does not match matrix shape {matrix.shape}")
    return matrix @ v


def apply_fast(vector: np.ndarray, depth: int) -> np.ndarray:
    """Matrix-free product with the depth-k transition matrix, in O(2^k).

    With w_a = v_a / scale_value(a), the product at target x is the total
    sum of w plus the partial sum of w over scales strictly above x in
    dyadic order: out = s[0] + s - w, where s[x] is the sum of w[x:]
    accumulated from the high end down.  No 4^k work is ever done.
    Agrees with :func:`apply_dense` componentwise to ~1e-15.

    The scan runs in blocks of ``APPLY_BLOCK`` entries from the high end
    down, so that w is formed in one small reused buffer.  Each block's
    reversed cumulative sum is seeded with the suffix above it by
    ``w[-1] += carry``; ``cumsum`` adds left to right one term at a time,
    so every partial sum has the bits of one reversed ``cumsum`` over the
    whole of w.  A second blocked pass forms w again (the same bits) and
    applies ``s + s[0] - w`` in that order.  The input is not modified;
    the returned array is the only 2^k allocation.
    """
    import numpy as np

    n = 1 << check_int(depth, "depth", 1, MAX_VECTOR_DEPTH)
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"vector length {v.shape} is not 2^{depth}")
    size = min(n, APPLY_BLOCK)
    offsets = np.arange(size, dtype=np.float64)
    weights = np.empty(size)
    out = np.empty(n)

    def block_weights(lo: int) -> np.ndarray:
        # the scales n + lo + i are integers below 2^25, exact in float64
        np.add(offsets, n + lo, out=weights)
        return np.divide(v[lo : lo + size], weights, out=weights)

    carry = -0.0  # x + -0.0 is x for every x, -0.0 included
    for lo in range(n - size, -1, -size):
        block_weights(lo)[-1] += carry
        np.cumsum(weights[::-1], out=out[lo : lo + size][::-1])
        carry = out[lo]
    for lo in range(0, n, size):
        block = out[lo : lo + size]
        np.add(block, carry, out=block)
        np.subtract(block, block_weights(lo), out=block)
    return out


def brute_force_element(target: int, scale: int, padding: int) -> Fraction:
    """Exact population fraction of a target block at a finite scale.

    Counts the integers in [0, scale * 2^padding) whose binary expansion
    starts with the target block.  The numbers with a fixed bit length j
    that start with a given (k+1)-bit block form one aligned interval, so
    the count walks bit lengths and adds each whole interval; no
    per-integer loop is ever run.  At padding p the walk counts
    2^(p+1) - 1 integers when target < scale and 2^p - 1 otherwise, so the
    result is exactly the limiting entry (:func:`matrix_element_exact`)
    less 1/(scale * 2^p).
    """
    # the count walks numbers of depth + padding bits
    check_int(padding, "padding", 1, MAX_COUNT_BITS - _block_pair(target, scale))
    limit = scale << padding
    count = 0
    shift = 0
    while ((target + 1) << shift) <= limit:
        count += 1 << shift
        shift += 1
    # no interval crosses the limit: blocks of one depth have 2 * target > scale, so the walk stops
    # at shift = padding + 1 if target < scale and at padding otherwise, where target << shift >= limit
    return Fraction(count, limit)

