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

from benford2._lazy import lazy_import
from benford2.dyadic import (
    MAX_COUNT_BITS,
    MAX_DENSE_DEPTH,
    MAX_VECTOR_DEPTH,
    DepthError,
    as_block_value,
)

np = lazy_import("numpy")


def _block_pair(target: int, scale: int) -> int:
    """Depth of a target and a scale block value, which must share it."""
    depth = as_block_value(target).bit_length() - 1
    if as_block_value(scale).bit_length() - 1 != depth:
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
    if not 1 <= depth <= MAX_DENSE_DEPTH:
        raise DepthError(f"dense depth must be in [1, {MAX_DENSE_DEPTH}], got {depth}")
    n = 1 << depth
    transposed = np.empty((n, n))
    transposed[...] = 1.0 / np.arange(n, 2 * n, dtype=np.float64)[:, np.newaxis]
    # below the diagonal of [a, x] the scale exceeds the target: numerator 2
    np.multiply(transposed, 2.0, out=transposed, where=np.tri(n, k=-1, dtype=bool))
    return transposed.T


def apply_dense(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Plain matrix-vector product against the dense entries."""
    v = np.asarray(vector, dtype=np.float64)
    if v.shape != matrix.shape[:1]:
        raise ValueError(f"vector shape {v.shape} does not match matrix shape {matrix.shape}")
    return matrix @ v


def apply_fast(vector: np.ndarray, depth: int) -> np.ndarray:
    """Matrix-free product with the depth-k transition matrix, in O(2^k).

    With w_a = v_a / scale_value(a), the product at target x is the total
    sum of w plus the partial sum of w over scales strictly above x in
    dyadic order.  One reversed cumulative sum provides every suffix at
    once, so no 4^k work is ever done.  Agrees with :func:`apply_dense`
    componentwise to ~1e-15.  The input is not modified; the weights and
    the returned array are the only 2^k allocations.
    """
    v = np.asarray(vector, dtype=np.float64)
    if depth < 1 or depth > MAX_VECTOR_DEPTH:
        raise DepthError(f"depth must be in [1, {MAX_VECTOR_DEPTH}], got {depth}")
    n = 1 << depth
    if v.shape != (n,):
        raise ValueError(f"vector length {v.shape} is not 2^{depth}")
    weights = np.arange(n, 2 * n, dtype=np.float64)
    np.divide(v, weights, out=weights)
    out = np.empty(n)
    np.cumsum(weights[::-1], out=out[::-1])  # out[x] = sum of weights[x:]
    np.add(out, out[0], out=out)
    np.subtract(out, weights, out=out)
    return out


def brute_force_element(target: int, scale: int, padding: int) -> Fraction:
    """Exact population fraction of a target block at a finite scale.

    Counts the integers in [0, scale * 2^padding) whose binary expansion
    starts with the target block.  The numbers with a fixed bit length j
    that start with a given (k+1)-bit block form one aligned interval, so
    the count walks bit lengths and clamps the top interval; no
    per-integer loop is ever run.  At padding m the result is
    within 2^(1-m) of the limiting matrix element (short numbers, those
    with fewer than k+1 bits, are missing from the count).
    """
    depth = _block_pair(target, scale)
    if padding < 1:
        raise ValueError(f"padding must be >= 1, got {padding}")
    if depth + padding > MAX_COUNT_BITS:
        raise DepthError(
            f"depth+padding {depth + padding} exceeds the counting budget {MAX_COUNT_BITS}"
        )
    limit = scale << padding
    count = 0
    shift = 0
    while (target << shift) < limit:
        count += min((target + 1) << shift, limit) - (target << shift)
        shift += 1
    return Fraction(count, limit)

