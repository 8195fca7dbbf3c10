"""Scaled-population transition matrix over leading binary blocks.

Fix a depth k and a scale of the form ``1 a1 ... ak`` followed by m zeros.
Among the integers below that scale, the fraction whose binary expansion
starts with the block ``1 x1 ... xk`` tends, as m grows, to

    (1 + excess) / (2^k * (1 + a))

where ``a`` is the dyadic fraction 0.a1...ak and ``excess`` is the 0/1
indicator that the scale fraction exceeds the target fraction (see
:mod:`benford2.dyadic`).  The denominator 2^k*(1+a) is just the integer
value of the scale block, so every entry is an exact small rational.

Collected over all 2^k scale blocks these limits form a strictly positive
column-stochastic matrix.  This module materializes it densely, applies it
matrix-free in O(2^k) via a suffix scan, and checks it against an exact
integer-counting oracle evaluated at finite scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from benford2.dyadic import (
    MAX_COUNT_BITS,
    MAX_DENSE_DEPTH,
    MAX_VECTOR_DEPTH,
    Bits,
    DepthError,
    block_value,
    excess_population_fast,
    validate_bits,
)


@dataclass(frozen=True)
class ChunkDecomposition:
    """Partition of [0, scale) into the base chunk plus one chunk per bit.

    ``boundaries`` holds the k+2 interval endpoints starting at 0; chunk r
    is ``[boundaries[r], boundaries[r+1])`` and has size ``sizes[r]``.  When
    a target block is supplied, ``fractions[r]`` is the exact population
    fraction of that block inside chunk r (zero for empty chunks).
    """

    depth: int
    padding: int
    boundaries: tuple[int, ...]
    sizes: tuple[int, ...]
    fractions: Optional[tuple[Fraction, ...]] = None

    @property
    def total(self) -> int:
        return self.boundaries[-1]


def matrix_element_exact(x: Iterable[int], alpha: Iterable[int]) -> Fraction:
    """Exact limiting entry (1 + excess) / scale-block-value."""
    xb = validate_bits(x)
    ab = validate_bits(alpha)
    return Fraction(1 + excess_population_fast(ab, xb), block_value(ab))


def build_dense(depth: int) -> np.ndarray:
    """Materialize all 4^k entries for 1 <= k <= 12.

    Entry ``[x, a]`` is indexed by packed target bits x (row) and packed
    scale bits a (column).  The array is column-major so that column sums
    and the power iteration both stream whole columns.

    Every entry is the quotient of two exact small integers, so a single
    float64 division yields the correctly rounded value of the exact
    rational; no further arithmetic touches the entries.
    """
    if not 1 <= depth <= MAX_DENSE_DEPTH:
        raise DepthError(f"dense depth must be in [1, {MAX_DENSE_DEPTH}], got {depth}")
    n = 1 << depth
    index = np.arange(n, dtype=np.int64)
    excess = index[np.newaxis, :] > index[:, np.newaxis]
    numerators = 1.0 + excess
    scale_values = (n + index).astype(np.float64)
    return np.asfortranarray(numerators / scale_values[np.newaxis, :])


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
    componentwise to ~1e-15.
    """
    v = np.asarray(vector, dtype=np.float64)
    if depth < 1 or depth > MAX_VECTOR_DEPTH:
        raise DepthError(f"depth must be in [1, {MAX_VECTOR_DEPTH}], got {depth}")
    n = 1 << depth
    if v.shape != (n,):
        raise ValueError(f"vector length {v.shape} is not 2^{depth}")
    weights = v / (n + np.arange(n, dtype=np.float64))
    suffix = np.cumsum(weights[::-1])[::-1]  # suffix[x] = sum of weights[x:]
    return suffix[0] + suffix - weights


def brute_force_element(x: Iterable[int], alpha: Iterable[int], padding: int) -> Fraction:
    """Exact population fraction of a target block at a finite scale.

    Counts the integers in [0, A * 2^padding), A the scale-block value,
    whose binary expansion starts with the target block.  The numbers with
    a fixed bit length j that start with a given (k+1)-bit block form one
    aligned interval, so the count walks bit lengths and clamps the top
    interval; no per-integer loop is ever run.  At padding m the result is
    within 2^(1-m) of the limiting matrix element (short numbers, those
    with fewer than k+1 bits, are missing from the count).
    """
    xb = validate_bits(x)
    ab = validate_bits(alpha)
    if len(xb) != len(ab):
        raise ValueError(f"bit vectors differ in length: {len(xb)} vs {len(ab)}")
    if padding < 1:
        raise ValueError(f"padding must be >= 1, got {padding}")
    if len(xb) + padding > MAX_COUNT_BITS:
        raise DepthError(
            f"depth+padding {len(xb) + padding} exceeds the counting budget {MAX_COUNT_BITS}"
        )
    target = block_value(xb)
    limit = block_value(ab) << padding
    count = 0
    shift = 0
    while (target << shift) < limit:
        count += min((target + 1) << shift, limit) - (target << shift)
        shift += 1
    return Fraction(count, limit)


def chunk_decomposition(
    alpha: Iterable[int], padding: int, target: Optional[Iterable[int]] = None
) -> ChunkDecomposition:
    """Split [0, scale) into the base chunk plus one chunk per scale bit.

    Chunk 0 is [0, 2^(k+m)); chunk r >= 1 covers the numbers whose leading
    bits match the scale through bit r-1 with bit r dropped to zero, which
    is empty when a_r = 0 and has size a_r * 2^(m+k-r) otherwise.  The
    endpoint after chunk r is the value of the scale prefix ``1 a1 .. ar``
    shifted to full width, so consecutive chunks tile the range exactly.
    """
    ab = validate_bits(alpha)
    if padding < 1:
        raise ValueError(f"padding must be >= 1, got {padding}")
    k = len(ab)
    if k + padding > MAX_COUNT_BITS:
        raise DepthError(
            f"depth+padding {k + padding} exceeds the counting budget {MAX_COUNT_BITS}"
        )
    boundaries = [0]
    for r in range(k + 1):
        boundaries.append(block_value(ab[:r]) << (padding + k - r))
    sizes = tuple(boundaries[i + 1] - boundaries[i] for i in range(k + 1))

    fractions: Optional[tuple[Fraction, ...]] = None
    if target is not None:
        tb = validate_bits(target)
        if len(tb) != k:
            raise ValueError(f"target length {len(tb)} does not match depth {k}")
        fracs = [Fraction(1, 1 << k)]
        for r in range(1, k + 1):
            if ab[r - 1] and tb[r - 1] == 0 and ab[: r - 1] == tb[: r - 1]:
                fracs.append(Fraction(1, 1 << (k - r)))
            else:
                fracs.append(Fraction(0))
        fractions = tuple(fracs)

    return ChunkDecomposition(
        depth=k,
        padding=padding,
        boundaries=tuple(boundaries),
        sizes=sizes,
        fractions=fractions,
    )


def element_from_chunks(x: Bits, alpha: Bits, padding: int = 1) -> Fraction:
    """Rebuild the limiting entry from the chunk populations.

    Weights each chunk's exact population fraction by its size; the padding
    cancels, so any padding reproduces the limiting matrix element.  This is
    the set-decomposition route, independent of the excess-indicator form.
    """
    chunks = chunk_decomposition(alpha, padding, target=x)
    assert chunks.fractions is not None
    weighted = sum(p * s for p, s in zip(chunks.fractions, chunks.sizes))
    return Fraction(weighted, chunks.total)
