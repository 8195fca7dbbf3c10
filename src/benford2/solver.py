"""Fixed point of the scaled-to-unscaled block recursion.

The unscaled probability of a leading block is the weighted average of its
scaled probabilities over all possible scale blocks, weighted by the
probabilities of those very blocks.  At depth k that closes into a
2^k-dimensional fixed-point problem for the transition matrix of
:mod:`benford2.transition`.  The matrix is strictly positive and
column-stochastic, so the fixed point is its unique stationary vector and
plain power iteration from the uniform start converges to it.

Marginalizing the solution onto the first bit gives the two-digit-block
probabilities, which approach log2(3/2) and log2(4/3) as the depth grows;
:func:`convergence_table` tabulates that approach depth by depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from benford2._lazy import lazy_import
from benford2.dyadic import (
    MAX_DENSE_DEPTH,
    MAX_VECTOR_DEPTH,
    DepthError,
    as_block_value,
)
from benford2.transition import apply_dense, apply_fast, build_dense

np = lazy_import("numpy")

BACKENDS = ("dense", "fast")


class ConvergenceError(RuntimeError):
    """Power iteration hit its cap before reaching the tolerance."""

    def __init__(self, iterations: int, residual: float, tolerance: float):
        self.iterations = iterations
        self.residual = residual
        self.tolerance = tolerance
        super().__init__(
            f"no convergence after {iterations} iterations: "
            f"residual {residual:.3e} > tolerance {tolerance:.3e}"
        )


@dataclass(frozen=True)
class SolveReport:
    """Converged stationary vector plus the run's bookkeeping."""

    depth: int
    backend: str
    iterations: int
    residual: float
    probabilities: np.ndarray  # indexed by packed target bits, dyadic order
    p10: float
    p11: float


@dataclass(frozen=True)
class ConvergenceRow:
    """One depth of the convergence table for the leading-pair probability."""

    depth: int
    p10: float
    reference: float  # log2(3/2)
    rel_err: float


def _check_depth(depth: int, backend: str) -> None:
    """Reject an unknown backend or a depth outside that backend's budget."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    max_depth = MAX_DENSE_DEPTH if backend == "dense" else MAX_VECTOR_DEPTH
    if not 1 <= depth <= max_depth:
        raise DepthError(f"{backend} backend depth must be in [1, {max_depth}], got {depth}")


def solve(
    depth: int,
    tolerance: float = 1e-14,
    max_iterations: int = 100_000,
    backend: str = "fast",
) -> SolveReport:
    """Power-iterate the transition operator to its stationary vector.

    Starts from the uniform vector, renormalizes the sum to exactly 1 every
    step (the operator preserves it analytically; this suppresses float
    drift), and stops when the max-norm difference of successive iterates
    drops to ``tolerance``.  Raises :class:`ConvergenceError` if the cap is
    hit first.
    """
    _check_depth(depth, backend)
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")

    matrix = build_dense(depth) if backend == "dense" else None
    n = 1 << depth
    current = np.full(n, 1.0 / n)
    for iteration in range(1, max_iterations + 1):
        nxt = apply_dense(matrix, current) if matrix is not None else apply_fast(current, depth)
        nxt /= nxt.sum()
        # the step's max-norm, in the old iterate's buffer; rebinding
        # ``current`` then frees that buffer before the next product
        np.subtract(nxt, current, out=current)
        residual = float(np.abs(current, out=current).max())
        current = nxt
        if residual <= tolerance:
            break
    else:
        raise ConvergenceError(max_iterations, residual, tolerance)

    p10, p11 = aggregate(current, 1)
    return SolveReport(
        depth=depth,
        backend=backend,
        iterations=iteration,
        residual=residual,
        probabilities=current,
        p10=float(p10),
        p11=float(p11),
    )


def aggregate(probabilities: np.ndarray, prefix_bits: int) -> np.ndarray:
    """Marginalize onto the first ``prefix_bits`` bits.

    Packing is MSB-first, so all extensions of a prefix are contiguous and
    the marginal is a reshape-and-sum.  ``prefix_bits = 0`` collapses to
    the total; ``prefix_bits = depth`` is the identity.
    """
    v = np.asarray(probabilities, dtype=np.float64)
    n = v.size
    depth = n.bit_length() - 1
    if n != 1 << depth:
        raise ValueError(f"vector length {n} is not a power of two")
    if not 0 <= prefix_bits <= depth:
        raise ValueError(f"prefix_bits must be in [0, {depth}], got {prefix_bits}")
    return v.reshape(1 << prefix_bits, -1).sum(axis=1)


def benford_reference(block: int, base: int = 2) -> float:
    """Reference probability log_base(1 + 1/value) of a leading block."""
    if int(base) != base or base < 2:
        raise ValueError(f"base must be an integer >= 2, got {base}")
    return math.log1p(1.0 / as_block_value(block)) / math.log(base)


def convergence_table(
    max_depth: int,
    tolerance: float = 1e-14,
    backend: str = "fast",
) -> list[ConvergenceRow]:
    """Leading-pair probability and its relative error, one row per depth.

    Only ``p10`` is kept from each solve, so the previous depth's vector is
    freed before the next solve starts.
    """
    _check_depth(max_depth, backend)
    reference = math.log2(1.5)
    rows = []
    for depth in range(1, max_depth + 1):
        p10 = solve(depth, tolerance=tolerance, backend=backend).p10
        rel_err = abs(p10 - reference) / reference
        rows.append(ConvergenceRow(depth=depth, p10=p10, reference=reference, rel_err=rel_err))
    return rows
