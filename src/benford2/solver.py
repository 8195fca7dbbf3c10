"""Fixed point of the scaled-to-unscaled block recursion.

The unscaled probability of a leading block is the weighted average of its
scaled probabilities over all possible scale blocks, weighted by the
probabilities of those very blocks.  At depth k that closes into a
2^k-dimensional fixed-point problem for the transition matrix of
:mod:`benford2.transition`.  The matrix is strictly positive and
column-stochastic, so the fixed point is its unique stationary vector and
plain power iteration from the uniform start converges to it.

Marginalizing the solution onto the first bit gives the two-digit-block
probabilities, which approach log2(3/2) and log2(4/3) as the depth grows.
The fixed point also has a closed form, pi_V proportional to 1/(V+1), so
p10 is a ratio of harmonic gaps, which :func:`_closed_form` rounds
correctly in pure Python with one call into the harmonic core of
:mod:`benford2.dyadic`: one Euler-Maclaurin interval per gap, and exact
integers wherever an interval holds a rounding midpoint.
:func:`convergence_table` tabulates p10 depth by depth from that closed
form by default, without numpy; power iteration on either backend of
:func:`solve` is the oracle that checks it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from benford2.dyadic import (
    MAX_DENSE_DEPTH,
    MAX_HARMONIC_LEVEL,
    MAX_VECTOR_DEPTH,
    check_int,
    harmonic_shares,
)
from benford2.transition import apply_dense, apply_fast, build_dense

if TYPE_CHECKING:
    import numpy as np

BACKENDS = ("dense", "fast")
# convergence_table's backends: the closed form, then solve's oracles
_TABLE_BACKENDS = ("closed", *BACKENDS)


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


def _depth_budget(backend: str, tolerance: float, backends: tuple[str, ...] = BACKENDS) -> int:
    """The backend's depth budget.  A backend not in ``backends``, or a
    tolerance that is not positive and finite, raises :class:`ValueError`; a
    tolerance that is a ``bool`` or not a real number raises
    :class:`TypeError`."""
    if backend not in backends:
        raise ValueError(f"backend must be one of {backends}, got {backend!r}")
    if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
        raise TypeError(f"tolerance {tolerance!r} is not a real number")
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    return MAX_DENSE_DEPTH if backend == "dense" else MAX_VECTOR_DEPTH


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
    check_int(depth, "depth", 1, _depth_budget(backend, tolerance))
    check_int(max_iterations, "max_iterations", 1)
    import numpy as np  # after the checks, so that a refused depth loads nothing

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


def _closed_form(depth: int) -> tuple[float, float]:
    """p10 and p11 at ``depth``, correctly rounded, with no iteration and no
    loop over the 2^depth terms.

    With n = 2^depth the fixed point is proportional to 1/(V+1) over the
    block values V in [n, 2n), so p10 = (H_{3n/2} - H_n) / (H_{2n} - H_n)
    and p11 = (H_{2n} - H_{3n/2}) / (H_{2n} - H_n): the two shares of
    :func:`benford2.dyadic.harmonic_shares`, which rounds them from one
    Euler-Maclaurin interval per gap and falls back to the exact integer
    gaps where an interval holds a rounding midpoint (depths 1 to 5).
    """
    n = 1 << check_int(depth, "depth", 1, MAX_HARMONIC_LEVEL)
    return harmonic_shares(n, 3 * n // 2, 2 * n)


def aggregate(probabilities: np.ndarray, prefix_bits: int) -> np.ndarray:
    """Marginalize onto the first ``prefix_bits`` bits.

    Packing is MSB-first, so all extensions of a prefix are contiguous and
    the marginal is a reshape-and-sum.  ``prefix_bits = 0`` collapses to
    the total; ``prefix_bits = depth`` is the identity.  A vector that is
    not 1-D, or is empty, raises :class:`ValueError` naming its shape.
    """
    import numpy as np

    v = np.asarray(probabilities, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"probabilities must be a non-empty 1-D vector, got shape {v.shape}")
    n = v.size
    depth = n.bit_length() - 1
    if n != 1 << depth:
        raise ValueError(f"vector length {n} is not a power of two")
    check_int(prefix_bits, "prefix_bits", 0, depth)
    return v.reshape(1 << prefix_bits, -1).sum(axis=1)


def benford_reference(block: int, base: int = 2) -> float:
    """Reference probability log_base(1 + 1/value) of a leading block.

    A block or base that is not an ``int`` (a ``bool`` included) raises
    :class:`TypeError`; a block below 1 or a base below 2 :class:`ValueError`.
    ``1 / value`` is int true division, correctly rounded at any size.
    """
    return math.log1p(1 / check_int(block, "block", 1)) / math.log(check_int(base, "base", 2))


def convergence_table(
    max_depth: int,
    tolerance: float = 1e-14,
    backend: str = "closed",
) -> list[ConvergenceRow]:
    """Leading-pair probability and its relative error, one row per depth.

    The default ``"closed"`` backend reads each depth's p10 from the closed
    form (:func:`_closed_form`), correctly rounded, at a cost that does not
    grow with the depth: no solve, no fork, no numpy and no 2^depth vector.
    ``tolerance`` is validated on every backend but used only by the
    oracles ``"fast"`` and ``"dense"``, which power-iterate each depth with
    :func:`solve`, one after another in this process.  Only ``p10`` is kept
    from each solve, so each depth's vector is freed before the next solve
    starts.
    """
    check_int(max_depth, "max_depth", 1, _depth_budget(backend, tolerance, _TABLE_BACKENDS))
    reference = math.log2(1.5)
    depths = range(1, max_depth + 1)
    if backend == "closed":
        p10s = [_closed_form(depth)[0] for depth in depths]
    else:
        p10s = [solve(depth, tolerance=tolerance, backend=backend).p10 for depth in depths]
    return [
        ConvergenceRow(depth=depth, p10=p10, reference=reference, rel_err=abs(p10 - reference) / reference)
        for depth, p10 in zip(depths, p10s)
    ]
