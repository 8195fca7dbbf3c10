"""Leading-block probabilities in base 2.

The unscaled probability that an integer's binary expansion starts with a
given block satisfies a fixed-point relation over the easily computed
scaled probabilities.  This package builds those scaled-probability
transition matrices, solves the fixed point at any depth, verifies the
analytic identities behind the limiting logarithmic law, and measures the
law empirically on classic fast-growing sequences.
"""

from benford2.analytic import (
    SUITES,
    VerificationReport,
    harmonic_block_sum,
    normalization_check,
    riemann_sum,
    run_suite,
    series_partial_sum,
    term_value_by_endpoints,
    term_value_by_product,
)
from benford2.dyadic import (
    MAX_COUNT_BITS,
    MAX_DENSE_DEPTH,
    MAX_VECTOR_DEPTH,
    Bits,
    DepthError,
    as_block_value,
    block_value,
    complement,
    dyadic_value,
    excess_population,
    pack_bits,
    truncate,
    unpack_bits,
)
from benford2.empirical import (
    FAMILIES,
    FrequencyReport,
    SequenceSpec,
    frequency_report,
    generate_blocks,
    leading_block,
    rearranged_sequence,
    rearrangement_demo,
)
from benford2.solver import (
    ConvergenceError,
    ConvergenceRow,
    SolveReport,
    aggregate,
    benford_block_probabilities,
    benford_reference,
    convergence_table,
    error_decay_ratios,
    solve,
)
from benford2.transition import (
    apply_dense,
    apply_fast,
    brute_force_element,
    build_dense,
    matrix_element_exact,
)

__version__ = "0.1.0"

__all__ = [
    "Bits",
    "ConvergenceError",
    "ConvergenceRow",
    "DepthError",
    "FAMILIES",
    "FrequencyReport",
    "MAX_COUNT_BITS",
    "MAX_DENSE_DEPTH",
    "MAX_VECTOR_DEPTH",
    "SUITES",
    "SequenceSpec",
    "SolveReport",
    "VerificationReport",
    "aggregate",
    "apply_dense",
    "apply_fast",
    "as_block_value",
    "benford_block_probabilities",
    "benford_reference",
    "block_value",
    "brute_force_element",
    "build_dense",
    "complement",
    "convergence_table",
    "dyadic_value",
    "error_decay_ratios",
    "excess_population",
    "frequency_report",
    "generate_blocks",
    "harmonic_block_sum",
    "leading_block",
    "matrix_element_exact",
    "normalization_check",
    "pack_bits",
    "rearranged_sequence",
    "rearrangement_demo",
    "riemann_sum",
    "run_suite",
    "series_partial_sum",
    "solve",
    "term_value_by_endpoints",
    "term_value_by_product",
    "truncate",
    "unpack_bits",
]
