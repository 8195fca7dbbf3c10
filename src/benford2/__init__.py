"""Leading-block probabilities in base 2.

The unscaled probability that an integer's binary expansion starts with a
given block satisfies a fixed-point relation over the easily computed
scaled probabilities.  This package builds those scaled-probability
transition matrices, solves the fixed point at any depth, verifies the
analytic identities behind the limiting logarithmic law, and measures the
law empirically on classic fast-growing sequences.

``import benford2`` loads no module of the package: each public name is
looked up in its module (PEP 562), which is imported the first time one of
its names is used, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the module of each public name
_MODULES = {
    "analytic": (
        "SUITES", "VerificationReport", "normalization_check", "run_suite", "series_partial_sum",
        "term_value_by_endpoints", "term_value_by_product",
    ),
    "dyadic": (
        "MAX_COUNT_BITS", "MAX_DENSE_DEPTH", "MAX_VECTOR_DEPTH", "Bits", "DepthError", "excess_population",
        "harmonic_block_sum", "pack_bits", "truncate", "unpack_bits",
    ),
    "empirical": (
        "FAMILIES", "FrequencyReport", "SequenceSpec", "frequency_report", "generate_blocks", "leading_block",
        "rearrangement_demo",
    ),
    "solver": (
        "ConvergenceError", "ConvergenceRow", "SolveReport", "aggregate", "benford_reference",
        "convergence_table", "solve",
    ),
    "transition": ("apply_dense", "apply_fast", "brute_force_element", "build_dense", "matrix_element_exact"),
}
_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
