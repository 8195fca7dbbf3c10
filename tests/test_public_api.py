"""The public API: every name has a caller, every integer argument one rule.

A name in ``benford2.__all__`` that only tests use is code the program does
not need.  This parses the library modules and the benchmark harness (the
benchmark's own tests excluded) and collects every name they load and every
attribute they touch; each public name must be among them.

Every integer parameter of a public function goes through
``dyadic.check_int``: a ``bool`` or a float raises ``TypeError`` naming the
parameter, and one with an upper bound raises ``DepthError`` on either side
of its range, with one message format.
"""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import benford2
from benford2.dyadic import DepthError, check_int

ROOT = Path(__file__).resolve().parent.parent


def used_names():
    sources = [p for p in (ROOT / "src" / "benford2").glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py"]
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    assert set(benford2.__all__) - used_names() == set()


PUBLIC_NAMES = [
    "Bits", "ConvergenceError", "ConvergenceRow", "DepthError", "FAMILIES", "FrequencyReport",
    "MAX_COUNT_BITS", "MAX_DENSE_DEPTH", "MAX_VECTOR_DEPTH", "SUITES", "SequenceSpec",
    "SolveReport", "VerificationReport", "aggregate", "apply_dense", "apply_fast",
    "benford_reference", "brute_force_element", "build_dense", "convergence_table",
    "excess_population", "frequency_report", "generate_blocks", "harmonic_block_sum",
    "leading_block", "matrix_element_exact", "normalization_check", "pack_bits",
    "rearrangement_demo", "run_suite", "series_partial_sum", "solve", "term_value_by_endpoints",
    "term_value_by_product", "truncate", "unpack_bits",
]


def test_public_names_are_unchanged():
    assert benford2.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from benford2 import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(benford2))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'benford2' has no attribute 'no_such_name'$"):
        benford2.no_such_name
    assert not hasattr(benford2, "DEFAULT_SEED")  # a module's name that is not public


# One call per public function and integer parameter: the argument is the
# parameter's value, every other argument is valid.  A list budget of
# run_suite takes the value as its one entry.
VECTOR = np.full(4, 0.25)
INT_ARGUMENTS = {
    ("aggregate", "prefix_bits"): lambda x: benford2.aggregate(VECTOR, x),
    ("apply_fast", "depth"): lambda x: benford2.apply_fast(VECTOR, x),
    ("benford_reference", "block"): lambda x: benford2.benford_reference(x),
    ("benford_reference", "base"): lambda x: benford2.benford_reference(0b10, x),
    ("brute_force_element", "target"): lambda x: benford2.brute_force_element(x, 0b10, 4),
    ("brute_force_element", "scale"): lambda x: benford2.brute_force_element(0b10, x, 4),
    ("brute_force_element", "padding"): lambda x: benford2.brute_force_element(0b10, 0b11, x),
    ("build_dense", "depth"): lambda x: benford2.build_dense(x),
    ("convergence_table", "max_depth"): lambda x: benford2.convergence_table(x),
    ("frequency_report", "block_bits"): lambda x: benford2.frequency_report([0b10], x),
    ("frequency_report", "base"): lambda x: benford2.frequency_report([0b10], 1, x),
    ("harmonic_block_sum", "block"): lambda x: benford2.harmonic_block_sum(x, 4),
    ("harmonic_block_sum", "level"): lambda x: benford2.harmonic_block_sum(0b10, x),
    ("leading_block", "value"): lambda x: benford2.leading_block(x, 1),
    ("leading_block", "block_digits"): lambda x: benford2.leading_block(9, x),
    ("leading_block", "base"): lambda x: benford2.leading_block(9, 1, x),
    ("matrix_element_exact", "target"): lambda x: benford2.matrix_element_exact(x, 0b10),
    ("matrix_element_exact", "scale"): lambda x: benford2.matrix_element_exact(0b10, x),
    ("normalization_check", "depth"): lambda x: benford2.normalization_check(x),
    ("rearrangement_demo", "count"): lambda x: benford2.rearrangement_demo(x),
    ("run_suite", "series_length"): lambda x: benford2.run_suite("series", series_length=x),
    ("run_suite", "oracle_depth"): lambda x: benford2.run_suite("matrix", oracle_depth=x),
    ("run_suite", "samples"): lambda x: benford2.run_suite("series", samples=x),
    ("run_suite", "riemann_depths"): lambda x: benford2.run_suite("integral", riemann_depths=(x,)),
    ("run_suite", "harmonic_levels"): lambda x: benford2.run_suite("harmonic", harmonic_levels=(x,)),
    ("run_suite", "oracle_paddings"): lambda x: benford2.run_suite("matrix", oracle_paddings=(x,)),
    ("series_partial_sum", "terms"): lambda x: benford2.series_partial_sum((1, 0), x),
    ("SequenceSpec", "count"): lambda x: benford2.SequenceSpec("pow3", x),
    ("SequenceSpec", "block_bits"): lambda x: benford2.SequenceSpec("pow3", 4, x),
    ("SequenceSpec", "base"): lambda x: benford2.SequenceSpec("pow3", 4, 1, x),
    ("solve", "depth"): lambda x: benford2.solve(x),
    ("solve", "max_iterations"): lambda x: benford2.solve(2, max_iterations=x),
    ("term_value_by_endpoints", "r"): lambda x: benford2.term_value_by_endpoints((1, 0), x),
    ("term_value_by_product", "r"): lambda x: benford2.term_value_by_product((1, 0), x),
    ("truncate", "places"): lambda x: benford2.truncate((1, 0), x),
    ("unpack_bits", "packed"): lambda x: benford2.unpack_bits(x, 2),
    ("unpack_bits", "depth"): lambda x: benford2.unpack_bits(1, x),
}
# Integer parameters outside the rule: a seed is anything random.Random takes.
NOT_CHECKED = {("run_suite", "seed")}


# [least, most] of every integer parameter with an upper bound, for its call
# in INT_ARGUMENTS: VECTOR has depth 2 and the bits (1, 0) length 2, so the
# bounds that depend on the other arguments are 2, and 2^2 - 1 for a packed
# value; brute_force_element's blocks have depth 1 and run_suite's oracle
# depth is 6, leaving 40 - 1 and 40 - 6 bits of padding.
INT_RANGES = {
    ("aggregate", "prefix_bits"): (0, 2),
    ("apply_fast", "depth"): (1, 24),
    ("brute_force_element", "padding"): (1, 39),
    ("build_dense", "depth"): (1, 12),
    ("convergence_table", "max_depth"): (1, 24),
    ("frequency_report", "base"): (2, 36),
    ("harmonic_block_sum", "level"): (1, 26),
    ("leading_block", "base"): (2, 36),
    ("normalization_check", "depth"): (0, 24),
    ("run_suite", "series_length"): (1, 16),
    ("run_suite", "oracle_depth"): (1, 8),
    ("run_suite", "samples"): (0, 1024),
    ("run_suite", "riemann_depths"): (1, 24),
    ("run_suite", "harmonic_levels"): (1, 26),
    ("run_suite", "oracle_paddings"): (1, 34),
    ("series_partial_sum", "terms"): (0, 2),
    ("SequenceSpec", "base"): (2, 36),
    ("solve", "depth"): (1, 24),
    ("term_value_by_endpoints", "r"): (1, 2),
    ("term_value_by_product", "r"): (1, 2),
    ("truncate", "places"): (0, 2),
    ("unpack_bits", "packed"): (0, 3),
    ("unpack_bits", "depth"): (0, 24),
}


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("case", sorted(INT_RANGES), ids="{0[0]}.{0[1]}".format)
def test_integer_outside_its_range_is_a_depth_error(case, side):
    least, most = INT_RANGES[case]
    value = least - 1 if side == "below" else most + 1
    message = f"{case[1]} must be in [{least}, {most}], got {value}"
    with pytest.raises(DepthError, match=f"^{re.escape(message)}$"):
        INT_ARGUMENTS[case](value)


def test_no_upper_bound_is_checked_after_check_int():
    # an upper bound is check_int's fourth argument, never a comparison of its result
    for path in (ROOT / "src" / "benford2").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare):
                for operand in (node.left, *node.comparators):
                    called = operand.func if isinstance(operand, ast.Call) else None
                    assert getattr(called, "id", None) != "check_int", f"{path.name}:{node.lineno}"


def integer_parameters():
    """(function, parameter) for every parameter annotated ``int`` or a
    sequence of ``int`` of a public function or of ``SequenceSpec``, the one
    public class built from inputs (the others are results)."""
    found = set()
    for name in benford2.__all__:
        obj = getattr(benford2, name)
        if inspect.isfunction(obj) or obj is benford2.SequenceSpec:
            for parameter in inspect.signature(obj).parameters.values():
                if parameter.annotation in ("int", "Sequence[int]"):
                    found.add((name, parameter.name))
    return found


def test_every_integer_parameter_is_covered():
    assert integer_parameters() == set(INT_ARGUMENTS) | NOT_CHECKED


@pytest.mark.parametrize("value", [True, 2.0])
@pytest.mark.parametrize("case", sorted(INT_ARGUMENTS), ids="{0[0]}.{0[1]}".format)
def test_integer_parameter_refuses_bool_and_float(case, value):
    with pytest.raises(TypeError, match=f"^{case[1]} {value!r} is not an int$"):
        INT_ARGUMENTS[case](value)


class TestCheckInt:
    def test_returns_the_value(self):
        assert check_int(3, "depth", 1) == 3
        assert check_int(0, "depth", 0, 0) == 0
        assert check_int(12, "depth", 1, 12) == 12

    @pytest.mark.parametrize("value", [True, False, 2.0, "2", None, np.int64(2)])
    def test_not_an_int_is_a_type_error(self, value):
        with pytest.raises(TypeError, match=re.escape(f"level {value!r} is not an int")):
            check_int(value, "level", 0, 10)

    @pytest.mark.parametrize("value", [0, 13, -1])
    def test_outside_the_budget_is_a_depth_error(self, value):
        with pytest.raises(DepthError, match=re.escape(f"depth must be in [1, 12], got {value}")):
            check_int(value, "depth", 1, 12)

    def test_below_least_without_a_budget_is_a_value_error(self):
        with pytest.raises(ValueError, match="count must be >= 4, got 3") as raised:
            check_int(3, "count", 4)
        assert raised.type is ValueError
        assert check_int(10**30, "count", 4) == 10**30
