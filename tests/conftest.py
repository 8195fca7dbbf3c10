import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import benford2
from benford2.analytic import term_value_by_endpoints, term_value_by_product
from benford2.solver import convergence_table
from benford2.transition import apply_fast, brute_force_element, build_dense, matrix_element_exact

# (criterion number, title, passed, detail) tuples recorded by the
# acceptance tests; echoed after the run so every criterion gets one
# visible PASS/FAIL line regardless of output capturing.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []

# The depth-2 fixed point in closed form: pi_x is proportional to 1/(V+1)
# over the block values V = 4..7 of blocks 100, 101, 110, 111, which gives
# (168, 140, 120, 105)/533.  The printed references below are its correctly
# rounded four-decimal prints; criterion 2 asserts that they stay so.
_DEPTH2_WEIGHTS = [Fraction(1, value + 1) for value in range(4, 8)]
DEPTH2_EXACT = tuple(weight / sum(_DEPTH2_WEIGHTS) for weight in _DEPTH2_WEIGHTS)
DEPTH2_PRINTED = (0.3152, 0.2627, 0.2251, 0.1970)
# the marginals of blocks 10 and 11, 308/533 and 225/533
DEPTH2_MARGINAL_PRINTED = (0.5779, 0.4221)


def harmonic_gap(a, b):
    """H_b - H_a = sum of 1/m over a < m <= b, as (numerator, denominator), by binary splitting."""
    if b - a == 1:
        return 1, b
    mid = (a + b) // 2
    (p, q), (r, s) = harmonic_gap(a, mid), harmonic_gap(mid, b)
    return p * s + r * q, q * s


# H_m = ln m + gamma + 1/(2m) - sum of B_2j/(2j m^2j) (A&S 6.3.18), through m^-12 here, as
# (coefficient, power); the series envelops H_m, so the remainder is below |B_14|/14 m^-14 = m^-14/12
EULER_MACLAURIN_TERMS = (
    (Fraction(1, 2), 1), (Fraction(-1, 12), 2), (Fraction(1, 120), 4),
    (Fraction(-1, 252), 6), (Fraction(1, 240), 8), (Fraction(-1, 132), 10), (Fraction(691, 32760), 12),
)
EULER_MACLAURIN_DIGITS = 80
# the error of euler_maclaurin_gap, and of exact_p10 past depth 12, where the whole gap exceeds 2/3
EULER_MACLAURIN_SLACK = Fraction(1, 10**55)
EXACT_P10_SLACK = 3 * EULER_MACLAURIN_SLACK


def euler_maclaurin_gap(a, b):
    """H_b - H_a for 2^13 <= a < b, off by less than 1/(12 a^14) + 10^-75 < 10^-55."""
    with localcontext() as context:
        context.prec = EULER_MACLAURIN_DIGITS
        a, b = Decimal(a), Decimal(b)
        total = (b / a).ln()
        for coefficient, power in EULER_MACLAURIN_TERMS:
            total += Decimal(coefficient.numerator) / coefficient.denominator * (1 / b**power - 1 / a**power)
        return total


def exact_p10(depth):
    """p10 at ``depth`` as a ``Fraction``: exact up to depth 12, the Euler-Maclaurin quotient beyond,
    which is off by less than ``EXACT_P10_SLACK``."""
    n = 1 << depth
    if depth <= 12:
        (p, q), (r, s) = harmonic_gap(n, 3 * n // 2), harmonic_gap(3 * n // 2, 2 * n)
        return Fraction(p * s, p * s + r * q)
    with localcontext() as context:
        context.prec = EULER_MACLAURIN_DIGITS
        return Fraction(euler_maclaurin_gap(n, 3 * n // 2) / euler_maclaurin_gap(n, 2 * n))


def rounded_block_sum(value, level):
    """The float nearest the sum of 1/m over [V*2^level, (V+1)*2^level): from the exact gap up to 2^14
    terms, and beyond from :func:`euler_maclaurin_gap`, only where every value within its error rounds
    to that same float."""
    a = (value << level) - 1
    b = a + (1 << level)
    if level <= 14:
        p, q = harmonic_gap(a, b)
        return p / q  # int true division is correctly rounded, as float(Fraction) is
    exact = Fraction(euler_maclaurin_gap(a, b))
    assert float(exact - EULER_MACLAURIN_SLACK) == float(exact + EULER_MACLAURIN_SLACK), (value, level)
    return float(exact)


def rounded_p10(depth):
    """The float nearest the exact p10 at ``depth``; beyond depth 12, only where every value within
    the error of :func:`exact_p10` rounds to that same float."""
    exact = exact_p10(depth)
    if depth > 12:
        assert float(exact - EXACT_P10_SLACK) == float(exact + EXACT_P10_SLACK), depth
    return float(exact)


# A slightly wrong version of each product function and exact oracle that
# ``verify`` checks, by the name ``benford2.analytic`` binds it under, with
# the identities that must then FAIL at the default budgets
MUTATIONS = {
    "apply_fast": (
        lambda vector, depth: apply_fast(vector, depth) * 1.001,
        {"riemann-vs-closed-form", "riemann-error-decay"},
    ),
    "build_dense": (lambda depth: build_dense(depth) * 1.001, {"column-sums-exact"}),
    "benford_reference": (
        lambda block, base=2: math.log1p(1.1 / block) / math.log(base),
        {"block-weight-normalization"},
    ),
    "term_value_by_endpoints": (
        lambda t, r: term_value_by_endpoints(t, r) * Fraction(1001, 1000),
        {"telescoping-exact", "series-tail-bound", "term-two-forms-equal"},
    ),
    "term_value_by_product": (
        lambda t, r: term_value_by_product(t, r) * Fraction(1001, 1000),
        {"term-two-forms-equal"},
    ),
    "brute_force_element": (
        lambda target, scale, padding: brute_force_element(target, scale, padding) * Fraction(1001, 1000),
        {"count-oracle-agreement"},
    ),
    "matrix_element_exact": (
        lambda target, scale: matrix_element_exact(target, scale) * Fraction(1001, 1000),
        {"column-sums-exact", "count-oracle-agreement", "depth2-entry-closed-form"},
    ),
}


@pytest.fixture(scope="session")
def table10():
    """Convergence table through depth 10, shared across test modules."""
    return convergence_table(10)


def run_fresh(script):
    """``python -c script`` in a fresh interpreter that imports benford2 from this tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(benford2.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that ``os.fork`` makes in this process."""
    made, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return made


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, title, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"{status}  criterion {number}: {title}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
