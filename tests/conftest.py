import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import benford2
from benford2.solver import convergence_table
from benford2.transition import apply_fast, build_dense

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


# A slightly wrong version of each product function that ``verify`` checks,
# by the name ``benford2.analytic`` binds it under, with the identities that
# must then FAIL at the default budgets
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
