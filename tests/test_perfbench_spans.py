"""The benchmark patches library names and calls the library by keyword; a
renamed one breaks it here.

``perfbench/spans.py`` swaps attributes such as ``analytic.brute_force_element``
and ``analytic.series_partial_sum`` for counting wrappers, and
``perfbench/run.py`` times each suite through ``analytic.run_suite`` with the
``verify`` flags.  This runs a small traced ``verify`` and the smoke-size suite
timer so that a name the benchmark needs is checked with the fast suite, not
only by the benchmark's own tests.
"""

import importlib
import os
from pathlib import Path

import pytest

from benford2 import analytic, cli, empirical, solver, transition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_oracle_calls(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    targets = spans.instrument(tracer, cli, solver, transition, analytic, empirical)
    with spans.patched(targets):
        code = cli.main(["verify", "--suite", "matrix", "--oracle-depth", "2", "--oracle-paddings", "4,8"])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out
    # every (target, scale) pair at depths 1 and 2, once per padding
    assert spans.layer_metrics(tracer.spans)["transition.brute_force_element_calls"] == (4 + 16) * 2


def test_benchmark_suite_timer_runs_every_suite(monkeypatch):
    # perfbench/run.py calls run_suite with the verify flags by keyword
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    checks = run.Checks()
    times = run.time_suites(cli, analytic, workloads.commands("verify_all", 20260809, smoke=True), checks)
    assert set(times) == {"analytic.matrix_s", "analytic.series_s", "analytic.integral_s", "analytic.harmonic_s"}
    assert checks.failures == []


def test_traced_table_forks_and_keeps_bytes(monkeypatch, capsys):
    # on two CPUs every depth is still solved in this process, so the tracer sees each solve
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spans = importlib.import_module("spans")
    argv = ["table1", "--kmax", "17", "--backend", "fast"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer = spans.Tracer()
    with spans.patched(spans.instrument(tracer, cli, solver, transition, analytic, empirical)):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out == untraced
    names = [span.name for span in tracer.spans]
    assert names.count("solver.convergence_table") == 1
    assert [span.attrs["depth"] for span in tracer.spans if span.name == "solver.solve"] == list(range(1, 18))
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_traced_verify_forks_and_keeps_counts(monkeypatch, capsys):
    # matrix is suite 0, so it runs in this process and the tracer counts
    # its oracle calls; the child's series and harmonic count nothing
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    argv = workloads.commands("verify_all", workloads.DEFAULT_SEED, smoke=True)[0]
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def traced(argv):
        tracer = spans.Tracer()
        with spans.patched(spans.instrument(tracer, cli, solver, transition, analytic, empirical)):
            assert cli.main(argv) == 0
        return spans.layer_metrics(tracer.spans), capsys.readouterr().out

    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    metrics, out = traced(argv)
    assert out == untraced and len(forked) == 2
    matrix, _ = traced([word if word != "all" else "matrix" for word in argv])
    assert len(forked) == 2  # one suite forks nothing
    assert metrics["transition.brute_force_element_calls"] == matrix["transition.brute_force_element_calls"] > 0
    assert metrics["analytic.checks"] == len(untraced.splitlines())
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_traced_empirical_forks_and_keeps_fallbacks(monkeypatch, capsys):
    # pow3 and fibonacci each fork a child for their ranges 1 and 3, whose
    # fallbacks are not counted; the workload's 9 fall in the first range
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    commands = workloads.commands("empirical_seq", workloads.DEFAULT_SEED)
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or fork())

    def run(cpus, traced):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        tracer = spans.Tracer()
        targets = spans.instrument(tracer, cli, solver, transition, analytic, empirical) if traced else []
        with spans.patched(targets):
            for argv in commands:
                assert cli.main(argv) == 0
        return spans.layer_metrics(tracer.spans)["empirical.fallbacks"], capsys.readouterr().out

    fallbacks, out = run({0}, traced=True)
    assert fallbacks == 9 and forked == []
    assert run({0, 1}, traced=True) == (fallbacks, out)
    assert len(forked) == 2
    assert run({0, 1}, traced=False)[1] == out
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
