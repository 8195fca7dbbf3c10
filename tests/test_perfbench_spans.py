"""The benchmark's tracer patches library names; a renamed one breaks it here.

``perfbench/spans.py`` swaps attributes such as ``analytic.brute_force_element``
and ``analytic.series_partial_sum`` for counting wrappers.  This runs a small
traced ``verify`` so that a name the tracer needs is checked with the fast
suite, not only by the benchmark's own tests.
"""

import importlib
from pathlib import Path

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
