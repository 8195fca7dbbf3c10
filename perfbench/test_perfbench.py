"""Tests of the benchmark itself: its checker, its pins, its tracer, its contract.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checker
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from benford2 import cli  # noqa: E402  (needs the path above)


def cli_output(argv: list[str]) -> str:
    sink = io.StringIO()
    with redirect_stdout(sink):
        assert cli.main(argv) == 0
    return sink.getvalue()


def replace_field(text: str, line_no: int, field: int, new, sep: str = ",") -> str:
    lines = text.split("\n")
    fields = lines[line_no].split(sep)
    fields[field] = new(fields[field])
    lines[line_no] = sep.join(fields)
    return "\n".join(lines)


def bump_json_entry(text: str) -> str:
    payload = json.loads(text)
    payload["probabilities"][5]["p"] += 1e-9
    return json.dumps(payload, indent=2) + "\n"


SMOKE_VERIFY = workloads.commands("verify_all", 7, smoke=True)[0]

MUTATIONS = {
    "solve csv entry +1e-9 (exact oracle)": (
        ["solve", "--k", "10"],
        lambda t: replace_field(t, 300, 1, lambda v: repr(float(v) + 1e-9)),
    ),
    "solve csv entry +1e-9 (fsum oracle)": (
        ["solve", "--k", "12"],
        lambda t: replace_field(t, 4000, 1, lambda v: repr(float(v) + 1e-9)),
    ),
    "solve csv label swapped": (["solve", "--k", "6"], lambda t: t.replace("\n1000001,", "\n1000010,", 1)),
    "solve json entry +1e-9": (["solve", "--k", "6", "--format", "json"], bump_json_entry),
    "table1 p10 column": (["table1", "--kmax", "12"], lambda t: replace_field(t, 12, 1, lambda v: f"{float(v) + 1e-6:.6f}")),
    "table1 rel_err": (["table1", "--kmax", "12"], lambda t: replace_field(t, 12, 3, lambda v: repr(float(v) * 1.01))),
    "matrix entry": (["matrix", "--k", "3"], lambda t: replace_field(t, 7, 2, lambda v: repr(float(v) * (1 + 1e-15)))),
    "verify FAIL line": (SMOKE_VERIFY, lambda t: t.replace("PASS", "FAIL", 1)),
    "verify line dropped": (SMOKE_VERIFY, lambda t: t.split("\n", 1)[1]),
    "empirical count": (
        ["empirical", "--family", "pow3", "--n", "3000", "--bits", "3"],
        lambda t: replace_field(t, 2, 1, lambda v: str(int(v) + 1)),
    ),
    "rearranged frequency": (
        ["empirical", "--family", "rearranged", "--n", "3000"],
        lambda t: t.replace("0.5", "0.5000000000000001"),
    ),
}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_checker_accepts_real_output_and_rejects_the_mutation(case):
    argv, mutate = MUTATIONS[case]
    oracle = checker.Oracle()
    text = cli_output(argv)
    assert checker.check(argv, 0, text, oracle).ok
    mutated = mutate(text)
    assert mutated != text
    assert not checker.check(argv, 0, mutated, oracle).ok


def test_checker_rejects_a_failing_exit_code():
    argv = ["solve", "--k", "3"]
    assert not checker.check(argv, 1, cli_output(argv), checker.Oracle()).ok


def test_fsum_and_exact_oracles_agree_where_they_overlap():
    oracle = checker.Oracle()
    k = checker.EXACT_DEPTH
    n = 1 << k
    terms = [1.0 / v for v in range(n + 1, 2 * n + 1)]
    assert math.isclose(oracle.p10(k), math.fsum(terms[: n // 2]) / math.fsum(terms), rel_tol=1e-15)


def exact_counts(family: str, n: int, bits: int) -> dict[str, int]:
    """Leading blocks of the sequence from exact big integers."""
    counts = Counter()
    value, previous = 1, 0
    for i in range(1, n + 1):
        if family == "pow3":
            value *= 3
        elif family == "factorial":
            value *= i
        elif i > 1:  # fibonacci: F(1) = F(2) = 1
            value, previous = value + previous, value
        if value.bit_length() > bits:
            counts[bin(value >> (value.bit_length() - bits - 1))[2:]] += 1
    return dict(sorted(counts.items()))


@pytest.mark.parametrize("key", sorted(checker.PINNED))
def test_pinned_counts_match_exact_integers(key):
    family, n, bits = key.split(" ")
    assert exact_counts(family, int(n.removeprefix("n=")), int(bits.removeprefix("bits="))) == checker.PINNED[key]


def test_self_time_is_duration_minus_direct_children():
    tracer = spans.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            with tracer.span("innermost"):
                sum(range(10_000))
        sum(range(10_000))
    assert inner.parent == outer.id
    assert outer.child == inner.duration
    assert outer.self_time == outer.duration - inner.duration
    assert spans.layer_self_times(tracer.spans)["outer"] == outer.self_time


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    done = run_benchmark(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0
    record = json.loads(done.stdout.strip().split("\n")[-2])["run_record"]
    assert {"commit", "nproc", "python", "numpy", "l3_bytes"} <= set(record["machine"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, "--workload", "table_deep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
