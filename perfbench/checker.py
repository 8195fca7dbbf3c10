"""Output checks for every benford2 command the benchmark runs.

Each check compares what the CLI printed against an oracle that shares no
code with the program: the stationary vector and the leading-pair
probability come from the closed form pi_x = 1/((V+1)(H_2n - H_n)) with
n = 2^k and V = n + x, evaluated with exact fractions at small depths and
with ``math.fsum`` otherwise; matrix entries are the exact rationals
(1 + [a > x])/(n + a); empirical block counts are pinned from a recorded
run (``pinned_counts.json``) and re-derived from exact integers by the
benchmark's tests.  Nothing here imports numpy or benford2.

A check returns a :class:`Verdict`.  Checking runs after the command has
exited, outside the timed region.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

# Depths up to this one get exact Fraction harmonic sums; fsum beyond.
EXACT_DEPTH = 10
# Absolute tolerance per printed stationary-vector entry: 100x the 1e-14
# max-norm step tolerance the CLI solves to.  A 1e-9 perturbation of any
# entry at depth <= 24 is far outside it.
ENTRY_TOL = 1e-12
# The printed p10 must lie this close to the exact value.  The fast
# backend's worst error up to depth 24 is about 1e-9; p10_err reports the
# exact figure.
P10_TOL = 1e-8
# table1 prints p10 rounded to 6 decimals.
TABLE_ROUNDING = 5e-7
LOG2_3_2 = math.log2(1.5)

PINNED = json.loads((Path(__file__).with_name("pinned_counts.json")).read_text())


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""
    p10_err: Optional[float] = None  # largest |printed p10 - exact p10|, if any printed


def _fail(detail: str) -> Verdict:
    return Verdict(False, detail)


class Oracle:
    """Closed-form reference values, cached per depth for one run."""

    def __init__(self) -> None:
        self._gaps: dict[int, tuple] = {}
        self._vectors: dict[int, list[float]] = {}
        self._labels: dict[int, list[str]] = {}

    def labels(self, k: int) -> list[str]:
        """Block labels ``1 b1 .. bk`` in dyadic order."""
        if k not in self._labels:
            self._labels[k] = ["1" + format(x, f"0{k}b") for x in range(1 << k)]
        return self._labels[k]

    def _harmonic_gaps(self, k: int) -> tuple:
        """(H_{3n/2} - H_n, H_{2n} - H_n) for n = 2^k: Fractions, or fsum floats."""
        if k not in self._gaps:
            n = 1 << k
            if k <= EXACT_DEPTH:
                head = sum((Fraction(1, v) for v in range(n + 1, 3 * n // 2 + 1)), Fraction(0))
                tail = sum((Fraction(1, v) for v in range(3 * n // 2 + 1, 2 * n + 1)), Fraction(0))
                self._gaps[k] = (head, head + tail)
            else:
                terms = [1.0 / v for v in range(n + 1, 2 * n + 1)]
                self._gaps[k] = (math.fsum(terms[: n // 2]), math.fsum(terms))
        return self._gaps[k]

    def p10(self, k: int) -> float:
        """(H_{3n/2} - H_n) / (H_{2n} - H_n) with n = 2^k."""
        num, den = self._harmonic_gaps(k)
        return float(num / den) if k <= EXACT_DEPTH else num / den

    def stationary(self, k: int) -> list[float]:
        """pi_x for x = 0 .. 2^k - 1, in dyadic order."""
        if k not in self._vectors:
            n = 1 << k
            den = self._harmonic_gaps(k)[1]
            if k <= EXACT_DEPTH:
                self._vectors[k] = [float(1 / ((n + x + 1) * den)) for x in range(n)]
            else:
                self._vectors[k] = [1.0 / ((n + x + 1) * den) for x in range(n)]
        return self._vectors[k]


def flags(argv: list[str]) -> dict[str, str]:
    """``--name value`` pairs of a command line (every flag here takes a value)."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def check(argv: list[str], exit_code: int, text: str, oracle: Oracle) -> Verdict:
    """Check one command's exit code and stdout."""
    if exit_code != 0:
        return _fail(f"exit code {exit_code}")
    opts = flags(argv)
    fmt = opts.get("format", "csv")
    try:
        if argv[0] == "solve":
            k = int(opts["k"])
            return check_solve_json(text, k, oracle) if fmt == "json" else check_solve_csv(text, k, oracle)
        if argv[0] == "table1":
            return check_table1(text, int(opts["kmax"]), opts.get("backend", "fast"), oracle)
        if argv[0] == "matrix":
            return check_matrix(text, int(opts["k"]), oracle)
        if argv[0] == "verify":
            return check_verify(text, expected_identities(opts))
        if argv[0] == "empirical":
            if opts["family"] == "rearranged":
                return check_rearranged(text, int(opts["n"]))
            return check_empirical(text, opts["family"], int(opts["n"]), int(opts.get("bits", "1")))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return _fail(f"unparseable output: {exc!r}")
    return _fail(f"no check for command {argv[0]!r}")


def _check_vector(k: int, labels: list[str], values: list[float], p10: float, oracle: Oracle) -> Verdict:
    n = 1 << k
    if len(labels) != n:
        return _fail(f"{len(labels)} blocks, expected {n}")
    if labels != oracle.labels(k):
        return _fail("block labels missing or out of order")
    expected = oracle.stationary(k)
    worst = max(map(abs, map(operator.sub, values, expected)))
    if not worst <= ENTRY_TOL:
        return _fail(f"entry off the closed form by {worst:.3e} > {ENTRY_TOL:.0e}")
    # p10 is the mass of the blocks starting "10": the first half.
    if not abs(p10 - math.fsum(values[: n // 2])) <= 1e-13:
        return _fail("p10 does not match the sum of the printed 10-blocks")
    err = abs(p10 - oracle.p10(k))
    if not err <= P10_TOL:
        return _fail(f"p10 off the closed form by {err:.3e}")
    return Verdict(True, p10_err=err)


def check_solve_csv(text: str, k: int, oracle: Oracle) -> Verdict:
    lines = text.split("\n")
    n = 1 << k
    if lines[0] != "block,p" or len(lines) != n + 3 or lines[-1] != "":
        return _fail("bad CSV framing")
    body = lines[1 : n + 1]
    if [line[k + 1] for line in body].count(",") != n:
        return _fail("rows are not <block>,<p> with a (k+1)-digit block")
    labels = [line[: k + 1] for line in body]
    values = list(map(float, [line[k + 2 :] for line in body]))
    summary = dict(field.split("=", 1) for field in lines[n + 1].split(" "))
    if summary["k"] != str(k) or summary["backend"] != "fast":
        return _fail(f"summary line names k={summary['k']} backend={summary['backend']}")
    verdict = _check_vector(k, labels, values, float(summary["p10"]), oracle)
    if verdict.ok and not abs(float(summary["p10"]) + float(summary["p11"]) - 1.0) <= 1e-12:
        return _fail("p10 + p11 != 1")
    return verdict


def check_solve_json(text: str, k: int, oracle: Oracle) -> Verdict:
    payload = json.loads(text)
    if payload["k"] != k or payload["backend"] != "fast":
        return _fail(f"payload names k={payload['k']} backend={payload['backend']}")
    probabilities = payload["probabilities"]
    labels = [entry["block"] for entry in probabilities]
    values = [entry["p"] for entry in probabilities]
    return _check_vector(k, labels, values, payload["p10"], oracle)


def check_table1(text: str, kmax: int, backend: str, oracle: Oracle) -> Verdict:
    lines = text.split("\n")
    if lines[0] != "k,p10,benford_p10,rel_err" or len(lines) != kmax + 2 or lines[-1] != "":
        return _fail(f"bad table1 framing for {backend}")
    worst = 0.0
    for k, line in enumerate(lines[1:-1], start=1):
        depth, p10_text, reference, rel_err = line.split(",")
        if int(depth) != k or len(p10_text.split(".")[1]) != 6 or float(reference) != LOG2_3_2:
            return _fail(f"bad table1 row {line!r}")
        exact = oracle.p10(k)
        # rel_err = |p10 - ref| / ref carries p10 to full precision; the
        # exact p10 lies below ref at every depth.  A printed p10 on the
        # wrong side shows up here as an error of 2 |exact - ref|.
        side = -1.0 if exact < LOG2_3_2 else 1.0
        p10 = LOG2_3_2 + side * LOG2_3_2 * float(rel_err)
        if not abs(float(p10_text) - p10) <= TABLE_ROUNDING + 1e-15:
            return _fail(f"k={k}: 6-decimal p10 disagrees with rel_err")
        if not abs(p10 - exact) <= P10_TOL:
            return _fail(f"k={k}: p10 {p10!r} off the closed form {exact!r}")
        worst = max(worst, abs(p10 - exact))
    return Verdict(True, p10_err=worst)


def check_matrix(text: str, k: int, oracle: Oracle) -> Verdict:
    lines = text.split("\n")
    n = 1 << k
    if lines[0] != "x_bits,alpha_bits,value" or len(lines) != n * n + 2 or lines[-1] != "":
        return _fail("bad matrix framing")
    labels = oracle.labels(k)
    row = 1
    for x in range(n):
        for a in range(n):
            x_bits, a_bits, value = lines[row].split(",")
            # int / int rounds correctly, as the exact rational must.
            if x_bits != labels[x] or a_bits != labels[a] or float(value) != (1 + (a > x)) / (n + a):
                return _fail(f"matrix row {row} is {lines[row]!r}")
            row += 1
    return Verdict(True)


SUITE_ORDER = ("matrix", "series", "integral", "harmonic")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def expected_identities(opts: dict[str, str]) -> list[str]:
    """The identity of every line ``verify`` prints for these budget flags."""
    paddings = _int_list(opts.get("oracle-paddings", "8,16,24"))
    depths = set(_int_list(opts.get("riemann-depths", "10,12,14,16")))
    levels = _int_list(opts.get("harmonic-levels", "10,16,20"))
    per_suite = {
        "matrix": ["excess-kernel-equivalence", "column-sums-exact"]
        + ["count-oracle-agreement"] * len(paddings)
        + ["depth2-entry-closed-form"],
        "series": ["telescoping-exact", "series-tail-bound"],
        "integral": ["riemann-vs-closed-form"] * len(depths)
        + (["riemann-error-decay"] if len(depths) > 1 else [])
        + ["term-two-forms-equal"],
        "harmonic": ["harmonic-vs-log", "harmonic-bracket"] * len(levels)
        + ["block-weight-normalization"] * 3,
    }
    suite = opts.get("suite", "all")
    return [name for s in (SUITE_ORDER if suite == "all" else (suite,)) for name in per_suite[s]]


def check_verify(text: str, identities: list[str]) -> Verdict:
    lines = text.split("\n")
    if lines[-1] != "" or len(lines) - 1 != len(identities):
        return _fail(f"{len(lines) - 1} verify lines, expected {len(identities)}")
    for line, identity in zip(lines, identities):
        fields = line.split(" ")
        if fields[0] != "PASS" or fields[1] != identity:
            return _fail(f"verify line {line!r}, expected PASS {identity}")
        err = float(fields[-2].removeprefix("err="))
        bound = float(fields[-1].removeprefix("bound="))
        if not err <= bound:
            return _fail(f"verify line {line!r} passes with err > bound")
    return Verdict(True)


def check_empirical(text: str, family: str, n: int, bits: int) -> Verdict:
    key = f"{family} n={n} bits={bits}"
    if key not in PINNED:
        return _fail(f"no pinned counts for {key}")
    pinned = PINNED[key]
    lines = text.split("\n")
    if lines[0] != "block,observed_count,observed_freq,expected_freq,abs_dev" or lines[-1] != "":
        return _fail("bad empirical framing")
    rows = [line.split(",") for line in lines[1:-2]]
    if [row[0] for row in rows] != list(pinned) or [int(row[1]) for row in rows] != list(pinned.values()):
        return _fail(f"{key}: block counts differ from the pinned counts")
    total = sum(pinned.values())
    chi2_terms, worst_dev = [], 0.0
    for block, count, observed, expected, deviation in rows:
        reference = math.log1p(1.0 / int(block, 2)) / math.log(2)
        if float(observed) != int(count) / total or not math.isclose(float(expected), reference, rel_tol=1e-15):
            return _fail(f"{key}: frequencies of block {block} are wrong")
        if float(deviation) != abs(float(observed) - float(expected)):
            return _fail(f"{key}: abs_dev of block {block} is wrong")
        worst_dev = max(worst_dev, float(deviation))
        chi2_terms.append((int(count) - total * reference) ** 2 / (total * reference))
    summary = dict(field.split("=", 1) for field in lines[-2].split(" "))
    if int(summary["dof"]) != len(rows) - 1 or float(summary["max_dev"]) != worst_dev:
        return _fail(f"{key}: summary dof/max_dev wrong")
    if not math.isclose(float(summary["chi2"]), math.fsum(chi2_terms), rel_tol=1e-9):
        return _fail(f"{key}: chi2 {summary['chi2']} is not {math.fsum(chi2_terms)!r}")
    return Verdict(True)


def check_rearranged(text: str, n: int) -> Verdict:
    # Multiples of four: every fourth natural number; every odd slot of
    # the interleave.
    expected = f"sequence,multiple_of_four_freq\nnatural,{(n // 4) / n!r}\nrearranged,{(n // 2) / n!r}\n"
    return Verdict(True) if text == expected else _fail(f"rearranged output {text!r}")
