"""Command-line front end: solve, table1, matrix, verify, empirical.

Every subcommand is a pure function of its flags (randomized checks use a
fixed default seed), writes to standard output unless ``--out`` is given,
and follows one exit-code contract: 0 on success or all checks passing,
1 on a computation or verification failure, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator, TextIO

from benford2 import analytic, empirical, transition
from benford2.dyadic import MAX_DUMP_DEPTH
from benford2.solver import (
    BACKENDS,
    ConvergenceError,
    benford_reference,
    convergence_table,
    solve,
)

CHUNK_BITS = 16  # solve formats and writes 2^16 rows at a time


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", default=None, help="write output to PATH instead of stdout")


@contextmanager
def _sink(out: str | None) -> Iterator[TextIO]:
    """Yield what a handler writes to: ``sys.stdout`` as it is at call time
    (so a ``redirect_stdout`` around ``main`` holds), or PATH opened with the
    encoding and newlines ``Path.write_text`` would use."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as handle:
            yield handle


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benford2",
        description="Leading-block probabilities in base 2: fixed-point solver, "
        "identity verification, and sequence statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="stationary block distribution at one depth")
    p.add_argument("--k", type=int, required=True, help="bits after the leading 1")
    p.add_argument("--tolerance", type=float, default=1e-14)
    p.add_argument("--max-iterations", type=int, default=100_000)
    p.add_argument("--backend", choices=BACKENDS, default="fast")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("table1", help="convergence table of the leading-pair probability")
    p.add_argument("--kmax", type=int, required=True, help="largest depth to tabulate")
    p.add_argument("--tolerance", type=float, default=1e-14)
    p.add_argument("--backend", choices=BACKENDS, default="fast")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(p)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("matrix", help="dump the scaled-probability transition matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(p)
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("verify", help="run the analytic identity checks")
    p.add_argument("--suite", choices=analytic.SUITES + ("all",), default="all")
    p.add_argument("--riemann-depths", type=_int_list, default=(10, 12, 14, 16))
    p.add_argument("--series-length", type=int, default=12)
    p.add_argument("--harmonic-levels", type=_int_list, default=(10, 16, 20))
    p.add_argument("--oracle-depth", type=int, default=6)
    p.add_argument("--oracle-paddings", type=_int_list, default=(8, 16, 24))
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=analytic.DEFAULT_SEED)
    _add_out(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("empirical", help="leading-block frequencies of a sequence family")
    p.add_argument("--family", choices=empirical.FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True, help="number of terms")
    p.add_argument("--bits", type=int, default=1, help="digits kept after the leading one")
    p.add_argument("--base", type=int, default=2)
    _add_out(p)
    p.set_defaults(handler=_cmd_empirical)

    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    report = solve(args.k, tolerance=args.tolerance, max_iterations=args.max_iterations, backend=args.backend)
    reference = benford_reference(0b10, 2)
    # the JSON header and the CSV footer; str() of a Python float is its repr
    summary = {
        "k": report.depth,
        "backend": report.backend,
        "iterations": report.iterations,
        "residual": report.residual,
        "p10": report.p10,
        "p11": report.p11,
        "benford_p10": reference,
        "rel_err": abs(report.p10 - reference) / reference,
    }
    if args.format == "json":
        # json.dumps(payload, indent=2) written piecewise: the summary still goes
        # through json, and each row is json's layout with a finite float, which
        # json prints as its repr
        head = json.dumps(summary, indent=2).removesuffix("\n}") + ',\n  "probabilities": [\n'
        tail = "\n  ]\n}\n"
    else:
        head = "block,p\n"
        tail = " ".join(f"{key}={value}" for key, value in summary.items()) + "\n"
    # the rows of one chunk share their leading bits: label = prefix + suffix
    low = min(args.k, CHUNK_BITS)
    suffixes = [format(i, f"0{low}b") for i in range(1 << low)]
    with _sink(args.out) as out:
        out.write(head)
        for chunk in range(1 << (args.k - low)):
            prefix = format((1 << (args.k - low)) | chunk, "b")
            values = report.probabilities[chunk << low : (chunk + 1) << low].tolist()
            if args.format == "json":
                rows = [
                    f'    {{\n      "block": "{prefix}{suffix}",\n      "p": {value!r}\n    }}'
                    for suffix, value in zip(suffixes, values)
                ]
                if chunk:
                    out.write(",\n")
                out.write(",\n".join(rows))
            else:
                out.write("".join([f"{prefix}{suffix},{value!r}\n" for suffix, value in zip(suffixes, values)]))
        out.write(tail)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = convergence_table(args.kmax, tolerance=args.tolerance, backend=args.backend)
    if args.format == "json":
        payload = [
            {"k": row.depth, "p10": row.p10, "benford_p10": row.reference, "rel_err": row.rel_err}
            for row in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["k,p10,benford_p10,rel_err"]
        lines += [f"{row.depth},{row.p10:.6f},{row.reference!r},{row.rel_err!r}" for row in rows]
        text = "\n".join(lines) + "\n"
    with _sink(args.out) as out:
        out.write(text)
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    if not 1 <= args.k <= MAX_DUMP_DEPTH:
        raise ValueError(f"--k must be in [1, {MAX_DUMP_DEPTH}] for a dump (4^k rows)")
    n = 1 << args.k
    labels = [format(value, "b") for value in range(n, 2 * n)]
    rows = [
        (x, a, value)
        for x, values in zip(labels, transition.build_dense(args.k).tolist())
        for a, value in zip(labels, values)
    ]
    if args.format == "json":
        entries = [{"x_bits": x, "alpha_bits": a, "value": value} for x, a, value in rows]
        text = json.dumps({"k": args.k, "entries": entries}, indent=2) + "\n"
    else:
        lines = ["x_bits,alpha_bits,value"]
        lines += [f"{x},{a},{value!r}" for x, a, value in rows]
        text = "\n".join(lines) + "\n"
    with _sink(args.out) as out:
        out.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = analytic.run_suite(
        args.suite,
        riemann_depths=args.riemann_depths,
        series_length=args.series_length,
        harmonic_levels=args.harmonic_levels,
        oracle_depth=args.oracle_depth,
        oracle_paddings=args.oracle_paddings,
        samples=args.samples,
        seed=args.seed,
    )
    text = "\n".join(report.line() for report in reports) + "\n"
    with _sink(args.out) as out:
        out.write(text)
    return 0 if all(report.passed for report in reports) else 1


def _cmd_empirical(args: argparse.Namespace) -> int:
    spec = empirical.SequenceSpec(family=args.family, count=args.n, block_bits=args.bits, base=args.base)
    if spec.family == "rearranged":
        natural, rearranged = empirical.rearrangement_demo(spec.count)
        text = f"sequence,multiple_of_four_freq\nnatural,{natural!r}\nrearranged,{rearranged!r}\n"
        with _sink(args.out) as out:
            out.write(text)
        return 0
    empirical.check_report_rows(spec.block_bits, spec.base)  # before any block is generated
    report = empirical.frequency_report(empirical.generate_blocks(spec), args.bits, args.base)
    lines = ["block,observed_count,observed_freq,expected_freq,abs_dev"]
    lines += [
        f"{block},{count},{obs!r},{exp!r},{dev!r}" for block, count, obs, exp, dev in report.rows()
    ]
    lines.append(f"chi2={report.chi_square!r} dof={report.dof} max_dev={report.max_deviation!r}")
    text = "\n".join(lines) + "\n"
    with _sink(args.out) as out:
        out.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # DepthError included: every out-of-range input
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
