"""Command-line front end: solve, table1, matrix, verify, empirical.

Every subcommand is a pure function of its flags (randomized checks use a
fixed default seed), writes to standard output unless ``--out`` is given,
and follows one exit-code contract: 0 on success or all checks passing,
1 on a computation or verification failure, a failed write or a reader
that closed the output early, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import closing, contextmanager
from typing import Iterator, TextIO

from benford2 import transition
from benford2.dyadic import MAX_DUMP_DEPTH, check_int
from benford2.solver import (
    _TABLE_BACKENDS,
    BACKENDS,
    ConvergenceError,
    benford_reference,
    convergence_table,
    solve,
)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", default=None, help="write output to PATH instead of stdout")


@contextmanager
def _sink(out: str | None) -> Iterator[TextIO]:
    """Yield what the handler writes to: ``sys.stdout`` as it is at call time
    (so a ``redirect_stdout`` around ``main`` holds), or PATH opened with the
    encoding and newlines ``Path.write_text`` would use."""
    if out is None:
        yield sys.stdout
    else:
        try:
            handle = open(out, "w")
        except OSError as exc:  # a usage error: exit 2, no traceback
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc
        with handle:
            yield handle


PIECE_BITS = 12  # solve and matrix lay out and write their tables 2^12 rows at a time


def _write_table(
    out: TextIO, args: argparse.Namespace, names: tuple[str, ...], values, summary: dict, footer: str, key: str
) -> None:
    """Write one row per entry of the flat float64 array ``values``: a label per name but the last
    (1 and the bits of a base-2^k digit of the row's number, most significant first), then the value.
    CSV is a line of ``names``, the rows and ``footer``; JSON is ``json.dumps({**summary, key: rows},
    indent=2)``.  The rows are laid out 2^PIECE_BITS at a time, one write each, through ``fan_out`` past
    2^CHUNK_BITS rows.
    """
    import numpy as np

    from benford2 import _fanout, _reprs  # loaded here, before any fork, so table1 loads neither

    # a row is its template's bytes around each \0, which stands for a label's bits or the value;
    # in JSON the template is json's layout of the row's dict, and json prints a finite float as its repr
    if args.format == "json":
        head = json.dumps(summary, indent=2).removesuffix("\n}") + f',\n  "{key}": [\n'
        tail, comma = "\n  ]\n}\n", ",\n"
        cells = [f'"{name}": "1\0"' for name in names[:-1]] + [f'"{names[-1]}": \0']
        row = comma + "    {\n      " + ",\n      ".join(cells) + "\n    }"
    else:
        head, tail, comma = ",".join(names) + "\n", footer, ""
        row = ",".join(["1\0"] * (len(names) - 1) + ["\0"]) + "\n"
    *before, after = row.encode("ascii").split(b"\0")
    k, bits = args.k, args.k * (len(names) - 1)  # the bits of a row's number
    low = min(bits, PIECE_BITS)  # those that vary within a piece; the others are the piece's number
    high = bits - low
    # the ASCII of the low bits of a piece's rows, one row of the matrix per row of the table
    low_bits = np.array([format(i, f"0{low}b") for i in range(1 << low)], dtype=f"S{low}")
    low_bits = low_bits.view(np.uint8).reshape(-1, low)

    def rows(piece: int) -> str:
        shared = format((1 << high) | piece, "b")[1:].encode("ascii")  # the high bits of the piece's rows
        fields = []
        for j, text in enumerate(before[:-1]):
            first, last = j * k, (j + 1) * k  # label j's bits
            fields += [text + shared[first:last], low_bits[:, max(first - high, 0) : max(last - high, 0)]]
        fields.append(before[-1])
        # a JSON row starts with the comma that ends the row before it, but the first
        return _reprs.rows_text(fields, values[piece << low : (piece + 1) << low], after, 0 if piece else len(comma))

    # a table of at most 2^CHUNK_BITS rows is formatted here, a longer one over the CPUs
    count = 1 << high
    texts = _fanout.fan_out(rows, count) if bits > _fanout.CHUNK_BITS else (rows(piece) for piece in range(count))
    out.write(head)
    with closing(texts) as pieces:
        for text in pieces:
            out.write(text)
            del text  # frees the piece's text before the next one is made
    out.write(tail)


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
    p.add_argument("--backend", choices=_TABLE_BACKENDS, default="closed")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(p)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("matrix", help="dump the scaled-probability transition matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_out(p)
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser("verify", help="run the analytic identity checks")
    # analytic.SUITES and DEFAULT_SEED, and empirical.FAMILIES below, written out so that
    # building the parser loads neither module
    p.add_argument("--suite", choices=("matrix", "series", "integral", "harmonic", "all"), default="all")
    p.add_argument("--riemann-depths", type=_int_list, default=(10, 12, 14, 16))
    p.add_argument("--series-length", type=int, default=12)
    p.add_argument("--harmonic-levels", type=_int_list, default=(10, 16, 20))
    p.add_argument("--oracle-depth", type=int, default=6)
    p.add_argument("--oracle-paddings", type=_int_list, default=(8, 16, 24))
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=20260809)
    _add_out(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("empirical", help="leading-block frequencies of a sequence family")
    p.add_argument("--family", choices=("pow3", "fibonacci", "factorial", "rearranged"), required=True)
    p.add_argument("--n", type=int, required=True, help="number of terms")
    p.add_argument("--bits", type=int, default=1, help="digits kept after the leading one")
    p.add_argument("--base", type=int, default=2)
    _add_out(p)
    p.set_defaults(handler=_cmd_empirical)

    return parser


def _cmd_solve(args: argparse.Namespace, out: TextIO) -> int:
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
    footer = " ".join(f"{key}={value}" for key, value in summary.items()) + "\n"
    _write_table(out, args, ("block", "p"), report.probabilities, summary, footer, "probabilities")
    return 0


def _cmd_table1(args: argparse.Namespace, out: TextIO) -> int:
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
    out.write(text)
    return 0


def _cmd_matrix(args: argparse.Namespace, out: TextIO) -> int:
    check_int(args.k, "--k", 1, MAX_DUMP_DEPTH)  # a dump prints 4^k rows
    dense = transition.build_dense(args.k)
    _write_table(out, args, ("x_bits", "alpha_bits", "value"), dense.reshape(-1), {"k": args.k}, "", "entries")
    return 0


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    from benford2 import analytic

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
    out.write(text)
    return 0 if all(report.passed for report in reports) else 1


def _cmd_empirical(args: argparse.Namespace, out: TextIO) -> int:
    from benford2 import empirical

    spec = empirical.SequenceSpec(family=args.family, count=args.n, block_bits=args.bits, base=args.base)
    if spec.family == "rearranged":
        natural, rearranged = empirical.rearrangement_demo(spec.count)
        out.write(f"sequence,multiple_of_four_freq\nnatural,{natural!r}\nrearranged,{rearranged!r}\n")
        return 0
    empirical.check_report_rows(spec.block_bits, spec.base)  # before any block is generated
    report = empirical.frequency_report(empirical.generate_blocks(spec), args.bits, args.base)
    lines = ["block,observed_count,observed_freq,expected_freq,abs_dev"]
    lines += [
        f"{block},{count},{obs!r},{exp!r},{dev!r}" for block, count, obs, exp, dev in report.rows()
    ]
    lines.append(f"chi2={report.chi_square!r} dof={report.dof} max_dev={report.max_deviation!r}")
    text = "\n".join(lines) + "\n"
    out.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # open --out before the handler computes, so a bad path fails at once
        with _sink(args.out) as out:
            status = args.handler(args, out)
            out.flush()  # so a closed pipe raises here, not in the flush at exit
            return status
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a failed write: exit 1, quietly if the reader stopped early, as `| head` does
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        if out is sys.__stdout__:  # what it still buffers goes to /dev/null, so the flush at exit raises nothing
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), out.fileno())
        return 1
    except ValueError as exc:  # DepthError included: every out-of-range input
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
