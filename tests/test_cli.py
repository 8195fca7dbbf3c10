import hashlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import DEPTH2_PRINTED

import benford2
from benford2 import cli
from benford2.analytic import VerificationReport
from benford2.solver import convergence_table, solve

VERIFY_QUICK = [
    "verify",
    "--suite",
    "all",
    "--riemann-depths",
    "6,8",
    "--series-length",
    "5",
    "--harmonic-levels",
    "6",
    "--oracle-depth",
    "3",
    "--oracle-paddings",
    "8",
    "--samples",
    "2",
]


# sha256 of stdout for small commands: any change to a printed byte shows here
PINNED_STDOUT = {
    "solve --k 3": "c8feeb13bdd0a2e3b3e34ea891aecc49937a8b892f50eb95e67406e0355a5aa4",
    "solve --k 4": "c8683e58fb2aa7f30816a08b16b310755050a4864f6f046a469ebc3e0d5ef6f2",
    "solve --k 4 --format json": "e177a08f172d25ea9c26c8a3dbd3cca852e2366914b5a5b51420097f6079014c",
    # 2^17 rows: two chunks of cli.CHUNK_BITS = 16
    "solve --k 17": "a1ae2e03cbef7cf73cbdac100b39637e46b3ecab0a51fe53d74884733f6ddbcb",
    "solve --k 17 --format json": "4a479d2a29c033d32e1111f1b66810d302d84e3f0bcc04d60922cd818cb7fe4b",
    "table1 --kmax 6": "63758c189fa989c5a43d6c2b25e95f26b8852925c9c398f4b9e6ae374dab2d10",
    "table1 --kmax 6 --format json": "ce676c16edee5b3a656ca81e69dc8d028ac8332858bf55cf4e27e2127498be6c",
    "table1 --kmax 18": "62ee5fb5800c1877f612fa706ac1e371301b6790aa64f484837df7770551132e",
    "table1 --kmax 11 --backend dense": "4710d4e81dfb7dc14d78a918859e4f09b7cf928536b7a2bcea5da3dc380dfc77",
    "matrix --k 2": "8086c1c9d64b06af899eeefd0bb5f651823f5a91ac62f15157bbc4757e878a90",
    "matrix --k 2 --format json": "ecc33d40a0f2d7e4624b604dbb80d1cbc7e4c1917116adaf4d6ec39622066e6d",
    "empirical --family pow3 --n 500 --bits 2": "1dfdacd05db0afbaa8c8b2470774f6fe666ce75a0e8ba155caa42b7e7dbbec39",
    "empirical --family rearranged --n 100": "e66802f0c078c5182153221b35c278505bb234aebebb863b64a9ab0953414063",
    " ".join(VERIFY_QUICK): "3adfd7596a710b0ceb6358cc2584ebd0d93505302a65fdeae1fb47692559b7f9",
    # levels below and past analytic.HARMONIC_CHUNK = 2^12 terms
    "verify --suite harmonic --harmonic-levels 3,13,17": "2fdff1cf66c144c7b28ee78398a086c05e2d26d97ec7d6341b140eaf3471fd6e",
    # the default budgets and seed
    "verify --suite all": "57a8cfe557ade8de9c8eda82545b607e56634cfa6abe2b8cf91c93766dc47929",
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn_peak_rss(*argv, timeout=120):
    """Exit code and peak RSS in KiB of ``python -m benford2.cli argv``, stdout discarded.

    The child is forked, then exec'd.  A posix_spawn child shares this
    process's memory until its exec, and Linux carries that peak into the
    child's ``ru_maxrss``: the reading would be this test process's peak
    whenever that is the larger.
    """
    argv = [sys.executable, "-m", "benford2.cli", *argv]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execve(sys.executable, argv, env)
        finally:
            os._exit(127)
    deadline = time.monotonic() + timeout
    while True:
        reaped, status, usage = os.wait4(pid, os.WNOHANG)
        if reaped:
            return os.waitstatus_to_exitcode(status), usage.ru_maxrss  # KiB on Linux
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            pytest.fail(f"{' '.join(argv[3:])} did not finish in {timeout} s")
        time.sleep(0.05)


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_pinned_stdout(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


def test_public_names_resolve_once():
    assert len(set(benford2.__all__)) == len(benford2.__all__)
    assert [name for name in benford2.__all__ if not hasattr(benford2, name)] == []


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


class TestSolveCommand:
    def test_csv_depth1(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--k", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "block,p"
        assert lines[1].startswith("10,")
        assert abs(float(lines[1].split(",")[1]) - 4 / 7) <= 1e-12
        assert "p10=" in lines[-1] and "backend=fast" in lines[-1]

    def test_json_depth2(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["backend"] == "fast"
        published = dict(zip(["100", "101", "110", "111"], DEPTH2_PRINTED))
        for entry in payload["probabilities"]:
            assert abs(entry["p"] - published[entry["block"]]) <= 5e-5
        assert abs(payload["p10"] + payload["p11"] - 1.0) <= 1e-12
        assert payload["benford_p10"] == pytest.approx(math.log2(1.5), abs=1e-15)

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--k", "3", "--format", "json")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_depth_guard_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--k", "30"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--k", "13", "--backend", "dense"])
        assert excinfo.value.code == 2

    def test_convergence_failure_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--k", "8", "--tolerance", "1e-30", "--max-iterations", "2"
        )
        assert code == 1
        assert "no convergence" in err

    def test_nan_tolerance_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--k", "4", "--tolerance", "nan"])
        assert excinfo.value.code == 2

    def test_backend_flag(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--k", "4", "--backend", "dense")
        assert code == 0
        assert "backend=dense" in out

    @pytest.mark.parametrize("chunk_bits", [1, 2])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunk_size_keeps_bytes(self, capsys, monkeypatch, chunk_bits, fmt):
        _, whole, _ = run_cli(capsys, "solve", "--k", "5", "--format", fmt)
        monkeypatch.setattr(cli, "CHUNK_BITS", chunk_bits)
        code, chunked, _ = run_cli(capsys, "solve", "--k", "5", "--format", fmt)
        assert code == 0
        assert chunked == whole

    def test_peak_rss_does_not_grow_with_output(self):
        # the rows stream out in chunks: 283 MB when they were joined first
        code, peak_kib = spawn_peak_rss("solve", "--k", "18", "--format", "json")
        assert code == 0
        assert peak_kib < 128 * 1024


class TestTable1Command:
    def test_peak_rss_of_deep_table(self):
        # two 2^22 vectors live at once in the fast solve: about 93 MB
        code, peak_kib = spawn_peak_rss("table1", "--kmax", "22")
        assert code == 0
        assert peak_kib < 112 * 1024

    def test_ten_rows_match_table_values(self, capsys, table10):
        code, out, _ = run_cli(capsys, "table1", "--kmax", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,p10,benford_p10,rel_err"
        assert len(lines) == 11
        for line, row in zip(lines[1:], table10):
            fields = line.split(",")
            assert int(fields[0]) == row.depth
            assert fields[1] == f"{row.p10:.6f}"
            assert float(fields[2]) == pytest.approx(math.log2(1.5), abs=1e-15)
            assert float(fields[3]) == pytest.approx(row.rel_err, abs=1e-12)

    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--kmax", "1")
        assert code == 0
        line = out.strip().splitlines()[1]
        p10 = float(line.split(",")[1])
        assert abs(p10 - 0.571428) <= 1.01e-6  # printed value is truncated, ours rounded

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "table1", "--kmax", "3", "--format", "json")
        payload = json.loads(out)
        assert [row["k"] for row in payload] == [1, 2, 3]
        assert json.dumps(payload, indent=2) + "\n" == out

    def test_kmax_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table1", "--kmax", "0"])
        assert excinfo.value.code == 2


class TestMatrixCommand:
    def test_depth2_dump(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--k", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x_bits,alpha_bits,value"
        assert len(lines) == 17
        assert "100,101,0.4" in lines
        values = {}
        for line in lines[1:]:
            x_bits, alpha_bits, value = line.split(",")
            values[(x_bits, alpha_bits)] = float(value)
        assert values[("100", "110")] == 1 / 3
        assert values[("111", "111")] == 1 / 7
        assert values[("101", "100")] == 0.25

    def test_depth1_values(self, capsys):
        _, out, _ = run_cli(capsys, "matrix", "--k", "1")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [float(r[2]) for r in rows] == [0.5, 2 / 3, 0.5, 1 / 3]

    def test_dump_guard(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["matrix", "--k", "9"])
        assert excinfo.value.code == 2

    def test_json_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "matrix", "--k", "1", "--format", "json")
        payload = json.loads(out)
        assert len(payload["entries"]) == 4
        assert json.dumps(payload, indent=2) + "\n" == out


class TestVerifyCommand:
    def test_reduced_budget_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, *VERIFY_QUICK)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines
        for line in lines:
            assert line.startswith("PASS ")
            assert " err=" in line and " bound=" in line

    def test_harmonic_suite_mentions_block_10(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "harmonic", "--harmonic-levels", "8"
        )
        assert code == 0
        assert "harmonic-vs-log" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, *VERIFY_QUICK)
        _, second, _ = run_cli(capsys, *VERIFY_QUICK)
        assert first == second

    def test_bogus_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "budget",
        [
            ["--riemann-depths", "30"],
            ["--oracle-paddings", "0"],
            ["--series-length", "0"],
            ["--samples", "-1"],
            ["--harmonic-levels", "30"],
            ["--oracle-depth", "9", "--oracle-paddings", "8"],
            ["--series-length", "17"],
            ["--samples", "1025"],
            ["--samples", "1000000000000"],
            ["--riemann-depths", "24,24,24,24", "--samples", "1024"],
            ["--riemann-depths", "24", "--samples", "6"],
        ],
    )
    def test_out_of_range_budget_is_usage_error(self, capsys, budget):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", *budget])
        assert excinfo.value.code == 2

    def test_usage_error_has_no_traceback(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "benford2.cli", "verify", "--suite", "matrix", "--oracle-paddings", "0"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_flags_are_run_suite_budgets(self):
        # every verify flag but --suite and --out is a run_suite keyword with
        # the same default, and run_suite takes no other keyword
        flags = vars(cli.build_parser().parse_args(["verify"]))
        for name in ("command", "handler", "out", "suite"):
            del flags[name]
        parameters = inspect.signature(cli.analytic.run_suite).parameters.values()
        keywords = {p.name: p.default for p in parameters if p.kind is inspect.Parameter.KEYWORD_ONLY}
        assert flags == keywords

    def test_failing_report_exits_1(self, capsys, monkeypatch):
        failing = VerificationReport(identity="demo", params="p", error=1.0, bound=0.5)
        monkeypatch.setattr(cli.analytic, "run_suite", lambda *a, **k: [failing])
        code, out, _ = run_cli(capsys, "verify", "--suite", "harmonic")
        assert code == 1
        assert out.startswith("FAIL demo")


class TestEmpiricalCommand:
    def test_rearranged_demo(self, capsys):
        code, out, _ = run_cli(capsys, "empirical", "--family", "rearranged", "--n", "10000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sequence,multiple_of_four_freq"
        freqs = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
        assert freqs["natural"] == pytest.approx(0.25, abs=1e-3)
        assert freqs["rearranged"] == pytest.approx(0.5, abs=1e-3)

    def test_pow3_binary_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "empirical", "--family", "pow3", "--n", "100000", "--bits", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "block,observed_count,observed_freq,expected_freq,abs_dev"
        footer = lines[-1]
        assert footer.startswith("chi2=") and " dof=1 " in footer
        max_dev = float(footer.split("max_dev=")[1])
        assert max_dev <= 0.01

    def test_zero_count_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "pow3", "--n", "0"])
        assert excinfo.value.code == 2

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "collatz", "--n", "10"])
        assert excinfo.value.code == 2

    def test_negative_bits_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "pow3", "--n", "10", "--bits", "-1"])
        assert excinfo.value.code == 2

    def test_rearranged_negative_bits_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "rearranged", "--n", "10", "--bits", "-1"])
        assert excinfo.value.code == 2

    def test_no_full_depth_block_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "pow3", "--n", "1", "--bits", "5"])
        assert excinfo.value.code == 2

    def test_no_full_depth_block_fails_before_name_table(self, capsys):
        # 2^20 block names would take seconds to build; none is needed to fail
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "pow3", "--n", "10", "--bits", "20"])
        assert excinfo.value.code == 2
        assert time.perf_counter() - start < 1.0

    def test_report_row_budget_fails_fast(self, capsys):
        # 2^20 rows took 10.6 s and 488 MB to print for 1000 terms
        start = time.perf_counter()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "pow3", "--n", "1000", "--bits", "20"])
        assert excinfo.value.code == 2
        assert "report rows" in capsys.readouterr().err
        assert time.perf_counter() - start < 1.0

    def test_report_row_budget_checked_before_generation(self, capsys, monkeypatch):
        # generating the blocks first took 60.8 s for fibonacci --n 200000 --bits 40
        def never_generated(spec):
            raise AssertionError("blocks were generated")

        monkeypatch.setattr(cli.empirical, "generate_blocks", never_generated)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "fibonacci", "--n", "200000", "--bits", "40"])
        assert excinfo.value.code == 2
        assert "report rows" in capsys.readouterr().err

    def test_never_loads_numpy(self):
        # numpy's own package is registered lazily; numpy._core appears only once it runs
        script = """
import contextlib, hashlib, io, sys
import benford2
from benford2 import cli
assert "numpy._core" not in sys.modules, "import benford2 loaded numpy"
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["empirical", "--family", "pow3", "--n", "200", "--bits", "2"])
assert code == 0 and "numpy._core" not in sys.modules, "empirical loaded numpy"
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["solve", "--k", "3"])
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert result.stderr == ""
        assert result.stdout == f"0 {PINNED_STDOUT['solve --k 3']}\n"

    @pytest.mark.parametrize("bits, base, rows", [("17", "2", 1 << 17), ("10", "3", 2 * 3**10)])
    def test_report_row_budget_edge_runs(self, capsys, bits, base, rows):
        code, out, _ = run_cli(
            capsys, "empirical", "--family", "pow3", "--n", "200", "--bits", bits, "--base", base
        )
        assert code == 0
        assert len(out.splitlines()) == rows + 2  # header and summary line


class TestOutPath:
    def test_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table1", "--kmax", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("k,p10,")
        assert len(content.strip().splitlines()) == 3

    @pytest.mark.parametrize(
        "command",
        [
            "solve --k 5",
            "solve --k 5 --format json",
            "matrix --k 2",
            "table1 --kmax 4",
            "verify --suite integral",
            "empirical --family pow3 --n 500 --bits 2",
        ],
    )
    def test_file_bytes_equal_stdout(self, capsys, tmp_path, command):
        _, printed, _ = run_cli(capsys, *command.split())
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(capsys, *command.split(), "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_bytes() == printed.encode()

    @pytest.mark.parametrize("where", ["missing_dir/out.csv", "."], ids=["missing-directory", "a-directory"])
    def test_unopenable_path_is_usage_error(self, capsys, tmp_path, where):
        target = tmp_path / where
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--k", "2", "--out", str(target)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert f"error: cannot write {target}: " in captured.err
        assert not (tmp_path / "missing_dir").exists()

    def test_unopenable_path_fails_before_computing(self, capsys, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("verify computed before opening --out")

        monkeypatch.setattr(cli.analytic, "run_suite", must_not_run)
        target = tmp_path / "missing_dir" / "x.txt"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--out", str(target)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"benford2: error: cannot write {target}: No such file or directory"
        ]
