import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import marshal
import math
import os
import signal
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np
import pytest

try:
    import fcntl
except ImportError:  # Windows has no fcntl
    fcntl = None
from conftest import DEPTH2_PRINTED, MUTATIONS, assert_no_children, rounded_p10, run_fresh

import benford2
from benford2 import _fanout, analytic, cli, empirical, solver, transition
from benford2.analytic import VerificationReport
from benford2.solver import ConvergenceError, convergence_table, solve

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

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
    # 2^17 rows: 32 pieces of cli.PIECE_BITS = 12, past the 2^16 rows that fork nothing
    "solve --k 17": "a1ae2e03cbef7cf73cbdac100b39637e46b3ecab0a51fe53d74884733f6ddbcb",
    "solve --k 17 --format json": "4a479d2a29c033d32e1111f1b66810d302d84e3f0bcc04d60922cd818cb7fe4b",
    # table1's default backend reads p10 from the closed form, correctly rounded (see
    # test_closed_table1_pins_print_the_exact_values); fast and dense are its oracles
    "table1 --kmax 6": "75e44c696f7240d8d12ab9d17d1e9710c51fe078ecc4158e7b43793b6c576182",
    "table1 --kmax 6 --format json": "96da20fed56f29126be682c15d84f1ed7038a53462220ba80184e5ffdcf3d54c",
    "table1 --kmax 18": "fc524996b78e06e9415c95186890f5c169013e631da4d973afd10c72bd337a56",
    # the benchmark's command
    "table1 --kmax 22": "6b5e1b05e43f1904077e52f261d7a7bc83382b537355f1a0b8e81843de8dc8a4",
    "table1 --kmax 6 --backend fast": "63758c189fa989c5a43d6c2b25e95f26b8852925c9c398f4b9e6ae374dab2d10",
    "table1 --kmax 6 --format json --backend fast": "ce676c16edee5b3a656ca81e69dc8d028ac8332858bf55cf4e27e2127498be6c",
    "table1 --kmax 18 --backend fast": "62ee5fb5800c1877f612fa706ac1e371301b6790aa64f484837df7770551132e",
    "table1 --kmax 11 --backend dense": "4710d4e81dfb7dc14d78a918859e4f09b7cf928536b7a2bcea5da3dc380dfc77",
    "matrix --k 2": "8086c1c9d64b06af899eeefd0bb5f651823f5a91ac62f15157bbc4757e878a90",
    "matrix --k 2 --format json": "ecc33d40a0f2d7e4624b604dbb80d1cbc7e4c1917116adaf4d6ec39622066e6d",
    "matrix --k 4 --format json": "6c996df7cbb571411140f897e8cefa29e747c2da134a3578a8c91274306e75eb",
    # the benchmark's command: 4^8 entries
    "matrix --k 8": "56cf9a356215bf396680bd594aab19cf68c7a5ab07af9537dd2810776da1b120",
    "empirical --family pow3 --n 500 --bits 2": "1dfdacd05db0afbaa8c8b2470774f6fe666ce75a0e8ba155caa42b7e7dbbec39",
    "empirical --family rearranged --n 100": "e66802f0c078c5182153221b35c278505bb234aebebb863b64a9ab0953414063",
    " ".join(VERIFY_QUICK): "040ce278f60eff2481776ea18f8be0ea92021db6d2333a6707beee79c186a613",
    # level 3's first blocks start so low that their Euler-Maclaurin intervals span a rounding
    # midpoint and take exact gaps; levels 13 and 17, past the 2^12 terms beyond which exact gaps
    # all but never run, do not
    "verify --suite harmonic --harmonic-levels 3,13,17": "2fdff1cf66c144c7b28ee78398a086c05e2d26d97ec7d6341b140eaf3471fd6e",
    # the default budgets and seed
    "verify --suite all": "ac0e93b2c5f913933ae4254ebc796f3f23efec07cb3b9f867c505914ee5e3aac",
    # the edges of the exact budgets: the longest series, the deepest count oracle, and paddings
    # from the least to the most that depth 8 leaves of MAX_COUNT_BITS
    "verify --suite all --series-length 16 --oracle-depth 8 --oracle-paddings 1,16,32": (
        "8fde9813c1bc87ed164da87e78994cec6351c7ba29734410ba237e32bd9aa84d"
    ),
}

# The verify lines that check the kernel's image of the trial weights and the
# dense matrix's column sums, by line index: the start of each, up to its
# err=.  The sha256 of every other line pins the lines that the
# matrix-free kernel, build_dense and their bounds do not enter.
VERIFY_KERNEL_LINES = {
    "verify --suite all": (
        {
            1: "PASS column-sums-exact k<=6 exact, dense k<=8 (error scaled by 2^(k-53)) ",
            **{
                8 + i: f"PASS riemann-vs-closed-form k={k} all {1 << k} targets (kernel image of 1/(1+x)) "
                for i, k in enumerate((10, 12, 14, 16))
            },
            12: "PASS riemann-error-decay depths [10, 12, 14, 16] (ratio of successive errors) ",
        },
        "a582f1b433d3600692370b9b970b9cf5b99aa7c64bd3fcd198135b59c799b984",
    ),
    " ".join(VERIFY_QUICK): (
        {
            1: "PASS column-sums-exact k<=6 exact, dense k<=8 (error scaled by 2^(k-53)) ",
            6: "PASS riemann-vs-closed-form k=6 all 64 targets (kernel image of 1/(1+x)) ",
            7: "PASS riemann-vs-closed-form k=8 all 256 targets (kernel image of 1/(1+x)) ",
            8: "PASS riemann-error-decay depths [6, 8] (ratio of successive errors) ",
        },
        "cfdcd2804047c6ddc1962821103544c9c3e9ac9bffa822799a70bfa097d04a96",
    ),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn_peak_rss(*argv, timeout=120):
    """Exit code and peak RSS in KiB of ``python -m benford2.cli argv``, stdout discarded.

    The command is started by perfbench's ``launch.py``, a fresh interpreter
    forked from here and exec'd.  Linux carries the starting process's RSS
    into the child's ``ru_maxrss`` across exec: all of it for posix_spawn,
    the anonymous pages for fork.  Started from this test process, the
    command would read this process's size whenever that is the larger;
    started from the launcher, it reads at least the launcher's own few MB.
    """
    read_fd, write_fd = os.pipe()
    argv = [sys.executable, str(PERFBENCH / "launch.py"), str(write_fd), sys.executable, "-m", "benford2.cli", *argv]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    pid = os.fork()
    if pid == 0:
        try:
            os.setpgid(0, 0)  # the launcher and the command: one group to kill
            os.set_inheritable(write_fd, True)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execve(sys.executable, argv, env)
        finally:
            os._exit(127)
    os.close(write_fd)
    with open(read_fd, "rb") as report:
        deadline = time.monotonic() + timeout
        while not os.wait4(pid, os.WNOHANG)[0]:
            if time.monotonic() > deadline:
                os.killpg(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                pytest.fail(f"{' '.join(argv[6:])} did not finish in {timeout} s")
            time.sleep(0.05)
        _, peak_kib, code = report.read().split()
    return int(code), int(peak_kib)  # KiB on Linux


def peak_over_start_kib(*argv):
    """Peak RSS in KiB of a command over that of ``solve --k 1``, which imports numpy and solves a 2-vector."""
    _, start_kib = spawn_peak_rss("solve", "--k", "1")
    code, peak_kib = spawn_peak_rss(*argv)
    assert code == 0
    return peak_kib - start_kib


# what one piece of output may hold at once: 2^12 rows, each as a float, its
# print, a row of the piece's byte matrix and its share of the text, with slack
PIECE_KIB = 4 * 1024


def recorded_writes(monkeypatch):
    """The list of the texts that the command writes to its sink, one per write."""
    writes = []

    class Stream(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(cli, "_sink", lambda path: contextlib.nullcontext(Stream()))
    return writes


def assert_piece_size_keeps_bytes(capsys, monkeypatch, piece_bits, *argv):
    """The command prints the same bytes in pieces of 2^piece_bits rows as in pieces of 2^12."""
    _, whole, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "PIECE_BITS", piece_bits)
    code, pieced, _ = run_cli(capsys, *argv)
    assert code == 0
    assert pieced == whole


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_pinned_stdout(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


CLOSED_TABLE1_PINS = [c for c in sorted(PINNED_STDOUT) if c.startswith("table1") and "--backend" not in c]


@pytest.mark.parametrize("command", CLOSED_TABLE1_PINS)
def test_closed_table1_pins_print_the_exact_values(command):
    # the bytes the pin hashes, built from the correctly rounded exact p10 of each depth
    kmax, fmt = int(command.split()[2]), "json" if "--format json" in command else "csv"
    reference = math.log2(1.5)
    p10s = [rounded_p10(k) for k in range(1, kmax + 1)]
    rows = [(k, p10, reference, abs(p10 - reference) / reference) for k, p10 in enumerate(p10s, start=1)]
    if fmt == "json":
        keys = ("k", "p10", "benford_p10", "rel_err")
        text = json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    else:
        text = "k,p10,benford_p10,rel_err\n" + "".join(f"{k},{p:.6f},{r!r},{e!r}\n" for k, p, r, e in rows)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_STDOUT[command]


@pytest.mark.parametrize("command", sorted(VERIFY_KERNEL_LINES))
def test_verify_kernel_lines(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    starts, others = VERIFY_KERNEL_LINES[command]
    lines = out.splitlines(keepends=True)
    for index, start in starts.items():
        assert lines[index].startswith(start + "err=")
    kept = "".join(line for index, line in enumerate(lines) if index not in starts)
    assert hashlib.sha256(kept.encode()).hexdigest() == others


def test_public_names_resolve_once():
    assert len(set(benford2.__all__)) == len(benford2.__all__)
    assert [name for name in benford2.__all__ if not hasattr(benford2, name)] == []


# (argv, flag's dest, the library function or dataclass, its parameter or
# field); verify's budgets are TestVerifyCommand.test_flags_are_run_suite_budgets'
CLI_DEFAULTS = [
    (["solve", "--k", "1"], "tolerance", solver.solve, "tolerance"),
    (["solve", "--k", "1"], "backend", solver.solve, "backend"),
    (["table1", "--kmax", "1"], "tolerance", solver.convergence_table, "tolerance"),
    (["table1", "--kmax", "1"], "backend", solver.convergence_table, "backend"),
    (["verify"], "suite", analytic.run_suite, "which"),
    (["empirical", "--family", "pow3", "--n", "1"], "bits", empirical.SequenceSpec, "block_bits"),
    (["empirical", "--family", "pow3", "--n", "1"], "base", empirical.SequenceSpec, "base"),
]


@pytest.mark.parametrize(
    "argv, dest, function, name", CLI_DEFAULTS, ids=[f"{argv[0]}-{dest}" for argv, dest, *_ in CLI_DEFAULTS]
)
def test_cli_defaults_are_the_library_defaults(argv, dest, function, name):
    # a dataclass's signature is that of its __init__, whose defaults are its fields'
    parsed = getattr(cli.build_parser().parse_args(argv), dest)
    default = inspect.signature(function).parameters[name].default
    assert type(parsed) is type(default) and parsed == default


# (command, flag's dest, the library's values): the parser writes these out, so it loads neither module
CLI_CHOICES = [("verify", "suite", analytic.SUITES + ("all",)), ("empirical", "family", empirical.FAMILIES)]


@pytest.mark.parametrize("command, dest, values", CLI_CHOICES, ids=[dest for _, dest, _ in CLI_CHOICES])
def test_cli_choices_are_the_library_values(command, dest, values):
    (sub,) = [action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    (action,) = [action for action in sub.choices[command]._actions if action.dest == dest]
    assert action.choices == values


# the benford2 modules each command leaves unloaded
UNLOADED = {
    "table1 --kmax 24": {"analytic", "empirical", "_reprs"},
    "solve --k 1": {"analytic", "empirical"},
    "verify --suite harmonic": {"empirical"},
    "empirical --family pow3 --n 100": {"analytic"},
}
LOADED_SCRIPT = """
import contextlib, io, sys
import benford2
print(*sorted(name for name in sys.modules if name.startswith("benford2")))
from benford2 import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(%r)
print(code, *sorted(name for name in sys.modules if name.startswith("benford2")))
"""


@pytest.mark.parametrize("command", sorted(UNLOADED))
def test_command_loads_only_its_modules(command):
    # in a fresh interpreter: import benford2 loads no submodule, then one command runs
    result = run_fresh(LOADED_SCRIPT % command.split())
    assert result.stderr == ""
    imported, ran = result.stdout.splitlines()
    assert imported == "benford2"
    code, *loaded = ran.split()
    assert code == "0"
    assert {f"benford2.{name}" for name in UNLOADED[command]}.isdisjoint(loaded)


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_fan_out_loads_numpy_once_before_forking():
    # solve and verify --suite all load numpy before fan_out forks; a child
    # reports whether numpy is loaded before its item touches it, so "True"
    # there means it was loaded before the fork, once for every child
    script = """
import contextlib, io, os, sys
from benford2 import _fanout, cli

fan_out, parent = _fanout.fan_out, os.getpid()

def reporting(work, count):
    def work_and_report(item):
        if os.getpid() != parent:
            os.write(2, f"{'numpy' in sys.modules} ".encode())
        return work(item)

    return fan_out(work_and_report, count)

_fanout.fan_out = reporting
os.sched_getaffinity = lambda pid: {0, 1}
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(%r)
print(code)
"""
    # solve --k 17: the child formats 16 of the 32 pieces; verify: it runs series and harmonic
    for argv, reports in [(["solve", "--k", "17"], 16), (VERIFY_QUICK, 2)]:
        result = run_fresh(script % argv)
        assert (result.stdout, result.stderr) == ("0\n", "True " * reports)


@pytest.mark.parametrize(
    "value", [np.float64(0.1), bytearray(b"ab"), array("q", [1, 2])], ids=lambda value: type(value).__name__
)
def test_fan_out_leaves_what_marshal_changes_to_the_process(monkeypatch, forks, value):
    # marshal writes these three as bytes; the child leaves item 1 to this
    # process and still sends item 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, here = os.getpid(), []

    def work(item):
        if os.getpid() == parent:
            here.append(item)
        return value if item == 1 else item

    results = list(_fanout.fan_out(work, 4))
    assert results == [0, value, 2, 3] and type(results[1]) is type(value)
    assert here == [0, 1, 2] and len(forks) == 1
    assert_no_children()


def test_child_result_arrives_before_its_next_item(monkeypatch, forks):
    # the child runs items 1 and 3; this process must get item 1 while the
    # child is still on item 3, not only once the child has finished
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent = os.getpid()

    def work(item):
        if item == 3 and os.getpid() != parent:
            time.sleep(10)
        return item

    start = time.monotonic()
    with contextlib.closing(_fanout.fan_out(work, 4)) as results:
        assert [next(results), next(results)] == [0, 1]
        assert time.monotonic() - start < 5
    assert len(forks) == 1
    assert_no_children()


# pipe sizes are Linux's: elsewhere fcntl has no F_GETPIPE_SZ, and the program leaves its pipes as they are
linux_pipes = pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"), reason="fcntl has no F_GETPIPE_SZ")


@linux_pipes
def test_child_runs_ahead_of_a_large_frame(monkeypatch, forks, tmp_path):
    # the child sends item 1, a frame of 300 000 bytes, and starts item 3 while this process is
    # still on item 0: its pipe holds the frame whole, where a 64 KiB pipe would hold the child
    # in its write until this process reads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, started, large = os.getpid(), tmp_path / "item-3-started", "x" * 300_000

    def work(item):
        if os.getpid() != parent:
            if item == 3:
                started.touch()
            return large
        if item == 0:
            deadline = time.monotonic() + 5
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return started.exists()
        return item

    assert list(_fanout.fan_out(work, 4)) == [True, large, 2, large]
    assert len(forks) == 1
    assert_no_children()


# runs the CLI on sys.argv[1:], with stdout as it was given, after a patch; reports on stderr
# its exit code and whether fcntl was loaded
PIPED_SCRIPT = """
import os, sys
%s
from benford2 import cli
code = cli.main(sys.argv[1:])
print(code, "fcntl" in sys.modules, file=sys.stderr)
"""


def run_piped(command, patch=""):
    """Run ``command`` in a fresh interpreter with stdout a new pipe: the digest of its stdout, its
    report, the pipe's size before it ran and the size after the end of its output."""
    read_fd, write_fd = os.pipe()
    before = fcntl.fcntl(read_fd, fcntl.F_GETPIPE_SZ)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-c", PIPED_SCRIPT % patch, *command.split()]
    with open(read_fd, "rb") as reader:
        with subprocess.Popen(argv, stdout=write_fd, stderr=subprocess.PIPE, env=env) as process:
            os.close(write_fd)
            digest = hashlib.sha256(reader.read()).hexdigest()
            after = fcntl.fcntl(reader, fcntl.F_GETPIPE_SZ)
            report = process.stderr.read().decode()
            assert process.wait(timeout=120) == 0
    return digest, report, before, after


@linux_pipes
class TestPipeSizes:
    """A table of more than one piece lets a piped stdout hold _fanout._PIPE_BYTES, and nothing
    else changes: not the bytes, nor the exit code, nor a pipe the OS will not grow."""

    def test_table_of_two_pieces_grows_stdout(self):
        # 2^13 rows, two pieces of 2^PIECE_BITS
        _, report, before, after = run_piped("solve --k 13")
        assert report == "0 True\n"
        assert before < after == 1 << 20 == _fanout._PIPE_BYTES

    def test_table_of_one_piece_leaves_stdout(self):
        _, report, before, after = run_piped("solve --k 12")
        assert report == "0 False\n"
        assert after == before

    def test_grown_pipe_keeps_bytes(self):
        # on two CPUs the child formats half the pieces through its own grown pipe
        digest, report, _, after = run_piped("solve --k 17", "os.sched_getaffinity = lambda pid: {0, 1}")
        assert (digest, report, after) == (PINNED_STDOUT["solve --k 17"], "0 True\n", 1 << 20)

    @pytest.mark.parametrize("command", ["solve --k 1", "table1 --kmax 22"])
    def test_small_command_loads_no_fcntl(self, command):
        _, report, before, after = run_piped(command)
        assert (report, after) == ("0 False\n", before)

    @pytest.mark.parametrize(
        "patch",
        [
            "import fcntl\ndef refuse(*args):\n    raise PermissionError(1, 'refused')\nfcntl.fcntl = refuse",
            "import fcntl\ndel fcntl.F_SETPIPE_SZ",
            # below the pipe's own 64 KiB: the pipe is not shrunk
            "from benford2 import _fanout\n_fanout._PIPE_BYTES = 1 << 14",
        ],
        ids=["refused", "no-constant", "smaller"],
    )
    def test_pipe_left_as_it_is(self, patch):
        digest, report, before, after = run_piped("solve --k 17", patch + "\nos.sched_getaffinity = lambda pid: {0, 1}")
        assert (digest, report, after) == (PINNED_STDOUT["solve --k 17"], "0 True\n", before)


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

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, header",
        [
            # the reader takes the header and goes, as `| head -1` does; 2^17 rows fork a writer child
            (["solve", "--k", "17"], b"block,p\n"),
            # the reader goes before the one write, which stdout buffers until main flushes it
            (["table1", "--kmax", "3"], None),
        ],
        ids=["solve", "table1"],
    )
    def test_closed_pipe_exits_1_quietly(self, argv, header, buffered):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONUNBUFFERED="" if buffered else "1")
        with subprocess.Popen(
            [sys.executable, "-m", "benford2.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as process:
            if header:
                assert process.stdout.readline() == header
            process.stdout.close()
            assert process.wait(timeout=120) == 1
            assert process.stderr.read() == b""

    @pytest.mark.parametrize("target", ["--out", "stdout"])
    @pytest.mark.parametrize(
        "argv, children", [(["solve", "--k", "17"], 1), (["table1", "--kmax", "3"], 0)], ids=["solve", "table1"]
    )
    def test_full_disk_exits_1_with_one_error_line(self, tmp_path, argv, children, target):
        # on two CPUs solve's 2^17 rows fork a writer child before the first piece fails to write (a
        # buffered stdout holds the header until then); the script reports its forks and any child still
        # alive to a file, since stdout may be the full disk
        script = """
import os, sys
from benford2 import cli

forks, fork = [], os.fork

def counting_fork():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid

os.fork = counting_fork
os.sched_getaffinity = lambda pid: {0, 1}
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)  # a child, running or not yet reaped
    survivor = True
except ChildProcessError:
    survivor = False
with open(sys.argv[1], "w") as report:
    report.write(f"{len(forks)} {survivor}")
sys.exit(code)
"""
        report = tmp_path / "report"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONUNBUFFERED="")
        command = [sys.executable, "-c", script, str(report), *argv]
        with open("/dev/full", "w") as full:
            if target == "--out":
                result = subprocess.run([*command, "--out", "/dev/full"], capture_output=True, text=True, env=env)
            else:
                result = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
        assert report.read_text() == f"{children} False"

    def test_depth_guard_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--k", "30"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--k", "13", "--backend", "dense"])
        assert excinfo.value.code == 2

    def test_convergence_failure_exits_1(self, capsys):
        # depth 5 stalls above 1e-30 in floats; depth 8 reaches a step of exactly 0
        code, _, err = run_cli(capsys, "solve", "--k", "5", "--tolerance", "1e-30")
        assert code == 1
        assert "no convergence" in err

    def test_iteration_cap_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve", "--k", "4", "--max-iterations", "2"])
        assert excinfo.value.code == 2

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
        assert_piece_size_keeps_bytes(capsys, monkeypatch, chunk_bits, "solve", "--k", "5", "--format", fmt)

    @pytest.mark.parametrize("cpus", [None, {0, 1, 2}], ids=["own-mask", "three-cpus"])
    @pytest.mark.parametrize("chunk_bits", [1, 2])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fan_out_keeps_bytes(self, capsys, monkeypatch, forks, chunk_bits, fmt, cpus):
        monkeypatch.setattr(cli, "PIECE_BITS", chunk_bits)
        monkeypatch.setattr(_fanout, "CHUNK_BITS", 4)  # a solve past 2^4 rows forks
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        workers = min(len(os.sched_getaffinity(0)), 1 << (5 - chunk_bits))
        code, fanned, _ = run_cli(capsys, "solve", "--k", "5", "--format", fmt)
        assert code == 0 and len(forks) == workers - 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _, single, _ = run_cli(capsys, "solve", "--k", "5", "--format", fmt)
        assert len(forks) == workers - 1  # one CPU: nothing forked
        assert fanned == single
        assert_no_children()

    def test_one_chunk_forks_nothing(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        code, out, _ = run_cli(capsys, "solve", "--k", str(_fanout.CHUNK_BITS))
        assert code == 0
        assert len(out.splitlines()) == (1 << _fanout.CHUNK_BITS) + 2
        assert forks == []

    @pytest.mark.parametrize("error", [None, BrokenPipeError, KeyboardInterrupt])
    def test_no_child_outlives_main(self, capsys, monkeypatch, tmp_path, forks, error):
        class Stream(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 2 and error is not None:
                    raise error()
                return super().write(text)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(cli, "_sink", lambda path: contextlib.nullcontext(Stream()))
        argv = ["solve", "--k", "17", "--out", str(tmp_path / "out.csv")]
        # the second write is the first piece: the children have been forked
        if error is None:
            assert cli.main(argv) == 0
        elif error is BrokenPipeError:  # a reader that stopped early: exit 1
            assert cli.main(argv) == 1
        else:
            with pytest.raises(error):
                cli.main(argv)
        assert len(forks) == 2  # 32 pieces over three CPUs
        assert_no_children()

    @pytest.mark.parametrize("failure", ["raises", "raises-late", "bad-frame", "not-a-str", "no-fork"])
    def test_failed_child_falls_back(self, capsys, monkeypatch, forks, failure):
        monkeypatch.setattr(cli, "PIECE_BITS", 1)  # 16 pieces
        monkeypatch.setattr(_fanout, "CHUNK_BITS", 4)  # a solve past 2^4 rows forks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _, whole, _ = run_cli(capsys, "solve", "--k", "5")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        parent = os.getpid()
        if failure.startswith("raises"):
            fan_out = _fanout.fan_out

            def flaky(format_piece, count):
                def format_or_fail(piece):
                    # "raises-late": each child sends its first piece, then fails
                    if os.getpid() != parent and (failure == "raises" or piece > 2):
                        raise RuntimeError("formatting failed in the child")
                    return format_piece(piece)

                return fan_out(format_or_fail, count)

            monkeypatch.setattr(_fanout, "fan_out", flaky)
        elif failure == "no-fork":

            def no_fork():
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        else:
            garbage = {"bad-frame": b"\x00", "not-a-str": marshal.dumps(b"bytes")}[failure]
            frame = _fanout._frame

            def garbage_frame(item, result):
                return garbage if os.getpid() != parent else frame(item, result)

            monkeypatch.setattr(_fanout, "_frame", garbage_frame)
        code, out, err = run_cli(capsys, "solve", "--k", "5")
        assert (code, out, err) == (0, whole, "")
        assert_no_children()

    def test_peak_rss_does_not_grow_with_output(self):
        # the rows stream out in chunks: 283 MB when they were joined first
        code, peak_kib = spawn_peak_rss("solve", "--k", "18", "--format", "json")
        assert code == 0
        assert peak_kib < 128 * 1024

    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}], ids=["one-cpu", "three-cpus"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_write_holds_one_piece(self, monkeypatch, forks, fmt, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(_fanout, "CHUNK_BITS", 13)  # a solve past 2^13 rows forks
        writes = recorded_writes(monkeypatch)
        assert cli.main(["solve", "--k", "14", "--format", fmt]) == 0
        assert len(forks) == len(cpus) - 1
        rows = [text.count('"block"') if fmt == "json" else text.count("\n") for text in writes]
        # the head, four pieces of 2^12 rows, the tail; in CSV the head and the tail are a line each
        edge = 1 if fmt == "csv" else 0
        assert rows == [edge, *[1 << 12] * 4, edge]

    def test_peak_rss_is_two_iterates_and_one_piece(self):
        # the solve holds two 2^18-float iterates at once; the rows are written a piece at a time
        assert peak_over_start_kib("solve", "--k", "18", "--format", "json") < 2 * 8 * (1 << 18) // 1024 + PIECE_KIB


class TestTable1Command:
    def test_peak_rss_of_deep_table(self):
        # two 2^22 vectors live at once in the fast solve: about 93 MB
        code, peak_kib = spawn_peak_rss("table1", "--kmax", "22", "--backend", "fast")
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

    def test_closed_table_solves_and_forks_nothing(self, capsys, monkeypatch, forks):
        def refused(*args, **kwargs):
            raise AssertionError("the closed table solved or fanned out")

        monkeypatch.setattr(solver, "solve", refused)
        monkeypatch.setattr(_fanout, "fan_out", refused)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code, out, _ = run_cli(capsys, "table1", "--kmax", "22")
        assert code == 0 and len(out.splitlines()) == 23
        assert forks == []

    def test_closed_table_never_loads_numpy(self):
        # in a fresh interpreter, whose os.fork refuses: the fast oracle still runs after it, on numpy
        script = """
import contextlib, io, os, sys
from benford2 import cli

def refused():
    raise AssertionError("table1 forked")

os.fork = refused
for fmt in ("csv", "json"):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["table1", "--kmax", "24", "--format", fmt])
    assert code == 0 and "numpy" not in sys.modules, f"table1 --format {fmt} loaded numpy"
    print(fmt, len(out.getvalue().splitlines()))
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["table1", "--kmax", "3", "--backend", "fast"])
print(code, "numpy" in sys.modules, out.getvalue().splitlines()[-1].split(",")[1])
"""
        result = run_fresh(script)
        assert result.stderr == ""
        assert result.stdout == "csv 25\njson 146\n0 True 0.581339\n"

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--k", "3", "--backend", "closed"], ["table1", "--kmax", "25"]],
        ids=" ".join,
    )
    def test_closed_refusals_are_usage_errors(self, capsys, argv):
        # solve has no closed backend; table1 keeps the depth budget of 24 on every backend
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""

    def test_oracle_convergence_failure_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "table1", "--kmax", "3", "--backend", "fast", "--tolerance", "1e-30")
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: no convergence after 41 iterations"), err

    def test_tolerance_checked_before_any_fork(self, capsys, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table1", "--kmax", "20", "--tolerance", "0", "--backend", "fast"])
        assert excinfo.value.code == 2
        assert forks == []

    # the oracle tables solve every depth in this process, on any number of CPUs
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2}], ids=len)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kmax", [17, 18])
    def test_fan_out_keeps_bytes(self, capsys, monkeypatch, forks, kmax, fmt, cpus):
        argv = ["table1", "--kmax", str(kmax), "--format", fmt, "--backend", "fast"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        single = run_cli(capsys, *argv)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert run_cli(capsys, *argv) == single
        assert single[0] == 0 and forks == []
        rows = json.loads(single[1]) if fmt == "json" else single[1].splitlines()[1:]
        assert len(rows) == kmax
        assert_no_children()

    @pytest.mark.parametrize(
        "argv",
        [["--kmax", "16", "--backend", "fast"], ["--kmax", "11", "--backend", "dense"]],
        ids=["--kmax 16", "--kmax 11 --backend dense"],
    )
    def test_small_tables_fork_nothing(self, capsys, monkeypatch, forks, argv):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        code, out, _ = run_cli(capsys, "table1", *argv)
        assert code == 0
        assert len(out.splitlines()) == int(argv[1]) + 1
        assert forks == []
        assert_no_children()

    @pytest.mark.parametrize("failure", ["raises", "convergence"])
    def test_failed_child_falls_back(self, capsys, monkeypatch, forks, failure):
        # "raises": depth 17 fails in a child only, and no child is forked;
        # "convergence": it fails everywhere, and the error is the one-CPU run's
        solve, parent = solver.solve, os.getpid()

        def flaky(depth, **kwargs):
            if depth == 17 and (failure == "convergence" or os.getpid() != parent):
                raise ConvergenceError(3, 1e-3, kwargs["tolerance"])
            return solve(depth, **kwargs)

        monkeypatch.setattr(solver, "solve", flaky)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        argv = ["table1", "--kmax", "17", "--backend", "fast"]
        single = run_cli(capsys, *argv)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert run_cli(capsys, *argv) == single
        assert single[0] == (0 if failure == "raises" else 1)
        assert forks == []
        assert_no_children()

    def test_no_child_outlives_interrupt(self, capsys, monkeypatch, forks):
        solve = solver.solve

        def interrupted(depth, **kwargs):
            if depth == 5:  # before depth 17, which no child solves
                raise KeyboardInterrupt
            return solve(depth, **kwargs)

        monkeypatch.setattr(solver, "solve", interrupted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(KeyboardInterrupt):
            cli.main(["table1", "--kmax", "17", "--backend", "fast"])
        assert forks == []
        assert_no_children()


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])  # k = 8: 16 pieces, joined by commas
    def test_json_is_json_dumps_of_the_dense_matrix(self, capsys, k):
        labels = [format(value, "b") for value in range(1 << k, 2 << k)]
        dense = transition.build_dense(k)
        entries = [
            {"x_bits": x, "alpha_bits": a, "value": float(dense[i, j])}
            for i, x in enumerate(labels)
            for j, a in enumerate(labels)
        ]
        code, out, _ = run_cli(capsys, "matrix", "--k", str(k), "--format", "json")
        assert code == 0
        assert out == json.dumps({"k": k, "entries": entries}, indent=2) + "\n"

    @pytest.mark.parametrize("chunk_bits", [1, 2])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunk_size_keeps_bytes(self, capsys, monkeypatch, chunk_bits, fmt):
        # a piece of 2 or 4 entries is shorter than a target row of 8: the rows straddle pieces
        assert_piece_size_keeps_bytes(capsys, monkeypatch, chunk_bits, "matrix", "--k", "3", "--format", fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_write_holds_one_piece(self, monkeypatch, forks, fmt):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        writes = recorded_writes(monkeypatch)
        assert cli.main(["matrix", "--k", "8", "--format", fmt]) == 0
        assert forks == []  # 4^8 = 2^16 entries, not past 2^CHUNK_BITS: nothing forks
        entries = [text.count('"value"') if fmt == "json" else text.count("\n") for text in writes]
        # the head (in CSV one line), 16 pieces of 2^12 entries each, the tail
        assert entries == [1 if fmt == "csv" else 0, *[1 << 12] * 16, 0]

    def test_peak_rss_is_the_matrix_and_one_row(self):
        # build_dense's 4^8 floats and its 4^8-byte mask; the entries are written a piece of 2^12 at a time
        assert peak_over_start_kib("matrix", "--k", "8") < (8 + 1) * (1 << 16) // 1024 + PIECE_KIB


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
            ["--riemann-depths", ",".join(["24"] * 9)],
            ["--riemann-depths", ",".join(["24"] * 8 + ["1"])],
            ["--suite", "integral", "--riemann-depths", "10,10"],
            ["--suite", "harmonic", "--harmonic-levels", "6,6"],
            ["--suite", "matrix", "--oracle-paddings", "8,8"],
            ["--suite", "integral", "--riemann-depths", "6,,8"],
            ["--suite", "matrix", "--oracle-paddings", "8,"],
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
        parameters = inspect.signature(analytic.run_suite).parameters.values()
        keywords = {p.name: p.default for p in parameters if p.kind is inspect.Parameter.KEYWORD_ONLY}
        assert flags == keywords

    def test_failing_report_exits_1(self, capsys, monkeypatch):
        failing = VerificationReport(identity="demo", params="p", error=1.0, bound=0.5)
        monkeypatch.setattr(analytic, "run_suite", lambda *a, **k: [failing])
        code, out, _ = run_cli(capsys, "verify", "--suite", "harmonic")
        assert code == 1
        assert out.startswith("FAIL demo")

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_exits_1(self, capsys, monkeypatch, forks, name):
        # on two CPUs the child runs series and harmonic with the patch it
        # inherited, so a wrong reference law fails there too
        wrong, failing = MUTATIONS[name]
        monkeypatch.setattr(analytic, name, wrong)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 1
        assert {line.split(" ")[1] for line in out.splitlines() if line.startswith("FAIL ")} == failing
        assert len(forks) == 1
        assert_no_children()

    @pytest.mark.parametrize(
        "case", ["", "--seed 7", "--seed 123", "smoke", "smoke --out", "--suite integral", "--suite series"]
    )
    def test_fan_out_keeps_bytes(self, capsys, monkeypatch, tmp_path, forks, case):
        argv = ["verify", *case.split()]
        if case.startswith("smoke"):
            monkeypatch.syspath_prepend(str(PERFBENCH))
            workloads = importlib.import_module("workloads")
            argv = workloads.commands("verify_all", analytic.DEFAULT_SEED, smoke=True)[0] + argv[2:]
        target = tmp_path / "out.txt"
        if case.endswith("--out"):
            argv.append(str(target))
        suites = 1 if "--suite" in case else len(analytic.SUITES)

        def run(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            del forks[:]
            code, out, err = run_cli(capsys, *argv)
            written = target.read_text() if case.endswith("--out") else None
            return code, out, err, written, len(forks)

        single = run({0})
        assert single[0] == 0 and single[4] == 0
        for cpus in ({0, 1}, {0, 1, 2}, {0, 1, 2, 3}):
            assert run(cpus) == single[:4] + (min(len(cpus), suites) - 1,)
            assert_no_children()

    @pytest.mark.parametrize("failure", ["child-only", "everywhere"])
    def test_failed_child_falls_back(self, capsys, monkeypatch, forks, failure):
        # series is suite 1, which the child runs on two CPUs.  "child-only":
        # it raises there alone, so this process runs it; "everywhere": it
        # raises here too, and the error is the one-CPU run's
        check, parent = analytic._check_series, os.getpid()

        def flaky(*args):
            if failure == "everywhere" or os.getpid() != parent:
                raise ValueError("the series suite failed")
            check(*args)

        def run(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            try:
                return run_cli(capsys, *VERIFY_QUICK)
            except SystemExit as exc:
                return exc.code, *capsys.readouterr()

        monkeypatch.setattr(analytic, "_check_series", flaky)
        single = run({0})
        assert run({0, 1}) == single
        if failure == "child-only":
            assert (single[0], single[2]) == (0, "")
        else:
            assert single[0] == 2 and single[2].endswith("error: the series suite failed\n")
        assert len(forks) == 1
        assert_no_children()

    def test_no_child_outlives_interrupt(self, monkeypatch, forks):
        def interrupted(*args):  # in this process, while the child runs series
            raise KeyboardInterrupt

        monkeypatch.setattr(analytic, "_check_matrix", interrupted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(KeyboardInterrupt):
            cli.main(VERIFY_QUICK)
        assert len(forks) == 1
        assert_no_children()

    def test_process_runs_only_its_own_suites(self, capsys, monkeypatch):
        # a suite whose reports marshal refused (a Fraction, say) would be run
        # here again, and its speed-up lost without a visible failure
        ran = []
        for name in analytic.SUITES:

            def recorded(*args, check=getattr(analytic, f"_check_{name}"), name=name):
                ran.append(name)  # a child's appends stay in the child
                check(*args)

            monkeypatch.setattr(analytic, f"_check_{name}", recorded)
        own = {1: list(analytic.SUITES), 2: ["matrix", "integral"], 3: ["matrix", "harmonic"], 4: ["matrix"]}
        for cpus, suites in own.items():
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            del ran[:]
            assert run_cli(capsys, *VERIFY_QUICK)[0] == 0
            assert ran == suites
        assert_no_children()

    @pytest.mark.parametrize("suite, lines", [("series", 2), ("harmonic", 9)], ids=["series", "harmonic"])
    def test_suite_forks_nothing_and_never_loads_numpy(self, suite, lines):
        script = f"""
import contextlib, io, os, sys
from benford2 import cli

def no_fork():
    raise AssertionError("verify --suite {suite} forked")

os.sched_getaffinity, os.fork = (lambda pid: {{0, 1, 2, 3}}), no_fork
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["verify", "--suite", "{suite}"])
print(code, len(out.getvalue().splitlines()), "numpy" in sys.modules)
"""
        result = run_fresh(script)
        assert result.stderr == ""
        assert result.stdout == f"0 {lines} False\n"


class TestEmpiricalCommand:
    def test_rearranged_demo(self, capsys):
        code, out, _ = run_cli(capsys, "empirical", "--family", "rearranged", "--n", "10000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sequence,multiple_of_four_freq"
        freqs = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
        assert freqs["natural"] == pytest.approx(0.25, abs=1e-3)
        assert freqs["rearranged"] == pytest.approx(0.5, abs=1e-3)

    def test_rearranged_demo_holds_no_sequence(self):
        # 200 000 ints in a list would be about 7 MB
        code, small_kib = spawn_peak_rss("empirical", "--family", "rearranged", "--n", "4")
        assert code == 0
        code, peak_kib = spawn_peak_rss("empirical", "--family", "rearranged", "--n", "200000")
        assert code == 0
        assert peak_kib < small_kib + 2 * 1024

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

        monkeypatch.setattr(empirical, "generate_blocks", never_generated)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["empirical", "--family", "fibonacci", "--n", "200000", "--bits", "40"])
        assert excinfo.value.code == 2
        assert "report rows" in capsys.readouterr().err

    def test_never_loads_numpy(self):
        script = """
import contextlib, hashlib, io, sys
import benford2
from benford2 import _fanout, cli
assert "numpy" not in sys.modules, "import benford2 loaded numpy"
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["empirical", "--family", "pow3", "--n", "200", "--bits", "2"])
assert code == 0 and "numpy" not in sys.modules, "empirical loaded numpy"
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["solve", "--k", "3"])
print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())
"""
        result = run_fresh(script)
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

        monkeypatch.setattr(analytic, "run_suite", must_not_run)
        target = tmp_path / "missing_dir" / "x.txt"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--out", str(target)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            f"benford2: error: cannot write {target}: No such file or directory"
        ]
