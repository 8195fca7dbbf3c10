"""The command lines of each workload; BENCHMARK.json says why each exists.

A workload is a fixed sequence of ``benford2.cli`` invocations.  The seed
reaches the program only as ``verify --seed``; every other command is the
same for every seed.  ``smoke`` selects reduced sizes that exercise the
same layers in seconds, for the benchmark's own tests.
"""

from __future__ import annotations

# verify's own default seed, so that a default run checks the same random
# grid as a bare ``benford2 verify``.
DEFAULT_SEED = 20260809

# Bare launch timed as set-up: interpreter start, ``import benford2``, argparse.
SETUP_COMMAND = ["solve", "--k", "1"]


def commands(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    if workload == "solve_write":
        sizes = ("8", "6", "3") if smoke else ("20", "18", "8")
        lines = [
            f"solve --k {sizes[0]}",
            f"solve --k {sizes[1]} --format json",
            f"matrix --k {sizes[2]}",
        ]
    elif workload == "table_deep":
        sizes = ("8", "5") if smoke else ("22", "11")
        lines = [f"table1 --kmax {sizes[0]}", f"table1 --kmax {sizes[1]} --backend dense"]
    elif workload == "verify_all":
        budget = (
            " --riemann-depths 6,8 --series-length 5 --harmonic-levels 6,8"
            " --oracle-depth 3 --oracle-paddings 4,8 --samples 2"
            if smoke
            else ""
        )
        lines = [f"verify --suite all{budget} --seed {seed}"]
    elif workload == "empirical_seq":
        n, n_factorial = ("3000", "500") if smoke else ("200000", "20000")
        lines = [
            f"empirical --family pow3 --n {n} --bits 3",
            f"empirical --family fibonacci --n {n} --bits 3",
            f"empirical --family factorial --n {n_factorial} --bits 3",
            f"empirical --family rearranged --n {n}",
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [line.split(" ") for line in lines]


def accuracy_probe(smoke: bool = False) -> list[str]:
    """Run once, untimed, where a workload prints no p10 of its own."""
    return ["table1", "--kmax", "6" if smoke else "16"]
