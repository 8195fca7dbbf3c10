"""benford2 benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload solve_write --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the program is taken from
``src/benford2`` there.  One client drives the CLI in a closed loop: one
``python -m benford2.cli`` child at a time, stdout drained from a pipe in
chunks, peak RSS read from ``os.wait4``.  The checks of each command's
output run after it exits, outside the timed region.  Times are scaled
to reference speed (see ``run_untraced``); README.md says why.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the same commands in-process through ``benford2.cli.main`` with spans
around each layer (see ``spans.py``) and reports the per-layer metrics.
The last stdout line is the result object; the line before it is the run
record.  Both, and the spans of a traced run, are also written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checker
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
LAUNCHER = Path(__file__).resolve().with_name("launch.py")
SETUP_LAUNCHES = 10  # timed bare launches per run; set-up is their median
REFERENCE_S = 0.05  # nominal time of reference_task(); scaled times are at this speed
CHUNK = 1 << 20


@dataclass
class Launch:
    wall: float  # seconds from spawn to reaped exit, stdout drained
    rss_mb: float
    exit_code: int
    text: str
    p10_err: float | None = None  # set by the check


def launch(argv: list[str], env: dict[str, str]) -> Launch:
    """Run one CLI child to completion, draining stdout; not checked here."""
    report_r, report_w = os.pipe()
    cmd = [sys.executable, str(LAUNCHER), str(report_w), sys.executable, "-m", "benford2.cli", *argv]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, pass_fds=(report_w,)) as proc:
        os.close(report_w)
        chunks = []
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, CHUNK):
            chunks.append(chunk)
    with os.fdopen(report_r) as report:
        fields = report.read().split()
    if proc.returncode != 0 or len(fields) != 3:
        raise RuntimeError(f"launcher failed with exit code {proc.returncode}: {' '.join(cmd)}")
    wall, rss_kib, exit_code = fields
    return Launch(float(wall), int(rss_kib) / 1024, int(exit_code), b"".join(chunks).decode())


class Checks:
    """Checks outputs against the oracle and counts invocations attempted and failed.

    An output byte-identical to one that already passed passes.
    """

    def __init__(self) -> None:
        self.oracle = checker.Oracle()
        self.attempted = 0
        self.failures: list[str] = []
        self._passed: dict[tuple[str, ...], tuple[str, checker.Verdict]] = {}

    def record(self, argv: list[str], verdict: checker.Verdict) -> None:
        self.attempted += 1
        if not verdict.ok:
            self.failures.append(f"{' '.join(argv)}: {verdict.detail}")

    def __call__(self, argv: list[str], exit_code: int, text: str) -> checker.Verdict:
        key = tuple(argv)
        seen = self._passed.get(key)
        if exit_code == 0 and seen is not None and seen[0] == text:
            verdict = seen[1]
        else:
            verdict = checker.check(argv, exit_code, text, self.oracle)
            if verdict.ok:
                self._passed[key] = (text, verdict)
        self.record(argv, verdict)
        return verdict


def checked_launch(argv: list[str], env: dict[str, str], checks: Checks) -> Launch:
    result = launch(argv, env)
    result.p10_err = checks(argv, result.exit_code, result.text).p10_err
    result.text = ""
    return result


def reference_task() -> float:
    """Seconds taken by a fixed mix of interpreter, allocation and copy work.

    About 50 ms on a 2-vCPU Xeon VM.  It shares nothing with benford2, so
    only the machine's speed moves it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    ",".join([repr(i / 7) for i in range(25_000)])
    bytes(bytearray(8 << 20))
    return time.perf_counter() - start


def run_untraced(args: argparse.Namespace, checks: Checks) -> tuple[dict, dict]:
    """Cycle through the workload's commands until ``args.seconds`` of them are timed.

    A reference task is timed before the first launch and after every
    launch, and each launch's wall time is also scaled to reference speed:
    multiplied by REFERENCE_S over the mean of the reference times just
    before and just after it.  The machine's speed drifts by tens of
    percent over minutes on a shared host; the scaled times cancel most of
    that drift.  The timed bare launches that make up set-up are spread
    evenly over the run, so they sample the same conditions as the
    commands.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmds = workloads.commands(args.workload, args.seed, args.smoke)
    keys = [" ".join(argv) for argv in cmds]
    log: list[tuple[str, float, float]] = []  # (command or "setup", wall, peak RSS), in launch order
    p10_errs: list[float] = []

    checked_launch(workloads.SETUP_COMMAND, env, checks)  # warm-up: bytecode cache, page cache
    references = [reference_task()]
    setups = measured = i = 0
    while i < len(cmds) or measured < args.seconds or setups < args.setup_launches:
        if setups < args.setup_launches and measured >= setups * args.seconds / args.setup_launches:
            key, argv = "setup", workloads.SETUP_COMMAND
            setups += 1
        else:
            key, argv = keys[i % len(cmds)], cmds[i % len(cmds)]
            i += 1
        result = checked_launch(argv, env, checks)
        references.append(reference_task())
        log.append((key, result.wall, result.rss_mb))
        if key != "setup":
            measured += result.wall
            if result.p10_err is not None:
                p10_errs.append(result.p10_err)
    probe = None
    if not p10_errs:
        probe = workloads.accuracy_probe(args.smoke)
        p10_errs.append(checked_launch(probe, env, checks).p10_err)

    raw: dict[str, list[float]] = {key: [] for key in keys + ["setup"]}
    scaled: dict[str, list[float]] = {key: [] for key in keys + ["setup"]}
    rss: dict[str, list[float]] = {key: [] for key in keys}
    for (key, wall, peak), before, after in zip(log, references, references[1:]):
        raw[key].append(wall)
        scaled[key].append(wall * REFERENCE_S * 2 / (before + after))
        if key != "setup":
            rss[key].append(peak)
    setup_raw, setup_scaled = raw.pop("setup"), scaled.pop("setup")
    values = {
        "wall_s": (sum(statistics.median(times) for times in scaled.values()), scaled),
        "setup_s": (statistics.median(setup_scaled), setup_scaled),
        "peak_rss_mb": (max(statistics.median(peaks) for peaks in rss.values()), rss),
        "p10_err": (max(p10_errs), p10_errs),
    }
    extra = {
        "unscaled": {
            "wall_s": sum(statistics.median(times) for times in raw.values()),
            "setup_s": statistics.median(setup_raw),
        },
        "launches": log,
        "reference_task_s": references,
        "accuracy_probe": " ".join(probe) if probe else None,
    }
    return values, extra


class Sink(io.TextIOBase):
    """Stand-in for stdout during an in-process call.

    Keeps references to the written strings rather than copying them, so
    the sink adds nothing to the time charged to the CLI's writer.
    """

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


def call_main(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the run must go on to report the failure
        traceback.print_exc()
        return -1


def run_traced(args: argparse.Namespace, checks: Checks) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    cli = importlib.import_module("benford2.cli")
    import_s = time.perf_counter() - start
    modules = {name: importlib.import_module(f"benford2.{name}") for name in ("solver", "transition", "analytic", "empirical")}

    tracer = spans.Tracer()
    targets = spans.instrument(tracer, cli, **modules)
    cmds = workloads.commands(args.workload, args.seed, args.smoke)

    untraced_walls, traced = [], []  # traced: (wall, spans of the pass, stdout bytes)
    begin = time.perf_counter()
    while len(traced) < 1 or not untraced_walls or time.perf_counter() - begin < args.seconds:
        is_traced = len(untraced_walls) > len(traced)  # alternate, untraced first
        first_span = len(tracer.spans)
        outputs = []
        pass_start = time.perf_counter()
        with spans.patched(targets if is_traced else []):
            for i, argv in enumerate(cmds):
                sink = Sink()
                tracer.request = f"pass{len(traced)}/cmd{i}"
                with redirect_stdout(sink):
                    if is_traced:
                        with tracer.span("cli.main", argv=" ".join(argv)):
                            code = call_main(cli.main, argv)
                    else:
                        code = call_main(cli.main, argv)
                outputs.append((argv, code, sink))
        wall = time.perf_counter() - pass_start
        stdout_bytes = 0
        for argv, code, sink in outputs:
            text = sink.text()
            stdout_bytes += len(text.encode())
            checks(argv, code, text)
        if is_traced:
            traced.append((wall, tracer.spans[first_span:], stdout_bytes))
        else:
            untraced_walls.append(wall)

    per_pass = []
    for wall, pass_spans, stdout_bytes in traced:
        figures = spans.layer_metrics(pass_spans)
        figures["cli.stdout_bytes"] = stdout_bytes
        figures["trace.gap_s"] = wall - sum(s.duration for s in pass_spans if s.parent is None)
        per_pass.append(figures)
    values = {name: (statistics.median(p[name] for p in per_pass), [p[name] for p in per_pass]) for name in per_pass[0]}
    traced_walls = [wall for wall, _, _ in traced]
    values["cli.import_s"] = (import_s, [import_s])
    values["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls),
        {"traced_pass_s": traced_walls, "untraced_pass_s": untraced_walls},
    )
    values.update(time_suites(cli, modules["analytic"], cmds, checks))

    span_list = [s for _, pass_spans, _ in traced for s in pass_spans]
    top_level = sum(s.duration for s in span_list if s.parent is None)
    layer_self = {k: v / len(traced) for k, v in spans.layer_self_times(span_list).items()}
    extra = {
        "passes": {"traced": len(traced_walls), "untraced": len(untraced_walls)},
        "layer_self_s_per_pass": layer_self,
        "dominant_layer": max(layer_self, key=layer_self.get),
        "accounting": {
            "inprocess_wall_s": import_s + sum(traced_walls),
            "import_plus_top_level_spans_s": import_s + top_level,
            "gap_s": sum(traced_walls) - top_level,
        },
        "computed": {"transition.apply_fast_bytes": "input read once + output written once, 16 B per entry per call"},
        "spans": tracer,
    }
    return values, extra


def time_suites(cli, analytic, cmds: list[list[str]], checks: Checks) -> dict:
    """analytic.<suite>_s: each suite run alone with the verify command's budget, untraced."""
    times = {f"analytic.{suite}_s": 0.0 for suite in analytic.SUITES}
    for argv in cmds:
        if argv[0] != "verify":
            continue
        ns = cli.build_parser().parse_args(argv)
        for suite in analytic.SUITES:
            start = time.perf_counter()
            reports = analytic.run_suite(
                suite,
                riemann_depths=ns.riemann_depths,
                series_length=ns.series_length,
                harmonic_levels=ns.harmonic_levels,
                oracle_depth=ns.oracle_depth,
                oracle_paddings=ns.oracle_paddings,
                samples=ns.samples,
                seed=ns.seed,
            )
            times[f"analytic.{suite}_s"] += time.perf_counter() - start
            ok = all(report.passed for report in reports)
            checks.record(["run_suite", suite], checker.Verdict(ok, "" if ok else "a check failed"))
    return {name: (value, [value]) for name, value in times.items()}


def machine() -> dict:
    """Commit, processors, interpreter and numpy versions, L3 size."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "l3_bytes": l3,
        "platform": platform.platform(),
    }


def sample_count(raw: list | dict) -> int | dict:
    """Samples behind a value: a count, or one count per command."""
    return {key: len(v) for key, v in raw.items()} if isinstance(raw, dict) else len(raw)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve_write", "table_deep", "verify_all", "empirical_seq"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.setup_launches = 3 if args.smoke else SETUP_LAUNCHES
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "benford2" / "cli.py").is_file():
        print(f"error: no benford2 sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    checks = Checks()
    values, extra = (run_traced if args.trace else run_untraced)(args, checks)
    if set(values) != set(declared):
        print(f"error: measured {sorted(values)}, BENCHMARK.json declares {sorted(declared)}", file=sys.stderr)
        return 3

    tracer = extra.pop("spans", None)
    failed = len(checks.failures)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "commands": [" ".join(argv) for argv in workloads.commands(args.workload, args.seed, args.smoke)],
        "machine": machine(),
        "attempted": checks.attempted,
        "failed": failed,
        "fail_ratio": failed / checks.attempted,
        "failures": checks.failures[:5],
        "metrics": {
            name: {"value": values[name][0], "unit": unit, "samples": sample_count(values[name][1]), "raw": values[name][1]}
            for name, unit in declared.items()
        },
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run_{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT_DIR / f"spans_{tag}.json").write_text(json.dumps(tracer.dump()) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
