"""In-memory spans around calls into benford2's layers, timed from outside.

The program is not modified: :func:`instrument` swaps the module attributes
that callers look up (``benford2.cli.solve``, ``benford2.solver.apply_fast``,
``benford2.analytic.series_partial_sum`` ...) for wrappers that open a span
or bump a counter, and :func:`patched` puts the originals back.  Spans keep
their parent, so a layer's self time is its duration minus the time of its
direct children.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

# Bytes one matrix-free product must move at the least: the input vector
# read once and the output written once, 8 bytes per float64 entry.
APPLY_FAST_BYTES_PER_ENTRY = 16
WINDOW_FAMILIES = ("pow3", "fibonacci", "factorial")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    request: str  # the command invocation this span belongs to
    name: str
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by direct child spans
    attrs: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)  # calls counted while this span was innermost

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Collects spans and per-span call counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.request = ""

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, self.request, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child += span.duration

    def spanned(self, fn: Callable, name: str, describe: Callable = None, summarize: Callable = None) -> Callable:
        """``fn`` wrapped in a span; ``describe(*args)`` and ``summarize(result)`` add attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(describe(*args, **kwargs) if describe else {})) as span:
                result = fn(*args, **kwargs)
                if summarize:
                    span.attrs.update(summarize(result))
                return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """``fn`` with each call counted on the innermost open span; no span of its own."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self._stack[-1].counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> list[dict]:
        return [dict(vars(span), counts=dict(span.counts), duration=span.duration, self_time=span.self_time) for span in self.spans]


def instrument(tracer: Tracer, cli, solver, transition, analytic, empirical) -> list[tuple[object, str, Callable]]:
    """(module, attribute, wrapper) for every layer boundary the CLI crosses."""
    solve = tracer.spanned(
        solver.solve,
        "solver.solve",
        describe=lambda depth, *a, **kw: {"depth": depth},
        summarize=lambda report: {"iterations": report.iterations},
    )
    build_dense = tracer.spanned(transition.build_dense, "transition.build_dense")
    return [
        (cli, "solve", solve),
        (solver, "solve", solve),
        (cli, "convergence_table", tracer.spanned(solver.convergence_table, "solver.convergence_table")),
        (
            solver,
            "apply_fast",
            tracer.spanned(
                solver.apply_fast,
                "transition.apply_fast",
                describe=lambda vector, depth: {"bytes": APPLY_FAST_BYTES_PER_ENTRY << depth},
            ),
        ),
        (solver, "apply_dense", tracer.spanned(solver.apply_dense, "transition.apply_dense")),
        (solver, "build_dense", build_dense),
        (transition, "build_dense", build_dense),
        (
            analytic,
            "run_suite",
            tracer.spanned(
                analytic.run_suite,
                "analytic.run_suite",
                summarize=lambda reports: {
                    "checks": len(reports),
                    "failed": sum(not report.passed for report in reports),
                },
            ),
        ),
        (analytic, "series_partial_sum", tracer.counted(analytic.series_partial_sum, "analytic.series_partial_sum")),
        (analytic, "brute_force_element", tracer.counted(analytic.brute_force_element, "transition.brute_force_element")),
        (
            empirical,
            "generate_blocks",
            tracer.spanned(
                empirical.generate_blocks,
                "empirical.generate_blocks",
                describe=lambda spec: {"family": spec.family, "terms": spec.count},
            ),
        ),
        (empirical, "frequency_report", tracer.spanned(empirical.frequency_report, "empirical.frequency_report")),
        (
            empirical,
            "rearrangement_demo",
            tracer.spanned(
                empirical.rearrangement_demo,
                "empirical.rearrangement_demo",
                describe=lambda count: {"family": "rearranged", "terms": count},
            ),
        ),
        (empirical, "leading_block", tracer.counted(empirical.leading_block, "empirical.leading_block")),
    ]


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]) -> Iterator[None]:
    originals = [(module, name, getattr(module, name)) for module, name, _ in targets]
    try:
        for module, name, wrapper in targets:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass over a workload's commands."""

    def of(name: str) -> list[Span]:
        return [span for span in spans if span.name == name]

    def total(name: str) -> float:
        return sum(span.duration for span in of(name))

    def counted(name: str) -> int:
        return sum(span.counts[name] for span in spans)

    generated = of("empirical.generate_blocks") + of("empirical.rearrangement_demo")
    generate_s = sum(span.duration for span in generated)
    metrics = {
        "cli.main_s": total("cli.main"),
        "cli.self_s": sum(span.self_time for span in of("cli.main")),
        "solver.solve_s": total("solver.solve"),
        "solver.self_s": sum(span.self_time for span in of("solver.solve")),
        "solver.solves": len(of("solver.solve")),
        "solver.iterations": sum(span.attrs["iterations"] for span in of("solver.solve")),
        "transition.apply_fast_s": total("transition.apply_fast"),
        "transition.apply_fast_calls": len(of("transition.apply_fast")),
        "transition.apply_fast_bytes": sum(span.attrs["bytes"] for span in of("transition.apply_fast")),
        "transition.build_dense_s": total("transition.build_dense"),
        "transition.apply_dense_s": total("transition.apply_dense"),
        "analytic.series_partial_sum_calls": counted("analytic.series_partial_sum"),
        "transition.brute_force_element_calls": counted("transition.brute_force_element"),
        "analytic.checks": sum(span.attrs["checks"] for span in of("analytic.run_suite")),
        "analytic.failed": sum(span.attrs["failed"] for span in of("analytic.run_suite")),
        "empirical.report_s": total("empirical.frequency_report"),
        "empirical.terms_per_s": sum(span.attrs["terms"] for span in generated) / generate_s if generate_s else 0.0,
        "empirical.fallbacks": sum(
            span.counts["empirical.leading_block"]
            for span in of("empirical.generate_blocks")
            if span.attrs["family"] in WINDOW_FAMILIES
        ),
    }
    for family in WINDOW_FAMILIES + ("rearranged",):
        metrics[f"empirical.{family}_s"] = sum(span.duration for span in generated if span.attrs["family"] == family)
    return metrics


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer, the layer being the span name's prefix."""
    out: Counter = Counter()
    for span in spans:
        out[span.name.split(".")[0]] += span.self_time
    return dict(out)
