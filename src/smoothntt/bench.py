"""Instrumented counting and wall-clock comparison of the FFT kernels.

Ratios against the n^2-multiplication direct transform are exact rationals
derived from the closed-form counts; wall clock uses a monotonic nanosecond
timer with the median over a fixed number of trials on pre-generated seeded
inputs.  The direct transform is only timed up to a size cutoff; above it
the analytic counts alone tell the story.
"""

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import FieldParams
from .transform import (
    OpCounts,
    TransformPlan,
    dft_naive,
    fft_recursive,
    fft_twiddle,
    plan_transform,
    predicted_counts,
    RECURSIVE,
    TWIDDLE,
    VARIANTS,
)

DEFAULT_NAIVE_CUTOFF = 1 << 14
DEFAULT_TRIALS = 5
_INPUT_SEED = 0x5EED

CSV_HEADER = (
    "p,n,radices,variant,meas_mul,meas_add,pred_mul,pred_add,"
    "naive_mul,naive_add,mult_ratio,add_ratio,t_fft_ns,t_naive_ns"
)


class CountMismatch(RuntimeError):
    """Instrumented tallies disagreed with the closed-form prediction."""


@dataclass(frozen=True)
class BenchReport:
    """One benchmarked configuration with exact counts and timings."""

    p: int
    n: int
    radices: tuple[int, ...]
    variant: str
    measured: OpCounts
    predicted: OpCounts
    naive_mults: int
    naive_adds: int
    mult_ratio: Fraction
    add_ratio: Fraction
    wall_clock_fft_ns: int
    wall_clock_naive_ns: int | None


def _median_ns(samples: list[int]) -> int:
    return int(round(statistics.median(samples)))


def run_benchmark(
    params: FieldParams,
    n: int,
    radices: list[int] | tuple[int, ...] | None = None,
    variant: str = TWIDDLE,
    *,
    measure_naive_up_to: int = DEFAULT_NAIVE_CUTOFF,
    trials: int = DEFAULT_TRIALS,
) -> BenchReport:
    """Run one instrumented and timed configuration.

    One counted run pins measured == predicted (hard failure otherwise);
    `trials` timed runs per kernel give the median wall clock.  The direct
    transform is timed only when n <= measure_naive_up_to.  Raises
    ValueError, before any planning, unless trials >= 1 and variant is
    one of VARIANTS.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    plan = plan_transform(params, n, radices=radices)
    kernel = fft_recursive if variant == RECURSIVE else fft_twiddle
    predicted = predicted_counts(plan.n, plan.radices, variant)

    rng = np.random.default_rng(_INPUT_SEED)
    vectors = [
        rng.integers(0, params.p, plan.n, dtype=np.int64) for _ in range(trials)
    ]

    measured = OpCounts()
    kernel(plan, vectors[0], measured)
    if measured != predicted:
        raise CountMismatch(
            f"measured {measured} != predicted {predicted} "
            f"for n={plan.n} radices={plan.radices} variant={variant}"
        )

    fft_times = []
    for v in vectors:
        t0 = time.perf_counter_ns()
        kernel(plan, v)
        fft_times.append(time.perf_counter_ns() - t0)

    naive_ns = None
    if plan.n <= measure_naive_up_to:
        naive_times = []
        for v in vectors:
            t0 = time.perf_counter_ns()
            dft_naive(plan, v)
            naive_times.append(time.perf_counter_ns() - t0)
        naive_ns = _median_ns(naive_times)

    naive_mults = plan.n * plan.n
    naive_adds = plan.n * (plan.n - 1)
    return BenchReport(
        p=params.p,
        n=plan.n,
        radices=plan.radices,
        variant=variant,
        measured=measured,
        predicted=predicted,
        naive_mults=naive_mults,
        naive_adds=naive_adds,
        mult_ratio=Fraction(naive_mults, predicted.multiplications)
        if predicted.multiplications
        else Fraction(0),
        add_ratio=Fraction(naive_adds, predicted.additions)
        if predicted.additions
        else Fraction(0),
        wall_clock_fft_ns=_median_ns(fft_times),
        wall_clock_naive_ns=naive_ns,
    )


def format_ratio(ratio: Fraction) -> str:
    """Exact decimal when the rational terminates in base 10, else "num/den"."""
    den = ratio.denominator
    digits = 0
    for base in (2, 5):
        while den % base == 0:
            den //= base
            digits += 1
    if den != 1:
        return f"{ratio.numerator}/{ratio.denominator}"
    if ratio.denominator == 1:
        return str(ratio.numerator)
    scaled = ratio.numerator * 10**digits // ratio.denominator
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}".rstrip("0").rstrip(".")


def _radices_str(radices: tuple[int, ...]) -> str:
    return "*".join(str(r) for r in radices) if radices else "1"


def emit_report(report: BenchReport, format: str = "human") -> str:
    """Deterministic rendering of a report; CSV columns are fixed."""
    if format == "csv":
        naive_cell = (
            "" if report.wall_clock_naive_ns is None else str(report.wall_clock_naive_ns)
        )
        row = ",".join(
            [
                str(report.p),
                str(report.n),
                _radices_str(report.radices),
                report.variant,
                str(report.measured.multiplications),
                str(report.measured.additions),
                str(report.predicted.multiplications),
                str(report.predicted.additions),
                str(report.naive_mults),
                str(report.naive_adds),
                format_ratio(report.mult_ratio),
                format_ratio(report.add_ratio),
                str(report.wall_clock_fft_ns),
                naive_cell,
            ]
        )
        return f"{CSV_HEADER}\n{row}\n"
    if format != "human":
        raise ValueError(f"unknown format {format!r}")
    lines = [
        f"transform       F_{report.p}, n = {report.n}, "
        f"radices {_radices_str(report.radices)}, variant {report.variant}",
        f"fft counts      {report.measured.multiplications} mul, "
        f"{report.measured.additions} add (predicted "
        f"{report.predicted.multiplications} mul, {report.predicted.additions} add)",
        f"direct counts   {report.naive_mults} mul, {report.naive_adds} add",
        f"count ratios    x{format_ratio(report.mult_ratio)} mul, "
        f"x{format_ratio(report.add_ratio)} add",
        f"fft wall clock  {report.wall_clock_fft_ns} ns",
    ]
    if report.wall_clock_naive_ns is not None:
        lines.append(f"direct wall clock {report.wall_clock_naive_ns} ns")
        if report.wall_clock_fft_ns > 0:
            speedup = report.wall_clock_naive_ns / report.wall_clock_fft_ns
            lines.append(f"measured speedup  x{speedup:.1f}")
    else:
        lines.append("direct wall clock skipped (above cutoff)")
    return "\n".join(lines) + "\n"
