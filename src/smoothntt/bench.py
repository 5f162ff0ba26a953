"""Instrumented counting and wall-clock comparison of the FFT kernels.

Ratios against the n^2-multiplication direct transform are exact rationals
derived from the closed-form counts; wall clock uses a monotonic nanosecond
timer with the median over a fixed number of trials on pre-generated seeded
inputs.  The direct transform is only timed up to a size cutoff; above it
the analytic counts alone tell the story.

One table, `_CSV_COLUMNS`, defines the CSV layout: each column's name sits
beside the cell it renders from a report, so `CSV_HEADER` and every row
are joins over the same table.
"""

import operator
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


def _median_ns(fn, plan: TransformPlan, vectors: list[np.ndarray]) -> int:
    """Median wall clock of fn(plan, v) over the vectors, in nanoseconds."""
    samples = []
    for v in vectors:
        t0 = time.perf_counter_ns()
        fn(plan, v)
        samples.append(time.perf_counter_ns() - t0)
    return int(round(statistics.median(samples)))


def _ratio(naive: int, fast: int) -> Fraction:
    """naive / fast, or 0 when the fast transform runs no such operation (n = 1)."""
    return Fraction(naive, fast) if fast else Fraction(0)


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
    one of VARIANTS; a non-integer `trials` raises TypeError there too.
    """
    trials = operator.index(trials)
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
        mult_ratio=_ratio(naive_mults, predicted.multiplications),
        add_ratio=_ratio(naive_adds, predicted.additions),
        wall_clock_fft_ns=_median_ns(kernel, plan, vectors),
        wall_clock_naive_ns=_median_ns(dft_naive, plan, vectors)
        if plan.n <= measure_naive_up_to
        else None,
    )


def format_ratio(ratio: Fraction) -> str:
    """Exact decimal when the rational terminates in base 10, else "num/den"."""
    # The decimal has d digits for the smallest d with ratio * 10^d an
    # integer.  A denominator 2^a * 5^b needs d = max(a, b), which is below
    # its bit length, so a d in that range exists exactly when the decimal
    # terminates; the first one found leaves no trailing zero.  The digits
    # are those of |ratio|, so a negative ratio gets one leading sign.
    for d in range(ratio.denominator.bit_length()):
        scaled, rest = divmod(abs(ratio.numerator) * 10**d, ratio.denominator)
        if not rest:
            whole, frac = divmod(scaled, 10**d)
            return "-" * (ratio < 0) + (f"{whole}.{frac:0{d}d}" if d else str(whole))
    return f"{ratio.numerator}/{ratio.denominator}"


def _radices_str(radices: tuple[int, ...]) -> str:
    return "*".join(str(r) for r in radices) if radices else "1"


# (column name, cell) pairs in CSV order; a direct transform above the
# timing cutoff leaves its t_naive_ns cell empty, not zero.
_CSV_COLUMNS = (
    ("p", lambda r: str(r.p)),
    ("n", lambda r: str(r.n)),
    ("radices", lambda r: _radices_str(r.radices)),
    ("variant", lambda r: r.variant),
    ("meas_mul", lambda r: str(r.measured.multiplications)),
    ("meas_add", lambda r: str(r.measured.additions)),
    ("pred_mul", lambda r: str(r.predicted.multiplications)),
    ("pred_add", lambda r: str(r.predicted.additions)),
    ("naive_mul", lambda r: str(r.naive_mults)),
    ("naive_add", lambda r: str(r.naive_adds)),
    ("mult_ratio", lambda r: format_ratio(r.mult_ratio)),
    ("add_ratio", lambda r: format_ratio(r.add_ratio)),
    ("t_fft_ns", lambda r: str(r.wall_clock_fft_ns)),
    ("t_naive_ns", lambda r: "" if r.wall_clock_naive_ns is None else str(r.wall_clock_naive_ns)),
)

CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)


def emit_report(report: BenchReport, format: str = "human") -> str:
    """Deterministic rendering of a report; `_CSV_COLUMNS` fixes the CSV columns."""
    if format == "csv":
        row = ",".join(cell(report) for _, cell in _CSV_COLUMNS)
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
