"""Benchmark reports: exact counts, ratio arithmetic, deterministic rendering."""

import dataclasses
import re
from fractions import Fraction

import pytest

from smoothntt.bench import (
    CSV_HEADER,
    emit_report,
    format_ratio,
    run_benchmark,
)
from smoothntt.field import FieldParams


@pytest.fixture(scope="module")
def tiny_report():
    return run_benchmark(FieldParams(5), 4, variant="recursive", trials=3)


@pytest.fixture(scope="module")
def headline_report():
    # the full-length field from the worked speedup example; direct
    # transform timing skipped by the default cutoff
    return run_benchmark(FieldParams(147457), 147456, variant="twiddle", trials=3)


def test_tiny_crossover(tiny_report):
    assert tiny_report.predicted.multiplications == 16
    assert tiny_report.naive_mults == 16
    assert tiny_report.mult_ratio == 1
    assert tiny_report.measured == tiny_report.predicted
    assert tiny_report.wall_clock_naive_ns is not None  # 4 <= cutoff


def test_headline_counts_and_ratios(headline_report):
    r = headline_report
    assert r.measured.multiplications == 2_949_120
    assert r.measured.additions == 2_654_208
    assert r.mult_ratio == Fraction(147456 * 147456, 2_949_120)
    assert r.mult_ratio == Fraction(36864, 5)  # 7372.8
    assert r.add_ratio == Fraction(147455, 18)
    assert r.wall_clock_naive_ns is None  # above cutoff


def test_csv_rendering(headline_report):
    text = emit_report(headline_report, "csv")
    lines = text.splitlines()
    assert len(lines) == 2  # one run + header
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_HEADER.split(","))
    assert cells[0] == "147457"
    assert cells[6] == "2949120"  # pred_mul
    assert cells[10] == "7372.8"  # mult_ratio
    assert cells[11] == "147455/18"  # add_ratio, non-terminating
    assert cells[13] == ""  # naive timing skipped: empty, not zero


def test_csv_naive_field_present_when_measured(tiny_report):
    cells = emit_report(tiny_report, "csv").splitlines()[1].split(",")
    assert cells[13] != ""
    assert int(cells[13]) >= 0


def test_human_rendering(tiny_report):
    text = emit_report(tiny_report, "human")
    assert "F_5" in text
    assert "16 mul" in text


def test_reports_deterministic_modulo_timing():
    def masked(report):
        cells = emit_report(report, "csv").splitlines()[1].split(",")
        cells[12] = cells[13] = "X"
        return cells

    a = run_benchmark(FieldParams(97), 96, variant="twiddle", trials=3)
    b = run_benchmark(FieldParams(97), 96, variant="twiddle", trials=3)
    assert masked(a) == masked(b)


def test_format_ratio():
    assert format_ratio(Fraction(36864, 5)) == "7372.8"
    assert format_ratio(Fraction(1, 1)) == "1"
    assert format_ratio(Fraction(1, 4)) == "0.25"
    assert format_ratio(Fraction(147455, 18)) == "147455/18"


def test_radices_column_format(tiny_report):
    cells = emit_report(tiny_report, "csv").splitlines()[1].split(",")
    # the radix schedule cell must not smuggle in extra CSV separators
    assert re.fullmatch(r"[0-9*]+", cells[2])
    assert cells[2] == "2*2"


@pytest.mark.parametrize("trials", [0, -2])
def test_nonpositive_trials_rejected_before_planning(trials):
    # n = 3 does not divide 4, so building the plan first would raise
    # NotADivisor instead.
    with pytest.raises(ValueError, match="trials"):
        run_benchmark(FieldParams(5), 3, trials=trials)


def test_non_integer_trials_rejected_before_planning():
    # Unconverted, trials=2.0 passed the trials check, so n = 3 raised
    # NotADivisor from planning (and a valid n failed later, in range()).
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        run_benchmark(FieldParams(5), 3, trials=2.0)


def test_unknown_variant_rejected_before_planning():
    # As above: a plan built first would raise NotADivisor instead.
    with pytest.raises(ValueError, match="unknown variant"):
        run_benchmark(FieldParams(5), 3, variant="Twiddle")


def test_csv_header_literal():
    assert CSV_HEADER == (
        "p,n,radices,variant,meas_mul,meas_add,pred_mul,pred_add,"
        "naive_mul,naive_add,mult_ratio,add_ratio,t_fft_ns,t_naive_ns"
    )


_TINY_LINES = (
    "transform       F_5, n = 4, radices 2*2, variant recursive\n"
    "fft counts      16 mul, 8 add (predicted 16 mul, 8 add)\n"
    "direct counts   16 mul, 12 add\n"
    "count ratios    x1 mul, x1.5 add\n"
    "fft wall clock  {fft} ns\n"
)
_HEADLINE_LINES = (
    "transform       F_147457, n = 147456, "
    "radices 2*2*2*2*2*2*2*2*2*2*2*2*2*2*3*3, variant twiddle\n"
    "fft counts      2949120 mul, 2654208 add (predicted 2949120 mul, 2654208 add)\n"
    "direct counts   21743271936 mul, 21743124480 add\n"
    "count ratios    x7372.8 mul, x147455/18 add\n"
    "fft wall clock  {fft} ns\n"
)
_HEADLINE_ROW = (
    "147457,147456,2*2*2*2*2*2*2*2*2*2*2*2*2*2*3*3,twiddle,2949120,2654208,"
    "2949120,2654208,21743271936,21743124480,7372.8,147455/18,"
)


@pytest.mark.parametrize(
    "which, fft_ns, naive_ns, csv_row, human_tail",
    [
        ("tiny", 0, None, "5,4,2*2,recursive,16,8,16,8,16,12,1,1.5,0,",
         "direct wall clock skipped (above cutoff)\n"),
        ("tiny", 0, 12345, "5,4,2*2,recursive,16,8,16,8,16,12,1,1.5,0,12345",
         "direct wall clock 12345 ns\n"),
        ("tiny", 1000, 12345, "5,4,2*2,recursive,16,8,16,8,16,12,1,1.5,1000,12345",
         "direct wall clock 12345 ns\nmeasured speedup  x12.3\n"),
        ("headline", 0, None, _HEADLINE_ROW + "0,",
         "direct wall clock skipped (above cutoff)\n"),
        ("headline", 0, 12345, _HEADLINE_ROW + "0,12345",
         "direct wall clock 12345 ns\n"),
    ],
)
def test_emit_report_golden(
    request, which, fft_ns, naive_ns, csv_row, human_tail
):
    # Every byte of both renderings for fixed timings.
    report = dataclasses.replace(
        request.getfixturevalue(f"{which}_report"),
        wall_clock_fft_ns=fft_ns,
        wall_clock_naive_ns=naive_ns,
    )
    head = _TINY_LINES if which == "tiny" else _HEADLINE_LINES
    assert emit_report(report, "csv") == f"{CSV_HEADER}\n{csv_row}\n"
    assert emit_report(report, "human") == head.format(fft=fft_ns) + human_tail


@pytest.mark.parametrize(
    "ratio, text",
    [
        (Fraction(0), "0"),
        (Fraction(1, 2**40), "0.0000000000009094947017729282379150390625"),
        (Fraction(7, 15625000), "0.000000448"),
        (Fraction(10**20 + 1, 10**6), "100000000000000.000001"),
        (Fraction(2, 3), "2/3"),
        (Fraction(1, 10), "0.1"),
        (Fraction(10**6), "1000000"),
    ],
    ids=str,
)
def test_format_ratio_shortest_exact_decimal(ratio, text):
    assert format_ratio(ratio) == text


def test_format_ratio_negative_keeps_digits():
    # No report holds a negative ratio; the sign goes in front of the digits.
    assert format_ratio(Fraction(-1, 2)) == "-0.5"
    assert format_ratio(Fraction(-1, 20)) == "-0.05"
    assert format_ratio(Fraction(-7)) == "-7"
    assert format_ratio(Fraction(-2, 3)) == "-2/3"
