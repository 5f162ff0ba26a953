"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value below is either hand-verified, produced by an
independent oracle in this file, or a closed-form count.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from smoothntt.bench import run_benchmark
from smoothntt.field import FieldParams, fp_pow, is_prime
from smoothntt.numtheory import factorize, generator_probability, prime_search
from smoothntt.transform import (
    OpCounts,
    build_twiddle_table,
    cyclic_convolve_via_fft,
    dft_naive,
    fft_recursive,
    fft_twiddle,
    ifft,
    plan_transform,
    predicted_counts,
)

GRID = [
    (5, 4),
    (13, 12),
    (97, 96),
    (193, 192),
    (257, 256),
    (769, 768),
    (65537, 16),
    (65537, 256),
    (65537, 4096),
]

VECTORS_PER_CONFIG = 100

# §-style reference table: (p, factorization of p-1, listed generator)
PRIME_TABLE = [
    (65537, ((2, 16),), 3),
    (139969, ((2, 6), (3, 7)), 13),
    (147457, ((2, 14), (3, 2)), 10),
    (209953, ((2, 5), (3, 8)), 10),
    (331777, ((2, 12), (3, 4)), 5),
    (472393, ((2, 3), (3, 10)), 5),
    (629857, ((2, 5), (3, 9)), 5),
    (746497, ((2, 10), (3, 6)), 5),
    (786433, ((2, 18), (3, 1)), 10),
    (839809, ((2, 7), (3, 8)), 7),
    (995329, ((2, 12), (3, 5)), 7),
    (1179649, ((2, 17), (3, 2)), 19),
    (1492993, ((2, 11), (3, 6)), 7),
    (1769473, ((2, 16), (3, 3)), 5),
    (1990657, ((2, 13), (3, 5)), 5),
]


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} [{label}] failed{suffix}"


def round_to_one_significant_figure(value: float) -> int:
    exponent = math.floor(math.log10(value))
    return round(value / 10**exponent) * 10**exponent


@pytest.fixture(scope="module")
def grid_plans():
    return {(p, n): plan_transform(FieldParams(p), n) for p, n in GRID}


def seeded_vectors(p: int, n: int, count: int, salt: int = 0):
    rng = np.random.default_rng(hash((p, n, salt)) & 0xFFFFFFFF)
    return [rng.integers(0, p, n, dtype=np.int64) for _ in range(count)]


def test_criterion_1_oracle_equivalence(grid_plans):
    start = time.perf_counter()
    failures = []
    for (p, n), plan in grid_plans.items():
        for v in seeded_vectors(p, n, VECTORS_PER_CONFIG):
            expected = dft_naive(plan, v)
            if not np.array_equal(fft_recursive(plan, v), expected):
                failures.append((p, n, "recursive"))
                break
            if not np.array_equal(fft_twiddle(plan, v), expected):
                failures.append((p, n, "twiddle"))
                break
    elapsed = time.perf_counter() - start
    report(
        1,
        "oracle equivalence",
        not failures and elapsed < 60.0,
        f"{len(GRID)} configs x {VECTORS_PER_CONFIG} vectors in {elapsed:.1f}s"
        + (f"; mismatches {failures}" if failures else ""),
    )


def test_criterion_2_round_trip(grid_plans):
    failures = []
    for (p, n), plan in grid_plans.items():
        for variant, kernel in (("recursive", fft_recursive), ("twiddle", fft_twiddle)):
            for v in seeded_vectors(p, n, VECTORS_PER_CONFIG, salt=2):
                if not np.array_equal(ifft(plan, kernel(plan, v)), v):
                    failures.append((p, n, variant, "ifft(fft)"))
                    break
                if not np.array_equal(kernel(plan, ifft(plan, v)), v):
                    failures.append((p, n, variant, "fft(ifft)"))
                    break
    report(2, "round trip", not failures, str(failures) if failures else "exact")


def test_criterion_3_count_formulas(grid_plans):
    failures = []

    def measure(plan, variant):
        kernel = fft_recursive if variant == "recursive" else fft_twiddle
        counts = OpCounts()
        kernel(plan, seeded_vectors(plan.p, plan.n, 1, salt=3)[0], counts)
        return counts

    for (p, n), plan in grid_plans.items():
        for variant in ("recursive", "twiddle"):
            got = measure(plan, variant)
            want = predicted_counts(n, plan.radices, variant)
            if got != want:
                failures.append((p, n, variant, got, want))

    big = plan_transform(FieldParams(147457), 147456)
    rec = measure(big, "recursive")
    twd = measure(big, "twiddle")
    if rec.multiplications != 147456 * 34 or rec.multiplications != 5_013_504:
        failures.append(("recursive mults", rec.multiplications))
    if twd.multiplications != 2_949_120:
        failures.append(("twiddle mults", twd.multiplications))
    if twd.additions != 2_654_208:
        failures.append(("twiddle adds", twd.additions))
    ratio_147456 = Fraction(147456 * 147456, twd.multiplications)
    if round_to_one_significant_figure(float(ratio_147456)) != 7_000:
        failures.append(("147456 ratio", ratio_147456))

    huge = plan_transform(FieldParams(786433), 786432)
    twd_huge = measure(huge, "twiddle")
    if twd_huge.multiplications != 786432 * 21:
        failures.append(("786432 twiddle mults", twd_huge.multiplications))
    ratio_786432 = Fraction(786432 * 786432, twd_huge.multiplications)
    if ratio_786432 != Fraction(786432, 21):
        failures.append(("786432 ratio", ratio_786432))
    if round_to_one_significant_figure(float(ratio_786432)) != 40_000:
        failures.append(("786432 ratio 1sf", ratio_786432))

    report(
        3,
        "count formulas",
        not failures,
        str(failures)
        if failures
        else "measured == predicted everywhere; ratios 7e3 / 4e4",
    )


def oracle_smallest_generator(p: int) -> int:
    """Smallest full-group generator found by raw order computation."""
    for a in range(2, p):
        x, order = a, 1
        while x != 1:
            x = x * a % p
            order += 1
        if order == p - 1:
            return a
    raise AssertionError("no generator found")


def test_criterion_4_table_reproduction():
    start = time.perf_counter()
    records = prime_search(2**16, 2**21, {2, 3})
    failures = []
    if [r.p for r in records] != [row[0] for row in PRIME_TABLE]:
        failures.append(("primes", [r.p for r in records]))
    for record, (p, factors, listed_gen) in zip(records, PRIME_TABLE):
        if record.factorization.factors != factors:
            failures.append((p, "factorization", record.factorization.factors))
        if record.generator != listed_gen:
            oracle = oracle_smallest_generator(p)
            print(
                f"criterion 4: generator mismatch at p={p}: computed "
                f"{record.generator}, table lists {listed_gen}, "
                f"exhaustive oracle {oracle}"
            )
            if record.generator != oracle:
                failures.append((p, "generator", record.generator, oracle))
    by_p = {r.p: r.generator for r in records}
    for p, anchor in ((65537, 3), (786433, 10), (1769473, 5)):
        if by_p.get(p) != anchor:
            failures.append((p, "anchor", by_p.get(p), anchor))
    elapsed = time.perf_counter() - start
    report(
        4,
        "table reproduction",
        not failures and elapsed < 60.0,
        str(failures) if failures else f"15 records in {elapsed:.1f}s",
    )


def test_criterion_5_perspective_primes():
    ok = (
        is_prime(113246209)
        and factorize(113246208).factors == ((2, 22), (3, 3))
        and is_prime(725594113)
        and factorize(725594112).factors == ((2, 12), (3, 11))
    )
    report(5, "perspective primes", ok)


def test_criterion_6_generator_density():
    ok = (
        generator_probability(factorize(147456)) == Fraction(1, 3)
        and generator_probability(factorize(786432)) == Fraction(1, 3)
    )
    report(6, "generator density", ok)


def test_criterion_7_half_order_negation():
    rng = np.random.default_rng(7)
    failures = []
    for p, _, generator in PRIME_TABLE:
        params = FieldParams(p)
        n = p - 1
        if fp_pow(generator, n // 2, params) != p - 1:
            failures.append((p, "half power"))
            continue
        table = build_twiddle_table(params, generator, n)
        t = rng.integers(0, n // 2, 1000)
        if not np.array_equal(table[n // 2 + t], p - table[t]):
            failures.append((p, "table negation"))
    report(7, "half-order negation", not failures, str(failures) if failures else "")


def test_criterion_8_desk_scale_speedup():
    params = FieldParams(147457)
    result = run_benchmark(
        params, 36864, variant="twiddle", measure_naive_up_to=36864, trials=5
    )
    assert result.wall_clock_naive_ns is not None
    measured = result.wall_clock_naive_ns / result.wall_clock_fft_ns
    predicted = result.mult_ratio
    ok = measured >= 50.0 and predicted == Fraction(36864, 18)
    report(
        8,
        "desk-scale speedup",
        ok,
        f"measured x{measured:.0f}, predicted multiplication ratio "
        f"{predicted} = 2048",
    )


def test_criterion_9_convolution_oracle():
    failures = []
    for p, n in ((97, 96), (769, 768)):
        plan = plan_transform(FieldParams(p), n)
        a = np.arange(n, dtype=np.int64)
        shift = (a[:, None] - a[None, :]) % n
        for u, v in zip(
            seeded_vectors(p, n, VECTORS_PER_CONFIG, salt=9),
            seeded_vectors(p, n, VECTORS_PER_CONFIG, salt=10),
        ):
            direct = (u[None, :] * v[shift]).sum(axis=1) % p
            if not np.array_equal(cyclic_convolve_via_fft(plan, u, v), direct):
                failures.append((p, n))
                break
    report(9, "convolution oracle", not failures, str(failures) if failures else "")
