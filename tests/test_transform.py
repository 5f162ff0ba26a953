"""Transform planning and kernels against a pure-Python definitional oracle.

`dft_reference` below evaluates the defining sum with builtin pow and plain
ints; it shares no code with the numpy kernels or the plan's tables.
"""

import dataclasses
import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothntt.errors import (
    BadRadices,
    LengthMismatch,
    NotADivisor,
    NotReduced,
    OutOfRange,
    WrongOrder,
)
from smoothntt.field import FieldParams, fp_pow
from smoothntt.numtheory import element_order, factorize, find_generator
import smoothntt.transform as transform_module
from smoothntt.transform import (
    DigitPermutation,
    OpCounts,
    TransformPlan,
    build_twiddle_table,
    cyclic_convolve_via_fft,
    dft_naive,
    digit_reverse,
    fft_recursive,
    fft_twiddle,
    idft_naive,
    ifft,
    plan_transform,
    predicted_counts,
)


def dft_reference(p: int, omega: int, v) -> list[int]:
    n = len(v)
    return [
        sum(pow(omega, i * j, p) * int(v[i]) for i in range(n)) % p
        for j in range(n)
    ]


def raw_order_reference(radices, n: int) -> np.ndarray:
    """Coefficient index of each raw-order slot, one scalar digit_reverse per slot.

    Independent of the kernels' raw-order transpose, which it checks.
    """
    return np.array([digit_reverse(radices, s) for s in range(n)], dtype=np.int64)


def running_powers(p: int, omega: int, n: int) -> list[int]:
    """omega^k mod p for k in [0, n), one Python-int product per entry."""
    out, x = [], 1
    for _ in range(n):
        out.append(x)
        x = x * omega % p
    return out


def convolve_reference(p: int, u, v) -> list[int]:
    n = len(u)
    return [
        sum(int(u[a]) * int(v[(k - a) % n]) for a in range(n)) % p
        for k in range(n)
    ]


@pytest.fixture(scope="module")
def plan54():
    return plan_transform(FieldParams(5), 4, omega=2, radices=[2, 2])


@pytest.fixture(scope="module")
def plan9796():
    return plan_transform(FieldParams(97), 96)


# --- planning ---------------------------------------------------------------


def test_plan_twiddles_example(plan54):
    assert plan54.twiddles.tolist() == [1, 2, 4, 3]
    assert plan54.inv_n == 4


def test_plan_defaults_large_field():
    plan = plan_transform(FieldParams(147457), 147456)
    assert sorted(plan.radices) == [2] * 14 + [3] * 2
    assert plan.radices == tuple(sorted(plan.radices))  # nondecreasing
    params = FieldParams(147457)
    assert element_order(params, plan.omega, factorize(147456)) == 147456


def test_plan_accepts_numpy_integers(plan9796):
    params = FieldParams(97)
    sub = plan_transform(params, 32, omega=plan9796.twiddles[3])
    assert type(sub.omega) is int and sub.omega == int(plan9796.twiddles[3])
    full = plan_transform(params, np.int64(96))
    assert type(full.n) is int and type(full.omega) is int
    assert np.array_equal(full.twiddles, plan9796.twiddles)


def test_plan_not_a_divisor():
    with pytest.raises(NotADivisor):
        plan_transform(FieldParams(5), 3)


def test_plan_wrong_order():
    # 4 has order 2 mod 5, not 4
    with pytest.raises(WrongOrder):
        plan_transform(FieldParams(5), 4, omega=4)
    with pytest.raises(WrongOrder):
        plan_transform(FieldParams(5), 4, omega=0)


def test_plan_bad_radices():
    with pytest.raises(BadRadices):
        plan_transform(FieldParams(5), 4, radices=[2, 3])
    with pytest.raises(BadRadices):
        plan_transform(FieldParams(5), 4, radices=[1, 4])
    # A non-integral radix is rejected, not truncated to (2, 2).
    with pytest.raises(BadRadices):
        plan_transform(FieldParams(5), 4, omega=2, radices=[2.9, 2])
    with pytest.raises(BadRadices):
        plan_transform(FieldParams(5), 4, radices=[np.float64(2.0), 2])
    with pytest.raises(BadRadices):
        predicted_counts(4, [2.5, 2], "twiddle")
    plan = plan_transform(FieldParams(5), 4, omega=2, radices=np.array([2, 2]))
    assert plan.radices == (2, 2) and all(type(r) is int for r in plan.radices)
    assert predicted_counts(4, [np.int32(2), np.int64(2)], "twiddle") == OpCounts(8, 8)


def test_plan_length_one_is_identity():
    plan = plan_transform(FieldParams(17), 1)
    assert plan.radices == ()
    assert plan.omega == 1
    counts = OpCounts()
    assert fft_twiddle(plan, [7], counts).tolist() == [7]
    assert counts == OpCounts(0, 0)
    assert dft_naive(plan, [7]).tolist() == [7]
    assert ifft(plan, [7]).tolist() == [7]


def test_twiddle_table_matches_fp_pow():
    params = FieldParams(769)
    table = build_twiddle_table(params, 11, 768)
    for k in (0, 1, 2, 3, 100, 384, 767):
        assert table[k] == fp_pow(11, k, params)


def test_twiddle_table_short_lengths():
    # omega^k for k in [0, n): empty at n = 0, just omega^0 at n = 1.
    params = FieldParams(13)
    empty = build_twiddle_table(params, 2, 0)
    assert empty.dtype == np.int64 and empty.shape == (0,)
    one = build_twiddle_table(params, 2, 1)
    assert one.dtype == np.int64 and one.tolist() == [1]
    with pytest.raises(ValueError):
        build_twiddle_table(params, 2, -1)


@pytest.mark.parametrize("p", [3, 13, 97, 193])
def test_twiddle_table_matches_running_product(p):
    # Every n in [0, 3p) takes one of the two build paths: a half-turn, where
    # omega^(n/2) = -1 (an order-n omega, a generator at n = p - 1 and
    # 3(p - 1), p - 1 at n = 2, 6, ...), or doubling to n (odd n, n <= 1,
    # omega = 0 and every other case).
    params = FieldParams(p)
    omegas = {find_generator(params, d) for d in range(1, p) if (p - 1) % d == 0}
    omegas |= {0, p - 1, -3, p + 5, 2 * p + 1, int(np.random.default_rng(p).integers(0, p))}
    for omega in omegas:
        powers = running_powers(p, omega, 3 * p)
        for n in range(3 * p):
            assert build_twiddle_table(params, omega, n).tolist() == powers[:n], (omega, n)
    assert build_twiddle_table(params, p - 1, 2).tolist() == [1, p - 1]


def test_twiddle_table_full_length_matches_running_product():
    p = 147457
    params = FieldParams(p)
    omega = find_generator(params, p - 1)
    assert build_twiddle_table(params, omega, p - 1).tolist() == running_powers(p, omega, p - 1)


def test_twiddle_table_converts_integers():
    params = FieldParams(97)
    table = build_twiddle_table(params, np.int64(5), np.int64(96))
    assert np.array_equal(table, build_twiddle_table(params, 5, 96))
    with pytest.raises(TypeError):
        build_twiddle_table(params, 5.0, 96)
    with pytest.raises(TypeError):
        build_twiddle_table(params, 5, 96.0)


def test_twiddle_table_peak_memory():
    # With a half-turn the doubling reduces through the unwritten second
    # half, so the build holds only the 8n-byte table; otherwise it holds
    # one scratch array of n // 2 entries beside it.
    p = 147457
    params = FieldParams(p)
    generator = find_generator(params, p - 1)
    for omega, n, scratch in ((generator, p - 1, 0), (1, p - 1, 4), (generator, p - 2, 4)):
        tracemalloc.start()
        try:
            build_twiddle_table(params, omega, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 + scratch) * n + 16 * 1024, (omega, n, peak / n)


def test_twiddle_table_group_law(plan9796):
    n, p = plan9796.n, plan9796.p
    rng = np.random.default_rng(3)
    for _ in range(200):
        a, b = rng.integers(0, n, 2)
        lhs = plan9796.twiddles[a] * plan9796.twiddles[b] % p
        assert lhs == plan9796.twiddles[(a + b) % n]


# --- naive oracle -----------------------------------------------------------


def test_dft_naive_zeros_and_delta(plan9796):
    n = plan9796.n
    assert dft_naive(plan9796, [0] * n).tolist() == [0] * n
    delta = [1] + [0] * (n - 1)
    assert dft_naive(plan9796, delta).tolist() == [1] * n


def test_dft_naive_hand_example(plan54):
    assert dft_naive(plan54, [1, 2, 3, 4]).tolist() == [0, 4, 3, 2]


def test_dft_naive_matches_reference(plan9796):
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.integers(0, 97, 96)
        assert dft_naive(plan9796, v).tolist() == dft_reference(97, plan9796.omega, v)


def test_dft_naive_matches_fft_at_n_8192():
    # n = 2^13: 8192 Horner passes, each over the whole table
    plan = plan_transform(FieldParams(147457), 8192)
    rng = np.random.default_rng(2)
    v = rng.integers(0, 147457, 8192)
    got = dft_naive(plan, v)
    assert np.array_equal(got, fft_twiddle(plan, v))


def test_idft_naive_example(plan54):
    assert idft_naive(plan54, [0, 4, 3, 2]).tolist() == [1, 2, 3, 4]


def test_idft_naive_round_trip(plan9796):
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.integers(0, 97, 96)
        assert np.array_equal(idft_naive(plan9796, dft_naive(plan9796, v)), v)


# p - 1 = 2^27 * 15, and 31 generates F_p*.  Plans take omega = 31^((p-1)/n)
# explicitly: the default smallest-generator scan needs tens of seconds here.
P_LARGE = 2013265921


def plan_large(n):
    params = FieldParams(P_LARGE)
    assert element_order(params, 31, factorize(P_LARGE - 1)) == P_LARGE - 1
    return plan_transform(params, n, omega=pow(31, (P_LARGE - 1) // n, P_LARGE))


def test_dft_naive_exact_where_products_reach_p_squared():
    # F_2013265921 is the field where the oracle's Horner step acc * omega^j
    # reaches p^2 ~ 2^62, the widest below 2^63; a sum of n unreduced
    # products would overflow int64 already at n = 96.
    p = P_LARGE
    assert 96 * (p - 1) ** 2 >= 2**63
    rng = np.random.default_rng(21)
    small = plan_large(96)
    v = rng.integers(0, p, 96)
    assert dft_naive(small, v).tolist() == dft_reference(p, small.omega, v)
    assert np.array_equal(idft_naive(small, dft_naive(small, v)), v)
    # n = 3840 runs the oracle's 3840 Horner passes at that width.  Its radices
    # 3 and 5 run the Horner stages, whose intermediates reach 2(p - 1) and
    # products 2(p - 1)^2; the all-(p - 1) vector sits on that edge.
    plan = plan_large(3840)
    for v in (rng.integers(0, p, 3840), np.full(3840, p - 1)):
        got = dft_naive(plan, v)
        assert np.array_equal(got, fft_twiddle(plan, v))
        assert np.array_equal(got, fft_recursive(plan, v))
        for j in (1, 3839):
            expected = sum(pow(plan.omega, i * j, p) * int(v[i]) for i in range(3840)) % p
            assert got[j] == expected
        assert np.array_equal(idft_naive(plan, got), v)


@pytest.mark.parametrize("p, n", [(97, 96), (433, 432), (1459, 18), (P_LARGE, 96)])
def test_dft_naive_lazy_reduction_matches_definition(p, n):
    # The oracle reduces only before a pass that could reach 2**63: every
    # 8th pass at F_97, every 6th at F_433, every 4th at F_1459 and every
    # pass at P_LARGE.  With every coefficient p - 1, entry n/2
    # (omega^(n/2) = p - 1) reaches that bound on every pass of the three
    # small fields and on every other pass at P_LARGE.  At F_1459 one pass
    # more would reach a value in [2**63, 2**64), so a check one pass late,
    # or one bit too loose, wraps int64 there.
    plan = plan_large(n) if p == P_LARGE else plan_transform(FieldParams(p), n)
    rng = np.random.default_rng(29)
    for v in (rng.integers(0, p, n), np.full(n, p - 1)):
        assert dft_naive(plan, v).tolist() == dft_reference(p, plan.omega, v)


def test_dft_naive_matches_fft_mixed_radix_2592():
    # n = 2^5 * 3^4 in F_629857: a mixed-radix length in a field whose Horner
    # products stay below p^2 < 2^39.
    plan = plan_transform(FieldParams(629857), 2592)
    v = np.random.default_rng(22).integers(0, 629857, 2592)
    assert np.array_equal(dft_naive(plan, v), fft_twiddle(plan, v))


def test_plan_fields_are_the_schedule_and_table():
    names = [f.name for f in dataclasses.fields(TransformPlan)]
    assert names == ["params", "n", "omega", "radices", "twiddles", "inv_n"]


def plan_snapshot(plan):
    return {k: a.tobytes() if isinstance(a, np.ndarray) else a for k, a in vars(plan).items()}


@pytest.mark.parametrize("p, n", [(97, 96), (629857, 2592), (P_LARGE, 3840)])
def test_oracle_leaves_plan_unchanged(p, n):
    plan = plan_large(n) if p == P_LARGE else plan_transform(FieldParams(p), n)
    before = plan_snapshot(plan)
    v = np.random.default_rng(23).integers(0, p, n)
    idft_naive(plan, dft_naive(plan, v))
    assert plan_snapshot(plan) == before


@pytest.mark.parametrize("p, n", [(769, 768), (P_LARGE, 96)])
def test_transforms_leave_their_input_alone(p, n):
    # The oracle reads an int64 input without copying it and the kernels
    # work in a private copy; neither may write the caller's array.
    plan = plan_large(n) if p == P_LARGE else plan_transform(FieldParams(p), n)
    v = np.random.default_rng(28).integers(0, p, n)
    frozen = v.copy()
    frozen.flags.writeable = False
    arrays = [frozen, v.copy(), v.astype(np.int32), v.astype(np.uint64)]
    before = [a.tobytes() for a in arrays]
    for call in (dft_naive, idft_naive, fft_twiddle, fft_recursive, ifft):
        first, *rest = [call(plan, a) for a in [*arrays, v.tolist()]]
        assert first.dtype == np.int64
        for out in rest:
            assert out.dtype == np.int64 and np.array_equal(out, first), call.__name__
        assert [a.tobytes() for a in arrays] == before, call.__name__


# --- staged kernels ---------------------------------------------------------


def test_fft_delta_gives_ones(plan54):
    assert fft_recursive(plan54, [1, 0, 0, 0]).tolist() == [1, 1, 1, 1]
    assert fft_twiddle(plan54, [1, 0, 0, 0]).tolist() == [1, 1, 1, 1]


def test_fft_hand_example(plan54):
    assert fft_recursive(plan54, [1, 2, 3, 4]).tolist() == [0, 4, 3, 2]
    assert fft_twiddle(plan54, [1, 2, 3, 4]).tolist() == [0, 4, 3, 2]


def test_fft_matches_naive_twelve_points():
    plan = plan_transform(FieldParams(13), 12, omega=2, radices=[2, 2, 3])
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.integers(0, 13, 12)
        expected = dft_naive(plan, v)
        assert np.array_equal(fft_recursive(plan, v), expected)
        assert np.array_equal(fft_twiddle(plan, v), expected)


@pytest.mark.parametrize(
    "radices", [[2, 2, 3], [2, 3, 2], [3, 2, 2], [2, 6], [6, 2], [12], [4, 3], [3, 4]]
)
def test_schedule_invariance(radices):
    # same (p, n, omega): every valid schedule gives the identical vector
    plan = plan_transform(FieldParams(13), 12, omega=2, radices=radices)
    rng = np.random.default_rng(6)
    for _ in range(10):
        v = rng.integers(0, 13, 12)
        expected = dft_reference(13, 2, v)
        assert fft_recursive(plan, v).tolist() == expected
        assert fft_twiddle(plan, v).tolist() == expected


@pytest.mark.parametrize(
    "p, n, multiset",
    [
        (37, 36, (2, 2, 3, 3)),
        (433, 216, (2, 2, 2, 3, 3, 3)),
        # p - 1 = 2 * 3 * 5 * 7 and (p + 1)^7 < 2^63, so every step of a
        # radix-7 or radix-5 Horner row leaves its product unreduced but the last.
        (211, 210, (2, 3, 5, 7)),
        (211, 30, (2, 3, 5)),
    ],
)
def test_every_schedule_order_matches_oracle(p, n, multiset):
    # The stages run largest radix first whatever the listed order, so every
    # ordering must give the oracle's output and counts, and raw order must
    # follow plan.radices as listed.
    oracle = plan_transform(FieldParams(p), n)
    for v in (np.random.default_rng(n).integers(0, p, n), np.full(n, p - 1)):
        expected = dft_naive(oracle, v)
        for radices in sorted(set(itertools.permutations(multiset))):
            plan = plan_transform(FieldParams(p), n, omega=oracle.omega, radices=radices)
            assert plan.radices == radices
            raw_order = raw_order_reference(radices, n)
            raw_expected = expected[raw_order]
            for variant, kernel in (("recursive", fft_recursive), ("twiddle", fft_twiddle)):
                counts = OpCounts()
                assert np.array_equal(kernel(plan, v, counts), expected), (radices, variant)
                assert counts == predicted_counts(n, radices, variant)
                assert np.array_equal(kernel(plan, v, raw_order=True), raw_expected)
            assert np.array_equal(ifft(plan, expected), v)
            assert np.array_equal(ifft(plan, expected, raw_order=True), v[raw_order])


# Lengths whose schedules mix 2, 3 and composite radices up to 16, small
# enough for the dft_naive oracle to check each drawn schedule quickly.
SCHEDULE_FIELDS = ((769, 768), (3457, 3456), (12289, 4096))
COMPOSITE_RADICES = (4, 6, 8, 9, 16)


@st.composite
def field_schedules(draw):
    """A field, and its prime factors in random order, some merged into composites."""
    p, n = draw(st.sampled_from(SCHEDULE_FIELDS))
    primes = [q for q, e in factorize(n).factors for _ in range(e)]
    sched: list[int] = []
    for q in draw(st.permutations(primes)):
        if sched and sched[-1] * q in COMPOSITE_RADICES and draw(st.booleans()):
            sched[-1] *= q
        else:
            sched.append(q)
    return p, n, sched


@pytest.fixture(scope="module")
def oracle_plans():
    return {(p, n): plan_transform(FieldParams(p), n) for p, n in SCHEDULE_FIELDS}


@given(field_schedules())
@example((3457, 3456, [4, 9, 6, 16]))
@settings(max_examples=40, deadline=None)
def test_random_schedules_match_oracle(oracle_plans, case):
    p, n, radices = case
    oracle = oracle_plans[(p, n)]
    plan = plan_transform(FieldParams(p), n, omega=oracle.omega, radices=radices)
    v = np.random.default_rng(len(radices)).integers(0, p, n)
    expected = dft_naive(oracle, v)
    for variant, kernel in (("recursive", fft_recursive), ("twiddle", fft_twiddle)):
        counts = OpCounts()
        assert np.array_equal(kernel(plan, v, counts), expected)
        assert counts == predicted_counts(n, radices, variant)
        raw = kernel(plan, v, raw_order=True)
        assert np.array_equal(raw, expected[raw_order_reference(plan.radices, n)])
    assert np.array_equal(ifft(plan, expected), v)


# The {2,3}-smooth primes in (2^30, 2^31) with their primitive roots:
# 2^11 * 3^12 + 1 and 2^26 * 3^3 + 1.  A stage's products reach (B + p) * p
# for an entry bound B, so the kernel reduces its input before stages 7, 13,
# ... at the first prime and before every stage after the first at the second.
NEAR_2_31 = ((1088391169, 11, 11, 12), (1811939329, 13, 26, 3))


@st.composite
def near_2_31_schedules(draw):
    """A prime near 2^31, a subgroup length n <= 2048 and a shuffled schedule."""
    p, g, max2, max3 = draw(st.sampled_from(NEAR_2_31))
    a = draw(st.integers(0, min(max2, 11)))
    b_max = 0
    while b_max < max3 and 2**a * 3 ** (b_max + 1) <= 2048:
        b_max += 1
    b = draw(st.integers(0 if a else 1, b_max))
    radices = draw(st.permutations([2] * a + [3] * b))
    return p, g, 2**a * 3**b, list(radices)


@given(near_2_31_schedules(), st.sampled_from(["random", "p-1"]))
@example((1811939329, 13, 1536, [2, 2, 2, 2, 2, 2, 3, 2, 2, 2]), "p-1")
@settings(max_examples=30, deadline=None)
def test_schedules_near_2_31_match_oracle(case, kind):
    p, g, n, radices = case
    # Passing omega skips the generator scan, which costs about p/n candidates.
    plan = plan_transform(FieldParams(p), n, omega=pow(g, (p - 1) // n, p), radices=radices)
    v = np.random.default_rng(n).integers(0, p, n) if kind == "random" else np.full(n, p - 1)
    expected = dft_naive(plan, v)
    raw_expected = expected[raw_order_reference(plan.radices, n)]
    for kernel in (fft_recursive, fft_twiddle):
        assert np.array_equal(kernel(plan, v), expected)
        assert np.array_equal(kernel(plan, v, raw_order=True), raw_expected)
    assert np.array_equal(ifft(plan, expected), v)


def test_stage_entries_at_the_bound_stay_exact():
    # At p = 2^26 * 3^3 + 1, 3p^2 >= 2^63 > 2p^2.  A radix-3 stage whose input
    # entries come unreduced from one earlier stage (bound 2p) sees a Horner
    # intermediate (p - 1) + (2p - 2) times a twiddle e; with e > 0.937p that
    # product passes 2^63, so the kernel must reduce its input first.  Each
    # input below drives one output row of the second stage onto that edge:
    # the first stage leaves 2p - 2 in leg 1 and -e^-1 mod p in leg 2.
    p = 1811939329
    zeta = pow(13, (p - 1) // 9, p)  # a primitive 9th root of unity
    # Schedule (2, 3), n = 6: stage 2, row l0 = 1, l1 = 1 has e = omega^3 = p - 1,
    # and its legs are the recursive radix-2 outputs (p - v[3+j]) % p + v[j].
    cases = [(6, pow(13, (p - 1) // 6, p), [2, 3], [0, p - 1, 1, 0, 1, 0], [fft_recursive])]
    # Schedule (3, 3), n = 9, omega = zeta: stage 2, row l0 = 1, l1 = 2 has
    # e = zeta^7 ~ 0.9401p.  Its legs are stage-1 row 1 (twiddle c = zeta^3)
    # at columns j, i.e. ((v[6+j] c % p + v[3+j]) c % p) + v[j].
    e, c = pow(zeta, 7, p), pow(zeta, 3, p)
    assert 3 * (p - 1) * e >= 2**63 > 2 * p * p
    v = [0, p - 1, -pow(e, -1, p) % p, 0, -pow(c, -1, p) % p, 0, 0, 0, 0]
    cases.append((9, zeta, [3, 3], v, [fft_recursive, fft_twiddle]))
    for n, omega, radices, v, kernels in cases:
        plan = plan_transform(FieldParams(p), n, omega=omega, radices=radices)
        expected = dft_reference(p, omega, v)
        for kernel in kernels:
            assert kernel(plan, v).tolist() == expected, (radices, kernel.__name__)
        # The inverse runs the twiddle stages on v and scales their unreduced
        # output by n^-1 before its one reduction: entries at the bound times
        # n^-1 come closest to 2^63 there.
        inverse = [expected[-j % n] * pow(n, -1, p) % p for j in range(n)]
        assert ifft(plan, v).tolist() == inverse, radices
        assert idft_naive(plan, v).tolist() == inverse, radices


def test_horner_rows_reduce_before_the_int64_bound():
    # At p = 2^16 * 27 + 1, p^3 < 2^63 <= 2p^3.  A radix-3 row whose input
    # bound is B = p may leave its first product unreduced, since
    # (p^2 + p) * p < 2^63; at B = 2p it may not.  With schedule (3, 3), n = 9
    # and omega = zeta ~ 0.9905p, stage 2 row l0 = 1, l1 = 0 evaluates at
    # e = zeta, and its legs 1 and 2 are stage-1 row 1 (twiddle c = zeta^3)
    # at columns j, i.e. ((v[6+j] c + v[3+j]) c % p) + v[j] = 2p - 2 below.
    # Left unreduced, that row's second product (2p - 2)(e + 1) e passes 2^63.
    p = 1769473
    zeta = pow(5, 2 * (p - 1) // 9, p)  # a primitive 9th root of unity
    c = pow(zeta, 3, p)
    assert (p * p + p) * p < 2**63 <= (2 * p * p + 2 * p) * p
    assert (2 * p - 2) * (zeta + 1) * zeta >= 2**63
    v = [0, p - 1, p - 1, 0, -pow(c, -1, p) % p, -pow(c, -1, p) % p, 0, 0, 0]
    plan = plan_transform(FieldParams(p), 9, omega=zeta, radices=[3, 3])
    expected = dft_reference(p, zeta, v)
    for kernel in (fft_recursive, fft_twiddle):
        assert kernel(plan, v).tolist() == expected, kernel.__name__
    inverse = [expected[-j % 9] * pow(9, -1, p) % p for j in range(9)]
    assert ifft(plan, v).tolist() == inverse


def test_fft_subgroup_length_matches_naive():
    # order-36864 root inside F_147457: heavyweight but definitive
    plan = plan_transform(FieldParams(147457), 36864)
    rng = np.random.default_rng(8)
    v = rng.integers(0, 147457, 36864)
    assert np.array_equal(fft_twiddle(plan, v), dft_naive(plan, v))


def test_raw_order_is_digit_reversed(plan9796):
    rng = np.random.default_rng(9)
    v = rng.integers(0, 97, 96)
    raw = fft_twiddle(plan9796, v, raw_order=True)
    natural = fft_twiddle(plan9796, v)
    assert np.array_equal(natural[raw_order_reference(plan9796.radices, 96)], raw)


def test_length_mismatch(plan54):
    with pytest.raises(LengthMismatch):
        fft_twiddle(plan54, [1, 2, 3])
    with pytest.raises(LengthMismatch):
        dft_naive(plan54, [1, 2, 3, 4, 5])
    with pytest.raises(LengthMismatch):
        ifft(plan54, [1])


def test_non_integer_vector_rejected(plan54):
    for v in (
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([True, False, True, False]),
        np.array([1, 2, 3, "4"], dtype=object),
    ):
        with pytest.raises(NotReduced):
            fft_twiddle(plan54, v)


@pytest.mark.parametrize(
    "call",
    [
        fft_twiddle,
        fft_recursive,
        ifft,
        dft_naive,
        idft_naive,
        lambda plan, v: cyclic_convolve_via_fft(plan, v, np.zeros(8, dtype=np.int64)),
        lambda plan, v: cyclic_convolve_via_fft(plan, np.zeros(8, dtype=np.int64), v),
    ],
)
def test_unreduced_entries_rejected(call):
    # Unreduced int64 entries near 2**45 overflow the oracle's products, and
    # uint64 entries >= 2**63 would wrap to negatives on the cast to int64.
    plan = plan_transform(FieldParams(786433), 8)
    zeros = [0] * 7
    for v in (
        np.arange(8, dtype=np.int64) + 2**45,
        np.array([2**64 - 1] + zeros, dtype=np.uint64),
        [-1] + zeros,
        [786433] + zeros,
        [2**63] + zeros,  # past int64, so numpy makes an object array
    ):
        with pytest.raises(NotReduced):
            call(plan, v)


def test_plan_holds_only_the_twiddle_table():
    plan = plan_transform(FieldParams(769), 768)
    v = np.random.default_rng(15).integers(0, 769, 768)
    fft_twiddle(plan, v)
    ifft(plan, v)
    fft_recursive(plan, v, raw_order=True)
    arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == 8 * plan.n


@pytest.mark.parametrize(
    "p, n, radices", [(97, 96, None), (769, 768, None), (3457, 3456, [4, 9, 6, 16])]
)
def test_table_is_read_only_and_kernels_leave_plan_unchanged(p, n, radices):
    # The kernels read every stage weight through views of the shared table.
    plan = plan_transform(FieldParams(p), n, radices=radices)
    with pytest.raises(ValueError):
        plan.twiddles[1] = 0
    with pytest.raises(ValueError):
        np.multiply(plan.twiddles, 2, out=plan.twiddles)
    before = plan_snapshot(plan)
    v = np.random.default_rng(25).integers(0, p, n)
    for kernel in (fft_recursive, fft_twiddle):
        kernel(plan, v, OpCounts())
        kernel(plan, v, raw_order=True)
    ifft(plan, v)
    ifft(plan, v, raw_order=True)
    assert plan_snapshot(plan) == before


def test_kernel_peak_memory_is_two_vectors(monkeypatch):
    # Each call owns two n-element int64 buffers, the coerced copy of the
    # input and the stage output: a Horner stage reads its input and the
    # strided view e1 and accumulates in its output, and ifft writes the
    # stage output read at -j into the free buffer and reduces through the
    # other.  Raw order copies the natural output once, after the free
    # buffer is released.  A ufunc over strided or
    # broadcast views also holds one numpy iterator buffer of np.getbufsize()
    # elements (64 KiB), whatever n is; every call peaks within 3 KiB of
    # that.  A ufunc with two strided or broadcast operands, such as an
    # in-place pass over a strided input leg or a strided leg times e1 in
    # one call, holds two buffers and breaks the bound.  On two CPUs every
    # stage of this n >= 2**17 is split, and the worker's half holds its own
    # iterator buffer of 256 elements; on one CPU every stage runs whole.
    # Both paths run here, whatever the host.
    p = 147457
    plan = plan_transform(FieldParams(p), p - 1)
    n = plan.n
    v = np.random.default_rng(24).integers(0, p, n)
    original = v.copy()
    for cores, call, raw_order in itertools.product(
        (1, 2), (fft_twiddle, fft_recursive, ifft), (False, True)
    ):
        pin_cores(monkeypatch, cores)
        tracemalloc.start()
        try:
            call(plan, v, raw_order=raw_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n + 8 * np.getbufsize() + 16 * 1024, (
            cores,
            call.__name__,
            raw_order,
            peak / (8 * n),
        )
        assert np.array_equal(v, original)


def test_convolution_peak_memory_is_three_vectors(monkeypatch):
    # The second forward call holds the first spectrum U beside its own two
    # buffers.  The inverse then runs on U itself, with V as the reduction
    # scratch and one stage output, so nothing copies U again; the same
    # iterator-buffer slack as the kernel test applies, split or whole.
    p = 147457
    plan = plan_transform(FieldParams(p), p - 1)
    n = plan.n
    rng = np.random.default_rng(27)
    u = rng.integers(0, p, n)
    v = rng.integers(0, p, n)
    originals = (u.copy(), v.copy())
    for cores in (1, 2):
        pin_cores(monkeypatch, cores)
        tracemalloc.start()
        try:
            cyclic_convolve_via_fft(plan, u, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * n + 8 * np.getbufsize() + 16 * 1024, (cores, peak / (8 * n))
        assert np.array_equal(u, originals[0]) and np.array_equal(v, originals[1])


@pytest.mark.parametrize("p, n", [(147457, 4608), (P_LARGE, 3840)])
def test_oracle_peak_memory_is_two_vectors(p, n):
    # The oracle holds one accumulator and one scratch vector, and it reads
    # this int64 input without copying it; each Horner pass works in place on
    # contiguous arrays, so no ufunc buffers.  idft_naive takes its scratch
    # array only after the oracle's own is freed.
    plan = plan_large(n) if p == P_LARGE else plan_transform(FieldParams(p), n)
    v = np.random.default_rng(26).integers(0, p, n)
    for call in (dft_naive, idft_naive):
        tracemalloc.start()
        try:
            call(plan, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n + 16 * 1024, (call.__name__, peak - 2 * 8 * n)


@pytest.mark.parametrize("p, n", [(147457, 4608), (P_LARGE, 3840)])
def test_oracle_peak_memory_for_a_converted_input(p, n):
    # An int64 array is read in place; a list or an int32 array costs one
    # int64 conversion beside the accumulator and the scratch vector.
    plan = plan_large(n) if p == P_LARGE else plan_transform(FieldParams(p), n)
    v = np.random.default_rng(26).integers(0, p, n)
    for given in (v.tolist(), v.astype(np.int32)):
        for call in (dft_naive, idft_naive):
            tracemalloc.start()
            try:
                call(plan, given)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 8 * n + 16 * 1024, (
                call.__name__,
                type(given).__name__,
                peak - 3 * 8 * n,
            )


# --- inverse ----------------------------------------------------------------


def test_ifft_example(plan54):
    assert ifft(plan54, [0, 4, 3, 2]).tolist() == [1, 2, 3, 4]
    assert ifft(plan54, [0, 0, 0, 0]).tolist() == [0, 0, 0, 0]
    with pytest.raises(TypeError):  # the inverse takes no variant
        ifft(plan54, [0, 4, 3, 2], "twiddle")


def test_round_trip_both_variants(plan9796):
    rng = np.random.default_rng(10)
    for kernel in (fft_recursive, fft_twiddle):
        for _ in range(100):
            v = rng.integers(0, 97, 96)
            assert np.array_equal(ifft(plan9796, kernel(plan9796, v)), v)


def test_round_trip_radix_5_schedule():
    # n = 2^8 * 3 * 5 runs its radix-5 stage first: Horner rows 0..3 reduce
    # through the next, still unwritten, output row and row 4 with `%`.
    plan = plan_large(3840)
    assert max(plan.radices) == 5
    v = np.random.default_rng(27).integers(0, P_LARGE, plan.n)
    for kernel in (fft_recursive, fft_twiddle):
        assert np.array_equal(ifft(plan, kernel(plan, v)), v)


def test_linearity(plan9796):
    p, n = plan9796.p, plan9796.n
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.integers(0, p, n)
        v = rng.integers(0, p, n)
        a, b = rng.integers(1, p, 2)
        combo = (a * u + b * v) % p
        lhs = fft_twiddle(plan9796, combo)
        rhs = (a * fft_twiddle(plan9796, u) + b * fft_twiddle(plan9796, v)) % p
        assert np.array_equal(lhs, rhs)


# --- digit reversal ---------------------------------------------------------


def test_digit_reverse_is_bit_reversal_for_twos():
    assert [digit_reverse([2, 2, 2], s) for s in range(8)] == [0, 4, 2, 6, 1, 5, 3, 7]
    assert digit_reverse([2, 2, 2], 1) == 4


def test_digit_reverse_mixed_radix_by_definition():
    # slot = d1*3 + d2 with d1 in [0,2), d2 in [0,3); index = d1*1 + d2*2
    radices = [2, 3]
    expected = []
    for d1 in range(2):
        for d2 in range(3):
            expected.append(d1 + 2 * d2)
    got = [digit_reverse(radices, s) for s in range(6)]
    assert got == expected
    assert sorted(got) == list(range(6))


def test_digit_reverse_single_stage_identity():
    assert [digit_reverse([6], s) for s in range(6)] == list(range(6))


def test_digit_reverse_out_of_range():
    with pytest.raises(OutOfRange):
        digit_reverse([2, 3], 6)
    with pytest.raises(OutOfRange):
        digit_reverse([2, 3], -1)


@pytest.mark.parametrize("radices", [(2.5, 2), (-2, -3), (2, 0), (1, 6), ["2", "3"], "23", 6])
def test_digit_reversal_rejects_bad_radices(radices):
    # Without the schedule check these returned 2.5 or 3, an empty
    # permutation, or raised a raw numpy error.  Strings and a non-iterable
    # raised a raw TypeError while the product came before the check.  Every
    # reader of a schedule rejects the same ones.
    with pytest.raises(BadRadices):
        digit_reverse(radices, 1)
    with pytest.raises(BadRadices):
        DigitPermutation.from_radices(radices)
    with pytest.raises(BadRadices):
        plan_transform(FieldParams(7), 6, omega=3, radices=radices)
    with pytest.raises(BadRadices):
        predicted_counts(6, radices, "twiddle")


@pytest.mark.parametrize("form", [list, tuple, np.array, iter], ids=lambda f: f.__name__)
def test_schedule_forms_agree_across_readers(form):
    # digit_reverse and from_radices took the product before validating, so
    # an iterator was consumed by math.prod and then read as empty.
    forward = [0, 2, 4, 1, 3, 5]  # slot -> coefficient index
    assert [digit_reverse(form([2, 3]), s) for s in range(6)] == forward
    assert DigitPermutation.from_radices(form([2, 3])).forward.tolist() == forward
    assert plan_transform(FieldParams(7), 6, omega=3, radices=form([2, 3])).radices == (2, 3)
    assert predicted_counts(6, form([2, 3]), "twiddle") == OpCounts(24, 18)


@given(st.lists(st.integers(2, 5), min_size=0, max_size=6))
@settings(max_examples=100)
def test_digit_permutation_bijective(radices):
    perm = DigitPermutation.from_radices(tuple(radices))
    forward = perm.forward.tolist()
    assert sorted(forward) == list(range(perm.n))
    assert forward == [digit_reverse(radices, s) for s in range(perm.n)]


# --- operation counts -------------------------------------------------------


def test_predicted_counts_examples():
    rec = predicted_counts(4, [2, 2], "recursive")
    assert (rec.multiplications, rec.additions) == (16, 8)
    twd = predicted_counts(147456, [2] * 14 + [3] * 2, "twiddle")
    assert twd.multiplications == 2_949_120
    assert twd.additions == 2_654_208
    with pytest.raises(BadRadices):
        predicted_counts(4, [2, 3], "twiddle")
    # Checked before the per-stage rule, which an empty schedule never reads.
    for n, radices in ((4, [2, 2]), (1, [])):
        with pytest.raises(ValueError, match="unknown variant"):
            predicted_counts(n, radices, "fast")
    # The paper's closed forms, on every order of v1 twos and v2 threes:
    # the kernel and the model share one stage rule, so the model is
    # anchored here on its own.
    for v1, v2 in itertools.product(range(7), range(5)):
        n = 2**v1 * 3**v2
        twiddle = OpCounts(n * (v1 + 3 * v2), n * (v1 + 2 * v2))
        recursive = OpCounts(n * (2 * v1 + 3 * v2), n * (v1 + 2 * v2))
        for threes in itertools.combinations(range(v1 + v2), v2):
            radices = [3 if k in threes else 2 for k in range(v1 + v2)]
            assert predicted_counts(n, radices, "twiddle") == twiddle, radices
            assert predicted_counts(n, radices, "recursive") == recursive, radices


def test_predicted_counts_converts_n():
    # Without the conversion a float n gave OpCounts(288.0, 216.0) and a
    # numpy n gave numpy counts.
    with pytest.raises(TypeError):
        predicted_counts(36.0, [2, 2, 3, 3], "twiddle")
    got = predicted_counts(np.int64(36), [2, 2, 3, 3], "twiddle")
    assert got == OpCounts(288, 216)
    assert type(got.multiplications) is int and type(got.additions) is int


def test_predicted_counts_general_radices():
    # only radix-2 stages get cheaper in the twiddle variant
    rec = predicted_counts(12, [4, 3], "recursive")
    twd = predicted_counts(12, [4, 3], "twiddle")
    assert rec.multiplications == twd.multiplications == 12 * 7
    mixed = predicted_counts(12, [2, 2, 3], "twiddle")
    assert mixed.multiplications == 12 * 7 - 2 * 12


@pytest.mark.parametrize(
    "p,n",
    [(5, 4), (13, 12), (97, 96), (193, 192), (257, 256), (769, 768)],
)
def test_measured_equals_predicted(p, n):
    plan = plan_transform(FieldParams(p), n)
    rng = np.random.default_rng(12)
    v = rng.integers(0, p, n)
    for variant, kernel in (("recursive", fft_recursive), ("twiddle", fft_twiddle)):
        counts = OpCounts()
        kernel(plan, v, counts)
        assert counts == predicted_counts(n, plan.radices, variant)


def test_lemma_negation_structure():
    # even order: the second half of the table is the negated first half
    for p, n in [(5, 4), (97, 96), (769, 768), (65537, 256)]:
        plan = plan_transform(FieldParams(p), n)
        assert plan.twiddles[n // 2] == p - 1
        t = np.arange(n // 2)
        assert np.array_equal(plan.twiddles[n // 2 + t], p - plan.twiddles[t])


# --- convolution ------------------------------------------------------------


def test_convolution_delta_identity():
    plan = plan_transform(FieldParams(97), 8)
    rng = np.random.default_rng(13)
    v = rng.integers(0, 97, 8)
    delta = np.array([1, 0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(cyclic_convolve_via_fft(plan, delta, v), v)
    zeros = np.zeros(8, dtype=np.int64)
    assert cyclic_convolve_via_fft(plan, zeros, zeros).tolist() == [0] * 8


def test_convolution_matches_direct():
    plan = plan_transform(FieldParams(97), 8)
    rng = np.random.default_rng(14)
    for _ in range(50):
        u = rng.integers(0, 97, 8)
        v = rng.integers(0, 97, 8)
        got = cyclic_convolve_via_fft(plan, u, v)
        assert got.tolist() == convolve_reference(97, u, v)


def test_digit_reverse_converts_slot():
    # Without the conversion, a float slot gives a float index (2.0 for 1.0).
    with pytest.raises(TypeError):
        digit_reverse([2, 3], 1.0)
    for s in range(6):
        got = digit_reverse([2, 3], np.int64(s))
        assert got == digit_reverse([2, 3], s)
        assert type(got) is int


# --- two-core stages --------------------------------------------------------


def pin_cores(monkeypatch, cores):
    """Make the kernels see `cores` usable CPUs: 1 forces the inline stages."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


@pytest.fixture(scope="module")
def plan786433():
    return plan_transform(FieldParams(786433), 786432)


def run_every_kernel(plan, v, w):
    """Each kernel's output, with its counts where it takes a counter."""
    out = {}
    for name, kernel in (("recursive", fft_recursive), ("twiddle", fft_twiddle)):
        counts = OpCounts()
        out[name] = kernel(plan, v, counts)
        out[name + " counts"] = counts
        out[name + " raw"] = kernel(plan, v, raw_order=True)
    out["ifft"] = ifft(plan, v)
    out["ifft raw"] = ifft(plan, v, raw_order=True)
    out["convolution"] = cyclic_convolve_via_fft(plan, v, w)
    return out


def assert_same_runs(got, expected):
    assert got.keys() == expected.keys()
    for key in expected:
        if isinstance(expected[key], np.ndarray):
            assert np.array_equal(got[key], expected[key]), key
        else:
            assert got[key] == expected[key], key


@pytest.mark.parametrize(
    "p, n, g", [(786433, 786432, None), (1811939329, 2**17 * 3, 13), (472393, 472392, None)]
)
def test_split_stages_match_inline_stages(monkeypatch, p, n, g):
    # F_786433 (n = 2^18 * 3) splits the columns of its first stage, then the
    # rows of 18 radix-2 stages.  At p = 2^26 * 27 + 1 every stage after the
    # first reduces its input first, so the reduce-first pass runs split too.
    # F_472393 (n = 2^3 * 3^10) splits rows with odd L, and its transposed
    # tail starts in a radix-3 stage.
    omega = None if g is None else pow(g, (p - 1) // n, p)
    plan = plan_transform(FieldParams(p), n, omega=omega)
    rng = np.random.default_rng(30)
    v, w = rng.integers(0, p, n), rng.integers(0, p, n)
    pin_cores(monkeypatch, 1)
    inline = run_every_kernel(plan, v, w)
    pin_cores(monkeypatch, 2)
    assert_same_runs(run_every_kernel(plan, v, w), inline)
    for variant in ("recursive", "twiddle"):
        assert inline[variant + " counts"] == predicted_counts(n, plan.radices, variant)
    assert np.array_equal(ifft(plan, inline["twiddle"]), v)
    assert "smoothntt-stages" in [t.name for t in threading.enumerate()]


def test_transposed_tail_matches_the_definition(monkeypatch):
    # From n = 2^17 on, the stages with r*m <= 32 run on the (r*m, L)
    # transpose.  At p = 2^26 * 27 + 1 every stage after the first reduces
    # its input first, so that pass runs on the transposed layout too.  Each
    # sampled output is checked against the defining sum, split and whole.
    p, n = 1811939329, 2**17 * 3
    plan = plan_transform(FieldParams(p), n, omega=pow(13, (p - 1) // n, p))
    rng = np.random.default_rng(36)
    v = rng.integers(0, p, n)
    i = np.arange(n)
    samples = [0, 1, 2, n // 2, n - 1, *rng.integers(0, n, 11)]
    # v_i * omega^(ij) < p^2 and the n reduced terms sum below n * p < 2^63.
    definition = [int((v * plan.twiddles[i * j % n] % p).sum()) % p for j in samples]
    for cores in (1, 2):
        pin_cores(monkeypatch, cores)
        for kernel in (fft_recursive, fft_twiddle):
            assert kernel(plan, v)[samples].tolist() == definition, (cores, kernel.__name__)


def test_callers_share_the_stage_worker(monkeypatch, plan786433):
    # Three callers, more than the two cores, put their halves on the one
    # worker; a short switch interval interleaves them finely.
    plan, p, n = plan786433, 786433, 786432
    pin_cores(monkeypatch, 2)
    inputs = [np.random.default_rng(32 + k).integers(0, p, n) for k in range(3)]
    expected = [fft_twiddle(plan, v) for v in inputs]
    got = [[] for _ in inputs]

    def call(k):
        for _ in range(2):
            got[k].append(fft_twiddle(plan, inputs[k]))

    callers = [threading.Thread(target=call, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for k in range(3):
        assert len(got[k]) == 2
        assert all(np.array_equal(out, expected[k]) for out in got[k])


def test_worker_exception_reaches_the_caller(monkeypatch, plan786433):
    plan, p, n = plan786433, 786433, 786432
    pin_cores(monkeypatch, 2)
    v = np.random.default_rng(34).integers(0, p, n)
    expected = fft_twiddle(plan, v)
    caller = threading.get_ident()
    stage = transform_module._stage

    def failing_on_the_worker(*args):
        if threading.get_ident() != caller:
            raise ArithmeticError("worker half")
        stage(*args)

    monkeypatch.setattr(transform_module, "_stage", failing_on_the_worker)
    with pytest.raises(ArithmeticError, match="worker half"):
        fft_twiddle(plan, v)
    monkeypatch.setattr(transform_module, "_stage", stage)
    assert np.array_equal(fft_twiddle(plan, v), expected)


def test_small_transforms_start_no_thread():
    # Below n = 2^17 every stage runs inline, whatever the CPU count.
    code = (
        "import threading\n"
        "from smoothntt import FieldParams\n"
        "from smoothntt.transform import cyclic_convolve_via_fft, fft_recursive, fft_twiddle, ifft, plan_transform\n"
        "plan = plan_transform(FieldParams(65537), 65536)\n"
        "v = list(range(65536))\n"
        "fft_recursive(plan, v)\n"
        "ifft(plan, fft_twiddle(plan, v, raw_order=True))\n"
        "cyclic_convolve_via_fft(plan, v, v)\n"
        "print(threading.active_count())\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "1\n"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_cpu_starts_no_thread():
    # At n >= 2^17 the stages split only when the process may run on two or
    # more CPUs; held to one, every stage and pass runs whole in the caller.
    code = (
        "import os, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "from smoothntt import FieldParams\n"
        "from smoothntt.transform import cyclic_convolve_via_fft, fft_recursive, fft_twiddle, ifft, plan_transform\n"
        "plan = plan_transform(FieldParams(147457), 147456)\n"
        "v = list(range(147456))\n"
        "fft_recursive(plan, v)\n"
        "ifft(plan, fft_twiddle(plan, v, raw_order=True))\n"
        "cyclic_convolve_via_fft(plan, v, v)\n"
        "print(threading.active_count())\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "1\n"
