"""Factorization, totient, generator and smooth-prime search tests.

Oracles here are deliberately dumb: gcd counting for the totient, repeated
multiplication for element orders, full trial division for primality.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smoothntt.errors import NotADivisor, ZeroElement
from smoothntt.field import FieldParams, is_prime
from smoothntt.numtheory import (
    Factorization,
    element_order,
    euler_phi,
    factorize,
    find_generator,
    generator_probability,
    prime_search,
)


def expand(f: Factorization) -> int:
    out = 1
    for p, e in f.factors:
        out *= p**e
    return out


def order_by_repeated_multiplication(p: int, a: int) -> int:
    x, order = a % p, 1
    while x != 1:
        x = x * a % p
        order += 1
    return order


def test_factorize_unit():
    f = factorize(1)
    assert f.factors == ()
    assert expand(f) == 1
    assert str(f) == "1"


def test_factorize_paper_style_values():
    assert factorize(147456).factors == ((2, 14), (3, 2))
    assert factorize(113246208).factors == ((2, 22), (3, 3))


def test_factorize_general():
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(97).factors == ((97, 1),)


def test_factorize_exhaustive_reconstruction():
    # expanding every factorization up to a million reproduces the input
    for n in range(1, 10**6 + 1):
        f = factorize(n)
        assert expand(f) == n


@given(st.integers(1, 2**31 - 1))
@settings(max_examples=200)
def test_factorize_reconstruction_random(n):
    f = factorize(n)
    assert expand(f) == n
    assert all(is_prime(p) for p in f.primes)
    assert list(f.primes) == sorted(set(f.primes))


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 2),))  # product mismatch
    with pytest.raises(ValueError):
        Factorization(12, ((3, 1), (2, 2)))  # not ascending
    with pytest.raises(ValueError):
        Factorization(16, ((4, 2),))  # not prime


def test_str_format():
    assert str(factorize(147456)) == "2^14*3^2"
    assert str(factorize(786432)) == "2^18*3"
    assert str(factorize(2)) == "2"


def test_euler_phi_examples():
    assert euler_phi(factorize(1)) == 1
    assert euler_phi(factorize(147456)) == 49152
    assert euler_phi(factorize(12)) == 4


def test_euler_phi_brute_force_exhaustive():
    for n in range(1, 10**4 + 1):
        counted = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
        assert euler_phi(factorize(n)) == counted


def test_generator_probability():
    assert generator_probability(factorize(147456)) == Fraction(1, 3)
    assert generator_probability(factorize(786432)) == Fraction(1, 3)
    assert generator_probability(factorize(2)) == Fraction(1, 2)


def test_find_generator_table_values():
    assert find_generator(FieldParams(65537), 65536) == 3
    assert find_generator(FieldParams(786433), 786432) == 10
    assert find_generator(FieldParams(17), 16) == 3


def test_find_generator_small_field_oracle():
    # exhaustive order computation over F_17: 2 has order 8, 3 has order 16
    assert order_by_repeated_multiplication(17, 2) == 8
    assert order_by_repeated_multiplication(17, 3) == 16


def test_find_generator_subgroup():
    # smallest element of order exactly 8 in F_17* is 2
    assert find_generator(FieldParams(17), 8) == 2
    params = FieldParams(65537)
    for n in (16, 256, 4096):
        a = find_generator(params, n)
        assert order_by_repeated_multiplication(65537, a) == n
        for b in range(2, a):
            assert order_by_repeated_multiplication(65537, b) != n


def test_find_generator_trivial_subgroup():
    assert find_generator(FieldParams(17), 1) == 1


def test_find_generator_errors():
    with pytest.raises(NotADivisor):
        find_generator(FieldParams(17), 5)


def test_element_order_examples():
    params = FieldParams(17)
    f = factorize(16)
    assert element_order(params, 1, f) == 1
    assert element_order(params, 2, f) == 8
    big = FieldParams(147457)
    assert element_order(big, 10, factorize(147456)) == 147456


def test_element_order_converts_its_element():
    # A numpy integer is read as the plain int; a float is a TypeError from
    # operator.index, not from pow.
    params, f = FieldParams(97), factorize(96)
    for kind in (np.int64, np.int32, np.uint64):
        assert element_order(params, kind(5), f) == element_order(params, 5, f) == 96
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        element_order(params, 5.0, f)


def test_element_order_zero():
    with pytest.raises(ZeroElement):
        element_order(FieldParams(17), 0, factorize(16))


def test_element_order_matches_repeated_multiplication():
    for p in (13, 97, 193):
        params = FieldParams(p)
        f = factorize(p - 1)
        for a in range(1, p):
            assert element_order(params, a, f) == order_by_repeated_multiplication(p, a)


def sieve_primes(limit: int) -> list[int]:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if mask[i]:
            mask[i * i :: i] = False
    return np.nonzero(mask)[0].tolist()


def test_find_generator_minimality_exhaustive():
    # for every odd prime up to 10^4 the returned generator is the smallest
    for p in sieve_primes(10**4):
        if p == 2:
            continue
        params = FieldParams(p)
        f = factorize(p - 1)
        g = find_generator(params, p - 1)
        assert element_order(params, g, f) == p - 1
        for b in range(2, g):
            assert element_order(params, b, f) < p - 1


def test_prime_search_table_window():
    records = prime_search(2**16, 2**21, {2, 3})
    assert len(records) == 15
    assert records[0].p == 65537
    assert records[0].factorization.factors == ((2, 16),)
    assert records[0].generator == 3
    assert records[-1].p == 1990657
    assert records[-1].factorization.factors == ((2, 13), (3, 5))
    assert records[-1].generator == 5
    assert [r.p for r in records] == sorted(r.p for r in records)


def test_prime_search_empty_interval():
    assert prime_search(5, 6, {2}) == []


def test_prime_search_perspective_window():
    records = prime_search(2**26, 2**27, {2, 3})
    by_p = {r.p: r for r in records}
    assert 113246209 in by_p
    assert by_p[113246209].factorization.factors == ((2, 22), (3, 3))


def test_prime_search_records_are_valid():
    for rec in prime_search(10, 10**4, {2, 3, 5}):
        assert is_prime(rec.p)
        assert set(rec.factorization.primes) <= {2, 3, 5}
        assert rec.factorization.n == rec.p - 1
        assert order_by_repeated_multiplication(rec.p, rec.generator) == rec.p - 1


@pytest.mark.parametrize(
    "lo, hi, allowed",
    [(10, 10**4, {2, 3, 5}), (2, 10**5, {2, 5, 7}), (2, 2**17, {2})],
)
def test_prime_search_finds_every_smooth_prime(lo, hi, allowed):
    def smooth(m):
        for q in allowed:
            while m % q == 0:
                m //= q
        return m == 1

    expected = [q for q in range(lo + 1, hi) if is_prime(q) and smooth(q - 1)]
    assert [r.p for r in prime_search(lo, hi, allowed)] == expected
    if allowed == {2}:
        assert expected == [3, 5, 17, 257, 65537]


def test_prime_search_open_bounds():
    # 3 has p-1 = 2: excluded when lo=3, included when lo=2
    assert [r.p for r in prime_search(3, 5, {2})] == []
    assert [r.p for r in prime_search(2, 6, {2})] == [3, 5]


def test_prime_search_argument_validation():
    with pytest.raises(ValueError):
        prime_search(10, 10, {2})
    with pytest.raises(ValueError):
        prime_search(1, 10, set())
    with pytest.raises(ValueError):
        prime_search(1, 10, {4})


def factor_by_every_divisor(n: int) -> tuple[tuple[int, int], ...]:
    # dumb oracle: strip every d >= 2 in turn, no wheel and no primality test
    factors, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def test_factorize_runs_no_primality_test(monkeypatch):
    # trial division proves each factor prime, so factorize never calls
    # Miller-Rabin; the validating constructor accepts every result
    def no_test(q):
        raise AssertionError(f"is_prime({q}) called")

    values = list(range(1, 2001)) + [
        2**31 - 1,  # prime
        2 * (2**30 - 35),  # 2 times a prime near 2**30
        65537 * 32749,  # two primes, the cofactor above the square root
        3 * 5 * 786433,
        2**31 - 2,
    ]
    with monkeypatch.context() as m:
        m.setattr("smoothntt.numtheory.is_prime", no_test)
        results = [factorize(n) for n in values]
    for n, f in zip(values, results):
        assert f.n == n
        assert f.factors == factor_by_every_divisor(n)
        assert Factorization(f.n, f.factors) == f


def test_prime_search_tests_each_candidate_once(monkeypatch):
    tested = Counter()

    def counting(original):
        def wrapped(q):
            tested[q] += 1
            return original(q)

        return wrapped

    monkeypatch.setattr("smoothntt.field.is_prime", counting(is_prime))
    monkeypatch.setattr("smoothntt.numtheory.is_prime", counting(is_prime))
    records = prime_search(2**16, 2 * 10**6, {2, 3})
    assert len(records) == 15
    assert all(tested[r.p] == 1 for r in records)
    assert max(tested.values()) == 1


@pytest.mark.parametrize("bad", [2.5, 6.0, 7.0, Fraction(12), "12"], ids=repr)
def test_factorize_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        factorize(bad)


def test_factorize_numpy_integers_give_plain_ints():
    for n, factors in ((97, ((97, 1),)), (12, ((2, 2), (3, 1)))):
        f = factorize(np.int64(n))
        assert f == Factorization(n, factors)
        assert type(f.n) is int
        assert all(type(p) is int and type(e) is int for p, e in f.factors)


def test_factorization_converts_with_index():
    # A float n, prime or exponent is a TypeError, not a record that prints
    # "2.0*3"; numpy integers are stored as plain ints.
    with pytest.raises(TypeError):
        Factorization(6.0, ((2, 1), (3, 1)))
    with pytest.raises(TypeError):
        Factorization(6.0, ((2.0, 1), (3, 1)))
    with pytest.raises(TypeError):
        Factorization(12, ((2, 2.0), (3, 1)))
    f = Factorization(np.int64(12), ((np.int64(2), np.int32(2)), (3, np.uint8(1))))
    assert f == factorize(12)
    assert str(f) == "2^2*3"
    assert type(f.n) is int
    assert all(type(p) is int and type(e) is int for p, e in f.factors)


def test_find_generator_converts_n():
    params = FieldParams(97)
    for n in (96, 32, 12, 1):
        a = find_generator(params, np.int64(n))
        assert a == find_generator(params, n)
        assert type(a) is int
    with pytest.raises(TypeError):
        find_generator(params, 96.0)


def test_prime_search_rejects_float_primes():
    # Without the conversion, {2.0, 3} returns [] where {2, 3} finds 15
    # primes: a silently wrong answer.
    with pytest.raises(TypeError):
        prime_search(2**16, 2 * 10**6, {2.0, 3})
    with pytest.raises(TypeError):
        prime_search(1, 100, {np.float64(3)})


def test_prime_search_numpy_primes_match_ints():
    expected = prime_search(2**16, 2 * 10**6, {2, 3})
    got = prime_search(2**16, 2 * 10**6, {np.int64(2), 3})
    assert len(got) == 15
    assert got == expected
    for r in got:
        assert type(r.p) is int and type(r.generator) is int
        assert all(type(p) is int for p in r.factorization.primes)
