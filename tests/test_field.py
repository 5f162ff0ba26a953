"""Prime-field arithmetic against direct wide-integer oracles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothntt.errors import InvalidField, ZeroInverse
from smoothntt.field import (
    FIELD_MODULUS_LIMIT,
    FieldParams,
    fp_inv,
    fp_pow,
    is_prime,
)

SMALL_PRIMES = [5, 17, 97, 65537, 147457]

primes_st = st.sampled_from(SMALL_PRIMES)


@st.composite
def field_pairs(draw):
    p = draw(primes_st)
    a = draw(st.integers(0, p - 1))
    b = draw(st.integers(0, p - 1))
    return FieldParams(p), a, b


def test_pow_zero_exponent():
    params = FieldParams(97)
    for a in (0, 1, 42, 96):
        assert fp_pow(a, 0, params) == 1


def test_pow_by_repeated_multiplication_oracle():
    params = FieldParams(17)
    acc = 1
    for _ in range(8):
        acc = acc * 3 % 17
    assert acc == 16
    assert fp_pow(3, 8, params) == acc


def test_pow_half_group_order_is_minus_one():
    # 3 generates F_65537*, so 3^(65536/2) must be -1.
    params = FieldParams(65537)
    acc = 3
    for _ in range(15):  # 3^(2^15) by repeated squaring
        acc = acc * acc % 65537
    assert acc == 65536
    assert fp_pow(3, 32768, params) == 65536


def test_pow_converts_base_and_exponent():
    # Numpy integers are read as plain ints; a float base or exponent is a
    # TypeError from operator.index, not from pow.
    params = FieldParams(97)
    assert fp_pow(np.int64(5), 3, params) == fp_pow(5, np.int32(3), params) == 125 % 97
    assert type(fp_pow(np.int64(5), np.uint64(3), params)) is int
    for a, e in ((5.0, 3), (5, 3.0)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            fp_pow(a, e, params)


def test_pow_negative_exponent_rejected():
    with pytest.raises(ValueError):
        fp_pow(2, -1, FieldParams(17))


def test_inv_examples():
    assert fp_inv(1, FieldParams(17)) == 1
    assert fp_inv(4, FieldParams(5)) == 4
    assert fp_inv(147456, FieldParams(147457)) == 147456


def test_inv_zero():
    for p, a in ((17, 0), (17, 34), (97, 97)):
        with pytest.raises(ZeroInverse):
            fp_inv(a, FieldParams(p))


@given(field_pairs())
def test_inverse_property(data):
    params, a, _ = data
    if a != 0:
        assert a * fp_inv(a, params) % params.p == 1


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_fermat(p):
    params = FieldParams(p)
    for a in (1, 2, 3, p - 2, p - 1):
        assert fp_pow(a, p - 1, params) == 1


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(65537)
    assert is_prime(131071)


def test_is_prime_against_trial_division():
    def oracle(q):
        if q < 2:
            return False
        d = 2
        while d * d <= q:
            if q % d == 0:
                return False
            d += 1
        return True

    for q in range(0, 2000):
        assert is_prime(q) == oracle(q), q


def test_is_prime_edge_values():
    assert not is_prime(0)
    assert is_prime(2)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2)


def test_is_prime_against_a_sieve():
    n = 10**5
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for d in range(2, int(n**0.5) + 1):
        if sieve[d]:
            sieve[d * d :: d] = False
    assert [is_prime(q) for q in range(n)] == sieve.tolist()


def test_is_prime_witness_sets():
    # Below 4759123141 the witnesses are (2, 7, 61).  3215031751 is a strong
    # pseudoprime to 2, 3, 5 and 7, so 61 must catch it; 25326001 is one to
    # 2, 3 and 5, the thirteen-witness set's first three.
    assert 3215031751 == 151 * 751 * 28351 and not is_prime(3215031751)
    assert 25326001 == 2251 * 11251 and not is_prime(25326001)
    # 4759123141 is the least strong pseudoprime to 2, 7 and 61, so only the
    # thirteen-witness set, which starts at that bound, rejects it.
    assert 4759123141 == 48781 * 97561 and not is_prime(4759123141)
    # 61 is both a trial divisor and a witness; no witness may be 0 mod q.
    assert is_prime(61)
    assert is_prime(2**31 - 1)
    # A Mersenne prime above the bound takes the thirteen-witness path.
    assert is_prime(2**61 - 1)
    # The least strong pseudoprime to the twelve primes up to 37; only the
    # witness 41 rejects it.
    q = 318665857834031151167461
    assert q == 399165290221 * 798330580441 and not is_prime(q)


def test_field_params_validation():
    with pytest.raises(InvalidField):
        FieldParams(10)
    with pytest.raises(InvalidField):
        FieldParams(2)  # bound is exclusive below
    with pytest.raises(InvalidField):
        FieldParams(FIELD_MODULUS_LIMIT + 11)
    assert FieldParams(2**31 - 1).p == 2**31 - 1


def test_field_params_converts_integer_types():
    # A numpy integer modulus is converted to int; anything that is not an
    # integer is an InvalidField, not a raw TypeError from pow.
    params = FieldParams(np.int64(2013265921))
    assert params == FieldParams(2013265921)
    assert type(params.p) is int
    for bad in (97.0, "97", np.float64(97.0)):
        with pytest.raises(InvalidField):
            FieldParams(bad)


@pytest.mark.parametrize("bad", [2.0, 7.0, 97.0, np.float64(7.0), "7"], ids=repr)
def test_is_prime_rejects_non_integers(bad):
    # Without the conversion, 2.0 and 7.0 pass the small-witness shortcut
    # (q % w == 0 and q == w) as primes.
    with pytest.raises(TypeError):
        is_prime(bad)


def test_is_prime_numpy_integers_match_ints():
    for q in list(range(0, 200)) + [65537, 147457, 2**31 - 1, 2**31 - 2]:
        for kind in (np.int64, np.int32, np.uint64):
            assert is_prime(kind(q)) is is_prime(q), (kind, q)
