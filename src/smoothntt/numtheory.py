"""Integer factorization, totients, generator search, smooth-prime discovery.

Everything here works on integers below 2**31 (the field modulus bound), so
trial division is entirely adequate for factoring and the generator search
only ever needs a handful of modular exponentiations per candidate.  The
number of candidates is another matter: only elements of the order-n
subgroup pass, so a subgroup of order n scans about p/n of them; for n = 96
in F_2013265921 that took 37 s on a 2-core x86-64 host.

Each prime is proven once, where it is first established.  A hand-built
`Factorization` is checked by its constructor, Miller-Rabin included;
`factorize` proves its primes by the trial division that finds them and
skips that check.  `prime_search` lets `FieldParams` be the only primality
test of a candidate.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count

from .errors import InvalidField, NotADivisor, ZeroElement
from .field import FIELD_MODULUS_LIMIT, FieldElement, FieldParams, fp_pow, is_prime


@dataclass(frozen=True)
class Factorization:
    """A positive integer n as an ordered product of prime powers.

    The constructor validates a hand-built record: strictly increasing
    primes, each proven by Miller-Rabin, positive exponents, and a product
    equal to n.  It first converts n, each prime and each exponent with
    `operator.index`, so a float raises TypeError and a numpy integer is
    stored as a plain int.  `factorize` builds records that hold all of this
    by construction, so it does not run these checks.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", operator.index(self.n))
        factors = tuple((operator.index(q), operator.index(e)) for q, e in self.factors)
        object.__setattr__(self, "factors", factors)
        prod = 1
        prev = 1
        for prime, exp in self.factors:
            if prime <= prev:
                raise ValueError("factor primes must be strictly increasing")
            if exp < 1:
                raise ValueError("exponents must be positive")
            if not is_prime(prime):
                raise ValueError(f"{prime} is not prime")
            prev = prime
            prod *= prime**exp
        if prod != self.n:
            raise ValueError(f"factors multiply to {prod}, not {self.n}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __str__(self) -> str:
        """Compact form like "2^14*3^2"; exponent 1 prints bare ("2^18*3")."""
        if not self.factors:
            return "1"
        return "*".join(
            f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors
        )


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1 by trial division.

    The divisors tried are 2, 3 and then every 6k - 1 and 6k + 1 (5, 7, 11,
    13, ...), up to the square root of what is left to factor.  That trial
    division proves every factor prime, so no primality test runs here.
    n is converted with `operator.index`: a non-integer raises TypeError and
    a numpy integer gives plain-int fields.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors = []
    m = n
    for d in chain((2, 3), chain.from_iterable(zip(count(5, 6), count(7, 6)))):
        if d * d > m:
            break
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            factors.append((d, e))
    if m > 1:
        factors.append((m, 1))
    # Bypass the validating constructor: a d that divides m is prime because
    # every smaller prime is already stripped, and a cofactor m > 1 left once
    # d * d > m has no divisor up to its square root.  The primes ascend, each
    # exponent is at least 1 and their product is n by the loop itself.
    f = object.__new__(Factorization)
    object.__setattr__(f, "n", n)
    object.__setattr__(f, "factors", tuple(factors))
    return f


def euler_phi(f: Factorization) -> int:
    """Euler's totient of f.n, computed exactly as prod p^(e-1) * (p-1)."""
    phi = 1
    for p, e in f.factors:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def generator_probability(f: Factorization) -> Fraction:
    """Chance phi(n)/n that a uniform element generates a cyclic group of order n."""
    if f.n < 2:
        raise ValueError("needs a group order n >= 2")
    return Fraction(euler_phi(f), f.n)


def element_order(params: FieldParams, a: FieldElement, f: Factorization) -> int:
    """Exact multiplicative order of a in F_p*, given f = factorize(p - 1).

    Starts from the group order and strips prime factors while the power
    stays 1; by Lagrange the result is the order.  a is converted with
    `operator.index`, so a numpy integer works and a float raises TypeError.
    """
    a = operator.index(a)
    if a % params.p == 0:
        raise ZeroElement("0 has no multiplicative order")
    if f.n != params.p - 1:
        raise ValueError("factorization must be of p - 1")
    order = f.n
    for q in f.primes:
        while order % q == 0 and fp_pow(a, order // q, params) == 1:
            order //= q
    return order


def find_generator(params: FieldParams, n: int) -> FieldElement:
    """Smallest a >= 2 generating the order-n subgroup of F_p*.

    Requires n | p - 1.  Candidates are scanned in ascending order; a
    candidate generates the subgroup iff a^n = 1 and a^(n/r) != 1 for every
    prime r | n.  (For n = p - 1 the first condition is Fermat and the scan
    degenerates to the classic full-group generator search.)  n = 1 returns
    1, the only element of the trivial subgroup.  Only about one candidate
    in (p - 1)/n lies in the subgroup, so the scan tries about p/n of them:
    fast at full length, slow for a small subgroup of a large field.
    n is converted with `operator.index`, so a float raises TypeError.
    """
    n = operator.index(n)
    if n < 1 or (params.p - 1) % n != 0:
        raise NotADivisor(f"{n} does not divide p - 1 = {params.p - 1}")
    if n == 1:
        return 1
    prime_factors = factorize(n).primes
    full_group = n == params.p - 1
    for a in range(2, params.p):
        if not full_group and fp_pow(a, n, params) != 1:
            continue
        if all(fp_pow(a, n // r, params) != 1 for r in prime_factors):
            return a
    raise RuntimeError("unreachable: a cyclic group always has a generator")


@dataclass(frozen=True)
class SmoothPrimeRecord:
    """A prime p whose group order p - 1 factors over a small prime set."""

    p: int
    factorization: Factorization
    generator: FieldElement


def _smooth_numbers(lo: int, hi: int, primes: tuple[int, ...]) -> list[int]:
    """All products of powers of `primes` in the open interval (lo, hi)."""
    found = [1]
    for q in primes:
        for value in found[:]:
            value *= q
            while value < hi:
                found.append(value)
                value *= q
    return sorted(m for m in found if lo < m < hi)


def prime_search(
    lo: int, hi: int, allowed_primes: set[int]
) -> list[SmoothPrimeRecord]:
    """Every prime p in (lo, hi) whose p - 1 factors entirely over allowed_primes.

    Candidates are enumerated directly as smooth numbers m = p - 1 (never by
    scanning the whole interval), and building `FieldParams(m + 1)` is their
    one primality test.  Each record carries the factorization of p - 1 and
    the smallest full-group generator.  Each allowed prime is converted with
    `operator.index`, so a float raises TypeError before any search.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    if not allowed_primes:
        raise ValueError("allowed_primes must be non-empty")
    if hi > FIELD_MODULUS_LIMIT + 1:
        raise InvalidField("search bound exceeds the 2**31 modulus limit")
    base = tuple(sorted(map(operator.index, allowed_primes)))
    for q in base:
        if not is_prime(q):
            raise ValueError(f"allowed factor {q} is not prime")
    records = []
    # m > 1, so p = 2 (whose generator would be of the trivial group) is never
    # a candidate; p = 2**31 fails the FieldParams range check.
    for m in _smooth_numbers(max(lo, 2) - 1, hi - 1, base):
        try:
            params = FieldParams(m + 1)
        except InvalidField:
            continue
        records.append(SmoothPrimeRecord(params.p, factorize(m), find_generator(params, m)))
    return records
