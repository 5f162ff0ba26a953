"""Exact arithmetic in the prime field F_p for moduli below 2**31.

Residues are plain reduced ints in [0, p).  The modulus bound guarantees
that a product of two residues fits a 64-bit intermediate, so widening
multiply followed by a single reduction is exact; no Montgomery or Barrett
form is needed.
"""

import operator
from dataclasses import dataclass

from .errors import InvalidField, ZeroInverse

# A residue in [0, p); kept as a plain int rather than a wrapper class.
FieldElement = int

FIELD_MODULUS_LIMIT = 1 << 31

# Two Miller-Rabin witness sets.  (2, 7, 61) is deterministic for every
# q < 4,759,123,141 (Jaeschke, Math. Comp. 1993), which covers every field
# modulus; that bound is the least strong pseudoprime to all three.  The
# thirteen primes up to 41 are deterministic for every q below
# 3317044064679887385961981 = 1287836182261 * 2575672364521 (about
# 3.317 * 10**24, the least strong pseudoprime to all thirteen; Sorenson &
# Webster, Math. Comp. 2017), so `Factorization` can check larger primes;
# from there on a pass means only "probably prime".  41 is in the set
# because 318665857834031151167461, a strong pseudoprime to the twelve
# primes up to 37, passes them all.
_SMALL_WITNESSES = (2, 7, 61)
_SMALL_WITNESS_LIMIT = 4_759_123_141
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(q: int) -> bool:
    """Miller-Rabin primality test, exact for every q below 3.317 * 10**24.

    Trial division by the thirteen primes up to 41 and by 61 comes first, so
    no witness is 0 mod q.  Then q < 4,759,123,141, every field modulus
    included, runs the witnesses (2, 7, 61); a larger q runs the thirteen
    primes up to 41, proven below 3.317 * 10**24 and only probable above.

    q is converted with `operator.index`: a non-integer raises TypeError
    before any test, and a numpy integer is tested as the plain int.
    """
    q = operator.index(q)
    if q < 2:
        return False
    for w in (*_MR_WITNESSES, 61):
        if q % w == 0:
            return q == w
    d = q - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _SMALL_WITNESSES if q < _SMALL_WITNESS_LIMIT else _MR_WITNESSES:
        x = pow(w, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """A validated odd prime modulus p with 2 < p < 2**31, defining F_p."""

    p: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "p", operator.index(self.p))
        except TypeError as exc:
            raise InvalidField(f"modulus {self.p!r} is not an integer") from exc
        # The range check comes first: Miller-Rabin on a huge modulus takes seconds.
        if not (2 < self.p < FIELD_MODULUS_LIMIT):
            raise InvalidField(f"modulus {self.p} outside (2, 2**31)")
        if not is_prime(self.p):
            raise InvalidField(f"modulus {self.p} is not prime")


def fp_pow(a: FieldElement, e: int, params: FieldParams) -> FieldElement:
    """Return a**e mod p by square-and-multiply; a**0 == 1.

    a and e are converted with `operator.index`, so a numpy integer works
    and a float raises TypeError.
    """
    a = operator.index(a)
    e = operator.index(e)
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    return pow(a, e, params.p)


def fp_inv(a: FieldElement, params: FieldParams) -> FieldElement:
    """Return the multiplicative inverse a**(p-2) mod p.

    Raises ZeroInverse for any a that is 0 mod p.
    """
    if a % params.p == 0:
        raise ZeroInverse("0 has no multiplicative inverse")
    return fp_pow(a, params.p - 2, params)
