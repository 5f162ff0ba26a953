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

# Fixed Miller-Rabin witness set: deterministic for every q < 3.3 * 10**24
# (Sorenson & Webster), far beyond FIELD_MODULUS_LIMIT.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(q: int) -> bool:
    """Deterministic primality test, exact for every q below 2**31.

    q is converted with `operator.index`: a non-integer raises TypeError
    before any test, and a numpy integer is tested as the plain int.
    """
    q = operator.index(q)
    if q < 2:
        return False
    for w in _MR_WITNESSES:
        if q % w == 0:
            return q == w
    d = q - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
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
