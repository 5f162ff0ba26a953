"""Exception types shared across the package."""


class InvalidField(ValueError):
    """Modulus is not a valid field prime in range (2, 2**31)."""


class ZeroInverse(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class ZeroElement(ValueError):
    """Multiplicative order of zero requested."""


class NotADivisor(ValueError):
    """Requested transform length does not divide the group order p - 1."""


class WrongOrder(ValueError):
    """Supplied root of unity does not have multiplicative order exactly n."""


class BadRadices(ValueError):
    """Radix schedule is empty of meaning: product != n or a radix < 2."""


class LengthMismatch(ValueError):
    """Input vector length differs from the plan's transform length."""


class NotReduced(ValueError):
    """Input vector entry is not a residue in [0, p)."""


class OutOfRange(IndexError):
    """Slot index outside [0, n) passed to the digit-reversal map."""


class VectorFileError(ValueError):
    """Vector file is malformed: bad header, bad values, or wrong line count."""
