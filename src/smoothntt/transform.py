"""Exact DFTs over F_p: a direct-definition oracle plus self-sorting mixed-radix FFTs.

A length-n transform needs an element omega of multiplicative order exactly
n, which exists iff n | p - 1.  When n factors as r_1 * r_2 * ... * r_s the
transform decomposes into s stages of r_k-point butterflies.

The staged kernels use the self-sorting (Stockham) layout of Temperton's
mixed-radix FFTs.  Before stage k, with L = r_1*...*r_{k-1} and
m = n / (L * r_k), the buffer is viewed as an (L, r_k, m) array X, and the
stage writes an (r_k, L, m) view Y of a second buffer whose row l0 + L*l1 is
sum_j e1[l1, l0]^j * X[l0, j, :].  Here e1 is the omega^k table read with
stride m and viewed as (r_k, L), so e1[l1, l0] = omega^(m*(l0 + L*l1)) with
no copy.  The two buffers then swap roles.  After the last stage (L = n,
m = 1) the output is in natural order.  `raw_order=True` gathers the
natural output into digit-reversed order (`digit_reverse` maps slots to
coefficient indices).

Each kernel call owns three n-element int64 buffers: the private copy of
its input, the stage output, and a product buffer each butterfly leg is
multiplied into.  Stages write only through `out=` ufuncs and in-place
reductions.  Leg 0 reads omega^0, leg 1 reads e1 itself, and legs j >= 2
read e1^j, computed per stage as e1^(j-1) * e1 % p.  Those powers have
n / m entries, so a transform whose last radix is 3 peaks at five n-element
buffers.  Like the table, the powers e1^j are twiddle generation and
`OpCounts` does not count them: n extra multiplications per transform at
F_786433 (one radix-3 stage) and 1.5n at F_472393 (ten).

Two kernel variants are provided.  `fft_recursive` multiplies every butterfly
term by a full twiddle-table entry, exponent zero included: exactly
n * (r_1 + ... + r_s) multiplications and n * (r_1 + ... + r_s - s)
additions.  `fft_twiddle` rearranges the twiddles so a radix-2 stage applies
one input twiddle per element and then adds/subtracts: since an order-n
omega with even n satisfies omega^(n/2 + t) = -omega^t, the second butterfly
row reuses the negated product, and the stage costs n multiplications
instead of 2n.  Stages of radix >= 3 are unchanged.  Operation counters
tally exactly these performed multiplications and additions; the
subtractions realizing the negation are counted as additions, the negation
itself costs nothing.

All kernels run on int64 numpy arrays.  Inputs must be residues in [0, p)
and p < 2**31, so single products never overflow and butterfly sums are
reduced before they can grow past 63 bits; results are bit-exact field values.

The oracle `dft_naive` keeps no state and shares only the input check and
the omega^k table with the kernels.  It evaluates the definition one block
of rows of the matrix omega^(j*i) at a time: the first block is gathered
from the table once, and every later block is the one before it times
omega^(rows*i), since omega^((j + rows)*i) = omega^(j*i) * omega^(rows*i)
exactly in F_p.  `idft_naive` reads the same definition at index -j mod n.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRadices,
    LengthMismatch,
    NotADivisor,
    NotReduced,
    OutOfRange,
    WrongOrder,
)
from .field import FieldElement, FieldParams, fp_inv
from .numtheory import element_order, factorize, find_generator

RECURSIVE = "recursive"
TWIDDLE = "twiddle"
VARIANTS = (RECURSIVE, TWIDDLE)

# Matrix entries dft_naive holds per block of rows (int64: 512 KiB).
_NAIVE_BLOCK_ELEMS = 1 << 16


@dataclass
class OpCounts:
    """Exact tallies of field multiplications and additions."""

    multiplications: int = 0
    additions: int = 0


def digit_reverse(radices: list[int] | tuple[int, ...], slot: int) -> int:
    """Map a raw-order slot to its natural coefficient index.

    The slot is decomposed into digits (d_1, ..., d_s) under the input
    strides iw_k = r_{k+1}*...*r_s and reassembled under the output weights
    jw_k = r_1*...*r_{k-1}.  For an all-2 schedule this is bit reversal; for
    a single radix it is the identity.
    """
    n = math.prod(radices)
    if not 0 <= slot < n:
        raise OutOfRange(f"slot {slot} outside [0, {n})")
    index = 0
    jw = 1
    iw = n
    for r in radices:
        iw //= r
        index += (slot // iw) % r * jw
        jw *= r
    return index


@dataclass(frozen=True, eq=False)
class DigitPermutation:
    """Bijection from digit-reversed storage slots to coefficient indices."""

    n: int
    radices: tuple[int, ...]
    forward: np.ndarray  # forward[slot] = coefficient index

    @classmethod
    def from_radices(cls, radices: tuple[int, ...]) -> "DigitPermutation":
        # Index digits (d_s, ..., d_1) read in slot order (d_1, ..., d_s).
        n = math.prod(radices)
        forward = np.arange(n, dtype=np.int64).reshape(radices[::-1]).T.reshape(n)
        return cls(n, radices, forward)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Scatter digit-reversed values into natural order."""
        out = np.empty_like(values)
        out[self.forward] = values
        return out


@dataclass(frozen=True, eq=False)
class TransformPlan:
    """Precomputed description of one length-n transform over F_p.

    The plan holds the radix schedule and one table, omega^k for k in
    [0, n); the kernels, the inverse and the oracle read every power of
    omega they need from it.  `plan_transform` marks the table read-only,
    so no kernel can write through its views of it: a plan is immutable
    and safe to share across threads.
    """

    params: FieldParams
    n: int
    omega: FieldElement
    radices: tuple[int, ...]
    twiddles: np.ndarray
    inv_n: FieldElement

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def permutation(self) -> DigitPermutation:
        """Slot-to-coefficient map of the raw-order output, built on each read."""
        return DigitPermutation.from_radices(self.radices)


def build_twiddle_table(
    params: FieldParams, omega: FieldElement, n: int
) -> np.ndarray:
    """Table of omega^k for k in [0, n) as an int64 array.

    Built by repeated doubling (log n vectorized passes), never by n calls
    to modular exponentiation.
    """
    p = params.p
    table = np.empty(n, dtype=np.int64)
    table[0] = 1
    filled = 1
    step = omega % p
    while filled < n:
        chunk = min(filled, n - filled)
        dst = table[filled : filled + chunk]
        np.multiply(table[:chunk], step, out=dst)
        dst %= p
        filled *= 2
        step = step * step % p
    return table


def _default_radices(n: int) -> tuple[int, ...]:
    """Nondecreasing prime factors of n with multiplicity."""
    out: list[int] = []
    for prime, exp in factorize(n).factors:
        out.extend([prime] * exp)
    return tuple(out)


def _checked_schedule(radices: list[int] | tuple[int, ...], n: int) -> tuple[int, ...]:
    """The schedule as a tuple of ints; BadRadices unless each is >= 2 and they multiply to n."""
    sched = tuple(int(r) for r in radices)
    for r in sched:
        if r < 2:
            raise BadRadices(f"radix {r} < 2")
    if math.prod(sched) != n:
        raise BadRadices(f"radices multiply to {math.prod(sched)}, not {n}")
    return sched


def _check_order(params: FieldParams, omega: int, n: int) -> None:
    if not 1 <= omega < params.p:
        raise WrongOrder(f"omega {omega} is not a reduced nonzero residue")
    order = element_order(params, omega, factorize(params.p - 1))
    if order != n:
        raise WrongOrder(f"omega {omega} has order {order}, not {n}")


def plan_transform(
    params: FieldParams,
    n: int,
    omega: FieldElement | None = None,
    radices: list[int] | tuple[int, ...] | None = None,
) -> TransformPlan:
    """Validate the arguments and build the twiddle table for length-n transforms.

    omega defaults to the smallest order-n element; radices default to the
    nondecreasing prime factors of n.  Raises NotADivisor, WrongOrder or
    BadRadices when an argument breaks its contract.
    """
    n = operator.index(n)
    if n < 1 or (params.p - 1) % n != 0:
        raise NotADivisor(f"{n} does not divide p - 1 = {params.p - 1}")
    sched = _default_radices(n) if radices is None else _checked_schedule(radices, n)
    if omega is None:
        omega = find_generator(params, n)
    else:
        omega = operator.index(omega)
        _check_order(params, omega, n)
    twiddles = build_twiddle_table(params, omega, n)
    twiddles.flags.writeable = False
    return TransformPlan(
        params=params,
        n=n,
        omega=omega,
        radices=sched,
        twiddles=twiddles,
        inv_n=fp_inv(n % params.p, params),
    )


def _coerce_vector(v, n: int, p: int) -> np.ndarray:
    arr = np.asarray(v, dtype=None)
    if arr.ndim != 1 or len(arr) != n:
        raise LengthMismatch(f"expected a length-{n} vector, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("vector entries must be integer residues")
    # Checked in the input dtype, so uint64 entries >= 2**63 cannot wrap first.
    if arr.min() < 0 or arr.max() >= p:
        raise NotReduced(f"vector entries must be residues in [0, {p})")
    # Always a private copy: the staged kernels use it as a working buffer.
    return arr.astype(np.int64, copy=True)


def _run_stages(
    plan: TransformPlan,
    x: np.ndarray,
    variant: str,
    counter: OpCounts | None,
) -> np.ndarray:
    p, n, table = plan.p, plan.n, plan.twiddles
    y = np.empty(n, dtype=np.int64)
    t = np.empty(n, dtype=np.int64)
    L = 1
    for r in plan.radices:
        m = n // (L * r)
        X = x.reshape(L, r, m)
        Y = y.reshape(r, L, m)
        T = t.reshape(r, L, m)
        # e1[l1, l0] = omega^(m * (l0 + L*l1)); leg j is weighted by e1^j.
        e1 = table[::m].reshape(r, L, 1)
        if variant == TWIDDLE and r == 2:
            # Input twiddles on both butterfly legs (the first is omega^0),
            # then the multiplication-free 2-point transform: the second
            # output row is the negated product, realized by subtraction.
            np.multiply(X[:, 0, :], table[0], out=T[0])
            np.multiply(X[:, 1, :], e1[0], out=T[1])
            T %= p
            np.add(T[0], T[1], out=Y[0])
            np.subtract(T[0], T[1], out=Y[1])
            if counter is not None:
                counter.multiplications += n
                counter.additions += n
        else:
            # Leg 0 is multiplied by omega^0 too, as the counts assume.
            np.multiply(X[:, 0, :], table[0], out=Y)
            Y %= p
            for j in range(1, r):
                w = e1 if j == 1 else w * e1 % p
                np.multiply(X[:, j, :], w, out=T)
                T %= p
                np.add(Y, T, out=Y)
            if counter is not None:
                counter.multiplications += n * r
                counter.additions += n * (r - 1)
        Y %= p
        x, y = y, x
        L *= r
    return x


def _transform(
    plan: TransformPlan,
    v,
    variant: str,
    counter: OpCounts | None,
    raw_order: bool,
    inverse: bool = False,
) -> np.ndarray:
    x = _run_stages(plan, _coerce_vector(v, plan.n, plan.p), variant, counter)
    if inverse:
        # sum_k omega^(-jk) V_k is the forward output at index -j mod n.
        x = np.concatenate((x[:1], x[:0:-1])) * plan.inv_n % plan.p
    if raw_order:
        return x[plan.permutation.forward]
    return x


def fft_recursive(
    plan: TransformPlan,
    v,
    counter: OpCounts | None = None,
    *,
    raw_order: bool = False,
) -> np.ndarray:
    """Staged transform multiplying by every scheduled twiddle, omega^0 included."""
    return _transform(plan, v, RECURSIVE, counter, raw_order)


def fft_twiddle(
    plan: TransformPlan,
    v,
    counter: OpCounts | None = None,
    *,
    raw_order: bool = False,
) -> np.ndarray:
    """Staged transform with multiplication-free radix-2 butterflies."""
    return _transform(plan, v, TWIDDLE, counter, raw_order)


def ifft(
    plan: TransformPlan,
    V,
    variant: str = TWIDDLE,
    *,
    raw_order: bool = False,
) -> np.ndarray:
    """Inverse transform: forward kernel read at index -j mod n, scaled by n^-1 mod p."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return _transform(plan, V, variant, None, raw_order, inverse=True)


def dft_naive(plan: TransformPlan, v) -> np.ndarray:
    """The O(n^2) transform straight from the definition; oracle for the FFTs."""
    p, n, table = plan.p, plan.n, plan.twiddles
    x = _coerce_vector(v, n, p)
    # Reduced products summed over n terms stay below n*p < 2**62, so the
    # elementwise reduction may be skipped whenever raw products already fit.
    safe_products = n * (p - 1) * (p - 1) < 2**63
    rows = max(1, min(n, _NAIVE_BLOCK_ELEMS // n))
    i = np.arange(n, dtype=np.int64)
    block = table[np.arange(rows, dtype=np.int64)[:, None] * i % n]
    step = table[rows * i % n]
    out = np.empty(n, dtype=np.int64)
    for j0 in range(0, n, rows):
        w = block[: n - j0]
        out[j0 : j0 + rows] = (w @ x if safe_products else (w * x % p).sum(axis=1)) % p
        block *= step  # the next rows: omega^((j + rows)*i)
        block %= p
    return out


def idft_naive(plan: TransformPlan, V) -> np.ndarray:
    """Direct inverse: n^-1 times the definition read at index -j mod n."""
    x = dft_naive(plan, V)
    return np.concatenate((x[:1], x[:0:-1])) * plan.inv_n % plan.p


def predicted_counts(
    n: int, radices: list[int] | tuple[int, ...], variant: str
) -> OpCounts:
    """Closed-form operation counts for a staged length-n transform.

    recursive: n * sum(r_k) multiplications, n * (sum(r_k) - s) additions.
    twiddle:   each radix-2 stage drops from 2n to n multiplications;
               other stages and all addition counts are unchanged.  For a
               schedule of v1 twos and v2 threes this is n*(v1 + 3*v2)
               multiplications and n*(v1 + 2*v2) additions.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    sched = _checked_schedule(radices, n)
    total = sum(sched)
    mults = n * total
    if variant == TWIDDLE:
        mults -= n * sum(1 for r in sched if r == 2)
    return OpCounts(multiplications=mults, additions=n * (total - len(sched)))


def cyclic_convolve_via_fft(plan: TransformPlan, u, v) -> np.ndarray:
    """Cyclic convolution of u and v through forward transforms and one inverse."""
    U = fft_twiddle(plan, u)
    V = fft_twiddle(plan, v)
    return ifft(plan, U * V % plan.p, TWIDDLE)
