"""Exact DFTs over F_p: a direct-definition oracle plus self-sorting mixed-radix FFTs.

A length-n transform needs an element omega of multiplicative order exactly
n, which exists iff n | p - 1.  When n factors as r_1 * r_2 * ... * r_s the
transform decomposes into s stages of r_k-point butterflies.

The staged kernels use the self-sorting (Stockham) layout of Temperton's
mixed-radix FFTs (J. Comput. Phys., 1983).  The stages run largest radix
first: r_1 >= r_2 >= ... >= r_s is the plan's schedule sorted that way.
Before stage k, with L = r_1*...*r_{k-1} and m = n / (L * r_k), the buffer
is viewed as an (L, r_k, m) array X, and the stage writes a second buffer
whose row l0 + L*l1 is the polynomial sum_j X[l0, j, :] * z^j evaluated at
z = omega^(m*(l0 + L*l1)).  The stage sees that buffer as Y and the omega^k
table read with stride m as e1, both with X's axes (l0, l1, column):
Y[l0, l1] is row l0 + L*l1 (the (r_k, L, m) view with its first two axes
swapped) and e1[l0, l1] = omega^(m*(l0 + L*l1)), with no copy.  The two
buffers then swap roles.  After the last stage (L = n, m = 1) the output
is in natural order, whatever order the stages ran in.  So the schedule
as the plan lists it sets only the raw-order layout and the set of stages:
`raw_order=True` returns the output in digit-reversed order for
`plan.radices`, as one transpose copy (`digit_reverse` maps slots to
coefficient indices).

A stage evaluates that polynomial by Horner's rule in its first h output
rows, one row Z = Y[:, l1] at a time: Z starts as the top leg
X[:, r-1, :] times omega^0 = 1, and each of the r - 1 steps multiplies Z by
e1[:, l1], reduces it where the bound below requires, and adds the next
lower leg.  The variants differ only in h, and `_stage_rows` is the one
rule that sets it, for the kernel and for `predicted_counts` alike.  A
stage costs n * h multiplications by table entries, omega^0 included, and
n * (r_k - 1) additions.
`fft_recursive` takes h = r for every stage, so n * (r_1 + ... + r_s)
multiplications and n * (r_1 + ... + r_s - s) additions in all.
`fft_twiddle` takes h = 1 at radix 2, since an order-n omega with even n
satisfies omega^(n/2 + t) = -omega^t, so e1[:, 1] = -e1[:, 0].  With t the
reduced product X1 * e1[:, 0], row 0 is X0 + t by Horner and row 1 is X0 - t
by negation, and the stage costs n multiplications instead of 2n.  Stages
of radix >= 3 are the same in both.  `ifft` takes no counter and always
runs the twiddle stages.  Operation counters tally the elements
each stage's multiplications and additions write; the subtraction realizing
the negation counts as an addition, the negation itself costs nothing.

Reduction is lazy.  Stages before the last hand on signed int64 entries
congruent to the field values, not residues, and the kernel tracks one
exclusive bound B on |entry|, starting at p for the residue input.  Each
stage output is a reduced Horner value plus or minus one input entry, so it
stays below B + p.  A Horner step after a reduction multiplies a value
below B + p by a twiddle below p.  Before a stage where (B + p) * p could
reach 2**63, the kernel reduces its input in place and restarts at B = p,
which always fits because 2p^2 < 2**63 for p < 2**31.  At p = 786433 no stage needs
this; at p = 1811939329 and p = 2013265921 every stage after the first
does.  The output of the last stage is reduced once, into [0, p) for
negative entries too, so the kernel returns bit-exact residues.  The
inverse folds its n^-1 scaling into that reduction: it multiplies the
unreduced output by n^-1 < p first, which the same check keeps below
2**63.

Inside a stage a Horner row reduces only where int64 needs it (lazy
reduction inside the butterfly, as in Harvey, "Faster arithmetic for
number-theoretic transforms", J. Symbolic Comput., 2014).  The row tracks
an exclusive bound b on |Z|: b = B for the omega^0 seed, b * p after each
product, p after a reduction and b + B after a leg is added.  A step
reduces Z when it is the last step or when the next product could reach
2**63, (b + B) * p >= 2**63.  So every row still ends reduced, every stage
output stays below B + p, and the reduce-first rule above is unchanged.
A radix-3 row then reduces once, not twice, wherever (B * p + B) * p <
2**63: in all ten radix-3 stages of F_472393 (B <= 10p, and 10p^3 <
2**60), in the one radix-3 stage of F_786433, and at
p = 1769473 (p^3 < 2**63 <= 2p^3) only in a stage with B = p.  At
p = 211 (p - 1 = 2*3*5*7) a radix-7 row reduces only after its last
product.  Near 2**31 every step reduces, as before.  Reductions are not
operations in the counts, so the counts do not move.

int64 `%` by a scalar is a scalar loop that branches on sign, while int64
floor division by a scalar is vectorized: at n = 393216 (numpy 2.4.6,
2-core x86-64 host) `%` took 4.5 ns per element on nonnegative and
13.8 ns on mixed-sign operands, and z - (z // p) * p about 2.8 ns on
either.
So every reduction computes z - (z // p) * p through a free array of z's
shape, and the kernel needs no third n-element buffer for it:
- a Horner step of row l1 reduces through row l1 + 1, which is not yet
  written; in a twiddle radix-2 stage that is Y[:, 1], which the subtraction
  fills afterwards;
- the reduce-first pass reduces the stage input through the output buffer;
- the final reduction, and the inverse's n^-1 scaling with it, goes
  through the buffer the last stage read, which is free by then.  The
  inverse writes n^-1 times the output read at -j mod n into that buffer
  and reduces it through the other one.
Only the last row of an h = r stage has no free row and keeps `Z %= p`.
Its operands are nonnegative: entries stay nonnegative up to the first
twiddle radix-2 stage, since a Horner step adds a nonnegative leg to a
residue and only the X0 - t row makes a signed entry, and running the
largest radices first puts every h = r stage before that row.

The twiddle table is built the same way (`build_twiddle_table`): each
doubling pass reduces its products by floor division, through the not yet
written second half of the table when omega^(n/2) = -1, which is then
filled as p minus the first half, and otherwise through one n/2-element
scratch array.  At F_786433, n = 786432, that build took 1.07 ms against
3.17 ms for `%` doubling over all n entries (0.34x; 0.31x at F_472393
and F_147457; medians of 41 interleaved calls, numpy 2.4.6, 2-core x86-64
host).

A stage reads only X and e1 and writes only Y, through `out=`
ufuncs and in-place operators, and the transpose copy writes the free
buffer, so each kernel call owns two n-element int64 buffers, the private
copy of its input and the stage output; only the reduce-first pass writes
a stage's input.  `cyclic_convolve_via_fft`
peaks at three n-element buffers: its second forward call holds U beside
its own two, and its inverse runs on the product it owns in U, with V as
the reduction scratch and one stage output, through `_run_stages`
directly, so the product is neither checked nor copied again.

The narrow tail stages run transposed (Van Loan, "Computational
Frameworks for the Fast Fourier Transform", SIAM, 1992).  A late stage has
small m, and numpy would run L outer iterations of an m-element inner
loop.  So for n >= 2**17, before the first stage with r*m <= 32 (where
L = n / (r*m) >= 4096), the kernel copies the (L, r*m) buffer once into
the free buffer as its (r*m, L) transpose, 1024 columns at a time
(`_copy_blocks`).  The stages from there on take
X = x.reshape(r, m, L).transpose(2, 0, 1) and
Y = y.reshape(m, r, L).transpose(2, 1, 0), the same index spaces with
the l0 axis now contiguous, and the same e1.  So `_stage` does not change
and numpy iterates over l0 innermost.  Each stage writes the transpose of
the next stage's layout, and after the m = 1 stage the buffer is in
natural order.  Three limits hold; each was measured by
lifting it alone (numpy 2.4.6, 2-core x86-64 host):
- the n >= 2**17 gate: ungated, F_97 ran 1.25-1.30x and F_3457
  1.02-1.04x slower (medians of 41 interleaved calls);
- the split axis: a transposed stage splits along m while m >= 2 and
  along l0 only at m = 1; an l0 split at every m peaked at 2.098 * 8n at
  F_147457 on two CPUs, past the tests' 2.0694 * 8n bound, where the m
  split reads 2.061 * 8n, as untransposed split stages do;
- r*m <= 32: with r*m <= 96 the split peak read 2.098 * 8n too.

numpy releases the GIL inside a ufunc, so a second core can run half of
each stage (the threaded loops of Frigo and Johnson's FFTW3, Proc. IEEE,
2005).  For n >= 2**17, when the process may run on two or more CPUs
(`os.sched_getaffinity`; n is tested first, so a small transform makes no
syscall), every stage and every pass is split into two disjoint halves by
one rule, `_halves`: each array it is given is cut along its first axis at
a = len // 2, and an array whose first axis has length 1 goes whole to both
halves.  A stage hands it X, Y and e1, so it splits its rows l0, each half
with its own part of e1.  An untransposed stage with L < 4, and a
transposed stage while m >= 2, hands it the three views with their axes
reversed, so it splits its columns and both halves read all of e1, whose
column axis has length 1; so the L = 3 stage does not give the worker two
rows of three.  The reduce-first pass, the transpose copy and the output
reduction (with the inverse's n^-1 scaling) hand it their flat or 2-D
arrays.  Each half of a stage is the same Horner stage, `_stage`, on views:
it writes only its own part of Y and reads only its own part of X, so the
halves never touch the same element.  The caller hands the second half to
one persistent daemon worker thread, runs the first and waits for both; an
exception in either half is raised in the caller.  The bound B and the
counters are kept by the caller, per whole stage, so the outputs are
bit-identical and the counts unchanged.  Below 2**17, or on one CPU, each
stage runs whole in the caller: at n = 2**16 (F_65537, numpy 2.4.6,
2-core x86-64 host) split stages made `fft_twiddle` 1.15x and `ifft`
1.17x slower, and with the process held to one CPU (`taskset -c 0`) they
made `fft_twiddle`, `ifft` and convolution 1.04x, 1.08x and 1.04x slower
at F_786433, and 1.00x, 1.05x and 1.05x at F_147457 (medians of 41
interleaved calls; the same code against itself read 0.97x to 1.02x).  A
CPU quota set by a cgroup does not shrink the affinity mask, so a process
held to one CPU that way splits and pays that cost.  The worker sets its
numpy buffer size to 256 elements, so the iterator buffer its strided
ufuncs hold is 2 KiB, not 64 KiB: at n = 147456 a split call peaks about
4 KiB above a whole one, where 64 KiB would exceed the peak bounds of the
tests.  The worker drops its references
to a job's views before it signals that the job is done, so no buffer
outlives the call that owns it.  Callers in several threads share the one
worker; each job carries its own reply queue.

All kernels run on int64 numpy arrays; inputs must be residues in [0, p)
and p < 2**31.

The oracle `dft_naive` keeps no state and shares only the input check,
the omega^k table and `_reduce` with the kernels.  It reads the definition
X_j = P(omega^j), P(z) = sum_i x_i z^i, and evaluates P at every omega^j at
once by Horner's rule: one pass per coefficient, from x_{n-1} down to x_0,
multiplies an accumulator vector by the full table and adds the coefficient.
Every operand is nonnegative, and the oracle keeps one exclusive bound B on
the accumulator: B = 1 for the zeros, and a pass maps entries below B to at
most (B - 1)(p - 1) + (p - 1), so to below B(p - 1) + 1.  It reduces by
floor division, through one n-element scratch vector, only before a pass
that could reach 2**63, that is when B(p - 1) >= 2**63, restarting at B = p,
and once at the end.  Since p(p - 1) < 2**63 for p < 2**31, the one path
serves every field: F_629857, F_147457 and F_139969 reduce every 2nd pass
(p^3 < 2**63 below p = 2**21), F_97 every 8th, and a field near 2**31 on
every pass.  The rule costs one integer comparison per pass, and below
p = 2**21 it at least halves the reductions, which take most of its time.
The tests pin the rule at its boundary.  It never writes
its input, so it reads an int64 input without copying it and holds only the
accumulator and the scratch; any other input costs one int64 conversion
more.  `idft_naive` reads the same definition at index -j mod n through the
kernels' final scaling and reduction, run whole, so the oracle shares no
threading with the kernels, with a fresh scratch array taken after the
oracle's own is freed.  The tests check the oracle against a Python-int
evaluation of the definition, so sharing `_reduce` leaves it independently
checked.
"""

import math
import operator
import os
import queue
import threading
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
    a single radix it is the identity.  Raises BadRadices unless every radix
    is an integer >= 2.  The slot is converted with `operator.index`, so a
    float raises TypeError.
    """
    slot = operator.index(slot)
    radices = _checked_schedule(radices)
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
        radices = _checked_schedule(radices)
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


def build_twiddle_table(
    params: FieldParams, omega: FieldElement, n: int
) -> np.ndarray:
    """Table of omega^k for k in [0, n) as an int64 array.

    Built by repeated doubling, never by n calls to modular exponentiation:
    each pass multiplies the filled prefix table[:f] by omega^f into the
    next f entries and reduces them by floor division (`_reduce`).  When n
    is even and omega^(n/2) = -1, as for every order-n omega, the doubling
    stops at n/2 and the second half is written as p minus the first, since
    omega^(n/2 + t) = -omega^t and every entry is a unit, so each p - x is
    again a residue in [1, p).  The passes then reduce through the not yet
    written second half, and the build allocates only the table; for any
    other omega and n (odd n, n <= 1, omega of another order, omega = 0)
    the doubling runs to n through one scratch array of n // 2 entries.
    omega and n are converted with `operator.index`, so a float raises
    TypeError; a negative n raises ValueError.
    """
    p = params.p
    omega, n = operator.index(omega) % p, operator.index(n)
    table = np.empty(n, dtype=np.int64)
    table[:1] = 1  # empty when n = 0
    half_turn = n > 1 and n % 2 == 0 and pow(omega, n // 2, p) == p - 1
    end = n // 2 if half_turn else n  # the doubling fills table[:end]
    scratch = table[end:] if half_turn else np.empty(n // 2, dtype=np.int64)
    filled, step = 1, omega
    while filled < end:
        chunk = min(filled, end - filled)
        dst = table[filled : filled + chunk]
        np.multiply(table[:chunk], step, out=dst)
        _reduce(dst, p, scratch[:chunk])
        filled *= 2
        step = step * step % p
    if half_turn:
        np.subtract(p, table[:end], out=table[end:])
    return table


def _default_radices(n: int) -> tuple[int, ...]:
    """Nondecreasing prime factors of n with multiplicity."""
    out: list[int] = []
    for prime, exp in factorize(n).factors:
        out.extend([prime] * exp)
    return tuple(out)


def _checked_schedule(radices, n: int | None = None) -> tuple[int, ...]:
    """The schedule, read once from any iterable, as a tuple of ints.

    BadRadices unless each radix is an integer >= 2 and, when n is given,
    they multiply to n.
    """
    try:
        sched = tuple(map(operator.index, radices))
    except TypeError as exc:
        raise BadRadices(f"radices must be integers: {exc}") from exc
    for r in sched:
        if r < 2:
            raise BadRadices(f"radix {r} < 2")
    if n is not None and math.prod(sched) != n:
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
    """v as a checked length-n array of integer residues in [0, p).

    The one residue-vector check of the package: the kernels, the oracle and
    `cli.write_vector_file` call it.  Raises LengthMismatch or NotReduced.
    It checks and does not copy: the result may be v itself, in v's integer
    dtype, so a caller that writes to it must copy it first.
    """
    arr = np.asarray(v, dtype=None)
    if arr.ndim != 1 or len(arr) != n:
        raise LengthMismatch(f"expected a length-{n} vector, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise NotReduced(f"vector entries must be integer residues, got dtype {arr.dtype}")
    # Checked in the input dtype, so uint64 entries >= 2**63 cannot wrap first.
    if arr.min() < 0 or arr.max() >= p:
        raise NotReduced(f"vector entries must be residues in [0, {p})")
    return arr


def _stage_rows(variant: str, r: int) -> int:
    """h, the number of Horner rows a radix-r stage evaluates.

    1 for a twiddle radix-2 stage, whose row 1 is a negation, and r
    otherwise.  The callers that take a variant, `predicted_counts` and
    `bench.run_benchmark`, check it first: a length-1 plan has no stage, so
    a check here would never run for it.
    """
    return 1 if variant == TWIDDLE and r == 2 else r


def _run_stages(
    plan: TransformPlan,
    x: np.ndarray,
    variant: str,
    counter: OpCounts | None,
    inverse: bool,
) -> np.ndarray:
    """The transform of the residues in x, reduced, or its inverse when inverse.

    x is the kernel's own buffer: the stages overwrite it, and the result is
    written into it or into the stage output buffer.
    """
    p, n, table = plan.p, plan.n, plan.twiddles
    y = np.empty(n, dtype=np.int64)
    # Split each stage in two above 2**17 on two or more CPUs (module docstring).
    split = n >= 2**17 and _cores() >= 2
    transposed = False  # whether x holds the (r*m, L) transpose of its (L, r*m) layout
    bound = p  # exclusive bound on |entry| of x; the input holds residues
    L = 1
    # Largest radix first: every h = r stage then reads nonnegative entries,
    # so the `%` of its last row takes numpy's fast path.  plan.radices
    # still sets raw order.
    for r in sorted(plan.radices, reverse=True):
        # The stage's products stay below (bound + p) * p; past int64, reduce first.
        if (bound + p) * p >= 2**63:
            _halves(split, _reduce, x, p, y)
            bound = p
        m = n // (L * r)
        if n >= 2**17 and r * m <= 32 and not transposed:
            # The narrow tail runs with L innermost: one copy into (r*m, L), L >= 4096.
            _halves(split, _copy_blocks, y.reshape(r * m, L), x.reshape(L, r * m).T)
            x, y, transposed = y, x, True
        if transposed:
            X = x.reshape(r, m, L).transpose(2, 0, 1)
            Y = y.reshape(m, r, L).transpose(2, 1, 0)
        else:
            X = x.reshape(L, r, m)
            Y = y.reshape(r, L, m).transpose(1, 0, 2)
        # e1[l0, l1] = omega^(m * (l0 + L*l1)): output row l0 + L*l1 is the
        # polynomial sum_j X[l0, j] z^j evaluated at z = e1[l0, l1].
        e1 = table[::m].reshape(r, L, 1).transpose(1, 0, 2)
        if split and (m > 1 if transposed else L < 4):  # halve the columns, which share e1
            X, Y, e1 = (a.transpose(2, 1, 0) for a in (X, Y, e1))
        h = _stage_rows(variant, r)
        _halves(split, _stage, X, Y, e1, r, h, p, bound)
        if counter is not None:
            counter.multiplications += Y[:, :h].size * r
            counter.additions += Y[:, :h].size * (r - 1) + Y[:, h:].size
        # Every output is a residue plus or minus an input entry.
        bound += p
        x, y = y, x
        L *= r
    return _reduce_output(plan, x, y, split, inverse)


def _stage(
    X: np.ndarray, Y: np.ndarray, e1: np.ndarray, r: int, h: int, p: int, bound: int
) -> None:
    """One Horner stage from the (l0, j, column) view X into the (l0, l1, column) view Y.

    e1 is the (l0, l1, 1) view of the stage's twiddles.  The views may have
    any strides, and the l0 and column axes may trade places in all three
    at once: `_stage` only indexes the middle axis, so a column split
    passes them reversed and `_halves` cuts the columns.  Horner's rule on
    the first h rows, one row at a time, seeded with the top leg times
    omega^0 = 1 as the counts assume.  bound is the exclusive bound on
    |entry| of X.  A step reduces Z only when it is the last or when the
    next step's product could reach 2**63, so every row ends reduced and
    each output stays below bound + p.  A twiddle radix-2 stage evaluates
    row 0 only; row 1 is X0 - X1 * e1[:, 0], since e1[:, 1] = -e1[:, 0].
    """
    for l1 in range(h):
        Z = Y[:, l1]
        np.multiply(X[:, r - 1, :], 1, out=Z)
        b = bound  # exclusive bound on |Z|
        for j in range(r - 2, -1, -1):
            Z *= e1[:, l1]
            b *= p
            if j == 0 or (b + bound) * p >= 2**63:
                if l1 + 1 < r:
                    _reduce(Z, p, Y[:, l1 + 1])  # row l1 + 1 is not yet written
                else:
                    Z %= p  # nonnegative; no row of Y is free
                b = p
            if j:
                Z += X[:, j, :]
                b += bound
        if h < r:
            np.subtract(X[:, 0, :], Z, out=Y[:, 1])
        Z += X[:, 0, :]


_inbox = queue.SimpleQueue()  # (fn, args, done) jobs for the stage worker
_worker = None  # the stage worker thread, started on first use


def _cores() -> int:
    """CPUs this process may run on, or on the machine where affinity is unknown."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _copy_blocks(dst: np.ndarray, src: np.ndarray) -> None:
    """dst[...] = src for 2-D views, 1024 columns at a time.

    src is a transposed view, read with a stride of r*m elements down each
    column.  Whole, numpy walks all of it once per row of dst: at n = 786432
    and r*m = 32 that copy took 6.4 ms, and in blocks of 1024 columns, whose
    source lines stay in cache across the rows, 1.6 ms (numpy 2.4.6, 2-core
    x86-64 host, one thread).
    """
    for s in range(0, dst.shape[1], 1024):
        np.copyto(dst[:, s : s + 1024], src[:, s : s + 1024])


def _halves(split: bool, fn, *args) -> None:
    """fn(*args), or when split, fn on the first half of each array here and on the second on the stage worker.

    The one rule that splits work: an array is halved along its first axis
    at len // 2, unless that axis has length 1; such an array, and any other
    argument, goes whole to both halves.  Both halves are done on return,
    and an exception from either is raised here, after both have stopped.
    """
    if not split:
        fn(*args)
        return
    global _worker
    # A forked child inherits its parent's record of the worker, not the
    # thread.  Two callers may race to start it; a second worker is harmless.
    if _worker is None or not _worker.is_alive():
        _worker = threading.Thread(target=_serve, name="smoothntt-stages", daemon=True)
        _worker.start()
    pairs = [(a[: len(a) // 2], a[len(a) // 2 :]) if isinstance(a, np.ndarray) and len(a) > 1 else (a, a) for a in args]
    first, second = zip(*pairs)
    done = queue.SimpleQueue()  # one per job, so callers can share the worker
    _inbox.put((fn, second, done))
    try:
        fn(*first)
    finally:
        if (error := done.get()) is not None:
            raise error


def _serve() -> None:
    """The stage worker: run each (fn, args, done) job, then put its exception or None."""
    # A ufunc on strided views holds one iterator buffer of this many
    # elements in each thread; 256 keeps the worker's to 2 KiB.
    np.setbufsize(256)
    while True:
        fn, args, done = _inbox.get()
        error = None
        try:
            fn(*args)
        except BaseException as exc:
            error = exc
        # The caller raises any exception.  Drop the job's views before
        # signalling, so the caller's buffers can be freed as soon as it returns.
        del fn, args
        done.put(error)
        del done, error


def _reduce(z: np.ndarray, p: int, s: np.ndarray) -> None:
    """z mod p in [0, p), in place, through the scratch array s of z's shape.

    int64 floor division by a scalar is vectorized, while int64 `%` is a
    scalar loop that branches on sign, so z - (z // p) * p is the faster
    reduction, above all for signed z.
    """
    np.floor_divide(z, p, out=s)
    s *= p
    z -= s


def _reduce_output(
    plan: TransformPlan, x: np.ndarray, s: np.ndarray, split: bool, inverse: bool
) -> np.ndarray:
    """x mod p, or n^-1 * x[-j mod n] mod p for every j when inverse.

    |x| * p must stay below 2**63.  s is a free array of x's shape; the
    result is written into x or s and returned.  When split, each pass runs
    in two halves, as the stages do.
    """
    if inverse:
        # sum_k omega^(-jk) V_k is the forward output at index -j mod n.
        s[0] = x[0] * plan.inv_n
        _halves(split, np.multiply, x[:0:-1], plan.inv_n, s[1:])
        x, s = s, x
    _halves(split, _reduce, x, plan.p, s)
    return x


def _transform(
    plan: TransformPlan,
    v,
    variant: str,
    counter: OpCounts | None,
    raw_order: bool,
    inverse: bool = False,
) -> np.ndarray:
    # Always a private copy: the staged kernels use it as a working buffer
    # and leave unreduced, possibly negative, entries in it.  The free
    # buffer goes when _run_stages returns, before the raw-order copy.
    x = _coerce_vector(v, plan.n, plan.p).astype(np.int64, copy=True)
    x = _run_stages(plan, x, variant, counter, inverse)
    if raw_order:
        # Slot (d_1, ..., d_s) holds the coefficient with digits (d_s, ..., d_1),
        # the index digit_reverse(plan.radices, slot), as one transpose copy.
        return x.reshape(plan.radices[::-1]).T.reshape(plan.n)
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


def ifft(plan: TransformPlan, V, *, raw_order: bool = False) -> np.ndarray:
    """Inverse transform: the twiddle kernel read at index -j mod n, scaled by n^-1 mod p.

    The variants differ only in the multiplications the forward stages
    spend, and the inverse takes no counter, so it always runs the cheaper
    twiddle kernel.
    """
    return _transform(plan, V, TWIDDLE, None, raw_order, inverse=True)


def dft_naive(plan: TransformPlan, v) -> np.ndarray:
    """The O(n^2) transform straight from the definition; oracle for the FFTs."""
    p, n, table = plan.p, plan.n, plan.twiddles
    # Read only, so an int64 input is used as it is, without a copy.
    x = _coerce_vector(v, n, p).astype(np.int64, copy=False)
    # Horner's rule for P(z) = sum_i x_i z^i at every z = omega^j at once.
    acc = np.zeros(n, dtype=np.int64)
    s = np.empty(n, dtype=np.int64)
    bound = 1  # exclusive bound on the nonnegative entries of acc
    for xi in x[::-1]:
        # A pass maps acc < B to acc * omega^j + x_i <= B * (p - 1); reduce
        # first when that could reach 2**63.
        if bound * (p - 1) >= 2**63:
            _reduce(acc, p, s)
            bound = p
        acc *= table
        acc += xi
        bound = bound * (p - 1) + 1
    _reduce(acc, p, s)
    return acc


def idft_naive(plan: TransformPlan, V) -> np.ndarray:
    """Direct inverse: n^-1 times the definition read at index -j mod n."""
    # Whole passes: the oracle shares no threading with the kernels.
    return _reduce_output(plan, dft_naive(plan, V), np.empty(plan.n, np.int64), False, True)


def predicted_counts(
    n: int, radices: list[int] | tuple[int, ...], variant: str
) -> OpCounts:
    """Exact operation counts for a staged length-n transform.

    The sum over stages of n * h multiplications and n * (r_k - 1)
    additions, with h from `_stage_rows`, the rule the kernel runs.  In
    closed form:
    recursive: n * sum(r_k) multiplications, n * (sum(r_k) - s) additions.
    twiddle:   each radix-2 stage drops from 2n to n multiplications;
               other stages and all addition counts are unchanged.  For a
               schedule of v1 twos and v2 threes this is n*(v1 + 3*v2)
               multiplications and n*(v1 + 2*v2) additions.

    n is converted with `operator.index`, so a float raises TypeError and a
    numpy integer gives plain int counts.
    """
    n = operator.index(n)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    sched = _checked_schedule(radices, n)
    mults = sum(n * _stage_rows(variant, r) for r in sched)
    return OpCounts(multiplications=mults, additions=sum(n * (r - 1) for r in sched))


def cyclic_convolve_via_fft(plan: TransformPlan, u, v) -> np.ndarray:
    """Cyclic convolution of u and v through forward transforms and one inverse."""
    U = fft_twiddle(plan, u)
    V = fft_twiddle(plan, v)
    U *= V  # residues, so every product is below p^2 < 2**63
    _reduce(U, plan.p, V)
    # U holds residues it owns, the kernel's entry condition, so the inverse
    # stages run on U itself: no second check and no copy.
    return _run_stages(plan, U, TWIDDLE, None, inverse=True)
