"""The four benchmark workloads: seeded inputs, timed ops and untimed checks.

Every call into the program goes through a module attribute looked up at call
time (``transform.fft_twiddle``, not a name bound at import), so the traced
run's wrappers are the functions that run.  Outputs are checked against an
oracle the benchmark computes itself with Python ints; it shares no code with
the package's twiddle tables, kernels or ``dft_naive``.
"""

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import smoothntt.cli as cli
import smoothntt.field as field
import smoothntt.numtheory as numtheory
import smoothntt.transform as transform

# Marks the output of an op that raised.
RAISED = object()

# The paper's 15 primes below 2e6 whose p - 1 is {2,3}-smooth.
PAPER_PRIMES = (
    65537, 139969, 147457, 209953, 331777, 472393, 629857, 746497,
    786433, 839809, 995329, 1179649, 1492993, 1769473, 1990657,
)
PAPER_TABLE_RANGE = (65536, 2_000_000)


@dataclass
class Op:
    """One timed call; run() receives the outputs of the cycle's earlier ops."""

    kind: str
    points: int  # transform points this op completes when its check passes
    run: Callable[[list], object]


@dataclass
class Cycle:
    """Ops issued back to back, then checked together outside the timed interval."""

    ops: list[Op]
    check: Callable[[list], list[bool]]  # one verdict per op; RAISED outputs fail


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def has_order(omega: int, n: int, p: int) -> bool:
    """True when omega has multiplicative order exactly n modulo p."""
    if pow(omega, n, p) != 1:
        return False
    return all(pow(omega, n // r, p) != 1 for r in prime_factors(n))


def dft_coefficient(x: list[int], omega: int, p: int, j: int) -> int:
    """sum_i x_i * omega^(i*j) mod p by Horner's rule in Python ints."""
    z = pow(omega, j, p)
    acc = 0
    for v in reversed(x):
        acc = (acc * z + v) % p
    return acc


def cyclic_coefficient(u: list[int], w: list[int], p: int, k: int) -> int:
    """sum_i u_i * w_((k - i) mod n) mod p in Python ints."""
    n = len(u)
    return sum(u[i] * w[(k - i) % n] for i in range(n)) % p


def residues(out, n: int, p: int) -> bool:
    """True when out is a length-n integer array of residues in [0, p)."""
    return (
        isinstance(out, np.ndarray)
        and out.shape == (n,)
        and np.issubdtype(out.dtype, np.integer)
        and (n == 0 or (int(out.min()) >= 0 and int(out.max()) < p))
    )


def same(a, b) -> bool:
    return (
        isinstance(a, np.ndarray)
        and isinstance(b, np.ndarray)
        and a.shape == b.shape
        and bool(np.array_equal(a, b))
    )


class FullTransform:
    """One reused full-length plan; ops cycle fft_twiddle, fft_recursive, ifft.

    Per cycle: a fresh seeded input x, the two forward variants on x, and ifft
    of the twiddle output.  A forward output passes when `spot` seeded
    coefficients equal the definition sum, the twiddle output also round-trips
    through ifft to x, and the recursive output equals the twiddle output.
    """

    setup_reps = 5
    spot = 2

    def __init__(self, rng, p: int) -> None:
        self.rng, self.p, self.n = rng, p, p - 1
        self.plan = None

    def build(self):
        """The reused state: the plan (set-up, timed)."""
        self.plan = None  # free the previous plan before building the next
        return transform.plan_transform(field.FieldParams(self.p), self.n)

    def ready(self, plan) -> None:
        self.plan = plan
        self.omega_ok = has_order(int(plan.omega), self.n, self.p)

    def working_set_bytes(self) -> int:
        return 8 * self.n

    def cycle(self) -> Cycle:
        p, n, plan, rng = self.p, self.n, self.plan, self.rng
        x = rng.integers(0, p, n, dtype=np.int64)
        js = [int(j) for j in rng.integers(0, n, self.spot)]

        def inverse_input(outs):
            return outs[0] if outs[0] is not RAISED else outs[1]

        ops = [
            Op("fft_twiddle", n, lambda outs: transform.fft_twiddle(plan, x)),
            Op("fft_recursive", n, lambda outs: transform.fft_recursive(plan, x)),
            Op("ifft", n, lambda outs: transform.ifft(plan, inverse_input(outs))),
        ]

        def check(outs):
            xs = x.tolist()
            want = [dft_coefficient(xs, int(plan.omega), p, j) for j in js]

            def spot_ok(X):
                return (
                    self.omega_ok
                    and residues(X, n, p)
                    and all(int(X[j]) == v for j, v in zip(js, want))
                )

            tw, rec, inv = outs
            round_trip = same(inv, x)
            return [
                spot_ok(tw) and (inv is RAISED or round_trip),
                spot_ok(rec) and (tw is RAISED or same(rec, tw)),
                round_trip,
            ]

        return Cycle(ops, check)

    def close(self) -> None:
        self.plan = None


# (p, n, vectors per op).  Sizes sit on both sides of dft_naive's 4096
# matrix-cache limit; the two tiny subgroups of large primes make the
# generator scan test tens of thousands of candidates.  The two ops above the
# limit are the slowest kinds, so the median op is the n = 2592 one, which is
# bound by numpy rather than by the interpreter and so follows the host's
# speed less than the scans do.
SUBGROUP_CONFIGS = (
    (1990657, 64, 3),  # 2^6: 53,480 candidates scanned
    (1769473, 27, 3),  # 3^3: radix-3 only, long scan
    (629857, 2592, 2),  # 2^5*3^4: cached matrix, below the limit
    (139969, 4374, 1),  # 2*3^7: smallest smooth n above the limit, row blocks
    (147457, 4608, 1),  # 2^9*3^2: row blocks, mostly radix 2
)


class SubgroupOracle:
    """Fresh plan per op on a small subgroup, checked against the O(n^2) oracle.

    Set-up reproduces the paper's prime table with prime_search; the configs
    are drawn from it.  One op per config: FieldParams, plan_transform, then
    for each vector fft_twiddle, fft_recursive, dft_naive and ifft, and one
    cyclic_convolve_via_fft against idft_naive(dft_naive(u) * dft_naive(w)).
    """

    setup_reps = 21
    spot = 2

    def __init__(self, rng, configs=SUBGROUP_CONFIGS) -> None:
        self.rng, self.configs = rng, configs

    def build(self):
        """The reused state: the paper's prime table (set-up, timed)."""
        return numtheory.prime_search(*PAPER_TABLE_RANGE, {2, 3})

    def ready(self, records) -> None:
        primes = tuple(r.p for r in records)
        if primes != PAPER_PRIMES:
            raise RuntimeError(f"prime_search table {primes} != paper table")
        for p, n, _ in self.configs:
            if p not in primes or (p - 1) % n:
                raise RuntimeError(f"config ({p}, {n}) is not a table subgroup")

    def working_set_bytes(self) -> int:
        return max(8 * n for _, n, _ in self.configs)

    def cycle(self) -> Cycle:
        rng = self.rng
        ops, checks = [], []
        for p, n, count in self.configs:
            vectors = [rng.integers(0, p, n, dtype=np.int64) for _ in range(count)]
            u, w = (rng.integers(0, p, n, dtype=np.int64) for _ in range(2))
            js = [int(j) for j in rng.integers(0, n, self.spot)]
            ops.append(Op(f"subgroup_{n}", 3 * n * count, self._op(p, n, vectors, u, w)))
            checks.append(self._check(p, n, vectors, u, w, js))

        def check(outs):
            return [c(out) for c, out in zip(checks, outs)]

        return Cycle(ops, check)

    @staticmethod
    def _op(p, n, vectors, u, w):
        def run(outs):
            plan = transform.plan_transform(field.FieldParams(p), n)
            per_vector = []
            for v in vectors:
                tw = transform.fft_twiddle(plan, v)
                rec = transform.fft_recursive(plan, v)
                naive = transform.dft_naive(plan, v)
                per_vector.append((tw, rec, naive, transform.ifft(plan, tw)))
            conv = transform.cyclic_convolve_via_fft(plan, u, w)
            spectrum = transform.dft_naive(plan, u) * transform.dft_naive(plan, w) % p
            return int(plan.omega), per_vector, conv, transform.idft_naive(plan, spectrum)

        return run

    @staticmethod
    def _check(p, n, vectors, u, w, js):
        def check(out):
            if out is RAISED:
                return False
            omega, per_vector, conv, conv_ref = out
            if not has_order(omega, n, p) or len(per_vector) != len(vectors):
                return False
            for v, (tw, rec, naive, inv) in zip(vectors, per_vector):
                vs = v.tolist()
                if not (residues(naive, n, p) and same(tw, naive) and same(rec, naive)):
                    return False
                if not same(inv, v):
                    return False
                if any(int(naive[j]) != dft_coefficient(vs, omega, p, j) for j in js):
                    return False
            us, ws = u.tolist(), w.tolist()
            return (
                residues(conv, n, p)
                and same(conv, conv_ref)
                and all(int(conv[k]) == cyclic_coefficient(us, ws, p, k) for k in js)
            )

        return check

    def close(self) -> None:
        pass


class CliFile:
    """`smoothntt transform` on a vector file, alternating with `--inverse`.

    Set-up writes the seeded input file with the package's own writer.  The
    forward output must equal bytes the benchmark formats itself from the
    library's forward result (itself spot-checked against the definition);
    the inverse must restore the input bytes.
    """

    setup_reps = 7
    spot = 2

    def __init__(self, rng, work_dir: str, p: int = 147457) -> None:
        self.p, self.n = p, p - 1
        self.src = os.path.join(work_dir, "input.vec")
        self.fwd = os.path.join(work_dir, "forward.vec")
        self.back = os.path.join(work_dir, "back.vec")
        self.x = rng.integers(0, p, self.n, dtype=np.int64)
        xs = self.x.tolist()
        self.src_bytes = format_vector(p, xs)
        plan = transform.plan_transform(field.FieldParams(p), self.n)
        X = transform.fft_twiddle(plan, self.x)
        js = [int(j) for j in rng.integers(0, self.n, self.spot)]
        self.reference_ok = (
            has_order(int(plan.omega), self.n, p)
            and residues(X, self.n, p)
            and all(int(X[j]) == dft_coefficient(xs, int(plan.omega), p, j) for j in js)
        )
        self.fwd_bytes = format_vector(p, X.tolist())

    def build(self):
        """The reused state: the input vector file (set-up, timed)."""
        cli.write_vector_file(self.src, self.p, self.x)
        return self.src

    def ready(self, path) -> None:
        pass

    def working_set_bytes(self) -> int:
        return 8 * self.n

    def cycle(self) -> Cycle:
        for path in (self.fwd, self.back):
            if os.path.exists(path):
                os.remove(path)
        ops = [
            Op("cli_forward", self.n, lambda outs: cli.main(["transform", self.src, self.fwd])),
            Op(
                "cli_inverse",
                self.n,
                lambda outs: cli.main(["transform", self.fwd, self.back, "--inverse"]),
            ),
        ]

        def check(outs):
            return [
                self.reference_ok and outs[0] == 0 and read_bytes(self.fwd) == self.fwd_bytes,
                self.reference_ok and outs[1] == 0 and read_bytes(self.back) == self.src_bytes,
            ]

        return Cycle(ops, check)

    def close(self) -> None:
        for path in (self.src, self.fwd, self.back):
            if os.path.exists(path):
                os.remove(path)


def format_vector(p: int, values: list[int]) -> bytes:
    """The documented vector-file bytes: header, one decimal per line, final LF."""
    lines = [f"ntt-vec 1 {p} {len(values)}"] + [str(v) for v in values]
    return ("\n".join(lines) + "\n").encode("ascii")


def read_bytes(path: str):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None
