"""Command-line front end: transform, generator, primes, bench.

Vector file format (text, ASCII): a header line "ntt-vec 1 <p> <n>" followed
by exactly n lines, each one canonical decimal residue in [0, p).  Every
line ends with a single linefeed and there are no trailing blank lines, so
valid files round-trip byte-identically.

`read_vector_file` checks the header field by field and the body in one
vectorized pass over its bytes; the first bad line, if any, is then parsed
on its own, so the error names that line as a line-by-line parser would.
The values come back as the int64 array that body check built, and
`transform` hands that array to the kernel unconverted.
`write_vector_file` formats every entry in one vectorized pass and raises
`InvalidField` unless p is a supported prime modulus and `NotReduced` unless
the entries are a 1-D vector of integer residues in [0, p), so each file it
writes reads back.  The residue check is the kernels' own
(`transform._coerce_vector`); the writer adds only the 1-D test, which keeps
a 2-D array a `NotReduced` error, and the empty case.

Exit codes: 0 success, 2 malformed, unreadable or unwritable vector file,
3 plan or parameter error.
"""

import argparse
import sys

import numpy as np

from .bench import DEFAULT_NAIVE_CUTOFF, DEFAULT_TRIALS, emit_report, run_benchmark
from .errors import BadRadices, InvalidField, NotReduced, VectorFileError
from .field import FieldParams
from .numtheory import factorize, find_generator, prime_search
from .transform import RECURSIVE, TWIDDLE, VARIANTS, _coerce_vector, fft_recursive, fft_twiddle, ifft, plan_transform

_MAGIC = "ntt-vec"
_VERSION = "1"
_RADICES_HELP = (
    "comma-separated radix schedule, e.g. 2,2,3: sets the raw-order layout"
    " and the stage set; the stages run largest radix first"
)
_VARIANT_HELP = (
    "forward kernel; both variants write the same bytes, and --inverse"
    " always runs the twiddle kernel"
)


def read_vector_file(path: str) -> tuple[int, np.ndarray]:
    """Parse a vector file, returning (p, values). Raises VectorFileError.

    The header is checked field by field.  The body is checked in one
    vectorized pass over its bytes; the first bad line, if any, then goes
    through the per-line check, which raises that line's message.  `values`
    is the 1-D int64 array of residues that pass built.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise VectorFileError(f"cannot read {path}: {exc}") from exc
    if not raw.isascii():
        raise VectorFileError(f"{path}: not ASCII text")
    if not raw.endswith(b"\n"):
        raise VectorFileError(f"{path}: missing trailing newline")
    body = raw.index(b"\n") + 1
    head = raw[: body - 1].decode("ascii")
    header = head.split(" ")
    if len(header) != 4 or header[0] != _MAGIC or header[1] != _VERSION:
        raise VectorFileError(f"{path}: bad header {head!r}")
    p = _parse_decimal(header[2], path)
    n = _parse_decimal(header[3], path)
    try:
        FieldParams(p)
    except InvalidField as exc:
        raise VectorFileError(f"{path}: header {exc}") from exc
    buf = np.frombuffer(raw, np.uint8, offset=body)
    ends = np.flatnonzero(buf == 10)
    if len(ends) != n:
        raise VectorFileError(f"{path}: header declares {n} values, found {len(ends)}")
    lengths = np.diff(ends, prepend=-1) - 1
    width = len(str(p - 1))
    # A line is bad exactly when _parse_decimal rejects it or its value is
    # >= p: it is empty, has more digits than p - 1, has a leading 0 before
    # more digits, holds a byte outside 0-9, or is too large.  Digits are
    # read from the last `width` bytes of each line, all of a line that is
    # not already bad for its length.
    bad = (lengths == 0) | (lengths > width)
    bad |= (buf.take(ends - lengths, mode="clip") == 48) & (lengths > 1)
    values = np.zeros(len(ends), np.int64)
    for k in range(width, 0, -1):
        digit = buf.take(ends - k, mode="clip") - 48  # uint8: wraps below "0"
        digit *= lengths >= k  # bytes before the line start
        bad |= digit > 9
        values *= 10
        values += digit
    bad |= values >= p
    if bad.any():
        i = bad.argmax()
        end = body + int(ends[i])
        line = raw[end - int(lengths[i]) : end].decode("ascii")
        value = _parse_decimal(line, path)
        raise VectorFileError(f"{path}: value {value} not reduced modulo {p}")
    return p, values


def _parse_decimal(token: str, path: str) -> int:
    if not token.isdigit() or (len(token) > 1 and token[0] == "0"):
        raise VectorFileError(f"{path}: {token!r} is not a canonical decimal")
    try:
        return int(token)
    except ValueError as exc:  # past Python's int-from-str digit limit
        raise VectorFileError(f"{path}: {len(token)}-digit decimal is too long") from exc


def write_vector_file(path: str, p: int, values) -> None:
    """Write a vector file in one vectorized pass over its decimal digits.

    Before the file is opened, raises InvalidField unless p is a prime in
    (2, 2**31), and NotReduced unless `values` is a 1-D integer array or
    sequence of residues in [0, p), so every file written reads back.  That
    NotReduced comes from the kernels' check, `transform._coerce_vector`,
    for every non-empty 1-D input; an empty sequence writes an n = 0 file.
    Raises VectorFileError when the path cannot be written.
    """
    p = FieldParams(p).p
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise NotReduced(f"vector must be 1-D integer residues, got {arr.dtype} shape {arr.shape}")
    if len(arr):  # [] is float64 to numpy, yet it writes an n = 0 file
        _coerce_vector(arr, len(arr), p)
    width = len(str(p - 1))
    # Row i holds entry i right-aligned in `width` digit columns and a final
    # linefeed; `keep` drops the zeros left of its first significant digit.
    rows = np.full((len(arr), width + 1), 10, np.uint8)
    keep = np.ones(rows.shape, bool)
    q = arr.astype(np.int64)
    s = np.empty_like(q)
    for j in range(width - 1, -1, -1):
        np.greater(q, 0, out=keep[:, j])
        np.floor_divide(q, 10, out=s)
        q -= s * 10
        q += 48
        rows[:, j] = q
        q, s = s, q
    keep[:, width - 1] = True  # an entry of 0 still writes its units digit
    data = f"{_MAGIC} {_VERSION} {p} {len(arr)}\n".encode("ascii") + rows[keep].tobytes()
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise VectorFileError(f"cannot write {path}: {exc}") from exc


def _parse_radices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise BadRadices(f"bad radix list {text!r}") from exc


def cmd_transform(args: argparse.Namespace) -> None:
    p, values = read_vector_file(args.input)
    radices = _parse_radices(args.radices) if args.radices else None
    plan = plan_transform(FieldParams(p), len(values), omega=args.omega, radices=radices)
    if args.inverse:
        out = ifft(plan, values, raw_order=args.raw_order)
    elif args.variant == RECURSIVE:
        out = fft_recursive(plan, values, raw_order=args.raw_order)
    else:
        out = fft_twiddle(plan, values, raw_order=args.raw_order)
    write_vector_file(args.output, p, out)


def cmd_generator(args: argparse.Namespace) -> None:
    params = FieldParams(args.p)
    n = params.p - 1 if args.n is None else args.n
    a = find_generator(params, n)
    print(f"{a} {factorize(n)}")


def cmd_primes(args: argparse.Namespace) -> None:
    factors = {int(tok) for tok in args.factors.split(",")}
    for rec in prime_search(args.min, args.max, factors):
        print(f"{rec.p} {rec.factorization} {rec.generator}")


def cmd_bench(args: argparse.Namespace) -> None:
    params = FieldParams(args.p)
    n = params.p - 1 if args.n is None else args.n
    radices = _parse_radices(args.radices) if args.radices else None
    report = run_benchmark(
        params,
        n,
        radices=radices,
        variant=args.variant,
        measure_naive_up_to=args.naive_cutoff,
        trials=args.trials,
    )
    print(emit_report(report, args.format), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothntt",
        description="Exact transforms over prime fields with smooth group order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="run an (inverse) FFT over a vector file")
    t.add_argument("input", help="input vector file")
    t.add_argument("output", help="output vector file")
    t.add_argument("--inverse", action="store_true", help="apply the inverse transform")
    t.add_argument("--variant", choices=VARIANTS, default=TWIDDLE, help=_VARIANT_HELP)
    t.add_argument("--radices", help=_RADICES_HELP)
    t.add_argument("--omega", type=int, help="order-n root of unity to use")
    t.add_argument(
        "--raw-order", action="store_true", help="emit digit-reversed order"
    )
    t.set_defaults(func=cmd_transform)

    g = sub.add_parser("generator", help="smallest generator of an order-n subgroup")
    g.add_argument("p", type=int, help="prime modulus")
    g.add_argument("--n", type=int, help="subgroup order (default p-1)")
    g.set_defaults(func=cmd_generator)

    pr = sub.add_parser("primes", help="primes in (min, max) with smooth p-1")
    pr.add_argument("--min", type=int, required=True)
    pr.add_argument("--max", type=int, required=True)
    pr.add_argument("--factors", default="2,3", help="allowed prime factors of p-1")
    pr.set_defaults(func=cmd_primes)

    b = sub.add_parser("bench", help="count and time one transform configuration")
    b.add_argument("p", type=int, help="prime modulus")
    b.add_argument("--n", type=int, help="transform length (default p-1)")
    b.add_argument("--radices", help=_RADICES_HELP)
    b.add_argument("--variant", choices=VARIANTS, default=TWIDDLE)
    b.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="timed runs of one input; the median is reported")
    b.add_argument("--naive-cutoff", type=int, default=DEFAULT_NAIVE_CUTOFF, help="largest n at which the direct transform is timed")
    b.add_argument("--format", choices=("human", "csv"), default="human")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, VectorFileError) else 3
    return 0
