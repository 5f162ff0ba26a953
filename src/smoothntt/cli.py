"""Command-line front end: transform, generator, primes, bench.

Vector file format (text, ASCII): a header line "ntt-vec 1 <p> <n>" followed
by exactly n lines, each one canonical decimal residue in [0, p).  Every
line ends with a single linefeed and there are no trailing blank lines, so
valid files round-trip byte-identically.

Both codecs work through the body in blocks of `_BLOCK` lines, with
vectorized digit loops over scratch arrays that each call allocates once and
reuses for every block, so apart from the file's bytes and the value array
their memory is O(block), not O(n).  `read_vector_file` checks the header
field by field, then finds every line end in one pass over the body and
keeps the ends in the int64 value array it returns, which has room for no
more lines than the body has bytes, and checks their count against the
header before it judges any line.  Each block then judges its lines from
their ends, by one test keyed by line length, and overwrites its ends with
its residues; the first bad line, if any, is then parsed on its own, so the
error names that line as a line-by-line parser would.  `transform` hands the
value array to the kernel unconverted.  `write_vector_file` raises
`InvalidField` unless p is a supported prime modulus and `NotReduced` unless
the entries are a 1-D vector of integer residues in [0, p), so each file it
writes reads back; only then does it open the file and format and write it
block by block.  Each block's entries are formatted right-aligned in fixed
digit columns, with every leading zero written as byte 0, and the block's
bytes are written with their 0 bytes deleted by `bytes.translate`, so no
mask or index of kept bytes is built.  The residue check is the kernels' own
(`transform._coerce_vector`); the writer adds only the 1-D test, which keeps
a 2-D array a `NotReduced` error, and the empty case.

`transform` runs `fft_twiddle` forward and `ifft` with --inverse.

Exit codes: 0 success, 2 malformed, unreadable or unwritable vector file,
3 plan or parameter error.  argparse usage errors also exit 2; an unknown
option, such as the removed `transform --variant`, is one.
"""

import argparse
import sys

import numpy as np

from .bench import DEFAULT_NAIVE_CUTOFF, DEFAULT_TRIALS, emit_report, run_benchmark
from .errors import BadRadices, InvalidField, NotReduced, VectorFileError
from .field import FieldParams
from .numtheory import factorize, find_generator, prime_search
from .transform import TWIDDLE, VARIANTS, _coerce_vector, fft_twiddle, ifft, plan_transform

_MAGIC = "ntt-vec"
_VERSION = "1"
_BLOCK = 16384  # lines per codec block, whose scratch stays well inside a 2 MiB L2
_RADICES_HELP = (
    "comma-separated radix schedule, e.g. 2,2,3: sets the raw-order layout"
    " and the stage set; the stages run largest radix first"
)
_VARIANT_HELP = (
    "kernel whose operations are counted and timed; both variants compute"
    " the same transform"
)


def read_vector_file(path: str) -> tuple[int, np.ndarray]:
    """Parse a vector file, returning (p, values). Raises VectorFileError.

    The header is checked field by field.  One pass over the body, in chunks
    of 4 * `_BLOCK` bytes, then finds every line end and stores it in
    `values`; each line holds its own linefeed, so `values` needs no more
    entries than the body has bytes, and a header that overstates n gets the
    count message without an n-sized allocation.  Each block of `_BLOCK`
    lines is then checked and parsed from its stored ends, with scratch
    arrays allocated once per call, and its ends are overwritten with its
    residues; beyond the file's bytes and the returned array the memory used
    is O(block).  A line is bad when it holds a non-digit, its value is below
    the least canonical value of its length, or its value is >= p.  The first
    bad line, if any, goes through the per-line check, which raises that
    line's message.  `values` is the 1-D int64 array of residues.
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
    buf = np.frombuffer(raw, np.uint8)
    values = np.empty(min(n, len(buf) - body), np.int64)
    found = 0  # line ends seen, of which values holds the first len(values)
    chunk = 4 * _BLOCK
    for i in range(body, len(buf), chunk):
        ends = np.flatnonzero(buf[i : i + chunk] == 10)
        out = values[found : found + len(ends)]
        np.add(ends[: len(out)], i, out=out)
        found += len(ends)
    if found != n:
        raise VectorFileError(f"{path}: header declares {n} values, found {found}")
    width = len(str(p - 1))
    # Scratch: per line a length, an index, a byte, two flags, the value so
    # far and its least canonical value, which fit int32 up to 9 digits and
    # so halve the Horner loop's traffic.  low[k] is the least canonical
    # k-digit value; it is p for an empty line and for one longer than p - 1,
    # so any value read from them falls outside [low, p).
    acc_type = np.int32 if width < 10 else np.int64
    low = np.array([p, 0, *(10**k for k in range(1, width)), p], acc_type)
    specs = ((np.uint8,), (np.int64,), (np.uint8,), (bool,), (bool,), (acc_type,), (acc_type,))
    start = body  # buf offset of the block's first line
    for lo, (lengths, pos, digit, bad, mask, acc, least) in _blocks(n, *specs):
        ends = values[lo : lo + len(acc)]
        # Line lengths, capped at width + 1 so that uint8 holds them.
        np.subtract(ends[1:], ends[:-1], out=pos[1:])
        pos[0] = ends[0] - start + 1
        np.minimum(pos, width + 2, out=lengths, casting="unsafe")
        lengths -= 1
        # A line is bad exactly when _parse_decimal rejects it or its value is
        # >= p: it holds a byte outside 0-9, or its value is below low for its
        # length, or too large.  Digits are read from the last `width` bytes of
        # each line; the header's bytes, more than `width`, keep every such
        # index inside buf.
        bad.fill(False)
        acc.fill(0)
        np.subtract(ends, width, out=pos)
        for k in range(width, 0, -1):
            buf[width - k :].take(pos, out=digit)  # the bytes at ends - k
            digit -= 48  # uint8: wraps below "0"
            digit *= np.greater_equal(lengths, k, out=mask)  # bytes before the line start
            bad |= np.greater(digit, 9, out=mask)
            acc *= 10
            acc += digit
        bad |= np.less(acc, low.take(lengths, out=least), out=mask)
        bad |= np.greater_equal(acc, p, out=mask)
        if bad.any():
            i = bad.argmax()
            first = int(ends[i - 1]) + 1 if i else start
            value = _parse_decimal(raw[first : ends[i]].decode("ascii"), path)
            raise VectorFileError(f"{path}: value {value} not reduced modulo {p}")
        start = int(ends[-1]) + 1  # before the ends give way to the values
        ends[:] = acc
    return p, values


def _blocks(n: int, *specs):
    """Yield (lo, scratch) for each block of `_BLOCK` lines of an n-line body.

    Each spec is a (dtype, *columns) tuple.  Its array, with room for one
    block, is allocated once per call; scratch holds each array's first
    min(_BLOCK, n - lo) rows, the block that starts at line lo.
    """
    rows = min(n, _BLOCK)
    arrays = [np.empty((rows, *columns), dtype) for dtype, *columns in specs]
    for lo in range(0, n, _BLOCK):
        yield lo, [a[: n - lo] for a in arrays]


def _parse_decimal(token: str, path: str) -> int:
    if not token.isdigit() or (len(token) > 1 and token[0] == "0"):
        raise VectorFileError(f"{path}: {token!r} is not a canonical decimal")
    try:
        return int(token)
    except ValueError as exc:  # past Python's int-from-str digit limit
        raise VectorFileError(f"{path}: {len(token)}-digit decimal is too long") from exc


def write_vector_file(path: str, p: int, values) -> None:
    """Write a vector file, formatting its decimal digits in blocks.

    Before the file is opened, raises InvalidField unless p is a prime in
    (2, 2**31), and NotReduced unless `values` is a 1-D integer array or
    sequence of residues in [0, p), so every file written reads back.  That
    NotReduced comes from the kernels' check, `transform._coerce_vector`,
    for every non-empty 1-D input; an empty sequence writes an n = 0 file.
    The digits of each block of `_BLOCK` entries are formatted into scratch
    arrays allocated once per call, right-aligned in `len(str(p - 1))`
    columns.  Each leading zero is written as byte 0, which no valid file
    holds, and the block's bytes go to the file with their 0 bytes deleted
    (`bytes.translate`), so there is no mask or index of kept bytes and,
    beyond the input, the memory used is O(block).  Raises VectorFileError
    when the path cannot be written.
    """
    p = FieldParams(p).p
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise NotReduced(f"vector must be 1-D integer residues, got {arr.dtype} shape {arr.shape}")
    if len(arr):  # [] is float64 to numpy, yet it writes an n = 0 file
        _coerce_vector(arr, len(arr), p)
    width = len(str(p - 1))
    # Row i of a block holds its entry i right-aligned in `width` digit
    # columns and a final linefeed.  A digit left of the units column whose
    # remaining value q is 0 is a leading zero, written as byte 0.  Every
    # entry is a residue below p < 2**31, so the int32 scratch q, s and t
    # holds it.
    specs = ((np.uint8, width + 1), (bool,), (np.int32,), (np.int32,), (np.int32,))
    try:
        with open(path, "wb") as fh:
            fh.write(f"{_MAGIC} {_VERSION} {p} {len(arr)}\n".encode("ascii"))
            for lo, (rows, lead, q, s, t) in _blocks(len(arr), *specs):
                rows[:, width] = 10
                q[:] = arr[lo : lo + len(q)]
                for j in range(width - 1, -1, -1):
                    np.floor_divide(q, 10, out=s)
                    np.multiply(s, 10, out=t)
                    np.subtract(q, t, out=t)
                    np.add(t, 48, out=rows[:, j], casting="unsafe")
                    if j < width - 1:  # 0 writes its units digit
                        rows[:, j] *= np.greater(q, 0, out=lead)
                    q, s = s, q
                fh.write(rows.tobytes().translate(None, b"\0"))
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
    kernel = ifft if args.inverse else fft_twiddle
    write_vector_file(args.output, p, kernel(plan, values, raw_order=args.raw_order))


def cmd_generator(args: argparse.Namespace) -> None:
    params = FieldParams(args.p)
    n = params.p - 1 if args.n is None else args.n
    a = find_generator(params, n)
    print(f"{a} {factorize(n)}")


def cmd_primes(args: argparse.Namespace) -> None:
    try:
        factors = {int(tok) for tok in args.factors.split(",")}
    except ValueError as exc:
        raise ValueError(f"bad factor list {args.factors!r}") from exc
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
    pr.add_argument("--min", type=int, required=True, help="exclusive lower bound on p")
    pr.add_argument("--max", type=int, required=True, help="exclusive upper bound on p")
    pr.add_argument("--factors", default="2,3", help="allowed prime factors of p-1")
    pr.set_defaults(func=cmd_primes)

    b = sub.add_parser("bench", help="count and time one transform configuration")
    b.add_argument("p", type=int, help="prime modulus")
    b.add_argument("--n", type=int, help="transform length (default p-1)")
    b.add_argument("--radices", help=_RADICES_HELP)
    b.add_argument("--variant", choices=VARIANTS, default=TWIDDLE, help=_VARIANT_HELP)
    b.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="timed runs of one input; the median is reported")
    b.add_argument("--naive-cutoff", type=int, default=DEFAULT_NAIVE_CUTOFF, help="largest n at which the direct transform is timed")
    b.add_argument("--format", choices=("human", "csv"), default="human", help="human-readable lines, or a CSV header and one row")
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
