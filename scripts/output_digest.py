#!/usr/bin/env python3
"""Print one SHA-256 per transform output over a fixed grid of fields and schedules.

Each line names the field, the length, the radix schedule, the call
(`fft_twiddle`, `fft_recursive` or `ifft`, which has no variant), the output
order and the input kind (seeded uniform residues, or every entry p - 1),
then the operation counts of a forward call and the SHA-256 of the output
as little-endian int64 bytes.  Two checkouts that print the same lines
compute bit-identical outputs and counts, so comparing a change against its
parent is one diff:

    PYTHONPATH=src python3 scripts/output_digest.py > after.txt

`--small` keeps the fields and lengths that run in about a second.
"""

import argparse
import hashlib

import numpy as np

from smoothntt.field import FieldParams, fp_pow
from smoothntt.transform import (
    OpCounts,
    fft_recursive,
    fft_twiddle,
    ifft,
    plan_transform,
)

# (p, n, primitive root or None, schedule or None).  A primitive root fixes
# omega = g^((p-1)/n) and skips the generator scan, which costs about p/n
# candidates; None takes the plan's defaults.
SMALL_GRID = (
    (97, 96, None, (96,)),
    (97, 96, None, (3, 32)),
    (3457, 3456, None, (4, 9, 6, 16)),
    (3457, 3456, None, (3, 2, 2, 3, 2, 2, 2, 2, 3, 2)),
    (1088391169, 1296, 11, (3, 2, 3, 3, 2, 2, 3, 2)),
    (1811939329, 6144, 13, (2, 2, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2)),
    (1811939329, 864, 13, (2, 3, 2, 3, 2, 2, 3, 2)),
)
FULL_GRID = SMALL_GRID + (
    (147457, 147456, None, None),
    (472393, 472392, None, None),
    (786433, 786432, None, None),
    (2013265921, 3840, 31, None),
    (1088391169, 186624, 11, (3, 2, 2, 3, 3, 2, 3, 2, 2, 3, 2, 3, 2, 2)),
    (1811939329, 110592, 13, (2, 2, 3, 2, 2, 2, 2, 3, 2, 2, 2, 2, 2, 3, 2)),
)

FORWARD = {"fft_twiddle": fft_twiddle, "fft_recursive": fft_recursive}
CALLS = (*FORWARD, "ifft")
HEADER = "p n schedule call order input mul add sha256"


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()


def case_lines(p: int, n: int, root: int | None, radices) -> list[str]:
    params = FieldParams(p)
    omega = None if root is None else fp_pow(root, (p - 1) // n, params)
    plan = plan_transform(params, n, omega=omega, radices=radices)
    schedule = "x".join(str(r) for r in plan.radices)
    inputs = (
        ("random", np.random.default_rng(p + n).integers(0, p, n)),
        ("p-1", np.full(n, p - 1, dtype=np.int64)),
    )
    lines = []
    for kind, v in inputs:
        for call in CALLS:
            for order, raw_order in (("natural", False), ("raw", True)):
                if call in FORWARD:
                    counts = OpCounts()
                    out = FORWARD[call](plan, v, counts, raw_order=raw_order)
                    mul, add = counts.multiplications, counts.additions
                else:
                    out = ifft(plan, v, raw_order=raw_order)
                    mul = add = "-"  # ifft takes no counter
                lines.append(f"{p} {n} {schedule} {call} {order} {kind} {mul} {add} {digest(out)}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--small", action="store_true", help="only the fields and lengths that run in about a second"
    )
    args = parser.parse_args()
    print(HEADER)
    for case in SMALL_GRID if args.small else FULL_GRID:
        for line in case_lines(*case):
            print(line)


if __name__ == "__main__":
    main()
