#!/usr/bin/env python3
"""Reproduce the headline operation-count and speedup numbers.

Prints instrumented reports for the two showcase fields (full-length
transforms) and, unless --skip-wall-clock is given, a measured wall-clock
comparison against the direct transform at a subgroup length where running
the direct transform is still bearable.
"""

import argparse

from smoothntt.bench import CSV_HEADER, emit_report, run_benchmark
from smoothntt.field import FieldParams


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--skip-wall-clock",
        action="store_true",
        help="skip the timed direct-transform comparison (saves ~1 minute)",
    )
    parser.add_argument("--format", choices=("human", "csv"), default="human")
    args = parser.parse_args()

    configs = [
        (147457, 147456, "recursive"),
        (147457, 147456, "twiddle"),
        (786433, 786432, "twiddle"),
    ]

    def show(report) -> None:
        if args.format == "csv":
            # One header for the whole table; emit_report's second line is the row.
            print(emit_report(report, "csv").splitlines()[1])
        else:
            print(emit_report(report))

    if args.format == "csv":
        print(CSV_HEADER)
    for p, n, variant in configs:
        show(run_benchmark(FieldParams(p), n, variant=variant))

    if not args.skip_wall_clock:
        report = run_benchmark(
            FieldParams(147457),
            36864,
            variant="twiddle",
            measure_naive_up_to=36864,
        )
        show(report)


if __name__ == "__main__":
    main()
