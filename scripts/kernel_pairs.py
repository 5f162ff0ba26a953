#!/usr/bin/env python3
"""Time the transform kernels of two checkouts in interleaved pairs.

Loads `smoothntt` from BASE_DIR/src and CHANGE_DIR/src under distinct
module names, so both run in one process on the same inputs.  For every
field and rep it times `fft_twiddle`, `fft_recursive`, `ifft` (on the
forward output) and `cyclic_convolve_via_fft` (of the input with its
forward output) once per side, alternating which side runs first, and
stops with an error unless the two outputs are bit-identical.
Each field runs at its full length n = p - 1 on uniform residues seeded
with p, with the base plan's omega and schedule on both sides.  `--fields`
picks the primes (default F_472393, F_786433 and F_147457).  `--oracle`
times `dft_naive` and `idft_naive` (on the forward output) instead, at the
two sizes where the `subgroup_oracle` benchmark workload spends its numpy
time: n = 2592 in F_629857 and n = 4608 in F_147457.  `--cli` times
`cli.main(["transform", IN, FWD])` and `cli.main(["transform", FWD, BACK,
"--inverse"])` on one F_147457 file of n = 147456 residues, the size of
the `cli_file` benchmark workload, written once, `cli.read_vector_file`
alone on the same file, since a whole command dilutes a reader change about
fourfold, and `cli.write_vector_file` alone on the same values, for the same
reason; it stops with an error unless both sides exit 0, read equal arrays
and write byte-identical files.  `--plan` times `plan_transform` at n = p - 1
on a fresh `FieldParams(p)`, built before the clock starts, at the `--fields`
primes instead, generator search and twiddle table included, and stops with
an error unless both plans have the same omega, radices and twiddle table.
Prints one row
per field and call: each side's median and quartiles in ms and its median
minor page faults per call (`getrusage(RUSAGE_SELF).ru_minflt` deltas, all
threads of the process), the ratio of median times and the number of reps
the change ran faster:

    python3 scripts/kernel_pairs.py BASE_DIR CHANGE_DIR --reps 21
    python3 scripts/kernel_pairs.py BASE_DIR CHANGE_DIR --oracle --reps 11
    python3 scripts/kernel_pairs.py BASE_DIR CHANGE_DIR --cli --reps 11
    python3 scripts/kernel_pairs.py BASE_DIR CHANGE_DIR --plan --reps 41

A checkout against itself is a noise floor: its ratios scatter around 1.
"""

import argparse
import importlib.util
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

DEFAULT_FIELDS = (472393, 786433, 147457)
KERNEL_CALLS = ("fft_twiddle", "fft_recursive", "ifft", "cyclic_convolve_via_fft")
ORACLE_SIZES = ((629857, 2592), (147457, 4608))  # (p, n)
ORACLE_CALLS = ("dft_naive", "idft_naive")
CLI_SIZE = (147457, 147456)  # (p, n)
CLI_CALLS = ("cli_forward", "cli_inverse", "cli_read", "cli_write")
PLAN_CALLS = ("plan_transform",)


def load_package(checkout: str, name: str):
    """Import CHECKOUT/src/smoothntt as the top-level module `name`."""
    init = Path(checkout) / "src" / "smoothntt" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports resolve through it
    spec.loader.exec_module(module)
    return module


def timed(fn, *args) -> tuple[float, int, object]:
    """(ms, minor page faults, output) of one call fn(*args)."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter_ns()
    out = fn(*args)
    ms = (time.perf_counter_ns() - start) / 1e6
    return ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, out


def interleave(calls, reps: int, p: int, run, same) -> dict[str, list]:
    """Per call, `reps` (base_ms, change_ms, base_faults, change_faults) rows.

    run(call, side) returns (ms, minor faults, output); the side that runs
    first alternates by rep, and the run stops unless
    same(base_output, change_output).
    """
    pairs = {call: [] for call in calls}
    for rep in range(reps):
        for call in calls:
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            ms, faults, outs = [0.0, 0.0], [0, 0], [None, None]
            for side in order:
                ms[side], faults[side], outs[side] = run(call, side)
            if not same(outs[0], outs[1]):
                raise SystemExit(f"error: {call} outputs differ on F_{p} (rep {rep})")
            pairs[call].append((*ms, *faults))
    return pairs


def run_pairs(base, change, p: int, n: int, calls, reps: int) -> dict[str, list]:
    """Per call, `reps` interleave() rows on F_p at length n."""
    base_plan = base.plan_transform(base.FieldParams(p), n)
    change_plan = change.plan_transform(
        change.FieldParams(p), n, omega=base_plan.omega, radices=base_plan.radices
    )
    sides = ((base, base_plan), (change, change_plan))
    v = np.random.default_rng(p).integers(0, p, n)
    spectrum = base.fft_twiddle(base_plan, v)
    inputs = {
        "fft_twiddle": (v,),
        "fft_recursive": (v,),
        "ifft": (spectrum,),
        "cyclic_convolve_via_fft": (v, spectrum),
        "dft_naive": (v,),
        "idft_naive": (spectrum,),
    }

    def run(call, side):
        module, plan = sides[side]
        return timed(getattr(module, call), plan, *inputs[call])

    return interleave(calls, reps, p, run, np.array_equal)


def same_plan(a, b) -> bool:
    return (a.omega, a.radices) == (b.omega, b.radices) and np.array_equal(a.twiddles, b.twiddles)


def run_plan_pairs(base, change, p: int, n: int, calls, reps: int) -> dict[str, list]:
    """Per call, `reps` interleave() rows of a fresh length-n plan on F_p."""

    def run(call, side):
        module = (base, change)[side]
        return timed(module.plan_transform, module.FieldParams(p), n)

    return interleave(calls, reps, p, run, same_plan)


def run_cli_pairs(base, change, p: int, n: int, calls, reps: int) -> dict[str, list]:
    """Per call, `reps` interleave() rows of `transform` or a codec on one file."""
    clis = [importlib.import_module(f"{module.__name__}.cli") for module in (base, change)]
    with tempfile.TemporaryDirectory() as tmp:
        src = str(Path(tmp) / "input.vec")
        fwd = [str(Path(tmp) / f"forward{side}.vec") for side in (0, 1)]
        back = [str(Path(tmp) / f"back{side}.vec") for side in (0, 1)]
        written = [str(Path(tmp) / f"written{side}.vec") for side in (0, 1)]
        values = np.random.default_rng(p).integers(0, p, n)
        clis[0].write_vector_file(src, p, values)
        argvs = {
            "cli_forward": [["transform", src, fwd[side]] for side in (0, 1)],
            "cli_inverse": [["transform", fwd[side], back[side], "--inverse"] for side in (0, 1)],
        }

        def run(call, side):
            if call == "cli_read":
                ms, faults, (_, read) = timed(clis[side].read_vector_file, src)
                return ms, faults, read
            if call == "cli_write":
                Path(written[side]).unlink(missing_ok=True)
                ms, faults, _ = timed(clis[side].write_vector_file, written[side], p, values)
                return ms, faults, np.frombuffer(Path(written[side]).read_bytes(), np.uint8)
            argv = argvs[call][side]
            Path(argv[2]).unlink(missing_ok=True)
            ms, faults, code = timed(clis[side].main, argv)
            if code != 0:
                raise SystemExit(f"error: {call} exited {code} on F_{p}")
            return ms, faults, np.frombuffer(Path(argv[2]).read_bytes(), np.uint8)

        return interleave(calls, reps, p, run, np.array_equal)


def quartiles(values) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"{q2:9.2f} [{q1:.2f}, {q3:.2f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--reps", type=int, default=11)
    parser.add_argument("--fields", type=int, nargs="+")
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--oracle", action="store_true")
    modes.add_argument("--cli", action="store_true")
    modes.add_argument("--plan", action="store_true")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.fields and (args.oracle or args.cli):
        parser.error("--fields applies to the kernel and --plan rows only")
    fields = args.fields or DEFAULT_FIELDS
    if args.oracle:
        cases = [(run_pairs, p, n, ORACLE_CALLS) for p, n in ORACLE_SIZES]
    elif args.cli:
        cases = [(run_cli_pairs, *CLI_SIZE, CLI_CALLS)]
    elif args.plan:
        cases = [(run_plan_pairs, p, p - 1, PLAN_CALLS) for p in fields]
    else:
        cases = [(run_pairs, p, p - 1, KERNEL_CALLS) for p in fields]
    base = load_package(args.base_dir, "smoothntt_base")
    change = load_package(args.change_dir, "smoothntt_change")
    print(
        "field call base_ms_p50 [q1, q3] base_minflt_p50"
        " change_ms_p50 [q1, q3] change_minflt_p50 ratio wins"
    )
    for runner, p, n, calls in cases:
        for call, pairs in runner(base, change, p, n, calls, args.reps).items():
            b, c, bf, cf = zip(*pairs)
            wins = sum(cm < bm for bm, cm, *_ in pairs)
            ratio = np.median(c) / np.median(b)
            print(
                f"F_{p} {call} {quartiles(b)} {np.median(bf):.0f} {quartiles(c)}"
                f" {np.median(cf):.0f} {ratio:.3f} {wins}/{args.reps}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
