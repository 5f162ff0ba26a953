"""Run one workload in this process, check every output, print its metrics.

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1

Normally started by run.py, which gives each workload a fresh single-threaded
process.  Set-up is repeated setup_reps times, spread over the timed phase,
and its median reported.  The timed phase is a closed loop: one caller issues
each op only after the previous one returned, in whole cycles.  The number of
cycles is fixed by --seconds alone: round(seconds / cycle_s), where cycle_s is
the workload's cycle time at the seed commit.  A run of the seed so measures
about --seconds, and every run at one --seconds holds the same ops, so an op
that gets slower can only raise the order statistics.  Outputs are checked
after each cycle, outside the timed interval.  A fixed pure-Python loop is
timed around the timed phase and between its cycles, and its quartiles are
recorded with the environment, so drift of the host shows beside the result.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the run traces its set-up, then runs half the cycles untraced and
half traced, so a traced run takes as long as an untraced one; the last line
carries the per-layer metrics and the spans are written under perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import smoothntt
import smoothntt.transform as transform
from tracer import KERNELS, PLAN_BUILD, Tracer
from workloads import RAISED, CliFile, FullTransform, SubgroupOracle

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops beyond it
MAX_LOGGED_ERRORS = 3
CALIBRATION_REPS = 5  # calibration samples before and after the timed phase
# The mean traced op time, per op, that the reported per-op layer metrics and
# trace.other_ms may leave unexplained: the root wrapper's own cost (about
# 15 us) with room for a garbage-collector pause.
ACCOUNTING_SLACK_MS = 0.1
ACCOUNTING_TOLERANCE = 0.01  # plus this share of the op time

# Seconds of summed op time per cycle at the seed commit, on the machine in
# perfbench/NOTES.md.  They fix each workload's cycle count; a later change
# to the program must not change them.
CYCLE_S = {
    "full_radix2": 1.55,
    "full_radix3": 0.80,
    "subgroup_oracle": 2.25,
    "cli_file": 0.50,
}
WORKLOADS = tuple(CYCLE_S)


def make_workload(name: str, rng, work_dir: str):
    if name == "full_radix2":
        return FullTransform(rng, 786433)  # n = 2^18 * 3
    if name == "full_radix3":
        return FullTransform(rng, 472393)  # n = 2^3 * 3^10
    if name == "subgroup_oracle":
        return SubgroupOracle(rng)
    if name == "cli_file":
        return CliFile(rng, work_dir)  # F_147457, n = 2^14 * 3^2
    raise ValueError(f"unknown workload {name!r}")


class LoopResult:
    def __init__(self) -> None:
        self.latencies_ns: list[int] = []
        self.kinds: list[str] = []
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0
        self.points = 0
        self.errors = 0


def _log_error(result: LoopResult, what: str) -> None:
    result.errors += 1
    if result.errors <= MAX_LOGGED_ERRORS:
        print(f"{what} raised:\n{traceback.format_exc()}", file=sys.stderr)


def run_cycle(cycle, result: LoopResult, tracer: Tracer | None = None) -> None:
    """Issue the cycle's ops back to back, then check them and tally the result."""
    outs, durations = [], []
    for op in cycle.ops:
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                out = op.run(outs)
            else:
                out = tracer.root("op", lambda: op.run(outs))
        except Exception:
            out = RAISED
            _log_error(result, f"op {op.kind}")
        durations.append(time.perf_counter_ns() - start)
        outs.append(out)
    try:
        verdicts = list(cycle.check(outs))
    except Exception:
        _log_error(result, "check")
        verdicts = []
    if len(verdicts) != len(cycle.ops):
        verdicts = [False] * len(cycle.ops)
    for op, out, ok, ns in zip(cycle.ops, outs, verdicts, durations):
        result.attempted += 1
        result.latencies_ns.append(ns)
        result.kinds.append(op.kind)
        result.busy_ns += ns
        if ok and out is not RAISED:
            result.points += op.points
        else:
            result.failed += 1


def cycles_for(name: str, seconds: float) -> int:
    """The fixed cycle count of a run: about `seconds` of ops at the seed commit."""
    return max(1, round(seconds / CYCLE_S[name]))


def run_loop(workload, cycles: int, tracer: Tracer | None = None, between=None) -> LoopResult:
    """Closed loop over `cycles` whole cycles.

    An op that raises, or whose output fails its check, counts as failed and
    the loop goes on.  between(done), if given, runs after each cycle with the
    number of cycles done, when nothing of the cycle is referenced any more.
    """
    result = LoopResult()
    for done in range(1, cycles + 1):
        run_cycle(workload.cycle(), result, tracer)
        if between is not None:
            between(done)
    return result


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def timed_build(workload, times: list[int], tracer: Tracer | None = None) -> None:
    """Time one build of the workload's reused state, then hand the state over."""
    start = time.perf_counter_ns()
    state = workload.build() if tracer is None else tracer.root("setup", workload.build)
    times.append(time.perf_counter_ns() - start)
    workload.ready(state)


def between_cycles(workload, cycles: int, setup_times: list[int], calibration: list[int]):
    """run_loop callback: rebuild the state each time k/setup_reps of the cycles are done,
    then time the calibration loop once.

    Spreading the builds over the timed phase keeps one slow stretch of the
    machine from setting every set-up sample.
    """
    marks = [cycles * k / workload.setup_reps for k in range(1, workload.setup_reps)]

    def between(done: int) -> None:
        while marks and done >= marks[0]:
            marks.pop(0)
            timed_build(workload, setup_times)
        time_calibration(calibration)

    return between


def calibration_loop() -> int:
    """A fixed pure-Python loop, independent of the program under test."""
    acc = 0
    for i in range(200_000):
        acc = (acc * 31 + i) % 1_000_003
    return acc


def time_calibration(samples: list[int], reps: int = 1) -> None:
    for _ in range(reps):
        start = time.perf_counter_ns()
        calibration_loop()
        samples.append(time.perf_counter_ns() - start)


def calibration_summary(samples: list[int]) -> dict:
    """Quartiles in ms of the calibration loop: how fast the host ran Python."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"q1": q1 / 1e6, "median": median / 1e6, "q3": q3 / 1e6, "samples": len(samples)}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def _read(path: Path):
    try:
        return path.read_text().strip()
    except OSError:
        return None


def environment(workload, calibration: list[int]) -> dict:
    """Machine, interpreter and cache facts recorded beside every result."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        if kind in ("Data", "Unified"):
            caches[f"L{_read(index / 'level')}"] = _read(index / "size")
    ws = workload.working_set_bytes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cache_per_core": caches,
        "working_set_bytes_per_array": ws,
        "working_set_note": "8n bytes per int64 array of the largest n; "
        "compare with cache_per_core",
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "calibration_ms": calibration_summary(calibration),
        "calibration_note": "a fixed pure-Python loop timed before and after the "
        "timed phase and, in untraced runs, between its cycles: how fast the host "
        "ran Python during the run",
    }


def end_to_end(loop: LoopResult, setup_ns: list[int]) -> tuple[dict, dict]:
    lat_ms = [ns / 1e6 for ns in loop.latencies_ns]
    tail_ms, tail_pct, samples = tail(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "points_per_s": (loop.points / (loop.busy_ns / 1e9), "1/s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    extra = {
        "op_ms_tail_percentile": (tail_pct, "%"),
        "op_samples": (samples, "count"),
        "failed_frac": (loop.failed / loop.attempted, "ratio"),
        "setup_reps": (len(setup_ns), "count"),
    }
    return metrics, extra


# Per-op self-time metrics and the span names each one sums.  Every span under
# an op belongs to exactly one of them, so together they cover the op.
OP_TIME_METRICS = {
    "transform.kernel.self_ms": KERNELS,
    "transform.permute.ms": ("transform.permute",),
    "transform.plan_build.self_ms": PLAN_BUILD,
    "transform.naive.ms": ("transform.dft_naive", "transform.idft_naive"),
    "transform.cyclic_convolve_via_fft.self_ms": ("transform.cyclic_convolve_via_fft",),
    "numtheory.find_generator.ms": ("numtheory.find_generator",),
    "numtheory.factorize.ms": ("numtheory.factorize",),
    "field.FieldParams.ms": ("field.FieldParams",),
    "cli.read_vector_file.ms": ("cli.read_vector_file",),
    "cli.write_vector_file.ms": ("cli.write_vector_file",),
    "cli.main.self_ms": ("cli.main",),
    "trace.other_ms": ("op",),
}


def check_accounting(metrics: dict, self_ns: dict, traced: LoopResult) -> float:
    """Check that the per-op layer metrics add up to the measured op time.

    The sum of OP_TIME_METRICS must match the mean traced op latency that
    run_cycle measured, within ACCOUNTING_SLACK_MS plus ACCOUNTING_TOLERANCE
    of it; what is left is the cost of the root wrapper.  Returns the
    unexplained share of the op time.
    """
    covered = {name for names in OP_TIME_METRICS.values() for name in names}
    uncovered = sorted(set(self_ns) - covered)
    if uncovered:
        raise RuntimeError(f"spans under ops that no per-op metric covers: {uncovered}")
    accounted = sum(metrics[name][0] for name in OP_TIME_METRICS)
    measured = traced.busy_ns / 1e6 / traced.attempted
    if abs(measured - accounted) > ACCOUNTING_SLACK_MS + ACCOUNTING_TOLERANCE * measured:
        raise RuntimeError(
            f"per-op layer metrics add up to {accounted:.3f} ms, "
            f"the measured op time is {measured:.3f} ms"
        )
    return (measured - accounted) / measured


def per_layer(tracer: Tracer, traced: LoopResult, untraced: LoopResult) -> dict:
    """Per-layer metrics from the spans; times are per timed op unless noted."""
    own = tracer.self_times()
    op_spans = tracer.under("op")
    roots = [i for i in op_spans if tracer.spans[i][3] == -1]
    n_ops = len(roots)
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for i in op_spans:
        name = tracer.spans[i][0]
        self_ns[name] = self_ns.get(name, 0) + own[i]
        calls[name] = calls.get(name, 0) + 1
    op_ns = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in roots)

    def ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6 / n_ops

    def per_op(*names):
        return sum(calls.get(n, 0) for n in names) / n_ops

    # The three per-build metrics are averaged per build, set-up included:
    # the full-length workloads build their plan only in set-up.
    every_span: dict[str, list[int]] = {}
    for i, (name, *_rest) in enumerate(tracer.spans):
        every_span.setdefault(name, []).append(own[i])

    def per_build(name):
        values = every_span.get(name, [])
        return statistics.fmean(values) / 1e6 if values else 0.0

    kernel_ns = sum(self_ns.get(n, 0) for n in KERNELS)
    mults = adds = points = 0
    for n, radices, variant in tracer.kernel_calls:
        counts = transform.predicted_counts(n, radices, variant)
        mults += counts.multiplications
        adds += counts.additions
        points += n
    searches = calls.get("numtheory.find_generator", 0)
    candidates = tracer.fp_pow_calls
    traced_p50 = statistics.median(traced.latencies_ns)
    untraced_p50 = statistics.median(untraced.latencies_ns)
    metrics = {
        "transform.kernel.self_ms": (ms(*KERNELS), "ms/op"),
        "transform.fft_twiddle.self_ms": (ms("transform.fft_twiddle"), "ms/op"),
        "transform.fft_recursive.self_ms": (ms("transform.fft_recursive"), "ms/op"),
        "transform.ifft.self_ms": (ms("transform.ifft"), "ms/op"),
        "transform.kernel.ns_per_mul": (kernel_ns / mults if mults else 0.0, "ns"),
        "transform.kernel.ns_per_point": (kernel_ns / points if points else 0.0, "ns"),
        "transform.kernel.mul_count": (mults / n_ops, "count/op"),
        "transform.kernel.add_count": (adds / n_ops, "count/op"),
        "transform.permute.ms": (ms("transform.permute"), "ms/op"),
        "transform.plan_transform.self_ms": (per_build("transform.plan_transform"), "ms/plan"),
        "transform.build_twiddle_table.ms": (
            per_build("transform.build_twiddle_table"),
            "ms/plan",
        ),
        "transform.digit_perm_build.ms": (per_build("transform.digit_perm_build"), "ms/plan"),
        "transform.plan_build.self_ms": (ms(*PLAN_BUILD), "ms/op"),
        "transform.plan.bytes": (
            statistics.fmean(tracer.plan_bytes) if tracer.plan_bytes else 0.0,
            "B/plan",
        ),
        "transform.naive.calls": (
            per_op("transform.dft_naive", "transform.idft_naive"),
            "count/op",
        ),
        "transform.naive.ms": (ms("transform.dft_naive", "transform.idft_naive"), "ms/op"),
        "transform.cyclic_convolve_via_fft.self_ms": (
            ms("transform.cyclic_convolve_via_fft"),
            "ms/op",
        ),
        "numtheory.find_generator.calls": (searches / n_ops, "count/op"),
        "numtheory.find_generator.ms": (ms("numtheory.find_generator"), "ms/op"),
        "numtheory.find_generator.candidates": (candidates / n_ops, "count/op"),
        "numtheory.find_generator.accept_ratio": (
            searches / candidates if candidates else 0.0,
            "ratio",
        ),
        "numtheory.factorize.calls": (per_op("numtheory.factorize"), "count/op"),
        "numtheory.factorize.ms": (ms("numtheory.factorize"), "ms/op"),
        "field.FieldParams.calls": (per_op("field.FieldParams"), "count/op"),
        "field.FieldParams.ms": (ms("field.FieldParams"), "ms/op"),
        "cli.read_vector_file.ms": (ms("cli.read_vector_file"), "ms/op"),
        "cli.write_vector_file.ms": (ms("cli.write_vector_file"), "ms/op"),
        "cli.main.self_ms": (ms("cli.main"), "ms/op"),
        "cli.bytes_in": (tracer.cli_bytes["in"] / n_ops, "B/op"),
        "cli.bytes_out": (tracer.cli_bytes["out"] / n_ops, "B/op"),
        "trace.op_ms": (op_ns / 1e6 / n_ops, "ms/op"),
        "trace.other_ms": (ms("op"), "ms/op"),
        "trace.overhead_frac": (traced_p50 / untraced_p50 - 1.0, "ratio"),
    }
    unexplained = check_accounting(metrics, self_ns, traced)
    metrics["trace.unexplained_frac"] = (unexplained, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    rng = np.random.default_rng(args.seed)
    workload = make_workload(args.workload, rng, work_dir)
    cycles = cycles_for(args.workload, args.seconds)
    calibration: list[int] = []
    time_calibration(calibration, CALIBRATION_REPS)
    try:
        tracer = Tracer() if args.trace else None
        setup_ns: list[int] = []
        if tracer:
            tracer.install()
            for _ in range(workload.setup_reps):
                timed_build(workload, setup_ns, tracer)
            tracer.uninstall()
            loop = run_loop(workload, max(1, cycles // 2))
        else:
            timed_build(workload, setup_ns)
            between = between_cycles(workload, cycles, setup_ns, calibration)
            loop = run_loop(workload, cycles, between=between)
        metrics, extra = end_to_end(loop, setup_ns)
        if tracer:
            tracer.reset_counters()
            tracer.install()
            traced = run_loop(workload, max(1, cycles // 2), tracer)
            tracer.uninstall()
            extra.update(metrics)  # the untraced phase, printed for reference
            extra["traced_failed"] = (traced.failed, "count")
            extra["traced_attempted"] = (traced.attempted, "count")
            metrics = per_layer(tracer, traced, loop)
            loop.attempted += traced.attempted
            loop.failed += traced.failed
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    time_calibration(calibration, CALIBRATION_REPS)
    env = environment(workload, calibration)
    extra["cycles"] = (cycles, "count")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "environment": env,
        "latencies_ms": [
            [kind, ns / 1e6] for kind, ns in zip(loop.kinds, loop.latencies_ns)
        ],
        "smoothntt": smoothntt.__file__,
    }
    if tracer:
        tracer.write(str(OUT_DIR / f"spans-{tag}.jsonl"))
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"environment {json.dumps(env)}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:42s} {value:16.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": loop.failed == 0,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
