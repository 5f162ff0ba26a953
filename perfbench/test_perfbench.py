"""Tests of the benchmark's checker, oracle and tracer on small fields.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

import smoothntt.cli as cli
import smoothntt.numtheory as numtheory
import smoothntt.transform as transform
from smoothntt.errors import LengthMismatch
from smoothntt.field import FieldParams

import harness
from tracer import Tracer
from workloads import (
    CliFile,
    FullTransform,
    SubgroupOracle,
    cyclic_coefficient,
    dft_coefficient,
)

P = 769  # p - 1 = 2^8 * 3


def loop(workload, cycles=3):
    workload.ready(workload.build())
    return harness.run_loop(workload, cycles)


def corrupt_one(fn):
    def wrapper(plan, *args, **kwargs):
        out = fn(plan, *args, **kwargs).copy()
        out[len(out) // 3] = (out[len(out) // 3] + 1) % plan.p
        return out

    return wrapper


@pytest.mark.parametrize("p, n", [(P, 768), (P, 96), (163, 81)])
def test_spot_oracle_agrees_with_dft_naive(p, n):
    plan = transform.plan_transform(FieldParams(p), n)
    rng = np.random.default_rng(n)
    x = rng.integers(0, p, n, dtype=np.int64)
    y = rng.integers(0, p, n, dtype=np.int64)
    naive = transform.dft_naive(plan, x)
    conv = transform.idft_naive(
        plan, transform.dft_naive(plan, x) * transform.dft_naive(plan, y) % p
    )
    for j in range(0, n, 7):
        assert dft_coefficient(x.tolist(), plan.omega, p, j) == naive[j]
        assert cyclic_coefficient(x.tolist(), y.tolist(), p, j) == conv[j]


def test_clean_run_has_no_failures():
    result = loop(FullTransform(np.random.default_rng(1), P))
    assert result.attempted >= 3 and result.failed == 0
    assert result.points == 768 * result.attempted


@pytest.mark.parametrize("name", ["fft_twiddle", "fft_recursive"])
def test_corrupted_coefficient_counts_as_failed(monkeypatch, name):
    monkeypatch.setattr(transform, name, corrupt_one(getattr(transform, name)))
    result = loop(FullTransform(np.random.default_rng(2), P))
    assert result.failed > 0
    metrics, extra = harness.end_to_end(result, [1])
    assert extra["failed_frac"][0] == result.failed / result.attempted > 0


def test_broken_round_trip_counts_as_failed(monkeypatch):
    monkeypatch.setattr(transform, "ifft", corrupt_one(transform.ifft))
    result = loop(FullTransform(np.random.default_rng(3), P))
    assert result.failed > 0


def test_op_raising_package_error_counts_as_failed(monkeypatch):
    def raising(plan, v, *args, **kwargs):
        raise LengthMismatch("injected")

    monkeypatch.setattr(transform, "fft_recursive", raising)
    result = loop(FullTransform(np.random.default_rng(4), P))
    assert result.errors > 0
    assert result.failed == result.errors  # only the raising ops fail
    assert harness.end_to_end(result, [1])[1]["failed_frac"][0] > 0


def test_subgroup_oracle_catches_wrong_oracle(monkeypatch):
    workload = SubgroupOracle(np.random.default_rng(5), configs=((65537, 16, 2),))
    assert loop(workload).failed == 0
    monkeypatch.setattr(transform, "dft_naive", corrupt_one(transform.dft_naive))
    assert loop(workload).failed > 0


def test_cli_file_catches_wrong_bytes(tmp_path, monkeypatch):
    workload = CliFile(np.random.default_rng(6), str(tmp_path), p=P)
    assert loop(workload).failed == 0
    monkeypatch.setattr(cli, "fft_twiddle", corrupt_one(cli.fft_twiddle))
    result = harness.run_loop(workload, 1)
    assert result.failed > 0
    workload.close()


def test_tail_leaves_ten_ops_beyond():
    value, percentile, samples = harness.tail([float(v) for v in range(40, 0, -1)])
    assert (value, percentile, samples) == (30.0, 75.0, 40)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def traced_run(workload, cycles=2):
    workload.ready(workload.build())
    untraced = harness.run_loop(workload, cycles)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_loop(workload, cycles, tracer)
    finally:
        tracer.uninstall()
    return tracer, traced, untraced


def op_time_sum(value):
    return sum(value[name] for name in harness.OP_TIME_METRICS)


def test_tracer_accounts_for_op_time_and_restores_names():
    originals = (transform.fft_twiddle, numtheory.fp_pow, cli.plan_transform)
    apply = transform.DigitPermutation.__dict__["apply"]
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.plan_transform is transform.plan_transform is not originals[2]
    finally:
        tracer.uninstall()
    assert (transform.fft_twiddle, numtheory.fp_pow, cli.plan_transform) == originals
    assert transform.DigitPermutation.__dict__["apply"] is apply

    workload = SubgroupOracle(np.random.default_rng(7), configs=((1990657, 64, 2),))
    tracer, traced, untraced = traced_run(workload)
    metrics = harness.per_layer(tracer, traced, untraced)
    value = {name: v for name, (v, _unit) in metrics.items()}
    # One plan per op here, so the per-plan and per-op plan times agree.
    assert value["transform.plan_build.self_ms"] == pytest.approx(
        value["transform.plan_transform.self_ms"]
        + value["transform.build_twiddle_table.ms"]
        + value["transform.digit_perm_build.ms"]
    )
    assert op_time_sum(value) == pytest.approx(value["trace.op_ms"])
    assert value["numtheory.find_generator.candidates"] == 53480
    assert value["cli.main.self_ms"] == 0

    declared = json.loads((Path(harness.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert [m["unit"] for m in declared["per_layer"]] == [u for _v, u in metrics.values()]
    e2e, _extra = harness.end_to_end(untraced, [1])
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        k: u for k, (_v, u) in e2e.items()
    }


def test_accounting_holds_when_plans_are_built_only_in_set_up():
    workload = FullTransform(np.random.default_rng(8), P)
    tracer = Tracer()
    tracer.install()
    try:
        workload.ready(tracer.root("setup", workload.build))
        traced = harness.run_loop(workload, 3, tracer)
    finally:
        tracer.uninstall()
    metrics = harness.per_layer(tracer, traced, traced)
    value = {name: v for name, (v, _unit) in metrics.items()}
    assert value["transform.plan_build.self_ms"] == 0  # no plan is built in an op
    assert value["transform.plan_transform.self_ms"] > 0  # the set-up build, per plan
    assert op_time_sum(value) == pytest.approx(value["trace.op_ms"])
    measured = traced.busy_ns / 1e6 / traced.attempted
    assert 0 <= measured - op_time_sum(value) <= harness.ACCOUNTING_SLACK_MS
    assert value["trace.unexplained_frac"] == pytest.approx(
        (measured - op_time_sum(value)) / measured
    )


def test_accounting_fails_on_time_no_metric_covers():
    tracer, traced, _ = traced_run(FullTransform(np.random.default_rng(9), P))
    name, start, end, parent = tracer.spans[-1]
    tracer.spans.append(("transform.unlisted", start, end, parent))
    with pytest.raises(RuntimeError, match="no per-op metric covers"):
        harness.per_layer(tracer, traced, traced)


def test_accounting_fails_when_op_time_is_not_explained():
    tracer, traced, _ = traced_run(FullTransform(np.random.default_rng(10), P))
    traced.busy_ns *= 2  # the op latencies run_cycle measured no longer match the spans
    with pytest.raises(RuntimeError, match="measured op time"):
        harness.per_layer(tracer, traced, traced)


def test_cycle_count_depends_on_seconds_only():
    assert harness.cycles_for("full_radix2", 20) == round(20 / harness.CYCLE_S["full_radix2"])
    assert harness.cycles_for("cli_file", 0.01) == 1
