"""Benchmark of smoothntt: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own process,
one at a time, with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS
set to 1, importing the package from the checkout's src/.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  Workloads,
metrics and the layer map are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("full_radix2", "full_radix3", "subgroup_oracle", "cli_file")
CHILD_TIMEOUT_S = 170


def run_workload(name: str, args) -> dict | None:
    """Run one workload in a fresh process; relay its report, return its result."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="smoothntt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "smoothntt" / "__init__.py").is_file():
        print(f"error: no smoothntt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args)
        if result is None:
            return 1
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
