"""The reproduction scripts run end to end and print parseable output."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_speedups_csv_is_one_table():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    script = ROOT / "scripts" / "reproduce_speedups.py"
    out = subprocess.run(
        [sys.executable, str(script), "--skip-wall-clock", "--format", "csv"],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["pred_mul"], r["meas_mul"]) for r in rows] == [
        ("5013504", "5013504"),
        ("2949120", "2949120"),
        ("16515072", "16515072"),
    ]
