"""The reproduction scripts run end to end and print parseable output."""

import csv
import hashlib
import io
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    ).stdout


def test_reproduce_speedups_csv_is_one_table():
    out = run_script("reproduce_speedups.py", "--skip-wall-clock", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(r["pred_mul"], r["meas_mul"]) for r in rows] == [
        ("5013504", "5013504"),
        ("2949120", "2949120"),
        ("16515072", "16515072"),
    ]


def test_print_prime_table_lists_the_acceptance_table():
    from test_acceptance import PRIME_TABLE

    header, *lines = run_script("print_prime_table.py").splitlines()
    assert header.split() == ["prime", "p", "p-1", "generator"]
    assert [line.split() for line in lines[:15]] == [
        [str(p), "*".join(f"{q}^{e}" if e > 1 else str(q) for q, e in factors), str(g)]
        for p, factors, g in PRIME_TABLE
    ]
    assert [line.strip() for line in lines[15:]] == [
        "",
        "113246209  2^22*3^3",
        "725594113  2^12*3^11",
    ]


def test_output_digest_small_grid_is_pinned():
    out = run_script("output_digest.py", "--small")
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 7 * 2 * 3 * 2  # cases x inputs x calls x orders
    # Both forward variants agree bit for bit.
    by_call = {}
    for p, n, schedule, call, order, kind, _mul, _add, sha in rows:
        by_call.setdefault((p, n, schedule, order, kind, call[:4]), set()).add(sha)
    assert all(len(shas) == 1 for shas in by_call.values())
    # The whole listing is pinned: a kernel change must leave every output
    # and operation count bit-identical.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1f1cd9d8898c78fedac262a4c008c7b5a04d0f828035fec2c9bf8c7ffd877cef"
    )


def test_output_digest_full_grid_is_pinned():
    # The full grid adds the paper's full-length fields and the lengths near
    # 2^31 that reduce before each stage, which the small grid leaves out.
    out = run_script("output_digest.py")
    assert len(out.splitlines()) == 1 + 13 * 2 * 3 * 2  # header + cases x inputs x calls x orders
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e5d73e273faccefdfac4f0fc1cc85d499ae3276a60624b868e7d8b9353d5ae61"
    )


def test_code_lines_total_is_sum_of_module_rows():
    rows = [line.split() for line in run_script("code_lines.py").splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert {name for _, name in modules} >= {"field.py", "transform.py", "cli.py"}
    assert int(total) == sum(int(count) for count, _ in modules)
    count_code_lines = runpy.run_path(str(ROOT / "scripts" / "code_lines.py"))[
        "count_code_lines"
    ]
    source = (
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "x = (1 +\n"
        "     2)\n"
        "def f():\n"
        '    """Function docstring."""\n'
        "    return x  # trailing comment\n"
    )
    assert count_code_lines(source) == 4  # both lines of x, def, return


def test_kernel_pairs_runs_a_checkout_against_itself():
    out = run_script("kernel_pairs.py", str(ROOT), str(ROOT), "--reps", "3", "--fields", "3457")
    header, *rows = [line.split() for line in out.splitlines()]
    assert header[:3] == ["field", "call", "base_ms_p50"]
    assert [row[:2] for row in rows] == [
        ["F_3457", "fft_twiddle"],
        ["F_3457", "fft_recursive"],
        ["F_3457", "ifft"],
        ["F_3457", "cyclic_convolve_via_fft"],
    ]
    for row in rows:
        wins, reps = row[-1].split("/")
        assert reps == "3" and 0 <= int(wins) <= 3
        assert float(row[-2]) > 0


def test_kernel_pairs_times_the_oracle():
    out = run_script("kernel_pairs.py", str(ROOT), str(ROOT), "--oracle", "--reps", "1")
    header, *rows = [line.split() for line in out.splitlines()]
    assert header[:3] == ["field", "call", "base_ms_p50"]
    assert [row[:2] for row in rows] == [
        ["F_629857", "dft_naive"],
        ["F_629857", "idft_naive"],
        ["F_147457", "dft_naive"],
        ["F_147457", "idft_naive"],
    ]
    for row in rows:
        assert row[-1] in ("0/1", "1/1") and float(row[-2]) > 0


@pytest.fixture(scope="module")
def kernel_pairs_cli_table():
    # One `--cli --reps 1` run, read by both CLI tests below.
    out = run_script("kernel_pairs.py", str(ROOT), str(ROOT), "--cli", "--reps", "1")
    return [line.split() for line in out.splitlines()]


def test_kernel_pairs_times_the_cli(kernel_pairs_cli_table):
    header, *rows = kernel_pairs_cli_table
    assert header[:3] == ["field", "call", "base_ms_p50"]
    assert [row[:2] for row in rows] == [
        ["F_147457", "cli_forward"],
        ["F_147457", "cli_inverse"],
        ["F_147457", "cli_read"],
        ["F_147457", "cli_write"],
    ]
    for row in rows:
        assert row[-1] in ("0/1", "1/1") and float(row[-2]) > 0


def test_kernel_pairs_cli_prints_minor_faults(kernel_pairs_cli_table):
    header, *rows = kernel_pairs_cli_table
    assert header[5] == "base_minflt_p50" and header[9] == "change_minflt_p50"
    assert len(rows) == 4
    for row in rows:
        # Each side's median getrusage ru_minflt delta per call, a count.
        assert len(row) == len(header)
        assert row[5].isdigit() and row[9].isdigit()


def test_kernel_pairs_times_the_plan():
    out = run_script(
        "kernel_pairs.py", str(ROOT), str(ROOT), "--plan", "--reps", "3", "--fields", "3457", "97"
    )
    header, *rows = [line.split() for line in out.splitlines()]
    assert header[:3] == ["field", "call", "base_ms_p50"]
    assert [row[:2] for row in rows] == [["F_3457", "plan_transform"], ["F_97", "plan_transform"]]
    for row in rows:
        wins, reps = row[-1].split("/")
        assert reps == "3" and 0 <= int(wins) <= 3
        assert float(row[-2]) > 0


@pytest.mark.parametrize(
    "module, edit, flags, message",
    [
        pytest.param(
            "transform.py",
            lambda source: source + (
                "\n_fft_recursive = fft_recursive\n"
                "def fft_recursive(plan, v):\n"
                "    return (_fft_recursive(plan, v) + 1) % plan.p\n"
            ),
            ["--fields", "3457"],
            "fft_recursive outputs differ on F_3457",
            id="fft_recursive",
        ),
        # The changed table is wrong in its last entry only; omega and the
        # radices still agree, so only the table comparison can catch it.
        pytest.param(
            "transform.py",
            lambda source: source + (
                "\n_build_twiddle_table = build_twiddle_table\n"
                "def build_twiddle_table(params, omega, n):\n"
                "    table = _build_twiddle_table(params, omega, n)\n"
                "    table[-1] = (table[-1] + 1) % params.p\n"
                "    return table\n"
            ),
            ["--plan", "--fields", "3457"],
            "plan_transform outputs differ on F_3457",
            id="plan_transform",
        ),
        # The changed reader returns its values reversed, while `transform`
        # keeps the true one, so only the cli_read row can catch the difference.
        pytest.param(
            "cli.py",
            lambda source: source.replace(
                "= read_vector_file(args.input)", "= _read_vector_file(args.input)"
            ) + (
                "\n_read_vector_file = read_vector_file\n"
                "def read_vector_file(path):\n"
                "    p, values = _read_vector_file(path)\n"
                "    return p, values[::-1]\n"
            ),
            ["--cli"],
            "cli_read outputs differ on F_147457",
            id="cli_read",
        ),
        # The changed writer appends a byte, while `transform` keeps the true
        # one, so only the cli_write row can catch the difference.
        pytest.param(
            "cli.py",
            lambda source: source.replace(
                "    write_vector_file(args.output,", "    _write_vector_file(args.output,"
            ) + (
                "\n_write_vector_file = write_vector_file\n"
                "def write_vector_file(path, p, values):\n"
                "    _write_vector_file(path, p, values)\n"
                "    with open(path, 'ab') as fh:\n"
                "        fh.write(b'1')\n"
            ),
            ["--cli"],
            "cli_write outputs differ on F_147457",
            id="cli_write",
        ),
    ],
)
def test_kernel_pairs_stops_when_a_row_differs(tmp_path, module, edit, flags, message):
    shutil.copytree(ROOT / "src" / "smoothntt", tmp_path / "src" / "smoothntt")
    path = tmp_path / "src" / "smoothntt" / module
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_pairs.py"), str(ROOT), str(tmp_path),
         "--reps", "1", *flags],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0
    assert message in proc.stderr
