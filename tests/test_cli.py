"""CLI behavior: exit codes, vector file round trips, golden outputs."""

import numpy as np
import pytest

import smoothntt.cli
from smoothntt.cli import main, read_vector_file, write_vector_file
from smoothntt.errors import VectorFileError


def write_text(path, text):
    path.write_bytes(text.encode("ascii"))


def test_vector_file_round_trip(tmp_path):
    path = tmp_path / "v.txt"
    write_vector_file(path, 5, [1, 2, 3, 4])
    original = path.read_bytes()
    assert original == b"ntt-vec 1 5 4\n1\n2\n3\n4\n"
    p, values = read_vector_file(path)
    write_vector_file(path, p, values)
    assert path.read_bytes() == original
    # The kernels' int64 output writes the same bytes as a list.
    write_vector_file(path, p, np.array(values, dtype=np.int64))
    assert path.read_bytes() == original


# Decimals past Python's 4300-digit int-from-str limit, in a value line and
# in the header modulus.
OVERSIZE = [
    pytest.param("ntt-vec 1 5 1\n" + "1" * 5000 + "\n", id="oversize-value"),
    pytest.param("ntt-vec 1 " + "1" * 5000 + " 1\n1\n", id="oversize-modulus"),
]

# Prime header moduli outside the supported range (2, 2**31): the smallest
# prime, the first prime past 2**31, and the 1332-digit Mersenne prime
# 2**4423 - 1, which the range check rejects before any primality test.
OUT_OF_RANGE = [
    pytest.param("ntt-vec 1 2 1\n0\n", id="modulus-2"),
    pytest.param("ntt-vec 1 2147483659 2\n0\n1\n", id="modulus-above-2**31"),
    pytest.param(f"ntt-vec 1 {2**4423 - 1} 1\n0\n", id="modulus-mersenne-4423"),
]


@pytest.mark.parametrize(
    "content",
    OVERSIZE
    + OUT_OF_RANGE
    + [
        "ntt-vec 1 5 4\n1\n2\n3\n",  # fewer lines than declared
        "ntt-vec 1 5 2\n1\n2\n3\n",  # more lines than declared
        "ntt-vec 2 5 1\n1\n",  # unknown version
        "ntt-vec 1 6 1\n1\n",  # modulus not prime
        "ntt-vec 1 5 1\n7\n",  # value not reduced
        "ntt-vec 1 5 1\n01\n",  # non-canonical decimal
        "ntt-vec 1 5 1\n1",  # missing final newline
        "ntt-vec 1 5 1\n1\n\n",  # trailing blank line
        "vec 1 5 1\n1\n",  # bad magic
    ],
)
def test_malformed_vector_files(tmp_path, content):
    path = tmp_path / "bad.txt"
    write_text(path, content)
    with pytest.raises(VectorFileError):
        read_vector_file(path)


def test_transform_example(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_vector_file(src, 5, [1, 2, 3, 4])
    code = main(["transform", str(src), str(dst), "--omega", "2"])
    assert code == 0
    assert read_vector_file(dst) == (5, [0, 4, 3, 2])


def test_transform_round_trip(tmp_path):
    src = tmp_path / "in.txt"
    mid = tmp_path / "mid.txt"
    back = tmp_path / "back.txt"
    write_vector_file(src, 97, list(range(96)))
    assert main(["transform", str(src), str(mid)]) == 0
    assert main(["transform", str(mid), str(back), "--inverse"]) == 0
    assert back.read_bytes() == src.read_bytes()


def test_transform_variants_agree(tmp_path):
    src = tmp_path / "in.txt"
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_vector_file(src, 13, [5, 1, 12, 0, 3, 3, 7, 9, 11, 2, 6, 10])
    assert main(["transform", str(src), str(a), "--variant", "recursive"]) == 0
    assert main(["transform", str(src), str(b), "--variant", "twiddle"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_transform_reads_through_read_vector_file(tmp_path, monkeypatch):
    # `transform` reads its input once, through the public reader that
    # perfbench spans as `cli.read_vector_file`, not through a private twin.
    src = tmp_path / "in.txt"
    write_vector_file(src, 97, list(range(96)))
    calls = []

    def recording(path):
        calls.append(path)
        return read_vector_file(path)

    monkeypatch.setattr(smoothntt.cli, "read_vector_file", recording)
    assert main(["transform", str(src), str(tmp_path / "out.txt")]) == 0
    assert calls == [str(src)]


def test_transform_malformed_exits_2(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_text(src, "ntt-vec 1 5 4\n1\n2\n3\n")
    assert main(["transform", str(src), str(dst)]) == 2
    assert not dst.exists()
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("content", OVERSIZE)
def test_transform_oversize_decimal_exits_2(tmp_path, capsys, content):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_text(src, content)
    assert main(["transform", str(src), str(dst)]) == 2
    assert not dst.exists()
    assert capsys.readouterr().err.startswith(f"error: {src}: 5000-digit decimal")


@pytest.mark.parametrize("content", OUT_OF_RANGE)
def test_transform_modulus_out_of_range_exits_2(tmp_path, capsys, content):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_text(src, content)
    assert main(["transform", str(src), str(dst)]) == 2
    assert not dst.exists()
    assert "outside (2, 2**31)" in capsys.readouterr().err


def test_transform_plan_error_exits_3(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_vector_file(src, 5, [1, 2, 3])  # 3 does not divide 4
    assert main(["transform", str(src), str(dst)]) == 3
    assert not dst.exists()
    assert capsys.readouterr().err != ""


def test_transform_bad_omega_exits_3(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_vector_file(src, 5, [1, 2, 3, 4])
    assert main(["transform", str(src), str(dst), "--omega", "4"]) == 3
    assert not dst.exists()


def test_transform_unwritable_output_exits_2(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_vector_file(src, 5, [1, 2, 3, 4])
    dst = tmp_path / "missing" / "out.txt"
    assert main(["transform", str(src), str(dst)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {dst}")
    assert "Traceback" not in err
    with pytest.raises(VectorFileError):
        write_vector_file(dst, 5, [1, 2, 3, 4])


def test_transform_raw_order(tmp_path):
    src = tmp_path / "in.txt"
    nat = tmp_path / "nat.txt"
    raw = tmp_path / "raw.txt"
    write_vector_file(src, 13, [5, 1, 12, 0, 3, 3, 7, 9, 11, 2, 6, 10])
    assert main(["transform", str(src), str(nat)]) == 0
    assert main(["transform", str(src), str(raw), "--raw-order"]) == 0
    assert nat.read_bytes() != raw.read_bytes()
    _, nat_vals = read_vector_file(nat)
    _, raw_vals = read_vector_file(raw)
    assert sorted(nat_vals) == sorted(raw_vals)


def test_generator_golden(capsys):
    assert main(["generator", "65537"]) == 0
    assert capsys.readouterr().out == "3 2^16\n"
    assert main(["generator", "1769473"]) == 0
    assert capsys.readouterr().out == "5 2^16*3^3\n"


def test_generator_subgroup(capsys):
    assert main(["generator", "17", "--n", "8"]) == 0
    assert capsys.readouterr().out == "2 2^3\n"


def test_generator_not_prime(capsys):
    assert main(["generator", "10"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err != ""


def test_generator_bad_subgroup(capsys):
    assert main(["generator", "17", "--n", "5"]) == 3
    assert capsys.readouterr().err != ""


def test_primes_table(capsys):
    assert main(["primes", "--min", "65536", "--max", "2097152"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert lines[0] == "65537 2^16 3"
    assert lines[2] == "147457 2^14*3^2 10"
    assert lines[8] == "786433 2^18*3 10"
    assert lines[-1] == "1990657 2^13*3^5 5"


def test_primes_perspective(capsys):
    assert main(["primes", "--min", "113000000", "--max", "114000000"]) == 0
    out = capsys.readouterr().out
    assert "113246209 2^22*3^3" in out


def test_primes_empty(capsys):
    assert main(["primes", "--min", "5", "--max", "6"]) == 0
    assert capsys.readouterr().out == ""


def test_primes_bad_range_exits_3(capsys):
    assert main(["primes", "--min", "10", "--max", "5"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


def test_bench_csv_golden(capsys):
    code = main(
        ["bench", "5", "--n", "4", "--variant", "recursive", "--format", "csv", "--trials", "3"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    cells = lines[1].split(",")
    assert cells[6] == "16"  # pred_mul for n=4 recursive


def test_bench_headline_csv(capsys):
    code = main(["bench", "147457", "--format", "csv", "--trials", "3"])
    assert code == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    assert cells[6] == "2949120"
    assert cells[10] == "7372.8"


def test_bench_subgroup_runs(capsys):
    code = main(["bench", "147457", "--n", "576", "--trials", "3"])
    assert code == 0
    assert "576" in capsys.readouterr().out


def test_bench_plan_error(capsys):
    assert main(["bench", "10"]) == 3
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_nonpositive_trials(capsys, trials):
    assert main(["bench", "97", "--trials", trials]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trials" in err
