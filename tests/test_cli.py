"""CLI behavior: exit codes, vector file round trips, golden outputs."""

import argparse
import itertools
import re
import tracemalloc

import numpy as np
import pytest

import smoothntt.cli
from smoothntt.bench import CSV_HEADER
from smoothntt.cli import build_parser, main, read_vector_file, write_vector_file
from smoothntt.errors import InvalidField, NotReduced, VectorFileError
from smoothntt.field import FieldParams
from smoothntt.transform import fft_twiddle, ifft, plan_transform


def write_text(path, text):
    path.write_bytes(text.encode("latin-1"))


def vector_text(p, values):
    """A vector file's text, joined here rather than by the writer under test."""
    return "\n".join([f"ntt-vec 1 {p} {len(values)}"] + [str(v) for v in values]) + "\n"


def test_vector_file_round_trip(tmp_path):
    path = tmp_path / "v.txt"
    write_vector_file(path, 5, [1, 2, 3, 4])
    original = path.read_bytes()
    assert original == b"ntt-vec 1 5 4\n1\n2\n3\n4\n"
    p, values = read_vector_file(path)
    write_vector_file(path, p, values)
    assert path.read_bytes() == original
    # The kernels' int64 output writes the same bytes as a list.
    write_vector_file(path, p, values.tolist())
    assert path.read_bytes() == original


# Decimals past Python's 4300-digit int-from-str limit, in a value line and
# in the header modulus, with the message each raises after "<path>: ".
OVERSIZE = [
    pytest.param(
        "ntt-vec 1 5 1\n" + "1" * 5000 + "\n",
        "5000-digit decimal is too long",
        id="oversize-value",
    ),
    pytest.param(
        "ntt-vec 1 " + "1" * 5000 + " 1\n1\n",
        "5000-digit decimal is too long",
        id="oversize-modulus",
    ),
]

# Prime header moduli outside the supported range (2, 2**31): the smallest
# prime, the first prime past 2**31, and the 1332-digit Mersenne prime
# 2**4423 - 1, which the range check rejects before any primality test.
OUT_OF_RANGE = [
    pytest.param("ntt-vec 1 2 1\n0\n", "header modulus 2 outside (2, 2**31)", id="modulus-2"),
    pytest.param(
        "ntt-vec 1 2147483659 2\n0\n1\n",
        "header modulus 2147483659 outside (2, 2**31)",
        id="modulus-above-2**31",
    ),
    pytest.param(
        f"ntt-vec 1 {2**4423 - 1} 1\n0\n",
        f"header modulus {2**4423 - 1} outside (2, 2**31)",
        id="modulus-mersenne-4423",
    ),
]


def malformed(content, message, id=None):
    return pytest.param(content, message, id=content if id is None else id)


@pytest.mark.parametrize(
    "content, message",
    OVERSIZE
    + OUT_OF_RANGE
    + [
        # fewer lines than declared
        malformed("ntt-vec 1 5 4\n1\n2\n3\n", "header declares 4 values, found 3"),
        # more lines than declared
        malformed("ntt-vec 1 5 2\n1\n2\n3\n", "header declares 2 values, found 3"),
        # unknown version
        malformed("ntt-vec 2 5 1\n1\n", "bad header 'ntt-vec 2 5 1'"),
        # modulus not prime
        malformed("ntt-vec 1 6 1\n1\n", "header modulus 6 is not prime"),
        # value not reduced
        malformed("ntt-vec 1 5 1\n7\n", "value 7 not reduced modulo 5"),
        # non-canonical decimal
        malformed("ntt-vec 1 5 1\n01\n", "'01' is not a canonical decimal"),
        # missing final newline
        malformed("ntt-vec 1 5 1\n1", "missing trailing newline"),
        # trailing blank line
        malformed("ntt-vec 1 5 1\n1\n\n", "header declares 1 values, found 2"),
        # bad magic
        malformed("vec 1 5 1\n1\n", "bad header 'vec 1 5 1'"),
        malformed("ntt-vec 1 5 1\n\xe9\n", "not ASCII text", id="non-ascii"),
        malformed("ntt-vec 1 5 2\n1\n9\n", "value 9 not reduced modulo 5", id="valid-then-bad"),
        # The first of two bad lines is the one reported.
        malformed("ntt-vec 1 5 3\n1\n01\n7\n", "'01' is not a canonical decimal", id="two-bad"),
        malformed("ntt-vec 1 5 3\n1\n7\n01\n", "value 7 not reduced modulo 5", id="two-bad-range-first"),
        malformed("ntt-vec 1 5 2\r\n1\r\n2\r\n", "'2\\r' is not a canonical decimal", id="crlf"),
        malformed("ntt-vec 1 5 2\n1\r\n2\r\n", "'1\\r' is not a canonical decimal", id="crlf-body"),
        malformed("ntt-vec 1 97 1\n+5\n", "'+5' is not a canonical decimal", id="plus-sign"),
        malformed("ntt-vec 1 97 1\n 5\n", "' 5' is not a canonical decimal", id="leading-space"),
        malformed("ntt-vec 1 97 1\n12a\n", "'12a' is not a canonical decimal", id="trailing-letter"),
        malformed("ntt-vec 1 5 3\n1\n\n2\n", "'' is not a canonical decimal", id="empty-middle-line"),
        malformed("ntt-vec 1 97 2\n3\n97\n", "value 97 not reduced modulo 97", id="value-equals-p"),
        malformed(
            "ntt-vec 1 2013265921 2\n0\n2013265921\n",
            "value 2013265921 not reduced modulo 2013265921",
            id="10-digit-value-equals-p",
        ),
        malformed(
            "ntt-vec 1 2013265921 1\n20132659210\n",
            "value 20132659210 not reduced modulo 2013265921",
            id="11-digit-value",
        ),
    ],
)
def test_malformed_vector_files(tmp_path, content, message):
    path = tmp_path / "bad.txt"
    write_text(path, content)
    with pytest.raises(VectorFileError) as info:
        read_vector_file(path)
    assert str(info.value) == f"{path}: {message}"


def test_ten_digit_modulus_accepts_p_minus_1(tmp_path):
    path = tmp_path / "v.txt"
    write_text(path, "ntt-vec 1 2013265921 3\n0\n2013265920\n999999999\n")
    assert outcome(read_vector_file, path) == (2013265921, [0, 2013265920, 999999999])


def reference_read(path):
    """The format read line by line in Python: the vectorized reader's oracle."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise VectorFileError(f"{path}: not ASCII text") from exc
    if not text.endswith("\n"):
        raise VectorFileError(f"{path}: missing trailing newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(" ")
    if len(header) != 4 or header[0] != "ntt-vec" or header[1] != "1":
        raise VectorFileError(f"{path}: bad header {lines[0]!r}")
    p = reference_decimal(header[2], path)
    n = reference_decimal(header[3], path)
    try:
        FieldParams(p)
    except InvalidField as exc:
        raise VectorFileError(f"{path}: header {exc}") from exc
    data = lines[1:]
    if len(data) != n:
        raise VectorFileError(f"{path}: header declares {n} values, found {len(data)}")
    values = []
    for line in data:
        value = reference_decimal(line, path)
        if value >= p:
            raise VectorFileError(f"{path}: value {value} not reduced modulo {p}")
        values.append(value)
    return p, values


def reference_decimal(token, path):
    if not token.isdigit() or (len(token) > 1 and token[0] == "0"):
        raise VectorFileError(f"{path}: {token!r} is not a canonical decimal")
    try:
        return int(token)
    except ValueError as exc:
        raise VectorFileError(f"{path}: {len(token)}-digit decimal is too long") from exc


def outcome(read, path):
    """(p, values as a list) from a read, or the error it raised."""
    try:
        p, values = read(path)
    except VectorFileError as exc:
        return type(exc), str(exc)
    if read is read_vector_file:  # the reference reads into a list
        assert isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1
        values = values.tolist()
    return p, values


DIFF_MODULI = (5, 13, 97, 147457, 2013265921)
MUTATION_BYTES = b"0123456789\n\r+-a_ "


def residues_with_boundaries(rng, p, n):
    """n random residues, then 0, p - 1 and each power-of-ten edge below p."""
    edges = [0, p - 1]
    power = 10
    while power < p:
        edges += [power - 1, power]
        power *= 10
    return [int(v) for v in rng.integers(0, p, n)] + edges


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_reader_matches_per_line_reference(tmp_path, p):
    # Seeded byte replacements, insertions and deletions of valid files:
    # each file gives the reference's (p, values) or its exception message.
    rng = np.random.default_rng(p)
    path = tmp_path / "v.txt"
    for n in (0, 1, 2, 5, 12):
        pool = residues_with_boundaries(rng, p, n)
        values = [pool[i] for i in rng.integers(0, len(pool), n)]
        valid = vector_text(p, values).encode()
        path.write_bytes(valid)
        assert outcome(read_vector_file, path) == (p, values)
        for _ in range(160):
            data = bytearray(valid)
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(0, len(data) + 1))
                byte = MUTATION_BYTES[int(rng.integers(0, len(MUTATION_BYTES)))]
                kind = int(rng.integers(0, 3))
                if kind == 0 and at < len(data):
                    data[at] = byte
                elif kind == 1:
                    data.insert(at, byte)
                elif at < len(data):
                    del data[at]
            path.write_bytes(bytes(data))
            assert outcome(read_vector_file, path) == outcome(reference_read, path), bytes(data)


@pytest.mark.parametrize("p", DIFF_MODULI)
def test_writer_matches_str_join(tmp_path, p):
    rng = np.random.default_rng(p + 1)
    values = residues_with_boundaries(rng, p, 200)
    expected = vector_text(p, values).encode()
    path = tmp_path / "v.txt"
    for given in (values, np.array(values, dtype=np.int64), np.array(values, dtype=np.uint64)):
        write_vector_file(path, p, given)
        assert path.read_bytes() == expected
    write_vector_file(path, p, [])
    assert path.read_bytes() == f"ntt-vec 1 {p} 0\n".encode()


@pytest.mark.parametrize(
    "p",
    [
        pytest.param(4, id="composite"),
        pytest.param(5.0, id="float"),
        pytest.param(2**31 + 11, id="prime-above-2**31"),
    ],
)
def test_writer_rejects_unsupported_modulus(tmp_path, p):
    # The reader rejects each of these header moduli, so no file is written.
    path = tmp_path / "v.txt"
    with pytest.raises(InvalidField):
        write_vector_file(path, p, [1, 2])
    assert not path.exists()


@pytest.mark.parametrize(
    "values",
    [
        pytest.param([7], id="unreduced"),
        pytest.param([-1], id="negative"),
        pytest.param([1.0], id="float"),
        pytest.param(np.array([2**64 - 1], dtype=np.uint64), id="uint64-max"),
        pytest.param([True], id="bool"),
        pytest.param(np.array([[1, 2]]), id="two-dimensional"),
    ],
)
def test_writer_rejects_non_residues(tmp_path, values):
    # Written out, each of these would make a file that the reader rejects.
    path = tmp_path / "v.txt"
    with pytest.raises(NotReduced):
        write_vector_file(path, 5, values)
    assert not path.exists()


def test_transform_example(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_vector_file(src, 5, [1, 2, 3, 4])
    code = main(["transform", str(src), str(dst), "--omega", "2"])
    assert code == 0
    assert outcome(read_vector_file, dst) == (5, [0, 4, 3, 2])


@pytest.mark.parametrize(
    "p, values, omega",
    [
        pytest.param(97, range(96), None, id="F_97-n96"),
        pytest.param(13, [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], None, id="F_13-n12"),
        # An odd length has no half-turn, so its table is doubled to n.
        pytest.param(13, [4, 0, 12], None, id="F_13-n3-odd"),
        # 782862608 has order 12 mod 2013265921.
        pytest.param(
            2013265921,
            [0, 1, 9, 10, 99, 100, 999999999, 1000000000, 2013265920, 7, 123456789, 2013265919],
            782862608,
            id="F_2013265921-n12",
        ),
        # Two codec blocks of 10-digit lines; 2009781145 = 31^((p - 1)/32768)
        # has order 32768, so no generator scan runs.
        pytest.param(
            2013265921, range(10**9, 10**9 + 32768), 2009781145, id="F_2013265921-n32768"
        ),
        # More lines than two codec blocks hold.
        pytest.param(147457, range(36864), None, id="F_147457-n36864"),
    ],
)
def test_transform_round_trip(tmp_path, p, values, omega):
    # Forward then inverse gives back the input file byte for byte.
    src = tmp_path / "in.txt"
    mid = tmp_path / "mid.txt"
    back = tmp_path / "back.txt"
    write_text(src, vector_text(p, values))
    given = [] if omega is None else ["--omega", str(omega)]
    assert main(["transform", str(src), str(mid)] + given) == 0
    assert main(["transform", str(mid), str(back), "--inverse"] + given) == 0
    assert back.read_bytes() == src.read_bytes()


def test_transform_rejects_variant(tmp_path, capsys):
    # Both forward kernels write the same bytes, so `transform` has no
    # --variant; argparse rejects it as an unknown option.
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_vector_file(src, 13, [5, 1, 12, 0, 3, 3, 7, 9, 11, 2, 6, 10])
    with pytest.raises(SystemExit) as exc:
        main(["transform", str(src), str(dst), "--variant", "recursive"])
    assert exc.value.code == 2
    assert "--variant" in capsys.readouterr().err
    assert not dst.exists()


def test_transform_reads_through_read_vector_file(tmp_path, monkeypatch):
    # `transform` reads its input once, through the public reader that
    # perfbench spans as `cli.read_vector_file`, not through a private twin,
    # and hands the reader's int64 array to the kernel unconverted.
    src = tmp_path / "in.txt"
    write_vector_file(src, 97, list(range(96)))
    calls, results, kernel_inputs = [], [], []

    def recording(path):
        calls.append(path)
        results.append(read_vector_file(path))
        return results[-1]

    def kernel(plan, values, **kwargs):
        kernel_inputs.append(values)
        return fft_twiddle(plan, values, **kwargs)

    monkeypatch.setattr(smoothntt.cli, "read_vector_file", recording)
    monkeypatch.setattr(smoothntt.cli, "fft_twiddle", kernel)
    assert main(["transform", str(src), str(tmp_path / "out.txt")]) == 0
    assert calls == [str(src)]
    (values,) = kernel_inputs
    assert values is results[0][1]
    assert isinstance(values, np.ndarray) and values.dtype == np.int64


def test_transform_malformed_exits_2(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_text(src, "ntt-vec 1 5 4\n1\n2\n3\n")
    assert main(["transform", str(src), str(dst)]) == 2
    assert not dst.exists()
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize(
    "content, message",
    OVERSIZE
    + OUT_OF_RANGE
    + [
        malformed("ntt-vec 1 5 1\n7\n", "value 7 not reduced modulo 5", id="unreduced-value"),
        malformed(
            "ntt-vec 1 13 2\n1\n01\n", "'01' is not a canonical decimal", id="bad-after-good"
        ),
        malformed(
            "ntt-vec 1 13 1000000000000\n1\n",
            "header declares 1000000000000 values, found 1",
            id="lying-header",
        ),
        # F_147457 at n = 36864, three codec blocks, with file line 36000
        # (value 35998, after the header) made "0123".
        malformed(
            vector_text(147457, [v if v != 35998 else "0123" for v in range(36864)]),
            "'0123' is not a canonical decimal",
            id="bad-line-in-third-block",
        ),
    ],
)
def test_transform_bad_file_exits_2(tmp_path, capsys, content, message):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    write_text(src, content)
    assert main(["transform", str(src), str(dst)]) == 2
    assert not dst.exists()
    assert capsys.readouterr().err == f"error: {src}: {message}\n"


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
    # Exact bytes, forward and inverse, against the kernels on one schedule.
    plan = plan_transform(FieldParams(13), 12, radices=[3, 2, 2])
    spec = tmp_path / "spec.txt"
    want = tmp_path / "want.txt"
    write_vector_file(spec, 13, [4, 0, 9, 2, 11, 7, 1, 6, 12, 3, 8, 5])
    for kernel, path, inverse in ((fft_twiddle, src, []), (ifft, spec, ["--inverse"])):
        _, values = read_vector_file(path)
        write_vector_file(want, 13, kernel(plan, values, raw_order=True))
        argv = ["transform", str(path), str(raw), "--radices", "3,2,2", "--raw-order"]
        assert main(argv + inverse) == 0
        assert raw.read_bytes() == want.read_bytes()


def test_every_option_has_help():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            assert action.help, f"{name} {action.dest} has no help"


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
    assert main(["primes", "--min", "65536", "--max", "65538"]) == 0
    assert capsys.readouterr().out == "65537 2^16 3\n"
    assert main(["primes", "--min", "65536", "--max", "2097152"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # The paper's 15 primes, each proven by is_prime's (2, 7, 61) witnesses.
    assert [line.split()[0] for line in lines] == [
        "65537", "139969", "147457", "209953", "331777", "472393", "629857", "746497",
        "786433", "839809", "995329", "1179649", "1492993", "1769473", "1990657",
    ]
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


@pytest.mark.parametrize("factors", ["2,x", "2,", "2.5"])
def test_primes_bad_factor_list_exits_3(capsys, factors):
    assert main(["primes", "--min", "10", "--max", "100", "--factors", factors]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: bad factor list {factors!r}\n"


@pytest.mark.parametrize(
    "p, n, cells",
    [
        pytest.param(5, 4, "5,4,2*2,recursive,16,8,16,8", id="F_5-n4"),
        pytest.param(97, 96, "97,96,2*2*2*2*2*3,recursive,1248,672,1248,672", id="F_97-n96"),
    ],
)
def test_bench_csv_golden(capsys, p, n, cells):
    argv = ["bench", str(p), "--n", str(n), "--variant", "recursive", "--format", "csv"]
    assert main(argv + ["--trials", "3"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == CSV_HEADER  # the literal test_csv_header_literal pins
    # p, n, radices, variant, then measured and predicted counts.
    assert row.split(",")[:8] == cells.split(",")


def test_bench_headline_csv(capsys):
    code = main(["bench", "147457", "--format", "csv", "--trials", "3"])
    assert code == 0
    cells = capsys.readouterr().out.splitlines()[1].split(",")
    assert cells[6] == "2949120"
    assert cells[10] == "7372.8"


def test_bench_subgroup_runs(capsys):
    code = main(["bench", "147457", "--n", "576", "--trials", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "576" in out
    # n = 576 is below the direct-timing cutoff, so bench runs dft_naive.
    assert re.search(r"^direct wall clock \d+ ns$", out, re.MULTILINE)


def test_bench_plan_error(capsys):
    assert main(["bench", "10"]) == 3
    assert capsys.readouterr().err != ""


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_nonpositive_trials(capsys, trials):
    assert main(["bench", "97", "--trials", trials]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trials" in err


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("p", DIFF_MODULI)
def test_codec_matches_references_at_small_blocks(tmp_path, monkeypatch, p, block):
    # Blocks of 1, 2 and 3 lines put a block boundary beside nearly every
    # line of these files, so most first lines of a block take their length
    # from the last line end of the block before.
    monkeypatch.setattr(smoothntt.cli, "_BLOCK", block)
    test_reader_matches_per_line_reference(tmp_path, p)
    test_writer_matches_str_join(tmp_path, p)


@pytest.mark.parametrize(
    "low", [pytest.param(0, id="uniform"), pytest.param(10**5, id="six-digit")]
)
def test_full_length_file_spans_blocks(tmp_path, low):
    # F_147457 at n = 147456 is nine blocks.  With six-digit residues every
    # line is as long as p - 1, the longest a valid line can be.
    p, n = 147457, 147456
    block = smoothntt.cli._BLOCK
    assert n > 2 * block
    values = np.random.default_rng(n + low).integers(low, p, n)
    values[-2:] = [0, p - 1]
    lines = [str(v) for v in values.tolist()]
    header = f"ntt-vec 1 {p} {n}"
    path = tmp_path / "v.txt"
    write_vector_file(path, p, values)
    assert path.read_bytes() == ("\n".join([header] + lines) + "\n").encode()
    assert outcome(read_vector_file, path) == (p, values.tolist())
    # A non-canonical line opening the second block, and one in the last
    # block longer than p - 1.
    for i, bad in ((block, "0" + lines[block]), (n - 5, "0000000" + lines[n - 5])):
        body = lines[:i] + [bad] + lines[i + 1 :]
        write_text(path, "\n".join([header] + body) + "\n")
        expected = (VectorFileError, f"{path}: {bad!r} is not a canonical decimal")
        assert outcome(read_vector_file, path) == outcome(reference_read, path) == expected
        # The count check comes first: one line too many hides the bad line.
        write_text(path, "\n".join([header] + body + ["1"]) + "\n")
        expected = (VectorFileError, f"{path}: header declares {n} values, found {n + 1}")
        assert outcome(read_vector_file, path) == outcome(reference_read, path) == expected


# What the codecs allocate beyond their input, output and file bytes, which
# does not grow with n.  Measured with numpy 2.4.6 at both sizes below: the
# writer peaks 0.54 MiB over its input at F_147457 and 0.73 MiB at
# F_2013265921, and the reader 0.50 and 0.69 MiB over the file's bytes plus
# the 8n-byte value array, where formatting or parsing the whole vector at
# once took 6.0 and 3.8 MiB at F_147457 and n = 147456, four times that at 4n.
CODEC_SCRATCH_BYTES = 2 * 2**20


@pytest.mark.parametrize("p", [147457, 2013265921])
@pytest.mark.parametrize("n", [147456, 4 * 147456])
def test_codec_memory_does_not_grow_with_n(tmp_path, n, p):
    path = tmp_path / "v.txt"
    tracemalloc.start()
    try:
        values = np.random.default_rng(n).integers(0, p, n)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_vector_file(path, p, values)
        write_extra = tracemalloc.get_traced_memory()[1] - before
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, back = read_vector_file(path)
        read_extra = tracemalloc.get_traced_memory()[1] - before - path.stat().st_size - 8 * n
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, values)
    assert write_extra < 2**20
    assert read_extra < CODEC_SCRATCH_BYTES


@pytest.mark.parametrize("block", [smoothntt.cli._BLOCK, 7])
def test_writer_formats_every_residue(tmp_path, monkeypatch, block):
    # Every residue of F_12289 (p - 1 = 2^12 * 3, five digits) holds every
    # pattern of interior and trailing zero digits, such as 101, 1001 and
    # 10010, that a writer deleting its leading zeros must keep.
    monkeypatch.setattr(smoothntt.cli, "_BLOCK", block)
    p = 12289
    path = tmp_path / "v.txt"
    write_vector_file(path, p, np.arange(p))
    assert path.read_bytes() == vector_text(p, range(p)).encode()


@pytest.mark.parametrize("n", [10**12, 2**64, 3])
def test_lying_header_allocates_nothing_n_sized(tmp_path, n):
    # n = 3 is one more line than the two-byte body could hold.
    path = tmp_path / "v.txt"
    write_text(path, f"ntt-vec 1 13 {n}\n1\n")
    expected = (VectorFileError, f"{path}: header declares {n} values, found 1")
    assert outcome(reference_read, path) == expected
    tracemalloc.start()
    try:
        assert outcome(read_vector_file, path) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size + CODEC_SCRATCH_BYTES


@pytest.mark.parametrize("p", [7, 13, 211])
def test_every_short_line_matches_reference(tmp_path, monkeypatch, p):
    # Every line of up to width + 1 bytes over 0, 1, 9 and the bytes either
    # side of the digits: each length meets its least canonical value, and
    # the digit loop reads, then masks, the bytes of the line before.
    width = len(str(p - 1))
    path = tmp_path / "v.txt"
    for size in range(width + 2):
        for line in itertools.product(b"019/:", repeat=size):
            path.write_bytes(f"ntt-vec 1 {p} 2\n1\n".encode() + bytes(line) + b"\n")
            expected = outcome(reference_read, path)
            for block in (smoothntt.cli._BLOCK, 1):
                with monkeypatch.context() as patch:
                    patch.setattr(smoothntt.cli, "_BLOCK", block)
                    assert outcome(read_vector_file, path) == expected, (bytes(line), block)
