"""Matrix Market array-format reader and writer.

scipy.io is the independent format oracle: files we write must load in
scipy with identical values, and scipy-written files must load here.  The
line-by-line parser ``mmio._parse_lines`` is the oracle for the one-pass
read: on any file both give bit-identical arrays or the same error.  ``%``
is the oracle for every byte the writer's digit kernel lays out; the writer
tests need numpy, pytest and hypothesis only (scipy is imported by the two
tests that use it).
"""

import io
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from levsketch import (
    DimensionError,
    InvalidParameterError,
    MatrixMarketParseError,
    ProblemSpec,
    generate_problem,
    mmio,
    read_matrix,
    write_matrix,
)


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(123)
    src = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-30, 30, (7, 3)))
    path = tmp_path / "m.mtx"
    write_matrix(path, src)
    out = read_matrix(path)
    np.testing.assert_array_equal(out.array, src)  # every bit must survive


def test_file_layout_is_column_major(tmp_path):
    m = np.array([[1.0, 3.0], [2.0, 4.0]])  # columns [1,2] and [3,4]
    path = tmp_path / "m.mtx"
    write_matrix(path, m)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix array real general"
    assert lines[1] == "2 2"
    values = [float(v) for v in lines[2:]]
    assert values == [1.0, 2.0, 3.0, 4.0]


def test_entries_fill_columns_in_file_order(tmp_path):
    text = "%%MatrixMarket matrix array real general\n3 2\n1\n2\n3\n4\n5\n6\n"
    path = tmp_path / "m.mtx"
    path.write_text(text)
    for m in (read_matrix(path), mmio._parse_lines(text)):
        assert (m.rows, m.cols) == (3, 2)
        np.testing.assert_array_equal(m.array, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        np.testing.assert_array_equal(m.array.ravel(order="F"), np.arange(1.0, 7.0))


def test_scipy_reads_our_files(tmp_path):
    import scipy.io

    rng = np.random.default_rng(7)
    src = rng.standard_normal((5, 4))
    path = tmp_path / "m.mtx"
    write_matrix(path, src)
    via_scipy = np.asarray(scipy.io.mmread(str(path)))
    np.testing.assert_array_equal(via_scipy, src)


def test_we_read_scipy_files(tmp_path):
    import scipy.io

    rng = np.random.default_rng(8)
    src = rng.standard_normal((6, 2))
    path = tmp_path / "m.mtx"
    scipy.io.mmwrite(str(path), src)
    out = read_matrix(path)
    np.testing.assert_allclose(out.array, src, rtol=0, atol=1e-15)


def test_one_by_one(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\n2.5\n")
    out = read_matrix(path)
    assert out.shape == (1, 1)
    assert out.array[0, 0] == 2.5


def test_comments_and_blank_lines_before_size(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% produced by hand\n"
        "\n"
        "2 1\n"
        "1.0\n"
        "2.0\n"
    )
    out = read_matrix(path)
    np.testing.assert_array_equal(out.array, [[1.0], [2.0]])


def test_header_is_case_insensitive(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%matrixmarket MATRIX Array Real GENERAL\n1 1\n1.0\n")
    assert read_matrix(path).array[0, 0] == 1.0


class TestParseErrors:
    def check(self, tmp_path, content, expected_line, match):
        path = tmp_path / "bad.mtx"
        path.write_text(content)
        with pytest.raises(MatrixMarketParseError, match=match) as exc_info:
            read_matrix(path)
        assert exc_info.value.line == expected_line

    def test_empty_file(self, tmp_path):
        self.check(tmp_path, "", 1, "empty")

    def test_wrong_header(self, tmp_path):
        self.check(tmp_path, "%%MatrixMarket matrix coordinate real general\n1 1\n1\n", 1, "header")

    def test_bad_size_line(self, tmp_path):
        self.check(
            tmp_path, "%%MatrixMarket matrix array real general\n2\n1.0\n2.0\n", 2, "size"
        )

    def test_non_integer_dimensions(self, tmp_path):
        self.check(
            tmp_path, "%%MatrixMarket matrix array real general\n2.5 1\n", 2, "non-integer"
        )

    def test_nonpositive_dimensions(self, tmp_path):
        self.check(
            tmp_path, "%%MatrixMarket matrix array real general\n0 1\n", 2, "positive"
        )

    def test_non_numeric_entry(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix array real general\n2 1\n1.0\nbogus\n",
            4,
            "non-numeric",
        )

    def test_non_finite_entry(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix array real general\n2 1\n1.0\nnan\n",
            4,
            "non-finite",
        )

    def test_too_few_entries(self, tmp_path):
        self.check(
            tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n", 4, "expected"
        )

    def test_too_many_entries(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n2.0\n",
            4,
            "more entries",
        )

    def test_missing_size_line(self, tmp_path):
        self.check(
            tmp_path, "%%MatrixMarket matrix array real general\n% only comments\n", 2, "size"
        )

    def test_comment_after_size_line(self, tmp_path):
        self.check(
            tmp_path,
            "%%MatrixMarket matrix array real general\n1 1\n% surprise\n1.0\n",
            3,
            "comment",
        )


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "does-not-exist.mtx")


@pytest.mark.parametrize("name, call", [
    ("path", read_matrix),
    ("path", lambda fd: write_matrix(fd, np.eye(2))),
    ("path", lambda fd: mmio.read_text(fd, MatrixMarketParseError)),
    ("a_path", lambda fd: ProblemSpec("custom-file", a_path=fd, b_path="b.mtx")),
], ids=["read_matrix", "write_matrix", "read_text", "ProblemSpec"])
def test_a_file_descriptor_is_not_a_path(tmp_path, name, call):
    # open() takes an int as a file descriptor and closes it with the file:
    # read_matrix(0) read stdin and closed it.
    path = tmp_path / "m.mtx"
    write_matrix(path, np.eye(2))
    fd = os.open(path, os.O_RDWR)
    with pytest.raises(InvalidParameterError) as exc_info:
        call(fd)
    assert str(exc_info.value) == f"{name} must be a str, bytes or os.PathLike, got {fd!r}"
    os.fstat(fd)  # still open
    os.close(fd)


def test_write_accepts_plain_arrays(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(read_matrix(path).array, [[1.0, 2.0]])


def test_non_utf8_bytes_raise_parse_error_with_their_line(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array real general\r\n2 1\r\n1.0\r\n\xff\xfe\r\n")
    with pytest.raises(MatrixMarketParseError, match="not UTF-8: byte 0xff") as exc_info:
        read_matrix(path)
    assert exc_info.value.line == 4


HEAD_BYTES = b"%%MatrixMarket matrix array real general"
#: A byte that is not UTF-8 before the body, where the fast path's line
#: reader stops: the line parser then decides, and names the line.
BAD_PREFIXES = {
    "header": (HEAD_BYTES + b" \xe9\n2 1\n", 1),
    "comment": (HEAD_BYTES + b"\n% caf\xe9\n2 1\n", 2),
    "crlf-comment": (HEAD_BYTES + b"\r\n%\r\n% \xff\r\n2 1\r\n", 3),
}


@pytest.mark.parametrize("where", sorted(BAD_PREFIXES))
def test_non_utf8_byte_before_the_body_raises_the_line_parsers_error(tmp_path, where):
    prefix, line = BAD_PREFIXES[where]
    path = tmp_path / "m.mtx"
    path.write_bytes(prefix + b"1.0\n2.0\n")
    with pytest.raises(MatrixMarketParseError, match=f"^line {line}: not UTF-8: byte 0x") as exc:
        read_matrix(path)
    assert exc.value.line == line


def test_plain_file_skips_the_line_parser(tmp_path, monkeypatch):
    # Without this, a one-pass read that always fell back would pass every test.
    def never(raw):
        raise AssertionError("the line parser ran")

    src = np.arange(12.0).reshape(4, 3) - 5.5
    path = tmp_path / "m.mtx"
    write_matrix(path, src)
    monkeypatch.setattr(mmio, "_parse_lines", never)
    np.testing.assert_array_equal(read_matrix(path).array, src)


# -- the one-pass read against the line parser --------------------------------

_EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
)
_values = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99), st.integers(-300, 300)),
)
_token_formats = st.sampled_from(["{!r}", "{:.16e}", "{:.17g}", "{:+.17E}", "{:.3f}", "{:.0f}"])
_line_end_sets = st.sampled_from(
    [("\n",), ("\r\n",), ("\n", "\r\n"), ("\n", "\r\n", "\r", "\x0c")]
)
_faults = st.none() | st.sampled_from(
    ["non-numeric", "non-finite", "too few", "too many", "late comment"]
)


@st.composite
def _mm_files(draw):
    """A Matrix Market file's text, whether it is meant to be malformed, and
    whether its prefix ends every line with ``\\n`` or ``\\r\\n``."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    tokens = [draw(_token_formats).format(draw(_values)) for _ in range(rows * cols)]
    fault = draw(_faults)
    at = draw(st.integers(0, len(tokens) - 1))
    if fault == "non-numeric":
        tokens[at] = draw(st.sampled_from(["bogus", "1.0.0", "0x10", "--1", "1,5"]))
    elif fault == "non-finite":
        tokens[at] = draw(st.sampled_from(["nan", "-inf", "Infinity", "1e999", "-1e400"]))
    elif fault == "too few":
        del tokens[at]
    elif fault == "too many":
        tokens.insert(at, "1.0")
    gap = st.sampled_from([" ", "\t", "  "])
    pad = st.one_of(st.just(""), gap)
    lines = [draw(st.sampled_from([
        "%%MatrixMarket matrix array real general",
        "%%matrixmarket MATRIX Array Real GENERAL",
        " %%MatrixMarket\tmatrix array real general ",
    ]))]
    lines += draw(st.lists(st.sampled_from(["% a comment", "%", "", "   ", "\t% indented"]),
                           max_size=3))
    lines.append(f"{draw(pad)}{rows}{draw(gap)}{cols}{draw(pad)}")
    size_at = len(lines) - 1
    while tokens:
        k = draw(st.integers(1, 3))
        lines.append(draw(pad) + draw(gap).join(tokens[:k]) + draw(pad))
        del tokens[:k]
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(pad))
    if fault == "late comment":
        lines.insert(draw(st.integers(size_at + 1, len(lines))), "% late")
    line_ends = st.sampled_from(draw(_line_end_sets))
    ends = [draw(line_ends) for _ in lines]
    text = "".join(map(str.__add__, lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, fault is not None, set(ends[: size_at + 1]) <= {"\n", "\r\n"}


def _outcome(parse):
    try:
        m = parse()
    except MatrixMarketParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", m.shape, m.array.tobytes())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mm_files())
# The line parser splits at "\f" and "\r" too: here the size line is
# "1 3", hidden after a comment, not the "1 1" that follows.
@example(("%%MatrixMarket matrix array real general\n%\x0c1 3\n1 1\n5\n", False, False))
@example(("%%MatrixMarket matrix array real general\n%\r1 3\r\n1 1\n5\n", False, False))
def test_read_matches_the_line_parser(case):
    text, malformed, plain_prefix = case
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.mtx"
        path.write_bytes(text.encode())
        got = _outcome(lambda: read_matrix(path))
    assert got == _outcome(lambda: mmio._parse_lines(text))
    if not malformed:
        assert got[0] == "ok"
        if plain_prefix:
            m = mmio._read_body(text.encode())
            assert m is not None and ("ok", m.shape, m.array.tobytes()) == got


# -- writer bytes ------------------------------------------------------------


def _old_writer_bytes(a: np.ndarray) -> bytes:
    """The file the per-value writer produced: one ``format(v, ".16e")`` a line."""
    lines = ["%%MatrixMarket matrix array real general", f"{a.shape[0]} {a.shape[1]}"]
    lines.extend(format(v, ".16e") for v in a.reshape(-1, order="F"))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "n", [1, mmio.WRITE_BLOCK - 1, mmio.WRITE_BLOCK, mmio.WRITE_BLOCK + 1]
)
def test_write_bytes_match_per_value_format(tmp_path, n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    a[::5] = -0.0
    a[1::7] = 5e-324
    a = a.reshape(-1, 1) if n % 2 else a.reshape(2, -1)
    path = tmp_path / "m.mtx"
    write_matrix(path, a)
    assert path.read_bytes() == _old_writer_bytes(a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_write_read_round_trip_is_bit_exact(rows, cols, data):
    src = np.array(
        data.draw(st.lists(_values, min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.mtx"
        write_matrix(path, src)
        out = read_matrix(path)
    assert out.array.tobytes(order="C") == src.tobytes(order="C")


# -- the writer's digit kernel against % --------------------------------------

def _written(values) -> str:
    fh = io.StringIO()
    mmio.write_lines(fh, np.asarray(values, dtype=np.float64))
    return fh.getvalue()


def _never_kept(*args):
    raise AssertionError("a block kept each line's own bytes")


def _per_value(values) -> str:
    return "".join("%.16e\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


def _ties() -> list[float]:
    """Doubles a * 2**-b (a odd) whose exact decimal has 18 significant
    digits, the last a 5: halfway cases at the 17th digit."""
    rng = np.random.default_rng(2301)
    ties = []
    for b in range(7, 25):
        low, high = -(-10**17 // 5**b), min(10**18 // 5**b, 2**53)
        for a in rng.integers(low, high, 8).tolist():
            a |= 1
            value = a / 2**b
            digits = str(Fraction(value).numerator * 5**b)
            assert Fraction(value) == Fraction(a, 2**b) and len(digits) == 18
            ties.append(value)
    return ties


def _edge_values() -> np.ndarray:
    decades = [float(f"1e{j}") for j in range(-323, 309)]
    edges = [
        0.0, 5e-324, 2.2250738585072009e-308,  # zero and subnormals
        2.2250738585072014e-308, 1.7976931348623157e308,  # least and greatest normal
        9.9999999999999999e22, 0.99999999999999999,
        1e-4, 9.9999999999999991e-05, 1e16, 1e17, 1e-5, 1e15, 123456789.0, 0.5,
        *decades, *np.nextafter(decades, 0).tolist(), *np.nextafter(decades, np.inf).tolist(),
        *np.ldexp(1.0, np.arange(-1074, 1024)).tolist(),
        *_ties(),
    ]
    return np.array(edges + [-v for v in edges])


class TestWriter:
    def test_edge_values_match_per_value_format(self):
        values = _edge_values()
        assert _written(values) == _per_value(values)

    def test_edge_values_round_into_new_decades_and_tie(self):
        # The edge set holds doubles below a power of ten that round up to it
        # at 17 digits, and exact ties, so those paths are checked above.
        values = _edge_values()
        up = [v for v in values.tolist() if 0 < v < 1e300
              and ("%.16e" % v).startswith("1.0000000000000000e")
              and Fraction(v) < Fraction(10) ** int(("%.16e" % v).split("e")[1])]
        assert len(up) >= 5
        assert len(_ties()) > 100
        assert mmio._decimal_digits(np.array(_ties()))[2].all()

    def test_random_bit_patterns_match_per_value_format(self):
        rng = np.random.default_rng(2302)
        values = rng.integers(0, 2**64, 40000, dtype=np.uint64, endpoint=False).view(np.float64)
        assert _written(values) == _per_value(values)

    @pytest.mark.parametrize("n", [mmio.WRITE_BLOCK - 1, mmio.WRITE_BLOCK, mmio.WRITE_BLOCK + 1])
    def test_block_sizes_match_per_value_format(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        values[::97] = _edge_values()[: len(values[::97])]
        assert _written(values) == _per_value(values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_round_trip(self, values):
        text = _written(values)
        assert text == _per_value(values)
        parsed = np.array([float(t) for t in text.split()], dtype=np.float64)
        assert parsed.tobytes() == np.array(values, dtype=np.float64).tobytes()

    def test_kernel_leaves_no_normal_or_leverage_score_to_percent(self, monkeypatch):
        # The other tests check the kernel where it decides, not only %.
        normals = np.random.default_rng(2303).standard_normal(100_000)
        _, _, meta = generate_problem(ProblemSpec("spiked-coherent", 50000, 5,
                                                  coherence_target=0.9, seed=2304))
        scores = meta["profile"].scores
        for values in (normals, scores):
            assert not mmio._decimal_digits(values)[2].any()
        # Scores lie in (0, 1] with two-digit exponents: each of the four
        # blocks writes the same 23 columns of its rows.
        monkeypatch.setattr(mmio, "_kept_lines", _never_kept)
        assert _written(scores) == _per_value(scores)

    def test_each_path_writes_the_blocks_it_is_given(self, monkeypatch):
        # Blocks of 4: one negative value, a hundreds digit either way or an
        # undecided value makes a block keep each line's own bytes, and the
        # blocks between write the same 23 columns of their rows.
        special = [-0.5, 1e-100, 1e300, 5e-324, -0.0]
        values = np.full(4 * (2 * len(special) + 1), 0.375)
        values[4::8] = special
        kept = []
        kept_lines = mmio._kept_lines

        def counted(block, *args):
            kept.append(block.tolist())
            return kept_lines(block, *args)

        monkeypatch.setattr(mmio, "WRITE_BLOCK", 4)
        monkeypatch.setattr(mmio, "_kept_lines", counted)
        assert _written(values) == _per_value(values)
        assert kept == [[v, 0.375, 0.375, 0.375] for v in special]

    @pytest.mark.parametrize("values", [
        ["1.5"], np.array(["2.5"]), [1 + 2j], np.array([1.0 + 0j]), [object()],
    ])
    def test_entries_that_are_not_real_numbers_raise(self, values):
        fh = io.StringIO()
        with pytest.raises(InvalidParameterError, match="entries must be real numbers"):
            mmio.write_lines(fh, values)
        assert fh.getvalue() == ""

    @pytest.mark.parametrize("values", [np.ones((2, 2)), [[1.0]], 1.5, np.float64(2.0)])
    def test_values_that_are_not_1d_raise(self, values):
        fh = io.StringIO()
        with pytest.raises(DimensionError, match="expected a 1-D array"):
            mmio.write_lines(fh, values)
        assert fh.getvalue() == ""

    def test_bools_and_integers_are_written_as_floats(self):
        fh = io.StringIO()
        mmio.write_lines(fh, [True, False])
        mmio.write_lines(fh, np.array([3, -7], np.int64))
        mmio.write_lines(fh, [])
        assert fh.getvalue() == _per_value([1.0, 0.0, 3.0, -7.0])

    def test_importing_the_cli_builds_no_digit_table(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import levsketch.cli; "
                "from levsketch import mmio; "
                "assert mmio._four_digits.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code, str(src)], check=True)
