"""The body reader of ``levsketch.mmio`` against ``float``.

Bodies in the writer's own format (``[-+]?d.<16 digits>[eE][-+]dd[d]``
tokens) are read without a per-token ``float``, and blocks of any other
tokens with one; every value must be the double ``float`` gives for that
token, bit for bit, and every file must read as the line parser
``mmio._parse_lines`` reads it, error text and line included.  Needs numpy,
pytest and hypothesis only.
"""

import math
import random
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from levsketch import MatrixMarketParseError, ProblemSpec, generate_problem, mmio, read_matrix

_HEADER = "%%MatrixMarket matrix array real general\n"


def _file(tokens, sep="\n") -> bytes:
    return (f"{_HEADER}{len(tokens)} 1\n" + sep.join(tokens) + "\n").encode()


def _float_bits(tokens) -> bytes:
    return np.array([float(t) for t in tokens]).tobytes()


def _read(data: bytes) -> tuple[bytes, int]:
    """The reader's bits for a canonical body, and how many tokens it left
    to ``float``."""
    left = []
    fallback = mmio._float_each

    def counting(tokens):
        left.append(len(tokens))
        return fallback(tokens)

    with mock.patch.object(mmio, "_float_each", counting):
        m = mmio._read_body(data)
    assert m is not None, "the body was not read as canonical"
    return m.array.tobytes(order="F"), sum(left)


def _never(*args):
    raise AssertionError("this fallback ran")


def _outcome(parse):
    try:
        m = parse()
    except MatrixMarketParseError as exc:
        return ("error", str(exc), exc.line)
    return ("ok", m.shape, m.array.tobytes())


def _same_as_line_parser(data: bytes, tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(data)
    got = _outcome(lambda: read_matrix(path))
    assert got == _outcome(lambda: mmio._parse_lines(data.decode()))
    return got


# -- values ------------------------------------------------------------------


def test_random_bit_patterns_match_float():
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 60000, dtype=np.uint64)
    bits[::3] &= np.uint64(0x800FFFFFFFFFFFFF)  # subnormals and zeros
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    tokens = ["%.16e" % v for v in values.tolist()]
    got, _ = _read(_file(tokens))
    assert got == values.tobytes() == _float_bits(tokens)


def test_random_17_digit_decimals_match_float():
    # Decimals that are no double's shortest text, over every exponent the
    # power table covers and past both of its ends.
    rnd = random.Random(1990)
    tokens = []
    for _ in range(60000):
        digits = str(rnd.randrange(10**16, 10**17))
        tokens.append("%s%s.%s%s%+03d" % (rnd.choice(["", "-", "+"]), digits[0], digits[1:],
                                          rnd.choice("eE"), rnd.randrange(-345, 308)))
    got, left = _read(_file(tokens, sep=" "))
    assert got == _float_bits(tokens)
    assert left < len(tokens) // 10  # subnormal results and exponents past the table


def _halfway_tokens(count: int, seed: int) -> list[str]:
    """Decimals exactly halfway between two adjacent doubles, with 17
    significant digits, and their neighbours one unit in the 17th digit away."""
    rnd = random.Random(seed)
    tokens = []
    while len(tokens) < count:
        exponent = rnd.randrange(52, 64)  # ulp 1 to 2**11: ties with <= 17 digits
        ulp = Fraction(2) ** (exponent - 52)
        tie = rnd.randrange(2**52, 2**53) * ulp + ulp / 2
        text = format(Decimal(tie.numerator) / Decimal(tie.denominator), ".16e")
        if Fraction(Decimal(text)) != tie:
            continue  # needs more than 17 digits
        significand, e = text.split("e")
        middle = int(significand.replace(".", ""))
        for digits in map(str, (middle - 1, middle, middle + 1)):
            if len(digits) == 17:
                tokens.append(f"{digits[0]}.{digits[1:]}e{e}")
    return tokens


def test_halfway_decimals_and_their_neighbours_match_float():
    tokens = _halfway_tokens(30000, seed=7)
    got, _ = _read(_file(tokens))
    assert got == _float_bits(tokens)


@pytest.mark.parametrize("token", [
    "0.0000000000000000e+00", "-0.0000000000000000e+00", "+0.0000000000000000e+00",
    "0.0000000000000000e-342", "-0.0000000000000000E+999",
    "+1.5000000000000000E+00", "-1.5000000000000000e-00", "1.0000000000000000e+100",
    "1.0000000000000000e-343", "9.9999999999999999e-344", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "4.9406564584124654e-324", "2.2250738585072011e-308",
    "2.2250738585072014e-308", "1.0000000000000000e+308", "1.7976931348623157e+308",
    "-1.7976931348623157E+308", "1.7976931348623157e+292", "9.0071992547409930e+15",
    # Below the midpoint 1.797693134862315807...e308 between the largest
    # double and 2**1024, so float() rounds it to the largest double.
    "1.7976931348623158e+308", "-1.7976931348623158e+308",
    "0.9999999999999999e+00", "0.0000000000000001e+00", "0.1234567890123456e-05",
    # Significands in [2**52, 2**53): below 2**53, so float decides them.
    "0.5000000000000001e+00", "-0.9007199254740991E-300", "0.4503599627370496e+16",
])
def test_edge_tokens_match_float(token, tmp_path):
    tokens = [token, "1.0000000000000000e+00", token]
    got, _ = _read(_file(tokens))
    assert got == _float_bits(tokens)
    assert _same_as_line_parser(_file(tokens), tmp_path)[0] == "ok"


@pytest.mark.parametrize("token", [
    "1.7976931348623159e+308", "-1.7976931348623159E+308", "1.0000000000000000e+309",
    "9.9999999999999999e+999",
])
def test_overflow_reaches_the_line_parsers_non_finite_error(token, tmp_path):
    assert mmio._read_body(_file(["1.0000000000000000e+00", token])) is None
    got = _same_as_line_parser(_file(["1.0000000000000000e+00", token]), tmp_path)
    assert got == ("error", f"line 4: non-finite entry {token!r}", 4)


def test_mul128_matches_python_integers():
    rng = np.random.default_rng(64)
    a = np.concatenate([rng.integers(0, 2**64, 5000, dtype=np.uint64),
                        np.array([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1], np.uint64)])
    b = np.concatenate([rng.integers(0, 2**64, 5000, dtype=np.uint64),
                        np.array([2**64 - 1, 2**64 - 1, 2**64 - 1, 2**32, 2**63, 2**64 - 1],
                                 np.uint64)])
    hi, lo = mmio._mul128(a, b)
    assert hi.dtype == lo.dtype == np.uint64
    products = [x * y for x, y in zip(a.tolist(), b.tolist())]
    assert hi.tolist() == [p >> 64 for p in products]
    assert lo.tolist() == [p & (2**64 - 1) for p in products]


# -- blocks, fallbacks and the line parser ------------------------------------


def test_tokens_straddling_block_boundaries(monkeypatch):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(300) * 10.0 ** rng.integers(-320, 300, 300)
    tokens = ["%.16e" % v for v in values.tolist()]
    tokens[::4] = ["%+.16E" % v for v in values[::4].tolist()]
    seps = [" ", "\n", "\r\n", "\t ", "\x0b", "\x0c"]
    text = "".join(t + seps[i % len(seps)] for i, t in enumerate(tokens))
    data = f"{_HEADER}{len(tokens)} 1\n{text}".encode()
    for block in (1, 7, 22, 23, 24, 25, 26, 50, 1000):
        monkeypatch.setattr(mmio, "READ_BLOCK", block)
        assert mmio._read_body(data).array.tobytes() == _float_bits(tokens)
        assert mmio._read_body(data[:-1]).array.tobytes() == _float_bits(tokens)


def test_canonical_file_sends_no_token_to_float(tmp_path, monkeypatch):
    # Without this, a reader that handed every token to float() would pass.
    rng = np.random.default_rng(11)
    src = rng.standard_normal((400, 3)) * 10.0 ** rng.integers(-300, 300, (400, 3))
    src[:5] = [[0.0, -0.0, 1.0], [-5.5, 2.0**-1022, 1e308], [1.5, -2.5, 3.0],
               [9007199254740993.0, 0.1, -1e-300], [123.0, 1e22, 1e23]]
    path = tmp_path / "m.mtx"
    mmio.write_matrix(path, src)
    monkeypatch.setattr(mmio, "_float_each", _never)
    monkeypatch.setattr(mmio, "_parse_lines", _never)
    assert read_matrix(path).array.tobytes() == src.tobytes()


def test_a_benchmark_sized_problem_reads_every_block_without_float(tmp_path, monkeypatch):
    # The 50000x5 spiked problem and its two right-hand sides, written by
    # write_matrix and read at the default READ_BLOCK: many blocks, each cut
    # where a token ends, and every token decided by the word reader.
    a, b, _ = generate_problem(ProblemSpec("spiked-coherent", 50000, 5, rhs_cols=2,
                                           coherence_target=0.9))
    blocks = []
    read_block = mmio._read_block

    def counted(data, buf, lo, hi):
        blocks.append(hi - lo)
        return read_block(data, buf, lo, hi)

    monkeypatch.setattr(mmio, "_read_block", counted)
    monkeypatch.setattr(mmio, "_float_each", _never)
    monkeypatch.setattr(mmio, "_parse_lines", _never)
    for name, src, count in (("A", a, 23), ("B", b, 9)):
        path = tmp_path / f"{name}.mtx"
        mmio.write_matrix(path, src)
        blocks.clear()
        got = read_matrix(path).array
        assert len(blocks) == count
        tokens = path.read_bytes().split(b"\n", 2)[2].split()
        assert got.tobytes(order="F") == _float_bits(tokens) == src.tobytes(order="F")


@pytest.mark.parametrize("body", [
    b"1.5\n2.0000000000000000e+00\n",                          # a short token
    b"1.0000000000000000e+00\n2.00000000000000000e+00\n",      # 17 fraction digits
    b"1.0000000000000000e+00\x1c2.0000000000000000e+00\n",     # str.split splits here
    b"1.0000000000000000e+00\xc2\xa02.0000000000000000e+00\n",  # and at U+00A0
    b"1.0000000000000000e+00\n2.0000000000000000e,00\n",       # a comma for the sign
    b"1.0000000000000000e+00\n2.0000000000000000e+0x\n",
    b"1.0000000000000000d+00\n2.0000000000000000e+00\n",
    b"1.0000000000000000e+00\n+-2.000000000000000e+00\n",
    b"1.0000000000000000e+00\n2,0000000000000000e+00\n",
    b"1.0000000000000000e+00\n2.0000000000000000e+0000\n",
    b"1.0000000000000000e+00\n",                               # too few
    b"1.0000000000000000e+00\n2.0000000000000000e+00\n3.0000000000000000e+00\n",
    b"1.0000000000000000e+00\n% late\n2.0000000000000000e+00\n",
    b"1.0000000000000000e+00 nan\n",
    b"1.0000000000000000e+00\n2.0000000000000000e+00\xff\n",  # not UTF-8
])
def test_other_bodies_read_as_the_line_parser_reads_them(body, tmp_path):
    data = f"{_HEADER}2 1\n".encode() + body
    m = mmio._read_body(data)
    path = tmp_path / "m.mtx"
    path.write_bytes(data)
    got = _outcome(lambda: read_matrix(path))
    if body.endswith(b"\xff\n"):
        assert m is None and got == ("error", "line 4: not UTF-8: byte 0xff", 4)
        return
    assert got == _outcome(lambda: mmio._parse_lines(data.decode()))
    if got[0] == "error" or b"\x1c" in body or not body.isascii():
        # Besides where the line parser raises: float rejects a token holding
        # a separator only str.split splits at, so the line parser reads
        # those two bodies.
        assert m is None
    else:
        assert ("ok", m.shape, m.array.tobytes()) == got


@pytest.mark.parametrize("token", [b"-1.2345678901234567e-05", b"9.8765432109876543E+123"])
def test_every_one_byte_change_of_a_token_reads_as_float_reads_it(token):
    # Each byte of the words the reader checks, and the sign, set to each
    # of the 256 values: the body reads as float reads its tokens, or not
    # at all where float rejects one or the count changes.
    other = b"5.0000000000000000e-01"
    for at in range(len(token)):
        for byte in range(256):
            changed = token[:at] + bytes([byte]) + token[at + 1:]
            data = f"{_HEADER}2 1\n".encode() + changed + b"\n" + other + b"\n"
            tokens = [changed, other]
            try:
                expected = _float_bits(tokens) if len(changed.split()) == 1 else None
            except ValueError:
                expected = None
            if expected is not None and not np.isfinite(float(changed)):
                expected = None
            m = mmio._read_body(data)
            assert (m if m is None else m.array.tobytes()) == expected, changed


def test_a_size_larger_than_the_body_allocates_nothing(tmp_path):
    data = _file(["1.0000000000000000e+00"] * 3).replace(b"3 1", b"1000000000 1000000000")
    assert mmio._read_body(data) is None
    assert _same_as_line_parser(data, tmp_path) == (
        "error", "line 5: expected 1000000000000000000 entries, found 3", 5)


_canonical_tokens = st.builds(
    lambda sign, digits, e_char, exponent, width: "%s%s.%s%s%+0*d" % (
        sign, digits[0], digits[1:], e_char, width, exponent),
    st.sampled_from(["", "-", "+"]),
    st.integers(0, 10**17 - 1).map("{:017d}".format),
    st.sampled_from("eE"),
    st.integers(-345, 345),
    st.sampled_from([3, 4]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_canonical_tokens, min_size=1, max_size=12),
       st.lists(st.sampled_from([" ", "\n", "\r\n", "\t", "\x0b\n", "  "]), min_size=12,
                max_size=12),
       st.sampled_from([1, 23, 24, 60, mmio.READ_BLOCK]))
def test_canonical_bodies_read_as_the_line_parser_reads_them(tokens, seps, block):
    text = _HEADER + f"{len(tokens)} 1\n" + "".join(map(str.__add__, tokens, seps))
    with mock.patch.object(mmio, "READ_BLOCK", block):
        m = mmio._read_body(text.encode())
    expected = _outcome(lambda: mmio._parse_lines(text))
    if expected[0] == "ok":
        assert m is not None and ("ok", m.shape, m.array.tobytes()) == expected
    else:
        assert m is None and expected[1].endswith("non-finite entry " + repr(
            next(t for t in tokens if not np.isfinite(float(t)))))


_finite = st.floats(allow_nan=False, allow_infinity=False)
#: Well-formed tokens, canonical or not; a ("long", digit) pair stands for
#: a token longer than the read block.
_other_tokens = st.one_of(
    _finite.map(repr),
    _finite.map("%.17g".__mod__),
    _finite.map("%.18e".__mod__),
    _finite.map("%+.17E".__mod__),
    st.integers(-10**25, 10**25).map(str),
    st.sampled_from(["1_0", "+1_000.2_5e-0_1", "-0_0.5", "7E3", "+.5", "5."]),
    _canonical_tokens.filter(lambda t: math.isfinite(float(t))),
    st.tuples(st.just("long"), st.integers(0, 9)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_other_tokens, min_size=1, max_size=12),
       st.lists(st.sampled_from([" ", "\n", "\r\n", "\t", "\x0b\n", "\x0c", "  "]),
                min_size=12, max_size=12),
       st.sampled_from([1, 23, 60, mmio.READ_BLOCK]),
       st.booleans())
def test_other_well_formed_bodies_read_as_float_reads_them(tokens, seps, block, final_newline):
    tokens = [f"{t[1]}." + "0" * block + "1e-3" if isinstance(t, tuple) else t
              for t in tokens]
    body = "".join(map(str.__add__, tokens, seps))
    text = _HEADER + f"{len(tokens)} 1\n" + (body if final_newline else body.rstrip())
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m.mtx"
        path.write_bytes(text.encode())
        with mock.patch.object(mmio, "READ_BLOCK", block), \
                mock.patch.object(mmio, "_parse_lines", _never):
            m = read_matrix(path)
    assert m.array.tobytes() == _float_bits(tokens)


@pytest.mark.parametrize("body, error", [
    (b"1.0000000000000000e+00\n1.7976931348623159e+308\n",
     ("line 4: non-finite entry '1.7976931348623159e+308'", 4)),
    (b"1.0000000000000000e+00\n", ("line 3: expected 2 entries, found 1", 3)),
    (b"1.0000000000000000e+00\n% late\n2.0000000000000000e+00\n",
     ("line 4: comment after size line", 4)),
    (b"1.0000000000000000e+00 nan\n", ("line 3: non-finite entry 'nan'", 3)),
])
def test_a_malformed_body_is_read_once_before_the_line_parser(body, error, tmp_path):
    path = tmp_path / "m.mtx"
    path.write_bytes(f"{_HEADER}2 1\n".encode() + body)
    calls = []

    def counted(name):
        original = getattr(mmio, name)

        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    with mock.patch.multiple(mmio, **{name: counted(name) for name in
                                      ("_read_body", "decode_text", "_parse_lines")}):
        with pytest.raises(MatrixMarketParseError) as exc_info:
            read_matrix(path)
    assert (str(exc_info.value), exc_info.value.line) == error
    assert calls == ["_read_body", "decode_text", "_parse_lines"]


def test_importing_the_cli_builds_no_power_table():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import levsketch.cli; "
            "from levsketch import mmio; "
            "assert mmio._powers_of_five.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code, str(src)], check=True)
