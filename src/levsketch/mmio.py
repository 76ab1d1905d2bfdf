"""Matrix Market array-format I/O.

Only the dense ``array real general`` flavor is supported: a header line,
optional ``%`` comments, a ``rows cols`` size line, then the entries in
column-major order.  Writes put one entry per line in scientific notation
with 17 significant digits, so a write/read round trip reproduces every
float64 bit for bit.

A write (:func:`write_lines`, which also prints ``leverage``'s scores)
gives exactly the bytes of ``"%.16e\\n" % v`` for each value of a 1-D array
of real numbers.  It takes :data:`WRITE_BLOCK` values at a time.  A digit
kernel, the printing counterpart of the reader's Eisel-Lemire path (Adams
2019, "Ryu revisited: printf floating point conversion"), estimates each
value's decimal exponent k from its binary exponent and rounds ``|x| *
10**(16 - k)`` to 17 digits from one 53x128-bit product against the
reader's table of powers of five.  The block's lines are laid out as byte
rows, each with room for a sign and a three-digit exponent, from a table
of the 4-digit strings.  A block with no negative value, no three-digit
exponent and nothing undecided -- every block of leverage scores -- writes
the same 23 columns of every row in one copy; any other block compacts its
rows in one gather of the bytes each line keeps.  ``%`` formats only what
the kernel leaves undecided: subnormals, values below about 1e-292
(outside the table), and products within a few units of a half in their
last word, exact ties included; their texts are spliced in where their
lines go.  The block size bounds the temporaries, a few MB, so a large
write does not raise the peak RSS.

A read parses the prefix (header, leading comments and blank lines, size
line) with the line parser's own :func:`_prefix`, then reads the body from
the file's bytes, :data:`READ_BLOCK` bytes at a time (each block cut at
ASCII whitespace), into one preallocated array.  A block whose every token
is in the writer's own format -- ``[-+]?d.<16 digits>[eE][-+]dd[d]``, as
``{:.16e}`` and C's ``%.16e`` print it -- is read by a vectorized decimal
reader.  Token edges are the block's ASCII whitespace.  Each token is read
as machine words gathered straight from the file's bytes through
1-byte-stride views, two records a token: the 16 fraction digits as two
little-endian 8-byte words, the lead digit and the point as a 16-bit word,
and ``e``, the exponent's sign and two digits as a 32-bit word.  One
subtraction a word and the SWAR eight-digit test check all of a block's
bytes at once (Lemire 2021, "Number parsing at a gigabyte per second"), and
three multiply-shift steps turn each fraction word into its 8-digit value.
The reader decides almost every token with the Eisel-Lemire algorithm of
the same paper: one 64x128-bit product against a table of powers of five,
rounded to nearest even.  The exact-tie check runs only on tokens with
10**q in [1e-4, 1e23], and the all-ones check on the low product word only
where that word is all ones; both sets are almost always empty, and
Mushtak and Lemire 2023 ("Fast number parsing without fallback") show that
the all-ones case does not arise for significands of up to 19 digits.
``float`` decides every other block, token by token on the block's
``bytes.split()``, and every token the decimal reader cannot decide: a
nonzero significand below 2**53 (a leading digit 0), a subnormal, an
overflow, an exponent outside [-342, 308], and the rare product that is too
close to call.  The results are the bits ``float`` gives.

Anything else -- a malformed prefix, a line break other than
``\\n``/``\\r\\n`` in the prefix, a token ``float`` rejects (a ``%`` after
the size line, any non-ASCII byte), a non-finite entry or a wrong entry
count -- sends the file to the line-by-line parser instead.  That parser
is the only source of the line-numbered error texts, and the tests use it
as the oracle for the reader.  A well-formed body with non-ASCII
separators (U+00A0, say) takes it too and gets the same values, only more
slowly.
"""

from __future__ import annotations

import functools
import os
import re

import numpy as np

from .exceptions import (DimensionError, InvalidParameterError, LevSketchError,
                         MatrixMarketParseError)
from .linalg import DenseMatrix, _cast, as_array, read_only

_HEADER_FIELDS = ("%%matrixmarket", "matrix", "array", "real", "general")

#: Values the digit kernel formats per write.  A block's temporaries (a byte
#: row and a keep mask per value, the kept bytes' offsets) stay a few MB, so
#: writing a large file does not raise the peak RSS.
WRITE_BLOCK = 16384

#: Body bytes the decimal reader parses per step.  A block is cut at
#: whitespace, so no token is split, and its temporaries stay a few MB
#: whatever the size of the file.
READ_BLOCK = 1 << 18


def write_lines(fh, values) -> None:
    """Write each entry of the 1-D ``values`` to the text file ``fh`` as
    ``"%.16e\\n" % v``.

    Entries that are not real numbers raise ``InvalidParameterError`` and
    any other shape ``DimensionError``, as in :func:`~levsketch.linalg.as_array`;
    bools are written as 0 and 1.  The digit kernel
    (:func:`_decimal_digits`) rounds ``WRITE_BLOCK`` values at a time to 17
    significant digits, and :func:`_layout` turns them into byte rows.  A
    block without a sign, a three-digit exponent or an undecided value
    writes the same 23 columns of every row; any other block keeps each
    line's own bytes, and ``%`` formats the undecided values, whose texts
    are spliced in where their lines go.
    """
    values = _cast(values, np.float64, copy=False)
    if values.ndim != 1:
        raise DimensionError(f"expected a 1-D array, got ndim={values.ndim}")
    for start in range(0, len(values), WRITE_BLOCK):
        block = values[start:start + WRITE_BLOCK]
        digits, exponents, undecided = _decimal_digits(block)
        rows = _layout(_digit_bytes(digits), exponents)
        negative, hundreds = np.signbit(block), np.abs(exponents) >= 100
        at = np.flatnonzero(undecided)
        if at.size or negative.any() or hundreds.any():
            fh.write(_kept_lines(block, rows, negative, hundreds, at))
        else:
            lines = np.concatenate((rows[:, 1:_HUNDREDS], rows[:, _HUNDREDS + 1:]), axis=1)
            fh.write(lines.tobytes().decode("ascii"))


def as_path(path, name: str = "path") -> str | bytes:
    """The boundary check for a file path: ``os.fspath(path)``, so a str,
    bytes or ``os.PathLike``.  Anything else raises ``InvalidParameterError``
    before any ``open``: an int or a bool would open, and then close, a file
    descriptor the caller owns."""
    try:
        return os.fspath(path)
    except TypeError:
        raise InvalidParameterError(
            f"{name} must be a str, bytes or os.PathLike, got {path!r}") from None


def write_matrix(path: str | os.PathLike, m) -> None:
    """Write any 2-D array-like in Matrix Market array format."""
    path = as_path(path)
    a = as_array(m)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{a.shape[0]} {a.shape[1]}\n")
        write_lines(fh, a.ravel(order="F"))


def decode_text(data: bytes, error: type[LevSketchError]) -> str:
    """Decode a file's bytes as UTF-8 text.

    Bytes that are not UTF-8 raise ``error(message, line)``, where ``line``
    is the 1-based line of the first bad byte, counting ``\\n``, ``\\r\\n``
    and ``\\r`` as line ends.  Line ends are returned untranslated.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").splitlines())
        raise error(f"not UTF-8: byte 0x{data[exc.start]:02x}", line) from None


def read_text(path: str | os.PathLike, error: type[LevSketchError]) -> str:
    """Read a whole file as UTF-8 text, as :func:`decode_text` decodes it."""
    with open(as_path(path), "rb") as fh:
        return decode_text(fh.read(), error)


def read_matrix(path: str | os.PathLike) -> DenseMatrix:
    """Read a Matrix Market array-format file into a column-major
    :class:`DenseMatrix` whose array is a read-only view of the parsed entries.

    Raises
    ------
    MatrixMarketParseError
        On any malformed content or bytes that are not UTF-8, carrying the
        1-based line number.
    OSError
        If the file cannot be opened.
    InvalidParameterError
        If ``path`` is not a path (:func:`as_path`).
    """
    with open(as_path(path), "rb") as fh:
        data = fh.read()
    m = _read_body(data)
    return m if m is not None else _parse_lines(decode_text(data, MatrixMarketParseError))


def _prefix(lines) -> tuple[int, int, int]:
    """``(rows, cols, size line number)`` from an iterator of ``(line number,
    text)`` pairs, read through the size line: the header, blank and ``%``
    lines, the size line.  Raises on the first malformed line, or when the
    lines run out first."""
    lineno, header = next(lines, (1, None))
    if header is None:
        raise MatrixMarketParseError("empty file", line=1)
    if [t.lower() for t in header.split()] != list(_HEADER_FIELDS):
        raise MatrixMarketParseError(
            "expected header '%%MatrixMarket matrix array real general'", line=1
        )
    for lineno, text in lines:
        stripped = text.strip()
        if not stripped or stripped.startswith("%"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise MatrixMarketParseError(
                f"size line must be 'rows cols', got {stripped!r}", line=lineno
            )
        try:
            rows, cols = int(parts[0]), int(parts[1])
        except ValueError:
            raise MatrixMarketParseError(
                f"non-integer dimensions {stripped!r}", line=lineno
            ) from None
        if rows < 1 or cols < 1:
            raise MatrixMarketParseError(
                f"dimensions must be positive, got {rows} {cols}", line=lineno
            )
        return rows, cols, lineno
    raise MatrixMarketParseError("missing size line", line=lineno)


def _utf8_lines(data: bytes, ends: list[int]):
    """``(line number, text)`` of each ``\\n``-terminated line of the bytes,
    decoded as UTF-8 without ``\\n`` or ``\\r\\n``, appending the offset past
    it to ``ends``.  A ``\\n`` byte is never part of a longer UTF-8 sequence,
    so these are the whole file's ``splitlines``, up to a line without
    ``\\n``, not UTF-8 or split further, where the lines stop."""
    pos = 0
    while (end := data.find(b"\n", pos)) >= 0:
        try:
            line = data[pos:end].decode("utf-8").removesuffix("\r")
        except UnicodeDecodeError:
            return
        if line and line.splitlines() != [line]:
            return
        pos = end + 1
        ends.append(pos)
        yield len(ends), line


# -- the decimal reader -------------------------------------------------------

_U64 = np.uint64
_LOW32, _32 = _U64(0xFFFFFFFF), _U64(32)
_ALL_ONES = _U64(2**64 - 1)

#: A canonical token after its optional sign is ``d.<16 digits>[eE][-+]dd``
#: and an optional third exponent digit, read as words.  The 16 bytes at
#: offset 2 are the fraction's two little-endian 8-digit words; the 24 bytes
#: that end at offset 22 hold the lead digit and the point as their second
#: uint16 word, and ``e``, the exponent's sign and two digits as their sixth
#: uint32 word.  Subtracting the bytes of the least valid text (``_POINT``,
#: ``_ZEROS``, and ``_EXPONENT`` after ``| 0x20`` maps "E" to "e") takes a
#: valid word, with no borrow, to its bytes' values: a lead digit and a
#: zero; eight digits; a zero, 0 or 2 for "+" or "-", and two digits.  No
#: other word lands in that range, borrow or not, since adding the text back
#: to a word in range carries nothing.
_TOKEN = 22
_POINT = np.uint16(0x2E30)  # "0."
_ZEROS = _U64(0x3030303030303030)  # "00000000"
_EXPONENT = np.uint32(0x30302B65)  # "e+00"
#: A word of bytes below 16 has one of 10 or more exactly when adding 6 to
#: every byte makes one reach 16, with no carry; so a word holds eight digit
#: values exactly when neither it nor it plus ``_SIXES`` has a bit in
#: ``_HIGH_NIBBLES`` (SWAR, as in Lemire 2021).
_SIXES, _HIGH_NIBBLES = _U64(0x0606060606060606), _U64(0xF0F0F0F0F0F0F0F0)
#: The same test on the exponent word, whose byte 0 must be 0 and byte 1 0 or 2.
_EXPONENT_SIXES, _EXPONENT_FREE = np.uint32(0x06060000), np.uint32(0xF0F0FDFF)
#: q = e - 16 of a two-digit exponent e, by 100 for a "-" sign plus |e|.
_Q_OF_SIGNED = np.concatenate((np.arange(100), -np.arange(100))).astype(np.int64) - 16

_SPACE = re.compile(rb"\s")

#: Decimal exponents q of w * 10**q that the power table covers; w * 10**q
#: is below the least subnormal under it and overflows above it.
_Q_MIN, _Q_MAX = -342, 308
#: 64 minus the bit length of a w of 54 to 57 bits, by w >> 53.
_LEADING_ZEROS = np.array([10, 10, 9, 9, 8, 8, 8, 8] + [7] * 8, np.uint64)


@functools.cache
def _powers_of_five() -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit powers of five, q in
    [``_Q_MIN``, ``_Q_MAX``]: 5**q truncated to its top 128 bits for
    q >= 0, and a reciprocal 2**b // 5**-q + 1 cut to 128 bits for q < 0.

    This is the table of Lemire's fast_float, built on first use (importing
    the package builds nothing) and shared read-only.
    """
    words = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            t = 5**q
        else:
            p = 5**-q
            # For q >= -27 the reciprocal is exact enough at 128 bits.
            t = (1 << (p.bit_length() + 127 if q >= -27 else 2 * p.bit_length() + 128)) // p + 1
        shift = t.bit_length() - 128
        words.append(t >> shift if shift >= 0 else t << -shift)
    return (read_only(np.array([t >> 64 for t in words], np.uint64)),
            read_only(np.array([t & (2**64 - 1) for t in words], np.uint64)))


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products of two uint64 arrays."""
    a_lo, a_hi = a & _LOW32, a >> _32
    b_lo, b_hi = b & _LOW32, b >> _32
    cross_1, cross_2 = a_hi * b_lo, a_lo * b_hi
    carry = ((a_lo * b_lo) >> _32) + (cross_1 & _LOW32) + (cross_2 & _LOW32)
    return a_hi * b_hi + (cross_1 >> _32) + (cross_2 >> _32) + (carry >> _32), a * b


def _eisel_lemire(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bits of the doubles nearest ``w * 10**q``, ties to even, for uint64
    ``w`` below 10**17 and int64 ``q`` in [-1015, 983], and the mask of the
    entries left undecided.

    This is fast_float's ``compute_float`` for float64, one array operation
    per step.  A zero ``w`` gives +0.  Left undecided: a nonzero ``w``
    below 2**53, subnormal or infinite results (``q`` outside the table
    among them), and a low product word of all ones outside q in [-27, 55],
    where a truncated power of five might not decide the rounding.  The
    exact-tie and all-ones checks run only on the entries that can need
    them, almost always none.
    """
    hi5, lo5 = _powers_of_five()
    row = np.clip(q, _Q_MIN, _Q_MAX) - _Q_MIN
    # lz shifts the top bit of a w of 54 to 57 bits to bit 63.
    lz = _LEADING_ZEROS[(w >> _U64(53)).view(np.int64)]
    zero = w == _U64(0)
    short = w - _U64(1) < _U64(2**53 - 1)
    w = w << lz
    hi, lo = _mul128(w, hi5[row])
    retry = np.flatnonzero((hi & _U64(0x1FF)) == _U64(0x1FF))
    if retry.size:
        # The truncated power's low word may carry into the top 55 bits.
        extra = _mul128(w[retry], lo5[row[retry]])[0]
        low = lo[retry] + extra
        lo[retry] = low
        hi[retry] += low < extra
    upper = hi >> _U64(63)
    shift = upper + _U64(9)
    mantissa = hi >> shift
    power2 = ((q * 217706) >> 16) + (63 + 1023) + (upper - lz).view(np.int64)
    # An exact tie shifts out only zeros; round it down to even.  Only
    # 10**q in [1e-4, 1e23] can give one with 17 digits.
    near = np.flatnonzero((q + 4).view(np.uint64) <= _U64(27))
    if near.size:
        m, h = mantissa[near], hi[near]
        mantissa[near] -= ((lo[near] <= _U64(1)) & ((m & _U64(3)) == _U64(1))
                           & ((m << shift[near]) == h))
    mantissa = (mantissa + _U64(1)) >> _U64(1)
    # Rounding up to 2**53 carries into the exponent: 2**52 is the implicit bit.
    bits = ((power2 - 1).view(np.uint64) << _U64(52)) + mantissa
    power2 += (mantissa >> _U64(53)).view(np.int64)
    undecided = short | ((power2 - 1).view(np.uint64) >= _U64(2046))
    ones = np.flatnonzero(lo == _ALL_ONES)
    if ones.size:
        undecided[ones] |= (q[ones] < -27) | (q[ones] > 55)
    undecided &= ~zero
    bits[zero] = 0
    return bits, undecided


def _float_each(tokens: list[bytes]) -> np.ndarray | None:
    """``float`` of each token, or None if ``float`` rejects one (any token
    with a non-ASCII byte, too) or a value is not finite."""
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None
    return values if np.all(np.isfinite(values)) else None


def _is_space(b: np.ndarray) -> np.ndarray:
    """Where the bytes ``b`` are ASCII whitespace (space, \\t\\n\\v\\f\\r),
    which ``bytes.split`` and ``_SPACE`` split at.  ``str.split`` also splits
    at \\x1c-\\x1f and non-ASCII spaces; ``float`` rejects a token holding
    one of those bytes."""
    return (b == ord(" ")) | ((b - np.uint8(9)) < np.uint8(5))


def _records(data: bytes, size: int) -> np.ndarray:
    """The ``size``-byte records of ``data``, one starting at each byte: a
    1-byte-stride view, so that a fancy index gathers words at any offset."""
    return np.ndarray((len(data) - size + 1,), f"V{size}", data, 0, (1,))


def _read_block(data: bytes, buf: np.ndarray, lo: int, hi: int) -> np.ndarray | None:
    """The values of the tokens in ``buf[lo:hi]``, which starts and ends at
    whitespace or the end of the data and comes after at least two bytes,
    or None if ``float`` rejects a token or a value is not finite."""
    block = buf[lo:hi]
    # The tokens lie between the bytes up to " ", if those are whitespace.
    gaps = np.flatnonzero(block <= np.uint8(ord(" ")))
    if not np.all(_is_space(block[gaps])):
        return _float_each(data[lo:hi].split())
    bounds = np.concatenate(([-1], gaps, [hi - lo]))
    token = np.flatnonzero(np.diff(bounds) > 1)
    starts = bounds[token] + (lo + 1)
    ends = bounds[token + 1] + lo
    lead = buf[starts]
    negative = lead == ord("-")
    first = starts + (negative | (lead == ord("+")))  # the leading digit
    length = ends - first
    if not np.all((length - _TOKEN).view(np.uint64) <= _U64(1)):
        return _float_each(data[lo:hi].split())
    if not len(starts):
        return np.empty(0)
    digits = _records(data, 16)[first + 2].view(np.uint64).reshape(-1, 2) - _ZEROS
    frame = _records(data, 24)[first - 2]
    lead_digit = frame.view(np.uint16)[1::12] - _POINT
    exponent = (frame.view(np.uint32)[5::6] | np.uint32(0x20)) - _EXPONENT
    long = np.flatnonzero(length > _TOKEN)
    third = buf[first[long] + _TOKEN] - np.uint8(48)
    if (lead_digit.max() >= 10 or np.any(third >= 10)
            or np.bitwise_or.reduce(digits | (digits + _SIXES), axis=None) & _HIGH_NIBBLES
            or np.bitwise_or.reduce(exponent | (exponent + _EXPONENT_SIXES)) & _EXPONENT_FREE):
        return _float_each(data[lo:hi].split())
    # Each fraction word's 8 digit values become its 8-digit value in three
    # multiply-shift steps, 2, 4 and 8 digits at a time.
    digits = ((digits * _U64(10 << 8 | 1)) >> _U64(8)) & _U64(0x00FF00FF00FF00FF)
    digits = ((digits * _U64(100 << 16 | 1)) >> _U64(16)) & _U64(0x0000FFFF0000FFFF)
    digits = (digits * _U64(10000 << 32 | 1)) >> _U64(32)
    w = (lead_digit.astype(np.uint64) * _U64(10**16)
         + digits[:, 0] * _U64(10**8) + digits[:, 1])
    # The exponent word, bytes (0, sign 0 or 2, d1, d2), times the bytes
    # (1, 10, 50) has 50 * sign + 10 * d1 + d2 in its top byte.
    signed = (exponent * np.uint32(50 << 16 | 10 << 8 | 1)) >> np.uint32(24)
    q = _Q_OF_SIGNED.take(signed)
    if long.size:
        e = (signed[long] % np.uint32(100)).astype(np.int64) * 10 + third
        q[long] = np.where(signed[long] >= 100, -e, e) - 16
    bits, undecided = _eisel_lemire(w, q)
    bits |= negative.astype(np.uint64) << _U64(63)
    values = bits.view(np.float64)
    if undecided.any():
        at = np.flatnonzero(undecided)
        tokens = [data[a:b] for a, b in zip(starts[at].tolist(), ends[at].tolist())]
        decided = _float_each(tokens)
        if decided is None:
            return None
        values[at] = decided
    return values


def _read_body(data: bytes) -> DenseMatrix | None:
    """Read a file with the decimal reader, ``float`` deciding every block
    it cannot read.

    Returns None, having raised nothing, wherever ``_parse_lines`` might
    reject the file or read it otherwise: then the line parser decides.
    """
    ends: list[int] = []
    try:
        rows, cols, _ = _prefix(_utf8_lines(data, ends))
    except MatrixMarketParseError:
        return None
    pos = ends[-1]
    if rows * cols > (len(data) - pos + 1) // 2:
        return None  # more entries than tokens of a byte and a separator fit
    buf = np.frombuffer(data, np.uint8)
    flat = np.empty(rows * cols)
    filled = 0
    while pos < len(data):
        # Cut at the first whitespace at or after the block's end, if any.
        cut = _SPACE.search(data, min(pos + READ_BLOCK, len(data)))
        stop = cut.start() if cut else len(data)
        values = _read_block(data, buf, pos, stop)
        if values is None or filled + len(values) > len(flat):
            return None
        flat[filled:filled + len(values)] = values
        filled += len(values)
        pos = stop
    if filled != len(flat):
        return None
    return DenseMatrix(flat.reshape(cols, rows).T)


# -- the digit kernel ---------------------------------------------------------

_HALF = _U64(2**63)
#: Fraction words this close to a half leave the rounding undecided; the
#: estimate of the fraction is off by fewer than 3.
_NEAR = _U64(16)


@functools.cache
def _four_digits() -> np.ndarray:
    """The ASCII bytes of ``"0000"`` to ``"9999"``, one uint32 each, built on
    first use (importing the package builds nothing) and shared read-only."""
    text = "".join(f"{i:04d}" for i in range(10000)).encode()
    return read_only(np.frombuffer(text, np.uint32).copy())


def _round_scaled(m: np.ndarray, biased: np.ndarray, q: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``round(m * 2**(biased - 1075) * 10**q)`` for uint64 significands
    ``m`` of 53 bits, and where the rounding is too close to call.

    One 64x128-bit product against the power of five gives the scaled value
    as a 128-bit fixed-point number, integer part below 2**58, whose
    fraction word is off by fewer than ``_NEAR`` (the power is cut to 128
    bits, the product to its top 128).  Exact ties are among the close calls.
    Rows outside the table give garbage.
    """
    hi5, lo5 = _powers_of_five()
    row = np.clip(q, _Q_MIN, _Q_MAX) - _Q_MIN
    w = m << _U64(11)
    hi, lo = _mul128(w, hi5[row])
    extra = _mul128(w, lo5[row])[0]
    lo += extra
    hi += lo < extra
    # The value is hi:lo * 2**-(64 + t), t in [6, 13] for the callers' q.
    t = (1085 - biased - ((q * 217706) >> 16)).astype(np.uint64)
    fraction = (hi << (_U64(64) - t)) | (lo >> t)
    near = fraction + _NEAR - _HALF < _NEAR + _NEAR
    return (hi >> t) + (fraction >> _U64(63)), near


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, k, undecided)`` for float64 ``x``: ``|x|`` rounded to 17
    significant digits is ``d * 10**(k - 16)``, with uint64 ``d`` in
    [10**16, 10**17) (``d`` and ``k`` are 0 for a zero), unless ``undecided``.

    The estimate k = floor(log10(2**p)) for ``x`` in [2**p, 2**(p+1)) makes
    ``|x| * 10**(16 - k)`` at least 10**16; where it rounds to 10**17 or more,
    k is one more.  Left undecided: subnormals, infinities and nans, powers
    of ten outside the table (``|x|`` below about 1e-292), and a fraction
    within ``_NEAR`` of a half, exact ties included.
    """
    bits = x.view(np.uint64)
    biased = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    m = (bits & _U64(2**52 - 1)) | _U64(2**52)
    k = ((biased - 1023) * 78913) >> 18
    d, near = _round_scaled(m, biased, 16 - k)
    over = np.flatnonzero(d >= _U64(10**17))
    if over.size:
        k[over] += 1
        d[over], near[over] = _round_scaled(m[over], biased[over], 16 - k[over])
    zero = (bits << _U64(1)) == _U64(0)
    d[zero] = 0
    k[zero] = 0
    undecided = ~zero & (near | (biased == 0) | (biased == 2047) | (16 - k > _Q_MAX))
    return d, k, undecided


def _digit_bytes(d: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each uint64 ``d`` below 10**17, an (n, 17) view.

    Remainders are taken as ``a - (a // c) * c``: numpy divides by a scalar
    quickly, but ``divmod`` and ``%`` divide element by element.
    """
    table = _four_digits()
    lead = d // _U64(10**16)
    rest = d - lead * _U64(10**16)
    high = rest // _U64(10**8)
    groups = np.empty((len(d), 5), np.uint32)
    groups[:, 0] = table.take(lead.astype(np.intp))
    for j, half in enumerate((high, rest - high * _U64(10**8))):
        half = half.astype(np.uint32)
        top = half // np.uint32(10**4)
        groups[:, 1 + 2 * j] = table.take(top)
        groups[:, 2 + 2 * j] = table.take(half - top * np.uint32(10**4))
    return groups.view(np.uint8)[:, 3:]


#: A line: sign, lead digit, ".", 16 digits, "e", sign, 3 digits, "\n".
_LINE = np.frombuffer(b"-0.0000000000000000e+000\n", np.uint8)
_LINE_E = 19
_HUNDREDS = _LINE_E + 2  # the exponent's hundreds digit


def _layout(digits: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Byte rows of the ``%.16e`` lines of values with 17 ASCII digits
    ``digits`` and decimal exponents ``k``, each with a "-" sign and a
    three-digit exponent; the writer drops the columns a line has not."""
    rows = np.empty((len(k), _LINE.size), np.uint8)
    rows[:] = _LINE
    rows[:, 1] = digits[:, 0]
    rows[:, 3:_LINE_E] = digits[:, 1:]
    rows[:, _LINE_E + 1] = np.where(k < 0, ord("-"), ord("+"))
    exponent = _four_digits().take(np.abs(k)).view(np.uint8).reshape(-1, 4)
    rows[:, _HUNDREDS:_LINE_E + 5] = exponent[:, 1:]
    return rows


def _kept_lines(block: np.ndarray, rows: np.ndarray, negative: np.ndarray,
                hundreds: np.ndarray, at: np.ndarray) -> str:
    """The text of a block's lines from its byte rows: each line keeps its
    sign and hundreds digit where it has them, and the lines of the values
    at ``at``, which the digit kernel left undecided, are ``%``'s."""
    keep = np.ones(rows.shape, bool)
    keep[:, 0] = negative
    keep[:, _HUNDREDS] = hundreds
    keep[at] = False
    text = rows[keep].tobytes().decode("ascii")
    if at.size:
        # An undecided value's line is empty here: its text goes where
        # the lines before it end.
        cuts = [0, *np.cumsum(keep.sum(axis=1))[at].tolist(), len(text)]
        exact = ["%.16e\n" % v for v in block[at].tolist()] + [""]
        text = "".join(text[a:b] + t for a, b, t in zip(cuts, cuts[1:], exact))
    return text


def _parse_lines(raw: str) -> DenseMatrix:
    """Parse a file line by line, raising on the first malformed line."""
    lines = enumerate(raw.splitlines(), 1)
    rows, cols, lineno = _prefix(lines)
    values: list[float] = []
    for lineno, text in lines:
        stripped = text.strip()
        if stripped.startswith("%"):
            raise MatrixMarketParseError("comment after size line", line=lineno)
        for token in stripped.split():
            try:
                v = float(token)
            except ValueError:
                raise MatrixMarketParseError(
                    f"non-numeric entry {token!r}", line=lineno
                ) from None
            if v != v or v in (float("inf"), float("-inf")):
                raise MatrixMarketParseError(
                    f"non-finite entry {token!r}", line=lineno
                )
            values.append(v)
            if len(values) > rows * cols:
                raise MatrixMarketParseError("more entries than rows*cols", line=lineno)

    if len(values) != rows * cols:
        raise MatrixMarketParseError(
            f"expected {rows * cols} entries, found {len(values)}", line=lineno
        )
    return DenseMatrix(np.array(values).reshape(cols, rows).T)
