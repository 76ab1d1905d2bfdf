"""Matrix Market array-format I/O.

Only the dense ``array real general`` flavor is supported: a header line,
optional ``%`` comments, a ``rows cols`` size line, then the entries in
column-major order.  Writes put one entry per line in scientific notation
with 17 significant digits, so a write/read round trip reproduces every
float64 bit for bit.

Files are read as UTF-8.  A read walks only the prefix (header, leading
comments and blank lines, size line) line by line, then splits the whole
body at once and casts it with ``float`` in one pass.  Anything unusual --
a ``%`` after the size line, a wrong entry count, a token ``float``
rejects, a non-finite entry, or a line break other than ``\\n``/``\\r\\n``
in the prefix -- sends the file to the line-by-line parser instead.  That
parser is the only source of the line-numbered error texts, and the tests
use it as the oracle for the one-pass path.
"""

from __future__ import annotations

import os

import numpy as np

from .exceptions import LevSketchError, MatrixMarketParseError
from .linalg import DenseMatrix, as_array

_HEADER_FIELDS = ("%%matrixmarket", "matrix", "array", "real", "general")

#: Values formatted per ``write``; bounds the formatted text held at once.
WRITE_CHUNK = 65536


def write_lines(fh, values: np.ndarray, line_format: str) -> None:
    """Write each entry of the 1-D ``values`` as ``line_format.format(v)``.

    Entries are formatted as Python floats, ``WRITE_CHUNK`` at a time, which
    gives the same text as formatting each numpy scalar in turn.
    """
    fmt = line_format.format
    for start in range(0, len(values), WRITE_CHUNK):
        fh.write("".join(map(fmt, values[start:start + WRITE_CHUNK].tolist())))


def write_matrix(path: str | os.PathLike, m) -> None:
    """Write any 2-D array-like in Matrix Market array format."""
    a = as_array(m)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"%%MatrixMarket matrix array real general\n{a.shape[0]} {a.shape[1]}\n")
        write_lines(fh, a.ravel(order="F"), "{:.16e}\n")


def read_text(path: str | os.PathLike, error: type[LevSketchError]) -> str:
    """Read a whole file as UTF-8 text.

    Bytes that are not UTF-8 raise ``error(message, line)``, where ``line``
    is the 1-based line of the first bad byte, counting ``\\n``, ``\\r\\n``
    and ``\\r`` as line ends.  Line ends are returned untranslated.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"x").splitlines())
        raise error(f"not UTF-8: byte 0x{data[exc.start]:02x}", line) from None


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
    """
    text = read_text(path, MatrixMarketParseError)
    m = _parse_body_at_once(text)
    return m if m is not None else _parse_lines(text)


def _parse_body_at_once(text: str) -> DenseMatrix | None:
    """Parse a well-formed file with one split and one cast of its body.

    Returns None, having raised nothing, wherever ``_parse_lines`` might
    reject the file or split its prefix into other lines.
    """
    pos = 0
    while True:
        end = text.find("\n", pos)
        if end < 0:
            return None
        line = text[pos:end].removesuffix("\r")
        if line and line.splitlines() != [line]:
            return None  # _parse_lines would split this line further
        if pos == 0:
            if [t.lower() for t in line.split()] != list(_HEADER_FIELDS):
                return None
        elif line.strip() and not line.strip().startswith("%"):
            break  # the size line
        pos = end + 1
    parts = line.split()
    if len(parts) != 2:
        return None
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    # A late comment or a wrong count would also fail the cast below;
    # checking first spares the cast on such files.
    body = end + 1
    if rows < 1 or cols < 1 or text.find("%", body) >= 0:
        return None
    tokens = text[body:].split()
    if len(tokens) != rows * cols:
        return None
    try:
        # float() decides every value, exactly as in _parse_lines; DenseMatrix
        # rejects a non-finite entry.  The transpose of the (cols, rows)
        # reshape is a column-major view of the entries in file order.
        flat = np.fromiter(map(float, tokens), np.float64, len(tokens))
        return DenseMatrix(flat.reshape(cols, rows).T)
    except ValueError:
        return None


def _parse_lines(raw: str) -> DenseMatrix:
    """Parse a file line by line, raising on the first malformed line."""
    lines = raw.splitlines()
    if not lines:
        raise MatrixMarketParseError("empty file", line=1)

    header = lines[0].split()
    if [t.lower() for t in header] != list(_HEADER_FIELDS):
        raise MatrixMarketParseError(
            "expected header '%%MatrixMarket matrix array real general'", line=1
        )

    lineno = 1
    size: tuple[int, int] | None = None
    values: list[float] = []
    for lineno, text in enumerate(lines[1:], start=2):
        stripped = text.strip()
        if not stripped or stripped.startswith("%"):
            if size is not None and stripped.startswith("%"):
                raise MatrixMarketParseError("comment after size line", line=lineno)
            continue
        if size is None:
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
            size = (rows, cols)
            continue
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
            if size is not None and len(values) > size[0] * size[1]:
                raise MatrixMarketParseError("more entries than rows*cols", line=lineno)

    if size is None:
        raise MatrixMarketParseError("missing size line", line=lineno)
    rows, cols = size
    if len(values) != rows * cols:
        raise MatrixMarketParseError(
            f"expected {rows * cols} entries, found {len(values)}", line=lineno
        )
    return DenseMatrix(np.array(values).reshape(cols, rows).T)
