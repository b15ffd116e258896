"""The one text table format of every CSV the package writes or reads.

A table is ``# `` comment lines, a header row of column names, then
comma-separated rows of numbers with 17 significant digits, so reading a
table back gives bit-identical floats.

Two writers write this one format by ``%`` operations.
:func:`write_table` fills a ``%.17g`` row repeated n times with every value
of an (n, k) array, in one operation.  :func:`write_grid_table` writes a
function sampled on a grid as rows (row node, column node, value): its
template holds each column node's text, formatted once, and it is filled
with each row node's text, also formatted once, and the values, one
operation per block of rows.  Its bytes equal those of :func:`write_table`
on the meshgrid rows.  ``"%.17g" % x`` is the same CPython conversion as
``f"{x:.17g}"``, so every byte is too, ``-0``, subnormals, ``inf`` and
``nan`` included.

The reader takes the stream one line at a time, keeps each row's fields as
text and converts them all with one numpy call, whose str-to-float
conversion follows ``float()``.  Comment lines are read back verbatim: a
comma or a quote in one is text, not a field separator.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["write_table", "write_grid_table", "read_table", "parse_number", "parse_whole_number"]


# values per formatted block of write_grid_table; a 64x128 Husimi grid is one block
GRID_BLOCK_CELLS = 2**16


def _head(comments, columns) -> str:
    """The ``# `` comment lines and the header row of a table."""
    return "".join(f"# {line}\n" for line in comments) + ",".join(columns) + "\n"


def write_table(stream, comments, columns, rows) -> None:
    """Write ``comments`` as ``# `` lines, the header ``columns``, then the (n, k) array ``rows``."""
    rows = np.asarray(rows, dtype=float)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    stream.write(_head(comments, columns) + row * len(rows) % tuple(rows.ravel().tolist()))


def write_grid_table(stream, comments, columns, row_axis, col_axis, values) -> None:
    """Write the (n_row, n_col) ``values`` as rows (row_axis[i], col_axis[j], values[i, j]), i-major.

    The bytes are those of :func:`write_table` on the three meshgrid columns,
    but each node of either axis is formatted once: the template of one grid
    row holds every ``col_axis`` text (none contains a ``%``) and is filled
    once per row node, its text interleaved with that row's values.  Rows go
    out in blocks of at most ``GRID_BLOCK_CELLS`` values (one row, if a row
    holds more), one ``%`` operation each, so the memory a block takes does
    not grow with the number of rows.
    """
    row_axis = np.asarray(row_axis, dtype=float)
    col_axis = np.asarray(col_axis, dtype=float)
    values = np.asarray(values, dtype=float).reshape(len(row_axis), len(col_axis))
    template = "".join(["%s," + "%.17g" % node + ",%.17g\n" for node in col_axis.tolist()])
    row_texts = np.array(["%.17g" % node for node in row_axis.tolist()], dtype=object)
    stream.write(_head(comments, columns))
    block_rows = max(1, GRID_BLOCK_CELLS // max(1, len(col_axis)))
    for start in range(0, len(row_axis), block_rows):
        block = values[start : start + block_rows]
        fill = np.empty(block.shape + (2,), dtype=object)
        fill[..., 0] = row_texts[start : start + block_rows, None]
        fill[..., 1] = block
        stream.write(template * len(block) % tuple(fill.ravel().tolist()))


def read_table(stream) -> tuple[list[str], list[str], np.ndarray]:
    """(comments, columns, (n, k) float array) of a table; inverse of :func:`write_table`.

    Blank lines are skipped.  A line starting with ``#`` is a comment
    wherever it stands; the first other line is the header.  A row whose
    field count differs from the header's, or a field that is not a number,
    raises ``ValueError`` naming its line.
    """
    comments, columns, fields, numbers = [], None, [], []
    for number, line in enumerate(stream, 1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        if line[0] == "#":
            comments.append(line[1:].strip())
        elif columns is None:
            columns = line.split(",")
            k = len(columns)
        else:
            row = line.split(",")
            if len(row) != k:
                _raise_first_non_number(fields, numbers, k)
                raise ValueError(f"line {number}: {len(row)} fields, header has {k}")
            fields += row
            numbers.append(number)
    if columns is None:
        raise ValueError("table has no header row")
    try:
        data = np.array(fields, dtype=float)
    except ValueError:
        _raise_first_non_number(fields, numbers, k)
        raise
    return comments, columns, data.reshape(-1, k)


def _raise_first_non_number(fields, numbers, k) -> None:
    """Raise the error naming the line of the first field that ``float()`` rejects.

    ``fields`` holds k fields per row and ``numbers`` the line number of each row.
    """
    for row, number in enumerate(numbers):
        for field in fields[row * k : (row + 1) * k]:
            try:
                float(field)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None


def parse_number(key: str, text: str) -> float:
    """float(text), or a ValueError that names the key the value came from."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{key}: {text!r} is not a number") from None


def parse_whole_number(key: str, text: str) -> int:
    """The whole number ``text`` names, or a ValueError that names the key.

    Integer text is read exactly, whatever its size; any other text is read by
    :func:`parse_number` and must be a finite whole number, so ``1e4`` is 10000.
    """
    try:
        return int(text)
    except ValueError:
        pass
    value = parse_number(key, text)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)
