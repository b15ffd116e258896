"""The one text table format of every CSV the package writes or reads.

A table is ``# `` comment lines, a header row of column names, then
comma-separated rows of numbers with 17 significant digits, so reading a
table back gives bit-identical floats.
"""

from __future__ import annotations

import csv

__all__ = ["write_table", "read_table"]


def write_table(stream, comments, columns, rows) -> None:
    """Write ``comments`` as ``# `` lines, the header ``columns``, then numeric ``rows``."""
    stream.writelines(f"# {line}\n" for line in comments)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([f"{v:.17g}" for v in row] for row in rows)


def read_table(stream) -> tuple[list[str], list[str], list[tuple[float, ...]]]:
    """(comments, columns, rows of floats) of a table; inverse of :func:`write_table`.

    Blank lines are skipped.  A row whose field count differs from the
    header's, or a field that is not a number, raises ``ValueError`` naming
    its line.
    """
    comments, columns, rows = [], None, []
    reader = csv.reader(stream)
    for fields in filter(None, reader):
        if fields[0].startswith("#"):
            comments.append(",".join(fields)[1:].strip())
        elif columns is None:
            columns = fields
        else:
            try:
                if len(fields) != len(columns):
                    raise ValueError(f"{len(fields)} fields, header has {len(columns)}")
                rows.append(tuple(map(float, fields)))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
    if columns is None:
        raise ValueError("table has no header row")
    return comments, columns, rows
