"""The CSV reading, writing and format error shared by the counts and
histogram files, and the largest Poisson mean their simulators can draw from.

Lines starting with '#' are comments.  The reader skips them but keeps them
in the line count, so an error names the line as a text editor shows it.
"""

from __future__ import annotations

import csv
import math

__all__ = ["POISSON_MAX", "FileFormatError", "format_number", "parse_float", "read_csv", "write_csv"]

#: The largest mean numpy's Poisson sampler accepts, 2^63 - 1 - 10 sqrt(2^63 - 1).
POISSON_MAX = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)


class FileFormatError(ValueError):
    """A CSV file violated its format; names the offending line and field."""

    def __init__(self, line: int, fieldname: str, message: str):
        super().__init__(f"line {line}, field {fieldname!r}: {message}")
        self.line = line
        self.fieldname = fieldname


def format_number(x: float) -> str:
    """An integral value without a decimal point, anything else as its repr."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def write_csv(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write '#'-prefixed comment lines, then the header and the rows."""
    with open(path, "w", newline="") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header: list[str]) -> list[tuple[int, dict[str, str]]]:
    """(file line number, fields by column name) of every data row; a row
    whose quoted field spans lines is numbered by its last line.

    Blank lines are skipped; the first other line must be exactly ``header``
    and one or more data rows, each with as many fields, must follow it.
    """
    with open(path, newline="") as fh:
        lines = [(n, ln) for n, ln in enumerate(fh, start=1) if not ln.lstrip().startswith("#")]
    reader = csv.reader(ln for _, ln in lines)
    try:
        rows = [(lines[reader.line_num - 1][0], fields) for fields in reader if fields]
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise FileFormatError(lines[reader.line_num - 1][0], "row", str(exc)) from None
    if not rows:
        raise FileFormatError(1, "header", "file is empty")
    header_line, fields = rows[0]
    if fields != header:
        raise FileFormatError(header_line, "header", f"expected columns {','.join(header)}")
    if len(rows) == 1:
        raise FileFormatError(header_line + 1, header[0], "no data rows")
    for n, fields in rows[1:]:
        if len(fields) != len(header):
            raise FileFormatError(n, "row", f"{len(fields)} fields where the header has {len(header)}")
    return [(n, dict(zip(header, fields))) for n, fields in rows[1:]]


def parse_float(row: dict[str, str], name: str, line: int) -> float:
    """The finite number in field ``name``; anything else is a FileFormatError."""
    raw = row[name]
    if raw == "":
        raise FileFormatError(line, name, "missing value")
    try:
        value = float(raw)
    except ValueError:
        raise FileFormatError(line, name, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise FileFormatError(line, name, f"not a finite number: {raw!r}")
    return value
