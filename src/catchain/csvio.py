"""The one CSV format catchain writes and reads.

A table is a header line and one line per row, fields joined by commas and
every line ended by ``\\n``.  Fields are ``str`` of integers, ``repr`` of
floats (``str`` of a Python float is its ``repr``) and names, none of which
holds a comma, quote or line break, so no field is quoted: the text is what
``csv.writer`` with ``lineterminator="\\n"`` writes for the same rows.
"""

from __future__ import annotations

import csv


def lines(rows) -> str:
    """The rows of string fields as comma-joined lines, each ended by ``\\n``."""
    return "".join([",".join(row) + "\n" for row in rows])


def table(header, rows, dest=None) -> str:
    """``header`` and ``rows`` as CSV text, each field formatted by ``str``;
    the text is also written to the path ``dest`` when one is given."""
    text = lines([header, *([str(f) for f in row] for row in rows)])
    if dest is not None:
        with open(dest, "w", newline="") as fh:
            fh.write(text)
    return text


def read_rows(source) -> list[list[str]]:
    """Every row of the CSV at the path ``source``, or in the open text
    ``source``, as lists of string fields."""
    if hasattr(source, "read"):
        return list(csv.reader(source))
    with open(source, newline="") as fh:
        return list(csv.reader(fh))
