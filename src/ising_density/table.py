"""The one CSV format behind every table the package writes or reads.

A table is a block of ``# key = value`` metadata lines, one header line of
comma-separated column names and one line per row.  Cells are written with
``%s``, so floats come out in shortest round-trip form and reruns are
byte-identical.  Writing formats and writes 65,536 rows at a time, and
reading streams the file and keeps each row only as floats.

Two kinds of table are read back: eigenvalue spectra (header
``index,energy``) and density curves (header ``abscissa,density``).
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from itertools import islice
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidArgs

SPECTRUM_HEADER = "index,energy"
CURVE_HEADER = "abscissa,density"
_WRITE_CHUNK = 65_536


class Table(NamedTuple):
    """A table read back: metadata strings, header line and float columns."""

    source: str
    metadata: dict[str, str]
    header: str
    columns: np.ndarray  # shape (number of columns, number of rows)

    @property
    def kind(self) -> str:
        return _kind(self.header)


def _kind(header: str | None) -> str:
    return "spectrum" if header == SPECTRUM_HEADER else "curve"


@contextmanager
def open_text(path: str, mode: str) -> Iterator[IO[str]]:
    """Open a UTF-8 text file; I/O and decoding failures become InvalidArgs."""
    verb = "read" if mode == "r" else "write"
    try:
        with open(path, mode, encoding="utf-8") as handle:
            yield handle
    except (OSError, UnicodeError) as exc:
        raise InvalidArgs(f"cannot {verb} {path}: {exc}") from exc


def write_table(
    destination: str | IO[str],
    metadata: dict,
    header: str,
    rows: Iterable[tuple],
) -> None:
    """Write metadata lines, the header and one line per row tuple.

    Rows are formatted and written _WRITE_CHUNK at a time, so memory does
    not grow with the table.
    """
    if isinstance(destination, str):
        with open_text(destination, "w") as handle:
            return write_table(handle, metadata, header, rows)
    template = ",".join(["%s"] * (header.count(",") + 1))
    lines = [f"# {key} = {value}" for key, value in metadata.items()]
    lines.append(header)
    destination.write("\n".join(lines) + "\n")
    rows = iter(rows)
    while chunk := [template % row for row in islice(rows, _WRITE_CHUNK)]:
        chunk.append("")
        destination.write("\n".join(chunk))


def read_table(source: str | IO[str]) -> Table:
    """Read a table from a path or an open text handle."""
    if isinstance(source, str):
        with open_text(source, "r") as handle:
            return _parse(source, handle)
    return _parse(getattr(source, "name", "<stream>"), source)


def _parse(name: str, lines: Iterable[str]) -> Table:
    metadata: dict[str, str] = {}
    header = None
    width = 0
    values = array("d")
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            key, sep, value = stripped.lstrip("#").partition("=")
            if sep:
                metadata[key.strip()] = value.strip()
        elif header is None:
            header = stripped
            width = header.count(",") + 1
        else:
            fields = stripped.split(",")
            try:
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {stripped!r}")
                values.extend(map(float, fields))
            except ValueError as exc:
                raise InvalidArgs(
                    f"malformed {_kind(header)} CSV {name}: {exc}"
                ) from exc
    if header is None:
        raise InvalidArgs(f"{name} contains no table")
    columns = np.frombuffer(values).reshape(-1, width).T.copy()
    return Table(name, metadata, header, columns)
