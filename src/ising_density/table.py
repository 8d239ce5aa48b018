"""The one CSV format behind every table the package writes or reads.

A table is a block of ``# key = value`` metadata lines, one header line of
comma-separated column names and one line per row.  Cells are written with
``%s``, so floats come out in shortest round-trip form and reruns are
byte-identical.  Writing formats and writes 65,536 rows at a time.

Reading takes the metadata lines and the header with ``readline`` and hands
the rest of the open handle to one ``np.loadtxt``, whose C parser converts
the rows; no whole-file string is built.  It accepts a subset of what the
line-by-line parser ``_parse_lines`` accepts, with the same doubles, since
both round correctly.  When it refuses the rows (a malformed row, a
whitespace-only line, a ``#`` line after the header, ``1_0``-style digits,
undecodable bytes) or finds a column count other than the header's, the
handle is rewound to where the table began and ``_parse_lines`` reads it
all again, so its rules and its ``InvalidArgs`` messages hold unchanged,
down to the byte offset a decoding error names.  Handles that cannot seek
go to ``_parse_lines`` directly.

Two kinds of table are read back: eigenvalue spectra (header
``index,energy``) and density curves (header ``abscissa,density``).
"""

from __future__ import annotations

import warnings
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


def _parse(name: str, handle: IO[str]) -> Table:
    if handle.seekable():
        start = handle.tell()
        try:
            table = _parse_streamed(name, handle)
        except ValueError:  # a row loadtxt refuses, or bytes that do not decode
            table = None
        if table is not None:
            return table
        handle.seek(start)
    return _parse_lines(name, handle)


def _comment(stripped: str, metadata: dict[str, str]) -> bool:
    """Say whether a stripped line is a comment; keep it if ``# key = value``."""
    if not stripped.startswith("#"):
        return False
    key, sep, value = stripped.lstrip("#").partition("=")
    if sep:
        metadata[key.strip()] = value.strip()
    return True


def _parse_streamed(name: str, handle: IO[str]) -> Table | None:
    """Parse the rows in C, or return None where the line parser must decide."""
    metadata: dict[str, str] = {}
    for line in iter(handle.readline, ""):
        header = line.strip()
        if header and not _comment(header, metadata):
            break
    else:
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2, dtype=float)
    if rows.shape[1] != header.count(",") + 1:
        return None
    return Table(name, metadata, header, rows.T.copy())


def _parse_lines(name: str, lines: Iterable[str]) -> Table:
    metadata: dict[str, str] = {}
    header = None
    width = 0
    values = array("d")
    for line in lines:
        stripped = line.strip()
        if not stripped or _comment(stripped, metadata):
            continue
        if header is None:
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
