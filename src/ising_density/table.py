"""The one CSV format behind every table, and the one writer of every file.

A table is a block of ``# key = value`` metadata lines, one header line of
comma-separated column names and one line per row.  Cells are written with
``%s``, so floats come out in shortest round-trip form and reruns are
byte-identical.  Every output file, CSV or JSON, is written by
``write_text``, 4,096 rows at a time, so a write holds well under 1 MiB of
text at any file size.

Reading takes the metadata lines and the header with ``readline`` and hands
the rest of the file to one ``np.loadtxt``, whose C parser converts the
rows; no whole-file string is built.  The columns are a strided view of the
parsed rows, not a second copy of them.  Empty lines are skipped.  A row
that ``loadtxt`` refuses (a junk cell, ``1_0``-style digits, a
whitespace-only line or a ``#`` line after the header), a row width other
than the header's, undecodable bytes or a missing header is an
``InvalidArgs`` that names the file.

Two kinds of table are read back: eigenvalue spectra (header
``index,energy``) and density curves (header ``abscissa,density``).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from itertools import islice
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import InvalidArgs

SPECTRUM_HEADER = "index,energy"
CURVE_HEADER = "abscissa,density"
_WRITE_CHUNK = 4_096


class Table(NamedTuple):
    """A table read back: metadata strings, header line and float columns."""

    source: str
    metadata: dict[str, str]
    header: str
    columns: np.ndarray  # (columns, rows): a view of the parsed rows

    @property
    def kind(self) -> str | None:
        """``"spectrum"`` or ``"curve"`` by the header; None for any other."""
        return {SPECTRUM_HEADER: "spectrum", CURVE_HEADER: "curve"}.get(self.header)


@contextmanager
def open_text(path: str, mode: str) -> Iterator[IO[str]]:
    """Open a UTF-8 text file; I/O and decoding failures become InvalidArgs."""
    verb = "read" if mode == "r" else "write"
    try:
        with open(path, mode, encoding="utf-8") as handle:
            yield handle
    except (OSError, UnicodeError) as exc:
        raise InvalidArgs(f"cannot {verb} {path}: {exc}") from exc


def write_text(
    path: str, head: str, template: str = "", rows: Iterable[tuple] = (),
    separator: str = "", tail: str = "",
) -> None:
    """Write ``head``, ``template % row`` for each row joined by ``separator``,
    and ``tail``, formatting _WRITE_CHUNK rows a write so memory does not
    grow with the file."""
    rows = iter(rows)
    gap = ""
    with open_text(path, "w") as handle:
        handle.write(head)
        while chunk := [template % row for row in islice(rows, _WRITE_CHUNK)]:
            handle.write(gap)
            handle.write(separator.join(chunk))
            gap = separator
        handle.write(tail)


def write_table(path: str, metadata: dict, header: str, rows: Iterable[tuple]) -> None:
    """Write metadata lines, the header and one line per row tuple."""
    lines = [f"# {key} = {value}" for key, value in metadata.items()]
    template = ",".join(["%s"] * (header.count(",") + 1)) + "\n"
    write_text(path, "\n".join([*lines, header, ""]), template, rows)


def read_table(path: str) -> Table:
    """Read the table in the file at ``path``."""
    metadata: dict[str, str] = {}
    with open_text(path, "r") as handle:
        for line in iter(handle.readline, ""):
            header = line.strip()
            if not header:
                continue
            if not header.startswith("#"):
                break
            key, sep, value = header.lstrip("#").partition("=")
            if sep:
                metadata[key.strip()] = value.strip()
        else:
            raise InvalidArgs(f"{path} contains no table")
        width = header.count(",") + 1
        rule = (
            f"malformed CSV {path}: every row under the header {header!r} must "
            f"hold its {width} comma-separated numbers"
        )
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
        except UnicodeError:
            raise  # open_text names the file and the undecodable bytes
        except ValueError as exc:  # a junk cell, a blank line or a ragged row
            raise InvalidArgs(rule) from exc
    if len(rows) and rows.shape[1] != width:
        raise InvalidArgs(rule)
    return Table(path, metadata, header, rows.T.reshape(width, -1))
