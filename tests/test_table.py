"""The table reader: rows parsed by ``np.loadtxt`` against the line parser.

``read_table`` hands the rows to one streamed ``np.loadtxt`` and falls back
to the line-by-line parser ``_parse_lines`` for anything that parser has to
judge.  Whatever the text, both must agree on the metadata, the header and
the column bytes, or fail with the same error.
"""

from __future__ import annotations

import io
import json

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ising_density import table
from ising_density.cli import main
from ising_density.fermion import enumerate_spectrum

READER = settings(max_examples=300, deadline=None, derandomize=True, database=None)

NUMBERS = (
    "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+Inf", "Infinity", "-Infinity",
    "-0", "-0.0", "1e400", "-1e400", "4.9e-324", "2.5e-324", "1.", ".5", "1E-5",
    " 1.5 ", "\t2\t", "\x0c3", "\u30004",
)
JUNK = ("1_0", "0_5e1", "1__0", "_1", "0x10", "1e", "", "\u0661", "x", "peak", "1 2")
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
    st.sampled_from(NUMBERS),
)
cells = st.one_of(
    numbers,
    st.sampled_from(JUNK),
    st.text(st.sampled_from("0123456789.eE+-_ \tinfa#"), max_size=6),
)
blank_lines = st.sampled_from(["", "   ", "\t", "\x0c", " \u3000 "])
comment_lines = st.one_of(
    st.tuples(st.sampled_from(["#", "# ", "##"]), st.text("abn =", max_size=6))
    .map("".join),
    st.sampled_from(["# n = 4", "# model = tfim", "#norm=unit", "# lambda = x"]),
)
headers = st.sampled_from(["index,energy", "abscissa,density", "x", "a,b,c"])


def sometimes(draw) -> bool:
    return draw(st.integers(0, 3)) == 0


def rarely(draw) -> bool:
    return draw(st.integers(0, 7)) == 0


@st.composite
def table_texts(draw):
    """Metadata, a header and rows.  Each irregularity is drawn on its own,
    about one table in eight, so most tables are well formed and the loadtxt
    path reads them: blank or whitespace-only lines and ``#`` lines among
    the rows, non-numeric or underscore cells, a row width other than the
    header's, ragged rows and a missing header."""
    lines = draw(st.lists(st.one_of(comment_lines, blank_lines), max_size=4))
    header = draw(headers)
    if not rarely(draw):
        lines.append(header)
    blanks, comments, junk_cells, ragged = (rarely(draw) for _ in range(4))
    width = draw(st.integers(1, 4)) if rarely(draw) else header.count(",") + 1
    for _ in range(draw(st.integers(0, 12))):
        if blanks and sometimes(draw):
            lines.append(draw(blank_lines))
        elif comments and sometimes(draw):
            lines.append(draw(comment_lines))
        else:
            count = draw(st.integers(0, 4)) if ragged and sometimes(draw) else width
            row = st.lists(cells if junk_cells else numbers, min_size=count, max_size=count)
            lines.append(",".join(draw(row)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def outcome(read, handle):
    try:
        result = read(handle)
    except Exception as exc:  # the reference's error is the expected one
        return type(exc), str(exc)
    return result.metadata, result.header, result.columns.shape, result.columns.tobytes()


def lines_reader(handle):
    return table._parse_lines(getattr(handle, "name", "<stream>"), handle)


class _Pipe(io.BytesIO):
    """A byte stream that cannot seek, as from a pipe."""

    def seekable(self) -> bool:
        return False


def text_handles(text: str):
    """The same text as an in-memory string (no newline translation), as a
    decoded byte stream (universal newlines, as from a file) and as a
    decoded stream that cannot seek."""
    data = text.encode()
    yield lambda: io.StringIO(text)
    yield lambda: io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    yield lambda: io.TextIOWrapper(_Pipe(data), encoding="utf-8")


@READER
@given(table_texts())
def test_read_table_agrees_with_the_line_parser(text):
    for handle in text_handles(text):
        assert outcome(table.read_table, handle()) == outcome(lines_reader, handle())


@READER
@given(table_texts(), st.integers(0, 200))
def test_undecodable_bytes_fail_as_in_the_line_parser(text, position):
    data = text.encode()
    position = min(position, len(data))
    data = data[:position] + b"\xff" + data[position:]

    def handle():
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")

    assert outcome(table.read_table, handle()) == outcome(lines_reader, handle())


def test_non_seekable_stream_is_read_by_the_line_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("loadtxt was called on a stream that cannot seek")

    monkeypatch.setattr(table.np, "loadtxt", refuse)
    text = "# n = 3\nindex,energy\n0,-1.5\n1,1.5\n"
    result = table.read_table(io.TextIOWrapper(_Pipe(text.encode()), encoding="utf-8"))
    assert result.metadata == {"n": "3"}
    assert result.columns.tolist() == [[0.0, 1.0], [-1.5, 1.5]]


def test_fermion_spectrum_columns_are_bit_identical():
    spec = enumerate_spectrum(18, 0.9)
    buffer = io.StringIO()
    table.write_table(buffer, {"n": 18}, table.SPECTRUM_HEADER, enumerate(spec.energies.tolist()))
    streamed = table.read_table(io.StringIO(buffer.getvalue()))
    reference = lines_reader(io.StringIO(buffer.getvalue()))
    assert streamed.columns.tobytes() == reference.columns.tobytes()
    assert streamed.columns.tobytes() == np.array(
        [np.arange(2**18), spec.energies], dtype=float
    ).tobytes()


def test_header_only_spectrum_is_an_empty_spectrum(tmp_path):
    source = tmp_path / "empty.csv"
    source.write_text(
        "# model = tfim\n# n = 4\n# lambda = 1.0\n# alpha = 0.0\n"
        "# method = fermion\nindex,energy\n"
    )
    result = CliRunner().invoke(main, [
        "density", "--in", str(source), "--bins", "10",
        "--out", str(tmp_path / "out.csv"),
    ])
    assert result.exit_code == 1
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert json.loads(line) == {
        "code": "EmptySpectrum", "message": "cannot histogram an empty spectrum",
    }
