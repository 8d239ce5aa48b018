"""The table reader: metadata and header by line, the rows by ``np.loadtxt``.

Well-formed tables read back as ``float(cell)`` for every cell, bit for
bit; every malformed table is one ``InvalidArgs`` that names the file.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ising_density import table
from ising_density.cli import main
from ising_density.errors import InvalidArgs
from ising_density.fermion import enumerate_spectrum

# Each example overwrites the one file it reads, so tmp_path may be shared.
READER = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

NUMBERS = (
    "nan", "NaN", "-nan", "+nan", "inf", "-inf", "+Inf", "Infinity", "-Infinity",
    "-0", "-0.0", "0", "1e400", "-1e400", "4.9e-324", "2.5e-324", "-2.2e-310",
    "1.", ".5", "1E-5", " 1.5 ", "\t2\t", "\x0c3", "　4",
)
# Cells that np.loadtxt refuses, including two that float() accepts.
JUNK = ("1_0", "١", "0x10", "1e", "x", "peak", "1 2", "--1", "#")
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
    st.sampled_from(NUMBERS),
)
comment_lines = st.one_of(
    st.tuples(st.sampled_from(["#", "# ", "##"]), st.text("abn =", max_size=6))
    .map("".join),
    st.sampled_from(["# n = 4", "# model = tfim", "#norm=unit", "# lambda = x"]),
)
headers = st.sampled_from(["index,energy", "abscissa,density", "x", "a,b,c"])
endings = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def well_formed(draw):
    """Metadata, comment and empty lines, a header and rows of numbers, as
    lists of lines."""
    head = draw(st.lists(st.one_of(comment_lines, st.sampled_from(["", "  "])),
                         max_size=4))
    header = draw(headers)
    width = header.count(",") + 1
    cells = st.lists(numbers, min_size=width, max_size=width)
    rows = draw(st.lists(cells, max_size=12))
    return head, header, rows


def write(tmp_path, lines, ending, final=True):
    path = tmp_path / "t.csv"
    path.write_bytes((ending.join(lines) + (ending if final else "")).encode())
    return str(path)


@READER
@given(well_formed(), endings, st.booleans())
def test_well_formed_tables_read_back_every_cell(tmp_path, table_lines, ending, final):
    head, header, rows = table_lines
    lines = [*head, header, *(",".join(row) for row in rows)]
    result = table.read_table(write(tmp_path, lines, ending, final))
    metadata = {}
    for line in head:
        key, sep, value = line.strip().lstrip("#").partition("=")
        if sep:
            metadata[key.strip()] = value.strip()
    assert result.metadata == metadata
    assert result.header == header
    expected = np.array([[float(cell) for cell in row] for row in rows], dtype=float)
    assert result.columns.shape == (header.count(",") + 1, len(rows))
    assert result.columns.tobytes() == expected.T.tobytes()


@st.composite
def malformed(draw):
    """A well-formed table with one defect: a ragged row, a junk cell, a
    whitespace-only or ``#`` line among the rows, or no header."""
    head, header, rows = draw(well_formed())
    width = header.count(",") + 1
    lines = [",".join(row) for row in rows]
    defect = draw(st.sampled_from(["ragged", "junk", "blank", "comment", "headless"]))
    if defect == "headless":
        return [*head, *draw(st.lists(comment_lines, max_size=2))]
    if defect == "ragged":
        count = draw(st.integers(1, 5).filter(lambda c: c != width))
        bad = ",".join(draw(st.lists(numbers, min_size=count, max_size=count)))
    elif defect == "junk":
        row = draw(st.lists(numbers, min_size=width, max_size=width))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(JUNK))
        bad = ",".join(row)
    elif defect == "blank":
        bad = draw(st.sampled_from([" ", "  ", "\t", "\x0c", " 　 "]))
    else:
        bad = draw(comment_lines)
    lines.insert(draw(st.integers(0, len(lines))), bad)
    return [*head, header, *lines]


@READER
@given(malformed(), endings, st.booleans())
def test_malformed_tables_are_refused_naming_the_file(tmp_path, lines, ending, final):
    path = write(tmp_path, lines, ending, final)
    with pytest.raises(InvalidArgs, match="t.csv"):
        table.read_table(path)


@READER
@given(well_formed(), endings, st.integers(0, 400))
def test_undecodable_bytes_are_refused_naming_the_file(tmp_path, table_lines, ending,
                                                       position):
    head, header, rows = table_lines
    lines = [*head, header, *(",".join(row) for row in rows)]
    data = (ending.join(lines) + ending).encode()
    position = min(position, len(data))
    path = tmp_path / "t.csv"
    path.write_bytes(data[:position] + b"\xff" + data[position:])
    with pytest.raises(InvalidArgs, match="t.csv"):
        table.read_table(str(path))


def test_fermion_spectrum_columns_are_bit_identical(tmp_path):
    spec = enumerate_spectrum(18, 0.9)
    path = str(tmp_path / "s.csv")
    table.write_table(path, {"n": 18}, table.SPECTRUM_HEADER, enumerate(spec.energies.tolist()))
    assert table.read_table(path).columns.tobytes() == np.array(
        [np.arange(2**18), spec.energies], dtype=float
    ).tobytes()


SPECTRUM_HEAD = (
    "# model = tfim\n# n = 4\n# lambda = 1.0\n# alpha = 0.0\n"
    "# method = fermion\nindex,energy\n"
)


def test_header_only_spectrum_is_an_empty_spectrum(tmp_path):
    source = tmp_path / "empty.csv"
    source.write_text(SPECTRUM_HEAD)
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


@pytest.mark.parametrize("command", ["density", "compare"])
def test_whitespace_only_row_line_exits_1_naming_the_file(tmp_path, command):
    source = tmp_path / "spaced.csv"
    source.write_text(SPECTRUM_HEAD + "0,-2.0\n1,-1.0\n   \n2,1.0\n3,2.0\n")
    if command == "density":
        args = ["density", "--in", str(source)]
    else:
        args = ["compare", "--a", str(source), "--b", str(source)]
    result = CliRunner().invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    error = json.loads(line)
    assert error["code"] == "InvalidArgs"
    assert str(source) in error["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", ["   ", "4"], ids=["whitespace-line", "one-cell-row"])
def test_row_of_the_wrong_width_states_the_row_rule(tmp_path, bad):
    # The message is the package's own: numpy's pointed to a `usecols`
    # argument the CLI does not have and counted rows from the header.
    source = tmp_path / "w.csv"
    source.write_text(SPECTRUM_HEAD + f"0,-2.0\n1,-1.0\n{bad}\n3,2.0\n")
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(main, ["density", "--in", str(source), "--out", str(out)])
    assert result.exit_code == 1
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    assert json.loads(line) == {
        "code": "InvalidArgs",
        "message": f"malformed CSV {source}: every row under the header "
        "'index,energy' must hold its 2 comma-separated numbers",
    }
    assert not out.exists()
