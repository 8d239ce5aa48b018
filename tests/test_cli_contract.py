"""Property test of the CLI exit-code contract.

Whatever the arguments and input files, a command exits 0 with nothing on
stderr, exits 1 with exactly one JSON line ``{"code": ..., "message": ...}``
on stderr, or exits 2 with a usage error; it never ends in an uncaught
exception or a warning.  Every JSON file it writes is strict JSON (no
``Infinity`` or ``NaN``), and every CSV it writes at exit 0 holds only
finite numbers.  Inputs cover every ``approx`` kind with non-finite and huge
couplings (ring sizes up to 1100 for the two binomial mixtures) and grid
ends at the edges of float range; ``spectrum`` by either method and
``moments`` for both models on small rings; ``census`` on rings from -3 to
40 sites, with and without a rational ``--alpha``; and ``density`` /
``compare`` on malformed, missing, unreadable or extreme-valued CSVs, each
with writable and unwritable ``--out`` paths.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ising_density.cli import main

CONTRACT = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = (
    "gaussian", "saddle", "tail",
    "multi-tfim", "multi-strong", "multi-int-alpha", "multi-generic",
)
SPECIAL = ("0", "1", "nan", "inf", "-inf", "1e20", "-1e100", "1e300")

numbers = st.one_of(
    st.floats(-3.0, 3.0).map(repr), st.sampled_from(SPECIAL)
)
# The edges of float range, for CSV cells and grid ends (not couplings).
extremes = st.one_of(numbers, st.sampled_from(["1e308", "-1e308", "1e-320", "5e-324"]))
outs = st.sampled_from(["out.csv", os.path.join("missing", "out.csv")])


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_contract(result, written) -> None:
    exc = result.exception
    assert exc is None or isinstance(exc, SystemExit), repr(exc)
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.stderr
    if result.exit_code == 0:
        assert result.stderr == ""
    if result.exit_code == 1:
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        payload = json.loads(lines[0])
        assert set(payload) == {"code", "message"}
    for name, text in written.items():
        if name.endswith(".json"):
            json.loads(text, parse_constant=_refuse_constant)
        elif result.exit_code == 0:
            rows = [line for line in text.splitlines() if not line.startswith("#")]
            cells = {c.lstrip("+-").lower() for row in rows[1:] for c in row.split(",")}
            assert not cells & {"inf", "nan"}, (name, text)


def invoke_quietly(args, files=None):
    """Run the CLI on ``files`` in a fresh directory, fail on any warning
    (a process would print it on stderr), and assert the contract on the
    result and on every file the command wrote."""
    files = files or {}
    runner = CliRunner()
    with runner.isolated_filesystem(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, content in files.items():
            if content is None:
                continue  # missing input
            if isinstance(content, bytes):
                with open(name, "wb") as handle:
                    handle.write(content)
            elif content == "<dir>":
                os.mkdir(name)
            else:
                with open(name, "w", encoding="utf-8") as handle:
                    handle.write(content)
        result = runner.invoke(main, args)
        written = {}
        for name in os.listdir("."):
            if name not in files and os.path.isfile(name):
                with open(name, encoding="utf-8") as handle:
                    written[name] = handle.read()
    noise = [f"{w.category.__name__}: {w.message}" for w in caught]
    assert not noise, (args, noise)
    assert_contract(result, written)
    return result


@st.composite
def approx_args(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind in ("multi-tfim", "multi-strong"):
        n = draw(st.one_of(st.integers(-1, 12), st.sampled_from([1024, 1100])))
    else:
        n = draw(st.integers(-1, 12))
    args = ["approx", "--kind", kind, "--n", str(n), "--lambda", draw(numbers)]
    if draw(st.booleans()):
        args += ["--alpha", draw(numbers)]
    model = draw(st.sampled_from([None, "tfim", "two-field"]))
    if model:
        args += ["--model", model]
    if draw(st.booleans()):
        lo, hi = draw(extremes), draw(extremes)
        points = draw(st.integers(-1, 30))
        args.append(f"--grid={lo}:{hi}:{points}")
    args += draw(st.sampled_from([[], ["--per-spin"], ["--rescaled"],
                                  ["--per-spin", "--rescaled"]]))
    return args + ["--out", draw(outs)]


def table(metadata, header, rows):
    lines = [f"# {key} = {value}" for key, value in metadata.items()]
    return "\n".join([*lines, header, *(",".join(r) for r in rows)]) + "\n"


cells = st.one_of(extremes, st.text(max_size=4))


@st.composite
def spectrum_files(draw):
    metadata = {
        "model": draw(st.sampled_from(["tfim", "two-field", "ising"])),
        "n": draw(st.sampled_from(["4", "-1", "x"])),
        "lambda": draw(numbers),
    }
    energies = draw(st.lists(extremes, max_size=12))
    rows = [(str(i), e) for i, e in enumerate(energies)]
    if draw(st.booleans()):
        rows.append(tuple(draw(st.lists(cells, max_size=3))))
    return table(metadata, "index,energy", rows)


@st.composite
def curve_files(draw):
    metadata = {"abscissa": draw(st.sampled_from(["E", "e", "eps", "x"]))}
    rows = draw(st.lists(st.tuples(extremes, extremes), max_size=8))
    if draw(st.booleans()):
        rows.append(tuple(draw(st.lists(cells, max_size=3))))
    return table(metadata, "abscissa,density", rows)


inputs = st.one_of(
    spectrum_files(),
    curve_files(),
    st.text(max_size=40),
    st.binary(max_size=12),
    st.sampled_from([None, "<dir>", "# n = 4\n", "index,energy\n"]),
)


@CONTRACT
@given(approx_args())
def test_approx_contract(args):
    invoke_quietly(args)


def model_args(draw, n):
    args = ["--model", draw(st.sampled_from(["tfim", "two-field"])),
            "--n", str(n), "--lambda", draw(numbers)]
    if draw(st.booleans()):
        args += ["--alpha", draw(numbers)]
    return args


@CONTRACT
@given(st.data())
def test_spectrum_contract(data):
    draw = data.draw
    args = ["spectrum", *model_args(draw, draw(st.integers(1, 8)))]
    args += ["--method", draw(st.sampled_from(["dense", "fermion"]))]
    invoke_quietly(args + ["--out", draw(outs)])


@CONTRACT
@given(st.data())
def test_moments_contract(data):
    # Rings of 13 to 24 sites take seconds or more to solve; from 25 on the
    # memory cap refuses them at once.
    draw = data.draw
    n = draw(st.one_of(st.integers(-3, 12), st.integers(25, 40)))
    args = ["moments", *model_args(draw, n)]
    if draw(st.booleans()):
        args += ["--max-order", str(draw(st.integers(0, 5)))]
    invoke_quietly(args + ["--out", draw(outs)])


fractions = st.one_of(
    numbers, st.sampled_from(["9/10", "-2/3", "1/0", "p/q", ""])
)


@CONTRACT
@given(st.integers(-3, 40), st.one_of(st.none(), fractions), outs)
def test_census_contract(n, alpha, out):
    args = ["census", "--n", str(n), "--out", out]
    if alpha is not None:
        args += ["--alpha", alpha]
    invoke_quietly(args)


@CONTRACT
@given(
    inputs,
    st.one_of(st.none(), st.integers(-1, 30)),
    st.one_of(st.none(), numbers),
    outs,
)
def test_density_contract(content, bins, kde, out):
    args = ["density", "--in", "in.csv", "--out", out]
    if bins is not None:
        args += ["--bins", str(bins)]
    if kde is not None:
        args += ["--kde", kde]
    invoke_quietly(args, {"in.csv": content})


@CONTRACT
@given(inputs, inputs, st.sampled_from(["r.json", os.path.join("missing", "r.json")]))
def test_compare_contract(content_a, content_b, out):
    args = ["compare", "--a", "a.csv", "--b", "b.csv", "--out", out]
    invoke_quietly(args, {"a.csv": content_a, "b.csv": content_b})


def spectrum_csv(*energies: str, n: int = 2) -> str:
    return table({"model": "tfim", "n": n, "lambda": "1.0"}, "index,energy",
                 [(str(i), e) for i, e in enumerate(energies)])


def curve_csv(*rows: tuple[str, str]) -> str:
    return table({"abscissa": "E"}, "abscissa,density", rows)


WIDE = spectrum_csv("-1e308", "-1", "1", "1e308")
TINY = spectrum_csv("0", "0", "0", "1e-320")
UNIT = curve_csv(("0", "1.0"), ("1", "1.0"))
APPROX_GAUSSIAN = ["approx", "--kind", "gaussian", "--n", "8", "--lambda", "0.5"]
HUGE_GRID = ["--n", "16", "--lambda", "0.3", "--grid=1e307:1.5e307:2", "--per-spin"]


@pytest.mark.parametrize("args, files, code, named", [
    # Non-finite grid ends, or a span beyond float range, are usage errors.
    (APPROX_GAUSSIAN + ["--grid=0.0:inf:2", "--out", "g.csv"], {}, 2, "finite"),
    (APPROX_GAUSSIAN + ["--grid=-1e308:1e308:3", "--out", "g.csv"], {}, 2, "finite"),
    # A grid that overflows once scaled to E.
    (["approx", "--kind", "multi-tfim", *HUGE_GRID, "--out", "m.csv"], {}, 1, "--grid"),
    (["approx", "--kind", "gaussian", *HUGE_GRID, "--out", "g.csv"], {}, 1, "--grid"),
    # Bins or kernels that cannot span, or resolve, the spectrum.
    (["density", "--in", "s.csv", "--bins", "4", "--out", "d.csv"], {"s.csv": WIDE},
     1, "[-1e+308, 1e+308]"),
    (["density", "--in", "s.csv", "--kde", "1", "--out", "d.csv"], {"s.csv": WIDE},
     1, "bandwidth 1.0"),
    (["density", "--in", "s.csv", "--bins", "400", "--out", "d.csv"], {"s.csv": TINY},
     1, "densities on ["),
    (["density", "--in", "s.csv", "--out", "d.csv"], {"s.csv": TINY},
     1, "densities on ["),
    (["density", "--in", "s.csv", "--kde", "1e308", "--out", "d.csv"],
     {"s.csv": spectrum_csv("-2", "-1", "1", "2", n=4)}, 1, "bandwidth 1e+308"),
    # Curve files whose nodes or densities break the curve rule.
    (["compare", "--a", "a.csv", "--b", "b.csv", "--out", "r.json"],
     {"a.csv": curve_csv(("inf", "0.0"), ("inf", "0.0")), "b.csv": UNIT}, 1, "a.csv"),
    (["compare", "--a", "a.csv", "--b", "b.csv", "--out", "r.json"],
     {"a.csv": curve_csv(("-inf", "1.0"), ("1", "1.0")), "b.csv": UNIT}, 1, "a.csv"),
    (["compare", "--a", "a.csv", "--b", "b.csv", "--out", "r.json"],
     {"a.csv": curve_csv(("0", "inf"), ("1", "1.0")), "b.csv": UNIT}, 1, "a.csv"),
], ids=[
    "grid-inf-end", "grid-span-overflow", "multi-tfim-scaled-overflow",
    "gaussian-scaled-overflow", "bins-wide", "kde-wide", "bins-tiny-400",
    "bins-tiny-default", "kde-huge-bandwidth", "compare-inf-abscissae",
    "compare-minus-inf-abscissa", "compare-inf-density",
])
def test_extreme_input_is_refused_in_one_line(args, files, code, named):
    result = invoke_quietly(args, files)
    assert result.exit_code == code, result.stderr
    if code == 1:
        error = json.loads(result.stderr)
        assert error["code"] == "InvalidArgs"
        assert named in error["message"]
    else:
        assert named in result.stderr


def test_cli_clamps_negative_cubic_corrected_density_quietly():
    args = ["approx", "--kind", "gaussian", "--n", "4", "--lambda", "0.5", "--alpha", "2",
            "--grid=-10:10:11", "--rescaled", "--out", "g.csv"]
    assert invoke_quietly(args).exit_code == 0
