"""Property test of the CLI exit-code contract.

Whatever the arguments and input files, a command exits 0, exits 1 with
exactly one JSON line ``{"code": ..., "message": ...}`` on stderr, or exits
2 with a usage error; it never ends in an uncaught exception.  Inputs cover
every ``approx`` kind with non-finite and huge couplings (ring sizes up to
1100 for the two binomial mixtures); ``spectrum`` by either method and
``moments`` for both models on small rings; ``census`` on rings from -3 to
40 sites, with and without a rational ``--alpha``; and ``density`` /
``compare`` on malformed, missing or unreadable CSVs, each with writable and
unwritable ``--out`` paths.
"""

from __future__ import annotations

import json
import os
import warnings

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
outs = st.sampled_from(["out.csv", os.path.join("missing", "out.csv")])


def assert_contract(result) -> None:
    exc = result.exception
    assert exc is None or isinstance(exc, SystemExit), repr(exc)
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.stderr
    if result.exit_code == 1:
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        payload = json.loads(lines[0])
        assert set(payload) == {"code", "message"}


def invoke_quietly(args):
    """``invoke`` that also fails on a numpy ``RuntimeWarning``, which a
    process would print on stderr next to the JSON line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke(args)
    noise = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not noise, (args, noise)
    return result


def invoke(args, files=None):
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, content in (files or {}).items():
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
        return runner.invoke(main, args)


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
        lo, hi = draw(numbers), draw(numbers)
        points = draw(st.integers(-1, 30))
        args.append(f"--grid={lo}:{hi}:{points}")
    args += draw(st.sampled_from([[], ["--per-spin"], ["--rescaled"],
                                  ["--per-spin", "--rescaled"]]))
    return args + ["--out", draw(outs)]


def table(metadata, header, rows):
    lines = [f"# {key} = {value}" for key, value in metadata.items()]
    return "\n".join([*lines, header, *(",".join(r) for r in rows)]) + "\n"


cells = st.one_of(numbers, st.text(max_size=4))


@st.composite
def spectrum_files(draw):
    metadata = {
        "model": draw(st.sampled_from(["tfim", "two-field", "ising"])),
        "n": draw(st.sampled_from(["4", "-1", "x"])),
        "lambda": draw(numbers),
    }
    energies = draw(st.lists(numbers, max_size=12))
    rows = [(str(i), e) for i, e in enumerate(energies)]
    if draw(st.booleans()):
        rows.append(tuple(draw(st.lists(cells, max_size=3))))
    return table(metadata, "index,energy", rows)


@st.composite
def curve_files(draw):
    metadata = {"abscissa": draw(st.sampled_from(["E", "e", "eps", "x"]))}
    rows = draw(st.lists(st.tuples(numbers, numbers), max_size=8))
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
    assert_contract(invoke(args))


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
    assert_contract(invoke_quietly(args + ["--out", draw(outs)]))


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
    assert_contract(invoke_quietly(args + ["--out", draw(outs)]))


fractions = st.one_of(
    numbers, st.sampled_from(["9/10", "-2/3", "1/0", "p/q", ""])
)


@CONTRACT
@given(st.integers(-3, 40), st.one_of(st.none(), fractions), outs)
def test_census_contract(n, alpha, out):
    args = ["census", "--n", str(n), "--out", out]
    if alpha is not None:
        args += ["--alpha", alpha]
    assert_contract(invoke_quietly(args))


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
    assert_contract(invoke(args, {"in.csv": content}))


@CONTRACT
@given(inputs, inputs, st.sampled_from(["r.json", os.path.join("missing", "r.json")]))
def test_compare_contract(content_a, content_b, out):
    args = ["compare", "--a", "a.csv", "--b", "b.csv", "--out", out]
    assert_contract(invoke(args, {"a.csv": content_a, "b.csv": content_b}))
