"""Bounded memory in table I/O, the KDE binning and the mixture sidecar.

Each path holds a bounded temporary whatever the size of the file: writes
format a chunk of rows at a time, reads keep one copy of the parsed rows,
the KDE bins its levels in place and one bounded lattice range at a time,
and the sidecar is formatted from the component table.  The peaks are
tracemalloc's, above what was held before the call; the bytes and bits are
those of the one-shot forms they replace.  Every output file goes through
the one table writer.
"""

from __future__ import annotations

import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from ising_density import cli, curves, table
from ising_density.curves import (
    DensityCurve,
    compare,
    kernel_density,
    read_curve_csv,
    write_curve_csv,
)
from ising_density.errors import InvalidArgs
from ising_density.fermion import enumerate_spectrum
from ising_density.model import IsingParams, ManyBodySpectrum, exact_spectrum
from ising_density.peaks import GaussianMixture, generic_alpha_components

MIB = 2**20
N18_META = {"model": "tfim", "n": 18, "lambda": "0.9", "alpha": "0.0", "method": "fermion"}


@pytest.fixture(scope="module")
def spectrum18():
    return enumerate_spectrum(18, 0.9)


def traced_peak(call) -> float:
    """Peak traced bytes ``call()`` allocates above what is held before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def spectrum_rows(spectrum):
    return enumerate(map(float, spectrum.energies))


# ----------------------------------------------------------------------------
# memory peaks at the benchmark's N = 18 (2^18 levels)
# ----------------------------------------------------------------------------


def test_writing_two_to_the_eighteen_rows_holds_under_one_mib(tmp_path, spectrum18):
    path = str(tmp_path / "s.csv")
    rows = spectrum_rows(spectrum18)
    peak = traced_peak(lambda: table.write_table(path, N18_META, table.SPECTRUM_HEADER, rows))
    assert peak <= 1.0 * MIB


def test_reading_a_spectrum_holds_one_copy_of_the_rows(tmp_path, spectrum18):
    path = str(tmp_path / "s.csv")
    table.write_table(path, N18_META, table.SPECTRUM_HEADER, spectrum_rows(spectrum18))
    peak = traced_peak(lambda: cli._spectrum_from_table(table.read_table(path)))
    assert peak <= 6.5 * MIB


def test_kernel_density_bins_in_bounded_memory(spectrum18):
    assert traced_peak(lambda: kernel_density(spectrum18, 0.4)) <= 6.5 * MIB


def test_kde_of_unsorted_levels_bins_one_bounded_range_at_a_time(monkeypatch):
    # At h = 1e-3 each pass of unsorted levels spans the whole 48.6 MiB
    # lattice; one KDE_SPAN range of sums is 8 MiB.
    energies = np.random.default_rng(30).normal(0.0, 9.0, 200_001)
    spectrum = ManyBodySpectrum(energies, "dense", IsingParams.tfim(18, 0.9))
    window_lattice = curves._window_lattice
    above = []

    def traced(*args):
        lattice = []
        peak = traced_peak(lambda: lattice.extend(window_lattice(*args)))
        above.append(peak - lattice[0].nbytes)
        return tuple(lattice)

    monkeypatch.setattr(curves, "_window_lattice", traced)
    kernel_density(spectrum, 1e-3)
    assert above[0] <= 12 * MIB


def test_sidecar_of_forty_thousand_components_holds_under_two_and_a_half_mib(tmp_path):
    mixture = generic_alpha_components(400, 0.15, 0.5)
    assert len(mixture.components) == 40_002
    path = str(tmp_path / "m.mixture.json")
    peak = traced_peak(lambda: cli._write_mixture_json(path, {"n": 400}, mixture))
    assert peak <= 2.5 * MIB


# ----------------------------------------------------------------------------
# the same bytes at the chunk edges
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 8193])
def test_write_table_at_the_chunk_edges_matches_one_string(tmp_path, count):
    rows = [(i, math.sin(i) * 1e3 ** (i % 5)) for i in range(count)]
    path = tmp_path / "t.csv"
    table.write_table(str(path), {"n": count}, "index,energy", rows)
    lines = [f"# n = {count}", "index,energy", *(f"{i},{x!r}" for i, x in rows)]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def one_shot_sidecar(params: dict, mixture: GaussianMixture) -> str:
    rows = mixture.components.tolist()
    components = [dict(zip(("w", "mu", "var"), row)) for row in rows]
    return json.dumps({"params": params, "components": components}, indent=2) + "\n"


def spread_mixture(count: int, spikes: bool = False) -> GaussianMixture:
    i = np.arange(count)
    var = np.where(i % 3 == 0, 0.0, 0.1 + i) if spikes else 0.1 + i
    return GaussianMixture(np.column_stack((np.full(count, 1.0 / count), np.cos(i) * i, var)))


@pytest.mark.parametrize("mixture", [
    GaussianMixture([(1.0, 0.0, 0.0)]),
    GaussianMixture([(1.0, -2.5, 0.75)]),
    spread_mixture(4095),
    spread_mixture(4096),
    spread_mixture(4097, spikes=True),
    spread_mixture(8193, spikes=True),
    GaussianMixture([(0.5, 5e-324, 1e308), (0.25, -0.0, 0.0), (0.25, 1e308, 5e-324)]),
], ids=["spike", "one", "4095", "4096", "4097-spikes", "8193-spikes", "extremes"])
def test_sidecar_is_the_json_of_its_payload(tmp_path, mixture):
    params = {"model": "two-field", "n": 12, "lambda": "0.1", "alpha": "0.5",
              "kind": "multi-generic"}
    path = tmp_path / "m.mixture.json"
    cli._write_mixture_json(str(path), params, mixture)
    assert path.read_text(encoding="utf-8") == one_shot_sidecar(params, mixture)


@pytest.mark.parametrize("kind", ["spectrum", "curve"])
def test_compare_report_is_the_json_of_its_payload(tmp_path, kind):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    if kind == "spectrum":
        meta = {"model": "tfim", "n": 6, "lambda": "0.7", "alpha": "0.0", "method": "dense"}
        spectra = [exact_spectrum(IsingParams.tfim(6, 0.7)), enumerate_spectrum(6, 0.7)]
        for path, spectrum in zip((a, b), spectra):
            table.write_table(path, meta, table.SPECTRUM_HEADER, spectrum_rows(spectrum))
        diff = np.abs(np.sort(spectra[0].energies) - np.sort(spectra[1].energies))
        payload = {"l1": float(np.mean(diff)), "sup": float(np.max(diff)),
                   "peak_positions": [], "grids_aligned": True}
    else:
        grid = np.linspace(-3.0, 3.0, 301)
        curve_a = DensityCurve(grid, np.exp(-grid**2) / math.sqrt(math.pi))
        curve_b = DensityCurve(grid + 0.1, np.exp(-grid**2) / math.sqrt(math.pi))
        write_curve_csv(curve_a, a)
        write_curve_csv(curve_b, b)
        payload = compare(read_curve_csv(a)[0], read_curve_csv(b)[0]).to_json_dict()
        assert payload["peak_positions"] and not payload["grids_aligned"]
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli.main, ["compare", "--a", a, "--b", b, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"


PACKAGE = Path(cli.__file__).parent


def test_only_table_opens_files():
    openers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "table.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                if name in ("open", "open_text"):
                    openers.append(f"{path.name}:{node.lineno}")
    assert openers == []


def test_cli_imports_no_private_table_name():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("table")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def reference_window_lattice(energies, lo, step, refine, half):
    """The linear binning as first written: fresh arrays at every step."""
    stride = min(refine, 2 * half + 1)
    lattice = np.zeros((curves.KDE_POINTS - 1) * stride + 2 * half + 1)
    for start in range(0, len(energies), curves.KDE_CHUNK):
        position = (energies[start : start + curves.KDE_CHUNK] - lo) / step
        position = np.clip(position, 0.0, refine * (curves.KDE_POINTS - 1))
        below = np.floor(position)
        upper = position - below
        j, o = np.divmod(np.concatenate([below, below + 1]).astype(np.int64), refine)
        near_left = o <= half
        keep = near_left | (o >= refine - half)
        kept = np.where(near_left, j * stride + o, (j + 1) * stride + o - refine)[keep]
        if len(kept):
            base = kept.min()
            weight = np.concatenate([1.0 - upper, upper])[keep]
            counts = np.bincount(kept - base, weights=weight)
            lattice[base + half : base + half + len(counts)] += counts
    return lattice, stride


@pytest.mark.parametrize("levels", [1, 65_536, 65_537, 2**18])
@pytest.mark.parametrize("bandwidth", [1e-3, 0.4, 30.0])
def test_kernel_density_in_place_is_bit_identical(monkeypatch, spectrum18, levels, bandwidth):
    if levels == 2**18:
        spectrum = spectrum18
    else:
        energies = np.random.default_rng(levels).normal(0.0, 9.0, levels)
        spectrum = ManyBodySpectrum(energies, "dense", IsingParams.tfim(18, 0.9))
    values = kernel_density(spectrum, bandwidth).values
    monkeypatch.setattr(curves, "_window_lattice", reference_window_lattice)
    assert np.array_equal(values, kernel_density(spectrum, bandwidth).values)


# ----------------------------------------------------------------------------
# contiguous arrays, and no table buffer kept alive
# ----------------------------------------------------------------------------


def test_arrays_built_from_table_columns_are_contiguous(tmp_path, spectrum18):
    path = str(tmp_path / "s.csv")
    table.write_table(path, N18_META, table.SPECTRUM_HEADER, spectrum_rows(spectrum18))
    columns = table.read_table(path).columns
    assert not columns[1].flags.c_contiguous  # a strided view of the parsed rows
    spectrum = ManyBodySpectrum(columns[1], "fermion", IsingParams.tfim(18, 0.9))
    assert spectrum.energies.flags.c_contiguous
    assert np.array_equal(spectrum.energies, spectrum18.energies)
    grid, values = np.column_stack((np.linspace(-1.0, 1.0, 101), np.full(101, 0.5))).T
    assert not grid.flags.c_contiguous
    curve = DensityCurve(grid, values)
    assert curve.grid.flags.c_contiguous and curve.values.flags.c_contiguous


def test_a_spectrum_read_by_the_cli_keeps_no_table_buffer(tmp_path, spectrum18):
    path = str(tmp_path / "s.csv")
    table.write_table(path, N18_META, table.SPECTRUM_HEADER, spectrum_rows(spectrum18))
    energies = cli._spectrum_from_table(table.read_table(path)).energies
    assert energies.base is None
    assert energies.nbytes == 8 * 2**18


@pytest.mark.parametrize("energies", [np.float64(1.0), 2.0, np.zeros((2, 2))])
def test_energies_that_are_not_one_dimensional_are_refused(energies):
    with pytest.raises(InvalidArgs, match="one-dimensional"):
        ManyBodySpectrum(energies, "dense", IsingParams.tfim(4, 1.0))
