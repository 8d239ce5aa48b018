"""Tests for empirical density curves and curve comparison."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from ising_density import table
from ising_density.curves import (
    PEAK_PROMINENCE_FRACTION,
    ComparisonReport,
    DensityCurve,
    compare,
    curve_peaks,
    histogram,
    kernel_density,
    read_curve_csv,
    write_curve_csv,
)
from ising_density.errors import DisjointSupports, EmptySpectrum, InvalidArgs
from ising_density.fermion import enumerate_spectrum
from ising_density.model import IsingParams, ManyBodySpectrum, exact_spectrum

# kernel_density's documented bound, in units of the kernel peak K(0):
# linear binning (1e-6) plus the kernel beyond the +-9h window.
KDE_BOUND = 1e-6 + math.exp(-81.0 / 2.0)


def make_spectrum(values: list[float], N: int = 2) -> ManyBodySpectrum:
    return ManyBodySpectrum(
        np.asarray(values, dtype=float), "dense", IsingParams.tfim(N, 1.0)
    )


def test_histogram_default_range_is_padded_and_unit_trapezoid() -> None:
    spec = exact_spectrum(IsingParams.tfim(8, 1.0))
    curve = histogram(spec, bins=50)
    assert len(curve.grid) == 52
    assert curve.values[0] == 0.0 and curve.values[-1] == 0.0
    assert curve.integral() == pytest.approx(1.0, abs=1e-12)
    assert curve.grid[1] > spec.energies.min() > curve.grid[0]
    assert curve.grid[-2] < spec.energies.max() < curve.grid[-1]


def test_histogram_default_bin_count() -> None:
    spec = exact_spectrum(IsingParams.tfim(8, 0.7))
    curve = histogram(spec)
    # ceil(sqrt(256)) = 16 interior bins plus two pads.
    assert len(curve.grid) == 18


def test_histogram_symmetric_for_tfim() -> None:
    spec = exact_spectrum(IsingParams.tfim(10, 1.0))
    # Odd bin count keeps the (degenerate) E = 0 level at a bin center
    # rather than on a half-open bin edge.
    curve = histogram(spec, bins=101)
    width = curve.grid[1] - curve.grid[0]
    tolerance = 2.0 / (len(spec.energies) * width)
    np.testing.assert_allclose(curve.values, curve.values[::-1], atol=tolerance)


def test_histogram_degenerate_spectrum() -> None:
    spec = make_spectrum([1.5, 1.5, 1.5])
    curve = histogram(spec, bins=4)
    assert curve.integral() == pytest.approx(1.0, abs=1e-12)
    assert curve.grid[np.argmax(curve.values)] == pytest.approx(1.5)


def test_histogram_validation() -> None:
    with pytest.raises(EmptySpectrum):
        histogram(make_spectrum([]))
    with pytest.raises(InvalidArgs):
        histogram(make_spectrum([0.0, 1.0]), bins=1)


def test_kernel_density_single_eigenvalue() -> None:
    spec = make_spectrum([0.0])
    sigma = 0.5
    curve = kernel_density(spec, bandwidth=sigma)
    expected = np.exp(-curve.grid**2 / (2 * sigma**2)) / (
        sigma * math.sqrt(2 * math.pi)
    )
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)
    assert curve.integral() == pytest.approx(1.0, abs=1e-9)


def test_kernel_density_unit_integral() -> None:
    spec = exact_spectrum(IsingParams.tfim(8, 0.5))
    curve = kernel_density(spec, bandwidth=0.1)
    assert curve.integral() == pytest.approx(1.0, abs=1e-9)


def pairwise_kde(energies: np.ndarray, bandwidth: float, grid: np.ndarray) -> np.ndarray:
    """The exact sum over every (level, grid point) pair."""
    total = np.zeros_like(grid)
    for start in range(0, len(energies), 512):
        z = (grid[:, None] - energies[None, start : start + 512]) / bandwidth
        total += np.exp(-0.5 * z * z).sum(axis=1)
    return total / (len(energies) * bandwidth * math.sqrt(2.0 * math.pi))


def assert_within_kde_bound(curve: DensityCurve, spec: ManyBodySpectrum, h: float) -> None:
    exact = pairwise_kde(spec.energies, h, curve.grid)
    peak = 1.0 / (h * math.sqrt(2.0 * math.pi))
    assert np.max(np.abs(curve.values - exact)) <= KDE_BOUND * peak


@pytest.mark.parametrize("N, lam", [(12, 0.6), (16, 1.3)])
@pytest.mark.parametrize("h", [0.05, 0.4, 3.0])
def test_kernel_density_fermion_spectrum_within_bound(N: int, lam: float, h: float) -> None:
    spec = enumerate_spectrum(N, lam)
    curve = kernel_density(spec, bandwidth=h)
    assert_within_kde_bound(curve, spec, h)
    assert curve.integral() == pytest.approx(1.0, abs=1e-9)


def test_kernel_density_bandwidth_narrower_than_grid() -> None:
    energies = np.sort(np.random.default_rng(5).uniform(-10.0, 10.0, 10**4))
    spec = make_spectrum(list(energies))
    # The grid spans max - min + 16h with 1000 steps: each step is 50h.
    h = float(energies[-1] - energies[0]) / (50 * 1000 - 16)
    curve = kernel_density(spec, bandwidth=h)
    assert curve.grid[1] - curve.grid[0] == pytest.approx(50 * h, rel=1e-9)
    assert_within_kde_bound(curve, spec, h)
    # With the grid 50 bandwidths apart, the trapezoid rule samples each
    # kernel at about one node, so the integral is 1 only on average over the
    # levels: its spread is about 3.7 / sqrt(levels) = 0.04 here.
    assert curve.integral() == pytest.approx(1.0, abs=0.15)


def test_kernel_density_huge_bandwidth() -> None:
    spec = make_spectrum([-1.0, 0.5, 2.0])
    curve = kernel_density(spec, bandwidth=1e300)
    assert_within_kde_bound(curve, spec, 1e300)
    assert curve.integral() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("h", [5e-324, 1e-310, math.inf, math.nan])
def test_kernel_density_rejects_unrepresentable_bandwidth(h: float) -> None:
    with pytest.raises(InvalidArgs):
        kernel_density(make_spectrum([0.0, 1.0]), bandwidth=h)


def test_kernel_density_validation() -> None:
    with pytest.raises(InvalidArgs):
        kernel_density(make_spectrum([0.0]), bandwidth=0.0)
    with pytest.raises(EmptySpectrum):
        kernel_density(make_spectrum([]), bandwidth=0.1)


def test_density_curve_validation() -> None:
    with pytest.raises(InvalidArgs):
        DensityCurve(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(InvalidArgs):
        DensityCurve(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
    with pytest.raises(InvalidArgs):
        DensityCurve(np.array([0.0, 1.0]), np.array([1.0, 1.0]), abscissa="bogus")
    for grid, values in [
        ([0.0, math.inf], [1.0, 1.0]),
        ([-math.inf, 0.0], [1.0, 1.0]),
        ([0.0, math.nan, 1.0], [1.0, 1.0, 1.0]),
        ([0.0, 1.0], [math.inf, 1.0]),
        ([0.0, 1.0], [1.0, math.nan]),
    ]:
        with pytest.raises(InvalidArgs, match="must be finite"):
            DensityCurve(np.array(grid), np.array(values))


@pytest.mark.parametrize("energies, bins", [
    ([-1e308, -1.0, 1.0, 1e308], 4),  # the span overflows
    ([0.0, 0.0, 0.0, 1e-320], 400),  # the densities overflow
    ([0.0, 5e-324], 4),  # the bin edges collide
])
def test_histogram_refuses_spans_at_the_edges_of_float_range(energies, bins) -> None:
    with pytest.raises(InvalidArgs):  # and, as every test, without a warning
        histogram(make_spectrum(energies), bins=bins)


def test_comparison_report_refuses_a_distance_beyond_float_range() -> None:
    with pytest.raises(InvalidArgs, match="beyond float range"):
        ComparisonReport(l1=math.inf, sup=0.0, peak_positions=[], grids_aligned=True)
    with pytest.raises(InvalidArgs, match="beyond float range"):
        ComparisonReport(0.0, 0.0, [(-1e308, 1e308, math.inf)], False)


def test_density_curve_abscissa_conversion() -> None:
    params = IsingParams.two_field(4, 1.0, 1.0)
    grid = np.linspace(-8.0, 8.0, 401)
    values = np.exp(-(grid**2) / 8.0) / math.sqrt(8.0 * math.pi)
    curve = DensityCurve(grid, values, abscissa="E")
    per_spin = curve.with_abscissa("e", params)
    assert per_spin.abscissa == "e"
    np.testing.assert_allclose(per_spin.grid, grid / 4.0)
    assert per_spin.integral() == pytest.approx(curve.integral(), rel=1e-12)
    rescaled = curve.with_abscissa("eps", params)
    scale = math.sqrt(4 * 3.0)
    np.testing.assert_allclose(rescaled.grid, grid / scale)
    assert rescaled.integral() == pytest.approx(curve.integral(), rel=1e-12)
    back = rescaled.with_abscissa("E", params)
    np.testing.assert_allclose(back.grid, grid, atol=1e-12)
    np.testing.assert_allclose(back.values, values, atol=1e-12)


def test_compare_identical_curves() -> None:
    grid = np.linspace(0.0, 1.0, 101)
    values = 1.0 + np.sin(2 * math.pi * grid) ** 2
    curve = DensityCurve(grid, values)
    report = compare(curve, curve)
    assert report.l1 == 0.0
    assert report.sup == 0.0
    assert report.grids_aligned


def test_compare_constant_offset() -> None:
    grid = np.linspace(0.0, 1.0, 201)
    base = np.full_like(grid, 2.0)
    c = 0.25
    report = compare(DensityCurve(grid, base), DensityCurve(grid, base + c))
    assert report.sup == pytest.approx(c, rel=1e-12)
    assert report.l1 == pytest.approx(c * 1.0, rel=1e-12)


def test_compare_disjoint_supports() -> None:
    a = DensityCurve(np.linspace(0.0, 1.0, 11), np.ones(11))
    b = DensityCurve(np.linspace(2.0, 3.0, 11), np.ones(11))
    with pytest.raises(DisjointSupports):
        compare(a, b)


def test_compare_is_symmetric() -> None:
    grid_a = np.linspace(-1.0, 1.0, 301)
    grid_b = np.linspace(-0.8, 1.2, 211)
    a = DensityCurve(grid_a, np.exp(-(grid_a**2)))
    b = DensityCurve(grid_b, np.exp(-((grid_b - 0.1) ** 2)))
    ab = compare(a, b)
    ba = compare(b, a)
    assert ab.l1 == pytest.approx(ba.l1, rel=1e-12)
    assert ab.sup == pytest.approx(ba.sup, rel=1e-12)


def test_compare_matches_shifted_peaks() -> None:
    grid = np.linspace(-10.0, 10.0, 2001)

    def two_bumps(shift: float) -> np.ndarray:
        return np.exp(-((grid - 3 - shift) ** 2)) + np.exp(-((grid + 3 - shift) ** 2))

    report = compare(DensityCurve(grid, two_bumps(0.0)), DensityCurve(grid, two_bumps(0.1)))
    assert len(report.peak_positions) == 2
    for pos_a, pos_b, offset in report.peak_positions:
        assert offset == pytest.approx(0.1, abs=0.02)
        assert abs(pos_b - pos_a) == pytest.approx(offset, abs=1e-12)


def test_compare_prominence_filter_ignores_noise() -> None:
    grid = np.linspace(0.0, 10.0, 1001)
    main = np.exp(-((grid - 5.0) ** 2))
    noisy = main + 1e-4 * np.sin(40 * grid) ** 2
    report = compare(DensityCurve(grid, main), DensityCurve(grid, noisy))
    assert len(report.peak_positions) == 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 99.0, 100.0]),
            st.floats(0.0, 100.0),
        ),
        min_size=2,
        max_size=40,
    )
)
def test_curve_peaks_follow_scipy_find_peaks(values: list[float]) -> None:
    x = np.array(values)
    curve = DensityCurve(np.arange(len(x), dtype=float), x)
    top = float(x.max())
    expected = (
        find_peaks(x, prominence=PEAK_PROMINENCE_FRACTION * top)[0] if top > 0 else []
    )
    np.testing.assert_array_equal(curve_peaks(curve), np.asarray(expected, dtype=float))


def test_compare_curves_cli_does_not_import_scipy(tmp_path, run_cli) -> None:
    grid = np.linspace(-3.0, 3.0, 61)
    for name, shift in (("a.csv", 0.0), ("b.csv", 0.2)):
        write_curve_csv(
            DensityCurve(grid, np.exp(-((grid - shift) ** 2))), str(tmp_path / name)
        )
    result = run_cli("compare", "--a", "a.csv", "--b", "b.csv", "--out", "r.json")
    assert result.returncode == 0, result.stderr
    assert "scipy" not in result.modules
    assert (tmp_path / "r.json").exists()


def test_curve_csv_round_trip() -> None:
    spec = exact_spectrum(IsingParams.tfim(6, 0.8))
    curve = histogram(spec, bins=17)
    buffer = io.StringIO()
    write_curve_csv(curve, buffer, metadata={"model": "tfim", "lambda": 0.8, "N": 6})
    text = buffer.getvalue()
    assert text.startswith("#")
    restored, metadata = read_curve_csv(io.StringIO(text))
    np.testing.assert_array_equal(restored.grid, curve.grid)
    np.testing.assert_array_equal(restored.values, curve.values)
    assert restored.abscissa == curve.abscissa
    assert metadata["model"] == "tfim"
    assert metadata["lambda"] == "0.8"
    assert "# norm = unit\n" in text
    with pytest.raises(InvalidArgs, match="unit-normalized"):
        read_curve_csv(io.StringIO(text.replace("# norm = unit", "# norm = counts")))


@pytest.mark.parametrize("count", [0, 1, 8, 11])
def test_write_table_in_chunks_matches_one_string(monkeypatch, count) -> None:
    """Rows written four at a time give the bytes of the whole table joined
    into one string, also when the last chunk is full or empty."""
    monkeypatch.setattr(table, "_WRITE_CHUNK", 4)
    rows = [(i, 0.1 * i) for i in range(count)]
    buffer = io.StringIO()
    table.write_table(buffer, {"n": 3}, "index,energy", rows)
    lines = ["# n = 3", "index,energy", *(f"{i},{x!r}" for i, x in rows)]
    assert buffer.getvalue() == "\n".join(lines) + "\n"


def test_curve_rows_are_the_reprs_of_a_strided_grid() -> None:
    """Rows come from the arrays' buffers, and DensityCurve keeps a strided
    grid as the view it was given: each element's repr must still be written."""
    base = np.linspace(-1.0, 2.0, 31) ** 3
    values = np.linspace(0.0, 1.0, 11) / 3.0
    curve = DensityCurve(base[::3], values)
    buffer = io.StringIO()
    write_curve_csv(curve, buffer)
    rows = buffer.getvalue().splitlines()[-len(values):]
    assert rows == [f"{x!r},{y!r}" for x, y in zip(base[::3].tolist(), values.tolist())]
