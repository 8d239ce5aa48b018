"""Empirical density curves, kernel smoothing, and curve comparison.

A DensityCurve is a sampled density: ascending abscissae, nonnegative
values, an abscissa flag (absolute energy "E", per-spin "e", rescaled
"eps") and a normalization tag.  Histograms built with the default range
are padded by one empty bin on each side, which makes the trapezoidal
integral of the piecewise-linear curve exactly equal to the bin-mass sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import DisjointSupports, EmptySpectrum, InvalidArgs
from .model import ABSCISSAE, IsingParams, ManyBodySpectrum, abscissa_scale
from .table import CURVE_HEADER, Table, read_table, write_table

_NORMS = ("unit", "counts")

MAX_DEFAULT_BINS = 400
PEAK_PROMINENCE_FRACTION = 0.01


@dataclass(frozen=True)
class DensityCurve:
    """A sampled density curve."""

    grid: np.ndarray
    values: np.ndarray
    abscissa: str = "E"
    norm: str = "unit"

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or values.ndim != 1 or len(grid) != len(values):
            raise InvalidArgs("grid and values must be 1-D arrays of equal length")
        if len(grid) < 2:
            raise InvalidArgs("a density curve needs at least two grid points")
        if not np.all(np.diff(grid) > 0):
            raise InvalidArgs("grid must be strictly ascending")
        if not np.all(values >= -1e-12):
            raise InvalidArgs("densities must be nonnegative")
        values = np.maximum(values, 0.0)
        if self.abscissa not in ABSCISSAE:
            raise InvalidArgs(f"abscissa must be one of {ABSCISSAE}")
        if self.norm not in _NORMS:
            raise InvalidArgs(f"norm must be one of {_NORMS}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        """Trapezoidal integral over the sampled range."""
        return float(np.trapezoid(self.values, self.grid))

    def with_abscissa(self, target: str, params: IsingParams) -> "DensityCurve":
        """Exact mass-preserving change of abscissa units."""
        factor = abscissa_scale(params, self.abscissa) / abscissa_scale(params, target)
        return DensityCurve(
            grid=self.grid * factor,
            values=self.values / factor,
            abscissa=target,
            norm=self.norm,
        )


def _default_bins(count: int) -> int:
    return min(MAX_DEFAULT_BINS, max(2, math.ceil(math.sqrt(count))))


def histogram(
    spectrum: ManyBodySpectrum,
    bins: int | None = None,
    range: tuple[float, float] | None = None,
) -> DensityCurve:
    """Unit-integral histogram of a spectrum, bin centers as abscissae.

    With the default range the histogram spans [min E, max E] and is padded
    by one empty bin on each side; an explicit range is used as given,
    without padding.
    """
    energies = spectrum.energies
    if len(energies) == 0:
        raise EmptySpectrum("cannot histogram an empty spectrum")
    if bins is None:
        bins = _default_bins(len(energies))
    if bins < 2:
        raise InvalidArgs(f"need at least 2 bins, got {bins}")
    lo = float(energies.min()) if range is None else float(range[0])
    hi = float(energies.max()) if range is None else float(range[1])
    if hi <= lo:
        if range is not None:
            raise InvalidArgs(f"empty range [{lo}, {hi}]")
        center = lo
        return DensityCurve(
            np.array([center - 1.0, center, center + 1.0]),
            np.array([0.0, 1.0, 0.0]),
        )
    counts, edges = np.histogram(energies, bins=bins, range=(lo, hi))
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    density = counts / (len(energies) * width)
    if range is not None:
        return DensityCurve(centers, density)
    grid = np.concatenate([[centers[0] - width], centers, [centers[-1] + width]])
    values = np.concatenate([[0.0], density, [0.0]])
    return DensityCurve(grid, values)


def kernel_density(
    spectrum: ManyBodySpectrum, bandwidth: float, points: int = 1001
) -> DensityCurve:
    """Gaussian-kernel density of a spectrum on a uniform grid."""
    energies = spectrum.energies
    if len(energies) == 0:
        raise EmptySpectrum("cannot smooth an empty spectrum")
    if bandwidth <= 0:
        raise InvalidArgs(f"bandwidth must be positive, got {bandwidth}")
    if points < 2:
        raise InvalidArgs(f"need at least 2 grid points, got {points}")
    lo = float(energies.min()) - 8.0 * bandwidth
    hi = float(energies.max()) + 8.0 * bandwidth
    grid = np.linspace(lo, hi, points)
    values = np.zeros_like(grid)
    norm = 1.0 / (len(energies) * bandwidth * math.sqrt(2.0 * math.pi))
    for chunk_start in range(0, len(energies), 512):
        chunk = energies[chunk_start : chunk_start + 512]
        z = (grid[:, None] - chunk[None, :]) / bandwidth
        values += norm * np.exp(-0.5 * z * z).sum(axis=1)
    return DensityCurve(grid, values)


def resample(curve: DensityCurve, grid: Iterable[float]) -> DensityCurve:
    """Linear-interpolation resampling; zero outside the original range."""
    new_grid = np.asarray(list(grid), dtype=float)
    values = np.interp(new_grid, curve.grid, curve.values, left=0.0, right=0.0)
    return DensityCurve(new_grid, values, abscissa=curve.abscissa, norm=curve.norm)


@dataclass(frozen=True)
class ComparisonReport:
    """Quantified agreement between two density curves."""

    l1: float
    sup: float
    peak_positions: list[tuple[float, float, float]]
    grids_aligned: bool

    def to_json_dict(self) -> dict:
        return {
            "l1": self.l1,
            "sup": self.sup,
            "peak_positions": [
                {"a": a, "b": b, "offset": offset}
                for a, b, offset in self.peak_positions
            ],
            "grids_aligned": self.grids_aligned,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ComparisonReport":
        return cls(
            l1=float(payload["l1"]),
            sup=float(payload["sup"]),
            peak_positions=[
                (float(p["a"]), float(p["b"]), float(p["offset"]))
                for p in payload["peak_positions"]
            ],
            grids_aligned=bool(payload["grids_aligned"]),
        )


def curve_peaks(curve: DensityCurve) -> np.ndarray:
    """Positions of local maxima passing the default prominence filter."""
    from scipy.signal import find_peaks  # deferred: keeps CLI startup light

    top = float(curve.values.max(initial=0.0))
    if top <= 0.0:
        return np.empty(0)
    idx, _ = find_peaks(curve.values, prominence=PEAK_PROMINENCE_FRACTION * top)
    return curve.grid[idx]


def _match_peaks(
    peaks_a: np.ndarray, peaks_b: np.ndarray
) -> list[tuple[float, float, float]]:
    """Greedy proximity pairing; each peak used at most once."""
    pairs = sorted(
        ((abs(pa - pb), float(pa), float(pb)) for pa in peaks_a for pb in peaks_b),
        key=lambda t: (t[0], t[1], t[2]),
    )
    used_a: set[float] = set()
    used_b: set[float] = set()
    matched = []
    for offset, pa, pb in pairs:
        if pa in used_a or pb in used_b:
            continue
        used_a.add(pa)
        used_b.add(pb)
        matched.append((pa, pb, float(offset)))
    matched.sort(key=lambda t: t[0])
    return matched


def compare(curve_a: DensityCurve, curve_b: DensityCurve) -> ComparisonReport:
    """L1/sup distance on the overlap plus greedy peak matching."""
    if curve_a.abscissa != curve_b.abscissa:
        raise InvalidArgs(
            f"cannot compare curves on different abscissae: "
            f"{curve_a.abscissa!r} vs {curve_b.abscissa!r}"
        )
    lo = max(curve_a.grid[0], curve_b.grid[0])
    hi = min(curve_a.grid[-1], curve_b.grid[-1])
    if hi <= lo:
        raise DisjointSupports(
            f"curve supports do not overlap: [{curve_a.grid[0]}, {curve_a.grid[-1]}]"
            f" vs [{curve_b.grid[0]}, {curve_b.grid[-1]}]"
        )
    common = np.union1d(curve_a.grid, curve_b.grid)
    common = common[(common >= lo) & (common <= hi)]
    va = np.interp(common, curve_a.grid, curve_a.values)
    vb = np.interp(common, curve_b.grid, curve_b.values)
    diff = np.abs(va - vb)
    return ComparisonReport(
        l1=float(np.trapezoid(diff, common)),
        sup=float(diff.max()),
        peak_positions=_match_peaks(curve_peaks(curve_a), curve_peaks(curve_b)),
        grids_aligned=bool(np.array_equal(curve_a.grid, curve_b.grid)),
    )


def write_curve_csv(
    curve: DensityCurve, destination: str | IO[str], metadata: dict | None = None
) -> None:
    """Write a curve as CSV with `# key = value` metadata comment lines."""
    metadata = {**(metadata or {}), "abscissa": curve.abscissa, "norm": curve.norm}
    rows = zip(map(float, curve.grid), map(float, curve.values))
    write_table(destination, metadata, CURVE_HEADER, rows)


def read_curve_csv(source: str | IO[str] | Table) -> tuple[DensityCurve, dict]:
    """Read a curve written by write_curve_csv; metadata values stay strings.

    ``source`` is a path, an open text handle, or a table already read.
    """
    table = source if isinstance(source, Table) else read_table(source)
    if table.header != CURVE_HEADER:
        raise InvalidArgs(
            f"{table.source} is not a curve CSV (header {table.header!r})"
        )
    grid, values = table.columns
    if len(grid) < 2:
        raise InvalidArgs("curve CSV needs at least two data rows")
    metadata = dict(table.metadata)
    abscissa = metadata.pop("abscissa", "E")
    norm = metadata.pop("norm", "unit")
    return DensityCurve(grid, values, abscissa=abscissa, norm=norm), metadata
