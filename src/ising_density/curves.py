"""Empirical density curves, kernel smoothing, and curve comparison.

A DensityCurve is a sampled density: finite, strictly ascending abscissae,
finite nonnegative values normalized to unit total mass (the ``# norm =
unit`` line of a curve CSV), and an abscissa flag (absolute energy "E",
per-spin "e", rescaled "eps").  This module owns that rule for every
sampled curve of the package.  Histograms are padded by one empty bin on
each side, which makes the trapezoidal integral of the piecewise-linear
curve exactly equal to the bin-mass sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import DisjointSupports, EmptySpectrum, InvalidArgs
from .model import ABSCISSAE, IsingParams, ManyBodySpectrum, abscissa_scale
from .table import CURVE_HEADER, Table, read_table, write_table

MAX_DEFAULT_BINS = 400
PEAK_PROMINENCE_FRACTION = 0.01
# KDE lattice step in bandwidths: (step / h)^2 / 8 <= 1e-6.
KDE_LATTICE_STEP = math.sqrt(8.0) * 1e-3
# KDE window half-width in bandwidths: the kernel outside it is < e^{-81/2} K(0).
KDE_WINDOW = 9.0
# Grid points of a kernel density estimate.
KDE_POINTS = 1001
# Levels binned per pass, which bounds the binning's temporaries to about 9 MB.
KDE_CHUNK = 1 << 16


def _require_grid(grid: Iterable[float], what: str = "grid") -> np.ndarray:
    """Return ``grid`` as floats if it keeps the node rule of every sampled
    curve: 1-D, at least two finite nodes, ``grid[1:] > grid[:-1]``.  That
    test fails on NaN and leaves any infinity at an end, so only the ends need
    ``isfinite``.  Steps that can overflow run under ``np.errstate`` and leave
    their non-finite nodes to this rule; ``what`` names the grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise InvalidArgs(f"{what} must be a 1-D array of at least two points")
    if not (np.isfinite(grid[[0, -1]]).all() and np.all(grid[1:] > grid[:-1])):
        raise InvalidArgs(f"{what} must be finite and strictly ascending")
    return grid


@dataclass(frozen=True)
class DensityCurve:
    """A sampled density curve: nodes under ``_require_grid``'s rule, and
    finite densities >= -1e-12 (stored clamped at 0)."""

    grid: np.ndarray
    values: np.ndarray
    abscissa: str = "E"

    def __post_init__(self) -> None:
        grid = _require_grid(self.grid)
        values = np.asarray(self.values, dtype=float)
        if values.shape != grid.shape:
            raise InvalidArgs("grid and values must be 1-D arrays of equal length")
        if not np.all((values >= -1e-12) & (values < math.inf)):
            span = f"[{float(grid[0])!r}, {float(grid[-1])!r}]"
            raise InvalidArgs(f"densities on {span} must be finite and nonnegative")
        values = np.maximum(values, 0.0)
        if self.abscissa not in ABSCISSAE:
            raise InvalidArgs(f"abscissa must be one of {ABSCISSAE}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        """Trapezoidal integral over the sampled range."""
        return float(np.trapezoid(self.values, self.grid))

    def with_abscissa(self, target: str, params: IsingParams) -> "DensityCurve":
        """Exact mass-preserving change of abscissa units."""
        factor = abscissa_scale(params, self.abscissa) / abscissa_scale(params, target)
        with np.errstate(over="ignore"):  # the curve rule refuses what overflows
            grid, values = self.grid * factor, self.values / factor
        return DensityCurve(grid=grid, values=values, abscissa=target)


def histogram(spectrum: ManyBodySpectrum, bins: int | None = None) -> DensityCurve:
    """Unit-integral histogram of a spectrum, bin centers as abscissae.

    The histogram spans [min E, max E] and is padded by one empty bin on
    each side.
    """
    energies = spectrum.energies
    if len(energies) == 0:
        raise EmptySpectrum("cannot histogram an empty spectrum")
    if bins is None:
        bins = min(MAX_DEFAULT_BINS, max(2, math.ceil(math.sqrt(len(energies)))))
    if bins < 2:
        raise InvalidArgs(f"need at least 2 bins, got {bins}")
    lo, hi = float(energies.min()), float(energies.max())
    if hi <= lo:
        return DensityCurve(np.array([lo - 1.0, lo, lo + 1.0]), np.array([0.0, 1.0, 0.0]))
    # The edges np.histogram draws.  Where they, or the padded centers and
    # densities, overflow or collide, the node and curve rules refuse them.
    with np.errstate(all="ignore"):
        edges = np.linspace(lo, hi, bins + 1)
    _require_grid(edges, f"the edges of {bins} bins on [{lo!r}, {hi!r}]")
    counts, _ = np.histogram(energies, bins=bins, range=(lo, hi))
    with np.errstate(over="ignore"):
        width = edges[1] - edges[0]
        centers = 0.5 * (edges[:-1] + edges[1:])
        density = counts / (len(energies) * width)
        grid = np.concatenate([[centers[0] - width], centers, [centers[-1] + width]])
    values = np.concatenate([[0.0], density, [0.0]])
    return DensityCurve(grid, values)


def kernel_density(spectrum: ManyBodySpectrum, bandwidth: float) -> DensityCurve:
    """Gaussian-kernel density of a spectrum on a uniform grid.

    The grid is ``linspace(min E - 8h, max E + 8h, KDE_POINTS)``.  The energies
    are binned linearly onto a lattice r times finer than the grid, with
    lattice step delta <= KDE_LATTICE_STEP * h, and each grid node sums the
    lattice inside its +-9h window against one tabulated kernel (Silverman
    1982, Appl. Stat. 31:93; Wand 1994, J. Comput. Graph. Stat. 3:433).
    Linear binning errs by at most (delta/h)^2 / 8 of the kernel peak
    K(0) = 1/(h sqrt(2 pi)), so

        |result - exact pairwise sum| <= 1e-6 K(0) + e^{-81/2} K(0).

    The lattice stops refining where delta would fall below 2^-52 of the
    grid's span: below that resolution binning moves no energy further than
    rounding the grid already does.  Only lattice nodes inside some window
    are stored, so time and memory are O(levels + KDE_POINTS * L), where
    L = floor(9h / delta) is the window's half-width in lattice steps: under
    6400 unless the grid alone is finer than KDE_LATTICE_STEP * h.
    """
    energies = spectrum.energies
    if len(energies) == 0:
        raise EmptySpectrum("cannot smooth an empty spectrum")
    if not 0 < bandwidth < math.inf:
        raise InvalidArgs(f"bandwidth must be positive and finite, got {bandwidth}")
    peak = 1.0 / (bandwidth * math.sqrt(2.0 * math.pi))
    if peak == math.inf:
        raise InvalidArgs(f"bandwidth {bandwidth} is so narrow that the kernel overflows")
    lo = float(energies.min()) - 8.0 * bandwidth
    hi = float(energies.max()) + 8.0 * bandwidth
    with np.errstate(all="ignore"):  # the node rule refuses what overflows
        grid = np.linspace(lo, hi, KDE_POINTS)
    _require_grid(grid, f"the grid of bandwidth {bandwidth} on [{lo}, {hi}]")
    spacing = (hi - lo) / (KDE_POINTS - 1)
    finest = 2**52 // (KDE_POINTS - 1)
    if spacing >= finest * KDE_LATTICE_STEP * bandwidth:
        refine = finest
    else:
        refine = math.ceil(spacing / (KDE_LATTICE_STEP * bandwidth))
    step = spacing / refine
    half = math.floor(KDE_WINDOW * bandwidth / step)
    lattice, stride = _window_lattice(energies, lo, step, refine, half)
    windows = np.lib.stride_tricks.sliding_window_view(lattice, 2 * half + 1)
    offsets = np.arange(-half, half + 1) * step / bandwidth
    kernel = np.exp(-0.5 * offsets * offsets)
    values = (windows[::stride] @ kernel) * (peak / len(energies))
    return DensityCurve(grid, values)


def _window_lattice(
    energies: np.ndarray, lo: float, step: float, refine: int, half: int
) -> tuple[np.ndarray, int]:
    """Linear binning of the energies onto the lattice lo + m * step.

    Grid node j sits at m = j * refine.  Only lattice nodes within ``half``
    steps of a grid node are kept: node m = j * refine + o lies in node j's
    window when o <= half and in node j + 1's when o >= refine - half.
    Returns the kept lattice, padded by ``half`` zeros on each side, and the
    distance ``stride`` between grid nodes in it.
    """
    stride = min(refine, 2 * half + 1)
    lattice = np.zeros((KDE_POINTS - 1) * stride + 2 * half + 1)
    for start in range(0, len(energies), KDE_CHUNK):
        position = (energies[start : start + KDE_CHUNK] - lo) / step
        position = np.clip(position, 0.0, refine * (KDE_POINTS - 1))
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


@dataclass(frozen=True)
class ComparisonReport:
    """Quantified agreement between two density curves."""

    l1: float
    sup: float
    peak_positions: list[tuple[float, float, float]]
    grids_aligned: bool

    def __post_init__(self) -> None:
        distances = [self.l1, self.sup, *(d for _, _, d in self.peak_positions)]
        if not all(map(math.isfinite, distances)):
            raise InvalidArgs(f"a curve distance is beyond float range: {distances}")

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


def curve_peaks(curve: DensityCurve) -> np.ndarray:
    """Positions of local maxima passing the default prominence filter.

    The rules are those of ``scipy.signal.find_peaks`` with ``prominence =
    PEAK_PROMINENCE_FRACTION * max``.  A peak is a sample, or the middle
    (rounded down) of a flat run, strictly higher than both neighbours; the
    first and last samples are never peaks.  Its prominence is its height
    above the higher of the lowest samples on its two sides, each side taken
    up to the nearest strictly higher sample or the end of the curve.  Each
    peak's prominence scans the whole curve once: O(samples) per peak.
    """
    values = curve.values
    top = float(values.max(initial=0.0))
    if top <= 0.0:
        return np.empty(0)
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    ends = np.r_[starts[1:], len(values)] - 1
    level = values[starts]
    runs = np.arange(1, len(starts) - 1)
    runs = runs[(level[runs] > level[runs - 1]) & (level[runs] > level[runs + 1])]
    threshold = PEAK_PROMINENCE_FRACTION * top
    peaks = [
        p
        for p in (starts[runs] + ends[runs]) // 2
        if _prominence(values, p) >= threshold
    ]
    return curve.grid[np.array(peaks, dtype=np.int64)]


def _prominence(values: np.ndarray, peak: int) -> float:
    height = values[peak]
    lows = [
        side[: np.argmax(side > height) or len(side)].min()
        for side in (values[peak::-1], values[peak:])
    ]
    return float(height - max(lows))


def _match_peaks(
    peaks_a: np.ndarray, peaks_b: np.ndarray
) -> list[tuple[float, float, float]]:
    """Greedy proximity pairing; each peak used at most once."""
    pairs = sorted(
        ((abs(pa - pb), pa, pb) for pa in peaks_a.tolist() for pb in peaks_b.tolist()),
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
    with np.errstate(over="ignore", invalid="ignore"):  # the report refuses inf, NaN
        l1 = float(np.trapezoid(diff, common))
    return ComparisonReport(
        l1=l1,
        sup=float(diff.max()),
        peak_positions=_match_peaks(curve_peaks(curve_a), curve_peaks(curve_b)),
        grids_aligned=bool(np.array_equal(curve_a.grid, curve_b.grid)),
    )


def write_curve_csv(
    curve: DensityCurve, destination: str | IO[str], metadata: dict | None = None
) -> None:
    """Write a curve as CSV with `# key = value` metadata comment lines."""
    metadata = {**(metadata or {}), "abscissa": curve.abscissa, "norm": "unit"}
    # A memoryview yields Python floats one at a time, with no list per column.
    rows = zip(memoryview(curve.grid), memoryview(curve.values))
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
    metadata = dict(table.metadata)
    abscissa = metadata.pop("abscissa", "E")
    norm = metadata.pop("norm", "unit")
    if norm != "unit":
        raise InvalidArgs(
            f"{table.source} is not a unit-normalized curve (norm = {norm!r})"
        )
    try:
        return DensityCurve(*table.columns, abscissa=abscissa), metadata
    except InvalidArgs as exc:
        raise InvalidArgs(f"{table.source}: {exc}") from None
