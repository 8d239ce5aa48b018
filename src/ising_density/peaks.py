"""Multi-Gaussian peak approximations of the many-body density of states.

Away from the crossover couplings the spectrum of the ring organizes into
well-separated clusters, and the density of states is captured by a convex
mixture of Gaussians, one per cluster.  Four regimes are covered:

* **Transverse field only** -- clusters labelled by the occupation ``n`` of
  one-particle modes; the mixture uses binomial weights over all ``n`` for
  ``|lambda| >= 1`` and over even ``n`` (with doubled weight) below that.
* **Both fields strong** -- clusters labelled by the number ``n`` of spins
  aligned with the combined field (``n = N`` holds the ground state); widths
  come from the hopping the transverse part induces at fixed alignment.
* **Small coupling at unit longitudinal field** -- clusters labelled by the
  conserved combination ``R = 2k - n`` of aligned spins ``n`` and aligned
  blocks ``k``; centers carry a second-order correction and widths follow
  from transition counting within a class.  Each class keeps six exact
  integer sums over its cells, and every value is a formula of their
  correctly rounded quotients, so no ring size is too large for floats.
* **Small coupling at generic longitudinal field** -- one component per
  ``(n, k)`` cell, with the polarized cells appearing as delta spikes.

Each regime builds a :class:`GaussianMixture`, one read-only table with a
(weight, center, variance) row per cluster, which samples itself onto a grid
as a :class:`~ising_density.curves.DensityCurve`; a visibility helper reports
up to which ring size the cluster structure remains resolved.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .blocks import (
    _cell_cost,
    _comp,
    _f_count,
    _require_partition,
    _require_transition_ring,
    _transitions,
    cells,
    count_Na,  # noqa: F401  (bench/tracer.py wraps it here)
    count_Nb,  # noqa: F401  (bench/tracer.py wraps it here)
    count_Nc,  # noqa: F401  (bench/tracer.py wraps it here)
    degeneracy_census,  # noqa: F401  (bench/tracer.py wraps it here)
)
from .curves import DensityCurve, _require_grid
from .errors import (
    AlphaSingular,
    CapExceeded,
    InvalidArgs,
    InvalidRegime,
    UnknownClass,
    check_cap,
    float_range,
    require_finite_couplings,
    require_integer,
    require_ring,
)
from .fermion import momentum_grid, one_particle_energy

XX_PROJECTION_MAX_SITES = 12

_WEIGHT_TOL = 1e-12
_WINDOW_SIGMAS = 40.0  # exp(-40^2 / 2) underflows to 0.0
# Bytes per component of a mixture's build, with margin: tracemalloc peaks were
# 106-113 B for multi-strong at N = 1000-8000 and 78 B above _cell_cost's for
# multi-generic at N = 400-2000.  The sidecar's one write chunk, about 1.3 MiB
# at any size, is left out against the 4 GiB cap.
_COMPONENT_BYTES = 128


# ----------------------------------------------------------------------------
# mixture container
# ----------------------------------------------------------------------------


def _require_all(values: np.ndarray, ok: np.ndarray, rule: str) -> None:
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise InvalidArgs(f"component {rule}, got {float(values[bad[0]])!r}")


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """A convex combination of Gaussian peaks.

    Built from ``(w, mu, var)`` triples or a ``(k, 3)`` array and kept as one
    read-only ``(k, 3)`` float array ``components``, one row per peak; the
    weights ``w``, centers ``mu`` and variances ``var`` are read-only views
    of its columns.  Zero-variance components are delta spikes; when sampled
    onto a grid their mass is deposited on the nearest grid node, scaled by
    the inverse trapezoid weight of that node so the sampled curve
    integrates to the spike's weight exactly.
    """

    components: np.ndarray

    def __post_init__(self) -> None:
        table = np.array(self.components, dtype=float)
        if table.size == 0:
            raise InvalidArgs("a mixture needs at least one component")
        if table.ndim != 2 or table.shape[1] != 3:
            raise InvalidArgs("mixture components must be (w, mu, var) triples")
        w, mu, var = table.T
        _require_all(w, np.isfinite(w), "weight must be finite")
        _require_all(w, w >= 0.0, "weight must be >= 0")
        _require_all(var, np.isfinite(var), "variance must be finite")
        _require_all(var, var >= 0.0, "variance must be >= 0")
        _require_all(mu, np.isfinite(mu), "center must be finite")
        total = math.fsum(w)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidArgs(f"component weights must sum to 1, got {total!r}")
        table.flags.writeable = False
        object.__setattr__(self, "components", table)

    w = property(lambda self: self.components[:, 0])
    mu = property(lambda self: self.components[:, 1])
    var = property(lambda self: self.components[:, 2])

    def density_curve(self, grid: Iterable[float]) -> DensityCurve:
        """Sample the mixture, in ``E``, on a grid that keeps the node rule.

        Each Gaussian is added, in component order, only on the grid nodes
        within ``mu +/- 40 sigma`` of its center.  Further out
        ``(x - mu)^2 / (2 var) >= 800`` and ``exp`` underflows to 0.0, so the
        full per-component sum adds exactly 0.0 there: at every node
        ``|windowed - full sum| = 0``, not merely the
        ``e^-32 sum_j w_j / sqrt(2 pi var_j)`` of a ``+/- 8 sigma`` window.
        """
        grid = _require_grid(grid)
        values = np.zeros_like(grid)
        wide = self.var > 0.0
        w, mu, var = self.w[wide], self.mu[wide], self.var[wide]
        reach = _WINDOW_SIGMAS * np.sqrt(var)
        # Closed windows: a node outside lies beyond mu +/- reach exactly, and a
        # sigma below the spacing of floats near mu still keeps the node at mu.
        los = np.searchsorted(grid, mu - reach, side="left").tolist()
        his = np.searchsorted(grid, mu + reach, side="right").tolist()
        for w, mu, var, lo, hi in zip(w.tolist(), mu.tolist(), var.tolist(), los, his):
            values[lo:hi] += (
                w
                * np.exp(-((grid[lo:hi] - mu) ** 2) / (2.0 * var))
                / math.sqrt(2.0 * math.pi * var)
            )
        # Off-grid spikes carry no representable mass.
        spikes = ~wide & (self.w > 0.0) & (self.mu >= grid[0]) & (self.mu <= grid[-1])
        if spikes.any():
            mu = self.mu[spikes]
            i = np.clip(np.searchsorted(grid, mu), 1, len(grid) - 1)
            i -= np.abs(grid[i - 1] - mu) <= np.abs(grid[i] - mu)  # lower on a tie
            with np.errstate(over="ignore"):  # the curve rule refuses overflow
                trapezoid = np.gradient(grid)
                trapezoid[[0, -1]] *= 0.5
                np.add.at(values, i, self.w[spikes] / trapezoid[i])
        return DensityCurve(grid=grid, values=values)


class Visibility(NamedTuple):
    """Largest ring size with resolved clusters, per the regime's criterion."""

    n_max: float
    order_of_magnitude: bool


@dataclass(frozen=True)
class XXProjectionReport:
    """Moments of the fixed-alignment hopping block versus the closed forms."""

    dimension: int
    mean_exact: float
    variance_exact: float
    mean_formula: float
    variance_formula: float
    mean_deviation: float
    variance_deviation: float


# ----------------------------------------------------------------------------
# transverse-field clusters
# ----------------------------------------------------------------------------


def _tfim_moments(N: int, lam: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with float_range("a transverse-field cluster moment", lam, 0.0) as finite:
        es = one_particle_energy(lam, momentum_grid(N, "even"))
        e1 = float(np.sum(es)) / (2 * N)
        e2 = float(np.sum(es * es)) / (4 * N)
        mean = finite((N - 2 * n) * e1)
        var = finite(4.0 * n * (N - n) / (N - 1) * (e2 - e1 * e1))
    return mean, np.where(var < 0.0, 0.0, var)


def _check_components(N: int, count: int, walk_bytes: int = 0) -> None:
    """Refuse a mixture of ``count`` components past the cap, each with
    ``walk_bytes`` of the walk that builds it."""
    needed = count * (_COMPONENT_BYTES + walk_bytes)
    check_cap(f"a mixture of {count} components at N = {N}", needed)


def _binomial_clusters(N: int, step: int, moments: Callable) -> GaussianMixture:
    """One cluster per n = 0, step, ..., N, once the N + 1 components pass the
    cap: ``(mean, var) = moments(n)`` and weight ``step C(N, n) / 2^N``, each
    formed as soon as its binomial is made (one int/int division)."""
    _check_components(N, N + 1)
    n = np.arange(0, N + 1, step)
    mean, var = moments(n)
    return GaussianMixture(np.column_stack((_binomial_weights(N, step), mean, var)))


def _binomial_weights(N: int, step: int) -> list[float]:
    """``step C(N, j) / 2^N`` for j = 0, step, ..., N, from the running
    product C(N, i + 1) = C(N, i) (N - i) / (i + 1).  Each division is exact
    in integers, so every binomial, and so every weight, is the one
    ``math.comb`` gives."""
    total, c, w = 2**N, 1, []
    for j in range(0, N + 1, step):
        w.append(step * c / total)
        for i in range(j, min(j + step, N)):
            c = c * (N - i) // (i + 1)
    return w


def tfim_mixture_components(N: int, lam: float) -> GaussianMixture:
    """Binomial mixture over occupation clusters for the transverse-field ring.

    Cluster ``n`` collects the C(N, n) ways of occupying n of the N
    antiperiodic one-particle levels.  Its mean is ``(N - 2n) <e>`` (the sign
    convention mirrors occupation n -> N - n) and its variance is the
    without-replacement sampling variance
    ``4 n (N - n) / (N - 1) * (<e^2> - <e>^2)``.

    For ``|lambda| >= 1`` every occupation contributes with weight
    ``C(N, n) / 2^N``; below that only even occupations appear, with doubled
    weight ``C(N, n) / 2^(N-1)``.  (The boundary coupling is rendered with
    the all-occupation branch.)
    """
    lam, N = float(lam), require_ring(N)
    step = 1 if abs(lam) >= 1.0 else 2
    return _binomial_clusters(N, step, lambda n: _tfim_moments(N, lam, n))


# ----------------------------------------------------------------------------
# peak visibility
# ----------------------------------------------------------------------------

_VISIBILITY = {
    "tfim-large": lambda lam, alpha: 2.0 * lam * lam,
    "tfim-small": lambda lam, alpha: 8.0 / (lam * lam),
    "strong-fields": lambda lam, alpha: (
        2.0 * (lam * lam + alpha * alpha) ** 3 / lam**4
    ),
    "small-lambda-integer-alpha": lambda lam, alpha: 1.0 / lam**4,
}


def visibility_Nmax(lam: float, alpha: float, regime: str) -> Visibility:
    """Largest ring size N_max with resolved clusters in the given regime.

    ``regime`` is one of ``tfim-large``, ``tfim-small``, ``strong-fields``
    and ``small-lambda-integer-alpha``.  The estimate compares the cluster
    spacing with the width of the widest cluster; for the small-coupling
    integer-alpha regime only the scaling ``1 / lambda^4`` is controlled, so
    the result is flagged as an order-of-magnitude statement.  Couplings
    whose N_max is not a finite float are rejected.
    """
    lam, alpha = float(lam), float(alpha)
    require_finite_couplings(lam, alpha)
    formula = _VISIBILITY.get(regime)
    if formula is None:
        raise InvalidRegime(
            f"unknown visibility regime {regime!r}; expected one of "
            f"{sorted(_VISIBILITY)}"
        )
    if lam == 0.0 and regime != "tfim-large":
        raise InvalidArgs(f"{regime} visibility requires lambda != 0")
    with float_range(f"{regime} visibility N_max", lam, alpha) as finite:
        n_max = finite(formula(lam, alpha))
    return Visibility(n_max, regime == "small-lambda-integer-alpha")


# ----------------------------------------------------------------------------
# strong-field clusters
# ----------------------------------------------------------------------------


def _combined_field(lam: float, alpha: float) -> float:
    root_sq = lam * lam + alpha * alpha
    if root_sq == 0.0:
        raise InvalidArgs("the combined field needs lambda^2 + alpha^2 > 0")
    return math.sqrt(root_sq)


def _strong_field_moments(
    N: int, lam: float, alpha: float, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    root = _combined_field(lam, alpha)
    with float_range("a strong-field cluster moment", lam, alpha) as finite:
        root_sq = root * root
        mean = root * (N - 2 * n) - (N - 4.0 * n * (N - n) / (N - 1)) * (
            alpha * alpha / root_sq
        )
        var = 2.0 * n * (N - n) / (N - 1) * lam**4 / root_sq**2
        return finite(mean), finite(var)


def strong_field_components(N: int, lam: float, alpha: float) -> GaussianMixture:
    """Binomial mixture over alignment clusters at strong fields.

    Component ``n`` collects the C(N, n) states with ``n`` spins aligned with
    the combined field of magnitude ``r = sqrt(lambda^2 + alpha^2)``: its mean
    ``r (N - 2n)`` plus the first-order bond average at fixed alignment, its
    variance the transverse hopping contribution, which dominates the width.
    """
    N = require_ring(N)
    return _binomial_clusters(
        N, 1, lambda n: _strong_field_moments(N, float(lam), float(alpha), n)
    )


# ----------------------------------------------------------------------------
# small-lambda clusters at unit longitudinal field
# ----------------------------------------------------------------------------


class _ClassTable(NamedTuple):
    """Lambda-independent exact sums over the cells of each class R = 2k - n."""

    R: np.ndarray  # ascending labels, one row per class
    row: dict[int, int]
    sums: np.ndarray  # Python ints (dtype object): N_R, S_R, T_R, A_R, B_R, D_R


@lru_cache(maxsize=64)
def _unit_alpha_classes(N: int) -> _ClassTable:
    """One walk over ``cells(N)`` keeping six exact int sums per class.

    Over the class's cells N_R = sum f, S_R = sum f k / N and
    T_R = sum N_a + N_b + N_c; over its interior cells A_R = sum (2k - n) f,
    B_R = sum (2k - m) f and D_R = sum [comp(n-1, k-1) comp(m, k)
    - comp(n, k) comp(m-1, k-1)].  No sum is ever a float: every class
    value is a formula of ratios of them, each one int/int division.
    """
    sums: dict[int, list[int]] = defaultdict(lambda: [0] * 6)
    for n, k, f in cells(N):
        m, R = N - n, 2 * k - n
        row = sums[R]
        row[0] += f
        row[2] += sum(_transitions(N, n, m, k))
        if k > 0:
            row[1] += f * k // N
            row[3] += R * f
            row[4] += (2 * k - m) * f
            row[5] += _shift_d(n, m, k)
    labels = sorted(sums)
    table = np.array([sums[R] for R in labels], dtype=object)
    return _ClassTable(np.array(labels), {R: i for i, R in enumerate(labels)}, table)


def _shift_d(n: int, m: int, k: int) -> int:
    """The int d of an interior cell's second-order shift."""
    return _comp(n - 1, k - 1) * _comp(m, k) - _comp(n, k) * _comp(m - 1, k - 1)


def _ratio(numerators, denominators) -> np.ndarray:
    """Quotients of Python ints, one true division each, so each is correctly
    rounded even where the ints lie beyond float range."""
    return np.asarray(np.asarray(numerators, dtype=object) / denominators, dtype=float)


def _class_value(values_of: Callable, N: int, lam: float, R: int) -> float:
    N = require_ring(N)
    table = _unit_alpha_classes(N)
    if R not in table.row:
        raise UnknownClass(f"R = {R} labels no degeneracy class at N = {N}")
    return float(values_of(table, N, float(lam))[table.row[R]])


def _class_centers(table: _ClassTable, N: int, lam: float) -> np.ndarray:
    size, blocks = table.sums.T[:2]
    lam2 = lam * lam
    # sqrt(1 + lam^2) - 1 / (1 + lam^2) and N - 4 N S_R / N_R without
    # subtracting near-equal floats: the R = 0 center is their product alone.
    prefactor = math.expm1(math.log1p(lam2) / 2.0) + lam2 / (1.0 + lam2)
    with float_range("a class center E_R", lam, 1.0) as finite:
        return finite(
            2.0 * table.R * math.sqrt(1.0 + lam2)
            + prefactor * _ratio(N * size - 4 * N * blocks, size)
        )


def _class_shifts(table: _ClassTable, N: int, lam: float) -> np.ndarray:
    size, _, _, a, b, d = table.sums.T
    with float_range("the class shift prefactor", lam, 1.0):
        return _second_order_shift(N, 1.0, lam, a, b, d, size)


def _class_widths(table: _ClassTable, N: int, lam: float) -> np.ndarray:
    _require_transition_ring(N)
    size, _, moves = table.sums.T[:3]
    with float_range("a class width sigma_R", lam, 1.0):
        return np.sqrt(lam**4 / (1.0 + lam * lam) ** 2 * _ratio(moves, size))


def small_lambda_ER(N: int, lam: float, R: int) -> float:
    """First-order center E_R of the degeneracy class R at unit longitudinal field.

    The center is the degeneracy-weighted average of the diagonal energies of
    the class's (n, k) cells, evaluated with exact combinatorial sums:

        E_R = 2 R sqrt(1 + lam^2)
              + (sqrt(1 + lam^2) - 1/(1 + lam^2)) (N - 4 N S / N_R),

    where ``S = sum C(n-1, k-1) C(N-n-1, k-1)`` over the interior cells of
    the class; the identity ``f(n, k) k = N C(n-1, k-1) C(N-n-1, k-1)``
    turns the degeneracy-weighted mean block count into ``N S / N_R``.
    """
    return _class_value(_class_centers, N, lam, R)


def _second_order_shift(N: int, alpha: float, lam: float, a, b, d, states):
    """2 alpha^2 lam^2 N / (alpha^2 + lam^2)^2 times the bracket
    (a / (N (2 + alpha)) + b / (N (2 - alpha)) + 2 alpha d / (4 - alpha^2)) / states
    of a cell's ints (2k - n) f, (2k - m) f and _shift_d, or of their sums over
    the N_R states of a class; at alpha = p/q it is one correctly rounded quotient.
    """
    p, q = alpha.as_integer_ratio()
    numerator = q * (a * (2 * q - p) + b * (2 * q + p) + 2 * p * N * d)
    bracket = _ratio(numerator, N * (4 * q * q - p * p) * states)
    return 2.0 * alpha**2 * lam**2 * N / (alpha**2 + lam**2) ** 2 * bracket


def small_lambda_deltaE(
    N: int, n: int, m: int, k: int, alpha: float, lam: float
) -> float:
    """Second-order energy shift of the (n, k) cell, summed over its states.

    ``m = N - n`` is the complementary alignment count.  The shift assumes no
    mixing between cells of the same class, which is exact away from the
    cell-boundary columns and accurate to O(lambda^4) in general.  All
    binomials follow the composition convention (``comp(0, 0) = 1``), which
    matters on the edge cells ``n = 1`` or ``m = 1``: dropping their
    boundary term would introduce an O(lambda^2) error there, as the exact
    perturbation sum shows.  The longitudinal fields ``alpha = +/-2`` make a
    denominator vanish and are rejected.
    """
    N, n, m, k = _require_partition(N, n, m, k)
    if k == 0:
        raise InvalidArgs(
            f"(n, k) = ({n}, {k}) is not an interior cell of the ring N = {N}"
        )
    alpha, lam = float(alpha), float(lam)
    require_finite_couplings(lam, alpha)
    if abs(alpha) == 2.0:
        raise AlphaSingular(
            "the second-order shift is singular at alpha = +/-2 "
            "(a flip-assisted transition becomes resonant)"
        )
    if lam == 0.0:
        return 0.0
    f = _f_count(N, n, k)
    a, b, d = (2 * k - n) * f, (2 * k - m) * f, _shift_d(n, m, k)
    with float_range("the second-order cell shift", lam, alpha) as finite:
        return float(finite(_second_order_shift(N, alpha, lam, a, b, d, 1)))


def small_lambda_deltaE_R(N: int, lam: float, R: int) -> float:
    """Second-order shift of the class center: per-state average over the class.

    Interior cells contribute their cell shift; the shift of a polarized cell
    is outside the cell formula's domain (k = 0), so a class containing only
    polarized cells gets zero.
    """
    return _class_value(_class_shifts, N, lam, R)


def small_lambda_sigmaR(N: int, lam: float, R: int) -> float:
    """First-order width sigma_R of the degeneracy class R.

    The squared width is ``lam^4 / (1 + lam^2)^2`` times the per-state count
    of double-flip transitions that stay inside the class: block-splitting
    (a), block-joining (b), and block-conserving (c) moves summed over the
    class's cells.
    """
    return _class_value(_class_widths, N, lam, R)


def small_lambda_components(N: int, lam: float) -> GaussianMixture:
    """Class-cluster mixture at unit longitudinal field, one peak per R.

    Components are ordered by ascending R; centers carry the second-order
    shift, which vanishes at lambda = 0.
    """
    lam, N = float(lam), require_ring(N)
    table = _unit_alpha_classes(N)
    mu = _class_centers(table, N, lam) + _class_shifts(table, N, lam)
    sigma = _class_widths(table, N, lam)
    weights = _ratio(table.sums[:, 0], 2**N)
    return GaussianMixture(np.column_stack((weights, mu, sigma * sigma)))


# ----------------------------------------------------------------------------
# small-lambda cells at generic longitudinal field
# ----------------------------------------------------------------------------


def generic_alpha_components(N: int, lam: float, alpha: float) -> GaussianMixture:
    """Cell-resolved mixture at generic longitudinal field, one peak per (n, k).

    Peaks sit at the unperturbed cell energies ``alpha (N - 2n) + 4k - N``
    with weights ``f(n, k) / 2^N``; the two polarized cells are delta spikes
    of weight ``2^-N`` at ``N (alpha - 1)`` and ``-N (alpha + 1)``.  Interior
    cells take the large-(n, k) width
    ``2 lam^4/(alpha^2+lam^2)^2 k^2 (N - 2k) / (n (N - n))``.
    """
    lam, alpha = float(lam), float(alpha)
    _combined_field(lam, alpha)  # refuses lambda = alpha = 0
    with float_range("the cell width coupling", lam, alpha):
        coupling = lam**4 / (alpha**2 + lam**2) ** 2
    N = require_ring(N)
    _check_components(N, *_cell_cost(N))  # one per cell, with the walk's cells
    n, k, counts = zip(*cells(N))  # the two polarized cells first: spikes
    n, k = np.array(n), np.array(k)
    mu = alpha * (N - 2 * n) + 4 * k - N
    var = np.zeros(len(counts))
    n, k = n[2:], k[2:]  # interior cells only
    var[2:] = 2.0 * coupling * k * k * (N - 2 * k) / (n * (N - n))
    return GaussianMixture(np.column_stack((_ratio(counts, 2**N), mu, var)))


# ----------------------------------------------------------------------------
# XX projection check
# ----------------------------------------------------------------------------


def xx_projection_check(N: int, lam: float, alpha: float, n: int) -> XXProjectionReport:
    """Build the fixed-alignment hopping block and compare moments to formulas.

    At strong fields the block of the rotated Hamiltonian with ``n`` spins
    aligned with the combined field is ``sqrt(lambda^2 + alpha^2) (N - 2n)``
    plus an XX hopping term of amplitude ``-lambda^2 / (lambda^2 + alpha^2)``
    on the ring.  The report carries the block's exact first two spectral
    moments (computed from traces of the explicit matrix) next to the closed
    forms used by :func:`strong_field_components`.
    """
    N = require_ring(N)
    if N > XX_PROJECTION_MAX_SITES:
        raise CapExceeded(
            f"xx projection check caps at N = {XX_PROJECTION_MAX_SITES}, got {N}"
        )
    n = require_integer("occupation", "n", n)
    if n < 0 or n > N:
        raise InvalidArgs(f"occupation n must satisfy 0 <= n <= N, got n={n}, N={N}")
    lam, alpha = float(lam), float(alpha)
    require_finite_couplings(lam, alpha)
    with float_range("the XX projection block", lam, alpha) as finite:
        root = finite(_combined_field(lam, alpha))
        cos2 = finite(lam * lam / (lam * lam + alpha * alpha))
        states = [b for b in range(1 << N) if b.bit_count() == n]
        index = {b: i for i, b in enumerate(states)}
        dim = len(states)
        H = np.zeros((dim, dim))
        np.fill_diagonal(H, root * (N - 2 * n))
        for b in states:
            for j in range(N):
                j2 = (j + 1) % N
                if (b >> j) & 1 and not (b >> j2) & 1:
                    partner = b ^ (1 << j) ^ (1 << j2)
                    H[index[partner], index[b]] += -cos2
                    H[index[b], index[partner]] += -cos2
        mean_exact = float(np.trace(H)) / dim
        second = finite(float(np.sum(H * H)) / dim)  # Tr(H^2)/dim, H symmetric
    variance_exact = max(second - mean_exact * mean_exact, 0.0)
    mean_formula = root * (N - 2 * n)
    variance_formula = 2.0 * n * (N - n) / (N - 1) * cos2 * cos2
    return XXProjectionReport(
        dimension=dim,
        mean_exact=mean_exact,
        variance_exact=variance_exact,
        mean_formula=mean_formula,
        variance_formula=variance_formula,
        mean_deviation=abs(mean_exact - mean_formula),
        variance_deviation=abs(variance_exact - variance_formula),
    )
