"""Multi-Gaussian peak approximations of the many-body density of states.

Away from the crossover couplings the spectrum of the ring organizes into
well-separated clusters, and the density of states is captured by a convex
mixture of Gaussians, one per cluster.  Four regimes are covered:

* **Transverse field only** -- clusters labelled by the occupation ``n`` of
  one-particle modes; the mixture uses binomial weights over all ``n`` for
  ``|lambda| >= 1`` and over even ``n`` (with doubled weight) below that.
* **Both fields strong** -- clusters labelled by the number of spins
  anti-aligned with the combined field; widths come from the hopping the
  transverse part induces at fixed alignment.
* **Small coupling at unit longitudinal field** -- clusters labelled by the
  conserved combination ``R = 2k - n`` of aligned spins ``n`` and aligned
  blocks ``k``; centers carry a second-order correction and widths follow
  from transition counting within a class.
* **Small coupling at generic longitudinal field** -- one component per
  ``(n, k)`` cell, with the polarized cells appearing as delta spikes.

Each regime builds a :class:`GaussianMixture` of components (weights,
centers, widths), which samples itself onto a grid as a
:class:`~ising_density.curves.DensityCurve`; a visibility helper reports up
to which ring size the cluster structure remains resolved.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .blocks import (
    _comp,
    _count_Na,
    _count_Nb,
    _count_Nc,
    _f_count,
    _require_partition,
    _require_ring,
    _require_transition_ring,
    cells,
    count_Na,  # noqa: F401  (bench/tracer.py wraps it here)
    count_Nb,  # noqa: F401  (bench/tracer.py wraps it here)
    count_Nc,
    degeneracy_census,  # noqa: F401  (bench/tracer.py wraps it here)
    f_count,
)
from .curves import DensityCurve, _require_grid
from .errors import (
    AlphaSingular,
    CapExceeded,
    InvalidArgs,
    InvalidRegime,
    UnknownClass,
    beyond_float_range,
)
from .fermion import momentum_grid, one_particle_energy
from .quadrature import g_phi, integrate_phi

XX_PROJECTION_MAX_SITES = 12

_WEIGHT_TOL = 1e-12
_WINDOW_SIGMAS = 40.0  # exp(-40^2 / 2) underflows to 0.0
_MAX_CLASS_SITES = 1013  # the largest N with 2N 2^N < 2^1024


# ----------------------------------------------------------------------------
# mixture container
# ----------------------------------------------------------------------------


class MixtureComponent(NamedTuple):
    """One Gaussian peak: weight, center, and variance (0 = delta spike)."""

    w: float
    mu: float
    var: float


def _require_all(values: np.ndarray, ok: np.ndarray, rule: str) -> None:
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise InvalidArgs(f"component {rule}, got {float(values[bad[0]])!r}")


def _exact_shares(counts: Iterable[int], total: int) -> np.ndarray:
    """Each ``count / total`` divided as Python ints, so it is correctly rounded
    even where the counts and the total lie beyond float range."""
    return np.array([count / total for count in counts], dtype=float)


@dataclass(frozen=True)
class GaussianMixture:
    """A convex combination of Gaussian peaks.

    Built from ``(w, mu, var)`` triples or a ``(components, 3)`` array; the
    weights, centers and variances are kept as the read-only float arrays
    ``w``, ``mu`` and ``var`` and as the tuple ``components``.  Zero-variance
    components are delta spikes; when sampled onto a grid their mass is
    deposited on the nearest grid node, scaled by the inverse trapezoid
    weight of that node so the sampled curve integrates to the spike's
    weight exactly.
    """

    components: tuple[MixtureComponent, ...]
    w: np.ndarray = field(init=False, repr=False, compare=False)
    mu: np.ndarray = field(init=False, repr=False, compare=False)
    var: np.ndarray = field(init=False, repr=False, compare=False)

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
        for name, column in zip(("w", "mu", "var"), table.T):
            object.__setattr__(self, name, column)
        comps = tuple(map(MixtureComponent._make, table.tolist()))
        object.__setattr__(self, "components", comps)

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

    def to_json_dict(self) -> dict:
        return {"components": [c._asdict() for c in self.components]}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GaussianMixture":
        try:
            return cls([(c["w"], c["mu"], c["var"]) for c in payload["components"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgs(f"malformed mixture payload: {exc}") from exc


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


def mean_one_particle_energy(lam: float, N: int | None = None) -> float:
    """Average one-particle energy <e> at coupling lam.

    With ``N`` given this is the exact finite-ring average
    ``sum_j e(phi_j) / (2N)`` over the antiperiodic momenta; without it,
    the thermodynamic limit ``(1/2pi) int_0^{2pi} g(phi) dphi``.
    """
    lam = float(lam)
    if N is None:
        return integrate_phi(lambda phi: g_phi(phi, lam)) / (2.0 * math.pi)
    phis = momentum_grid(N, "even")
    return float(np.sum(one_particle_energy(lam, phis))) / (2 * N)


def _require_occupation(N: int, n: int) -> None:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidArgs(f"occupation n must be an integer, got {n!r}")
    if n < 0 or n > N:
        raise InvalidArgs(f"occupation n must satisfy 0 <= n <= N, got n={n}, N={N}")


# Overflowing couplings give non-finite moments, which are refused by name.
@np.errstate(over="ignore", invalid="ignore")
def _tfim_moments(N: int, lam: float, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    es = one_particle_energy(lam, momentum_grid(N, "even"))
    e1 = float(np.sum(es)) / (2 * N)
    e2 = float(np.sum(es * es)) / (4 * N)
    mean = (N - 2 * n) * e1
    var = 4.0 * n * (N - n) / (N - 1) * (e2 - e1 * e1)
    if not (np.isfinite(mean).all() and np.isfinite(var).all()):
        raise beyond_float_range("a transverse-field cluster moment", lam, 0.0)
    return mean, np.where(var < 0.0, 0.0, var)


def tfim_fixed_n_moments(N: int, lam: float, n: int) -> tuple[float, float]:
    """Mean and variance of the n-occupation cluster at transverse coupling lam.

    The cluster collects the C(N, n) ways of occupying n of the N
    antiperiodic one-particle levels.  Its mean is ``(N - 2n) <e>`` (the sign
    convention mirrors occupation n -> N - n) and its variance is the
    without-replacement sampling variance
    ``4 n (N - n) / (N - 1) * (<e^2> - <e>^2)``.
    """
    _require_occupation(N, n)
    mean, var = _tfim_moments(N, float(lam), np.array([n]))
    return float(mean[0]), float(var[0])


def tfim_mixture_components(N: int, lam: float) -> GaussianMixture:
    """Binomial mixture over occupation clusters for the transverse-field ring.

    For ``|lambda| >= 1`` every occupation contributes with weight
    ``C(N, n) / 2^N``; below that only even occupations appear, with doubled
    weight ``C(N, n) / 2^(N-1)``.  (The boundary coupling is rendered with
    the all-occupation branch.)
    """
    lam = float(lam)
    step = 1 if abs(lam) >= 1.0 else 2
    n = np.arange(0, N + 1, step)
    mean, var = _tfim_moments(N, lam, n)
    scale = 2**N if step == 1 else 2 ** (N - 1)
    w = _exact_shares(map(partial(math.comb, N), n.tolist()), scale)
    return GaussianMixture(np.column_stack((w, mean, var)))


# ----------------------------------------------------------------------------
# peak visibility
# ----------------------------------------------------------------------------

_REGIME_ALIASES = {
    "tfimlarge": "tfim-large",
    "tfimlargelambda": "tfim-large",
    "tfimsmall": "tfim-small",
    "tfimsmalllambda": "tfim-small",
    "strongfield": "strong-fields",
    "strongfields": "strong-fields",
    "smalllambdaintegeralpha": "small-lambda-integer-alpha",
    "integeralpha": "small-lambda-integer-alpha",
}

_VISIBILITY = {
    "tfim-large": lambda lam, alpha: 2.0 * lam * lam,
    "tfim-small": lambda lam, alpha: 8.0 / (lam * lam),
    "strong-fields": lambda lam, alpha: (
        2.0 * (lam * lam + alpha * alpha) ** 3 / lam**4
    ),
    "small-lambda-integer-alpha": lambda lam, alpha: 1.0 / lam**4,
}


def _normalize_regime(regime: str) -> str:
    text = str(regime).strip().lower().replace("λ", "lambda")
    key = "".join(ch for ch in text if ch.isalnum())
    try:
        return _REGIME_ALIASES[key]
    except KeyError:
        raise InvalidRegime(
            f"unknown visibility regime {regime!r}; expected one of "
            f"{sorted(set(_REGIME_ALIASES.values()))}"
        ) from None


def visibility_Nmax(lam: float, alpha: float, regime: str) -> Visibility:
    """Largest ring size N_max with resolved clusters in the given regime.

    The estimate compares the cluster spacing with the width of the widest
    cluster; for the small-coupling integer-alpha regime only the scaling
    ``1 / lambda^4`` is controlled, so the result is flagged as an
    order-of-magnitude statement.  Couplings whose N_max is not a finite
    float are rejected.
    """
    lam, alpha = float(lam), float(alpha)
    if not (math.isfinite(lam) and math.isfinite(alpha)):
        raise InvalidArgs(f"lambda and alpha must be finite, got {lam!r} and {alpha!r}")
    canon = _normalize_regime(regime)
    if lam == 0.0 and canon != "tfim-large":
        raise InvalidArgs(f"{canon} visibility requires lambda != 0")
    try:
        n_max = _VISIBILITY[canon](lam, alpha)
    except (ZeroDivisionError, OverflowError):  # a power under- or overflowed
        n_max = math.inf
    if not math.isfinite(n_max):
        raise beyond_float_range(f"{canon} visibility N_max", lam, alpha)
    return Visibility(n_max, canon == "small-lambda-integer-alpha")


# ----------------------------------------------------------------------------
# strong-field clusters
# ----------------------------------------------------------------------------


def _combined_field(lam: float, alpha: float) -> float:
    root_sq = lam * lam + alpha * alpha
    if root_sq == 0.0:
        raise InvalidArgs("strong-field formulas require lambda^2 + alpha^2 > 0")
    return math.sqrt(root_sq)


@np.errstate(over="ignore", invalid="ignore")  # as _tfim_moments
def _strong_field_moments(
    N: int, lam: float, alpha: float, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    root = _combined_field(lam, alpha)
    root_sq = root * root
    mean = root * (N - 2 * n) - (N - 4.0 * n * (N - n) / (N - 1)) * (
        alpha * alpha / root_sq
    )
    try:  # a float ** raises OverflowError where * and + give inf
        var = 2.0 * n * (N - n) / (N - 1) * lam**4 / root_sq**2
    except OverflowError:
        var = np.inf
    if not (np.isfinite(mean).all() and np.isfinite(var).all()):
        raise beyond_float_range("a strong-field cluster moment", lam, alpha)
    return mean, var


def strong_field_moments(
    N: int, lam: float, alpha: float, n: int
) -> tuple[float, float]:
    """Mean and variance of the n-th anti-alignment cluster at strong fields.

    ``n`` counts spins anti-aligned with the combined field of magnitude
    ``sqrt(lambda^2 + alpha^2)``.  The mean carries the first-order bond
    average at fixed alignment; the variance keeps the transverse hopping
    contribution, which dominates the width.
    """
    _require_occupation(N, n)
    mean, var = _strong_field_moments(N, float(lam), float(alpha), np.array([n]))
    return float(mean[0]), float(var[0])


def strong_field_components(N: int, lam: float, alpha: float) -> GaussianMixture:
    """Binomial mixture over anti-alignment clusters at strong fields."""
    n = np.arange(N + 1)
    mean, var = _strong_field_moments(N, float(lam), float(alpha), n)
    w = _exact_shares(map(partial(math.comb, N), n.tolist()), 2**N)
    return GaussianMixture(np.column_stack((w, mean, var)))


# ----------------------------------------------------------------------------
# small-lambda clusters at unit longitudinal field
# ----------------------------------------------------------------------------


class _ClassTable(NamedTuple):
    """Lambda-independent sums over the cells of each class R = 2k - n."""

    R: np.ndarray  # ascending labels, one row per class
    row: dict[int, int]
    weights: np.ndarray  # N_R / 2^N
    sums: np.ndarray  # float columns: N_R, S_R and the total of N_a + N_b + N_c
    cell_rows: np.ndarray  # the class row of each interior cell, in cells(N) order
    brackets: np.ndarray  # the shift bracket of each interior cell


@lru_cache(maxsize=64)
def _unit_alpha_classes(N: int) -> _ClassTable:
    """One walk over ``cells(N)`` collecting every sum a class needs.

    The sums are used as floats.  N_R <= 2^N; S_R = sum f k / N <= N_R / 2
    since k <= N/2, and the centers take 4 N S_R <= 2N 2^N; the transition
    total is at most N N_R (N flips per state).  So every float stays finite
    while 2N 2^N < 2^1024, that is N <= 1013; larger rings are refused before
    the walk.
    """
    _require_ring(N)
    if N > _MAX_CLASS_SITES:
        raise CapExceeded(
            f"unit-alpha class sums at N = {N} would leave float range "
            f"(2N 2^N must stay below 2^1024, so N <= {_MAX_CLASS_SITES})"
        )
    sums: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])
    cell_labels, brackets = [], []
    for n, k in cells(N):
        m, R = N - n, 2 * k - n
        f = _f_count(N, n, k)
        moves = _count_Na(N, n, m, k) + _count_Nb(N, n, m, k) + _count_Nc(N, n, m, k)
        sums[R][0] += f
        sums[R][2] += moves
        if k > 0:
            sums[R][1] += f * k // N
            cell_labels.append(R)
            brackets.append(_shift_bracket(n, m, k, 1.0))
    labels = sorted(sums)
    return _ClassTable(
        R=np.array(labels),
        row={R: i for i, R in enumerate(labels)},
        weights=_exact_shares((sums[R][0] for R in labels), 2**N),
        sums=np.array([sums[R] for R in labels], dtype=float),
        cell_rows=np.searchsorted(labels, cell_labels),
        brackets=np.array(brackets),
    )


def _class_value(values_of: Callable, N: int, lam: float, R: int) -> float:
    table = _unit_alpha_classes(N)
    if R not in table.row:
        raise UnknownClass(f"R = {R} labels no degeneracy class at N = {N}")
    return float(values_of(table, N, float(lam))[table.row[R]])


@np.errstate(over="ignore", invalid="ignore")  # as _tfim_moments
def _class_centers(table: _ClassTable, N: int, lam: float) -> np.ndarray:
    size, blocks, _ = table.sums.T
    root = math.sqrt(1.0 + lam * lam)
    centers = 2.0 * table.R * root + (root - 1.0 / (1.0 + lam * lam)) * (
        N - 4.0 * N * blocks / size
    )
    if not np.isfinite(centers).all():
        raise beyond_float_range("a class center E_R", lam, 1.0)
    return centers


def _class_shifts(table: _ClassTable, N: int, lam: float) -> np.ndarray:
    try:
        pref = 2.0 * lam**2 * N / (1.0 + lam**2) ** 2  # small_lambda_deltaE's, alpha = 1
    except OverflowError:
        raise beyond_float_range("the class shift prefactor", lam, 1.0) from None
    # bincount adds each class's cell shifts in cells(N) order.
    total = np.bincount(table.cell_rows, pref * table.brackets, len(table.R))
    return total / table.sums[:, 0]


def _class_widths(table: _ClassTable, N: int, lam: float) -> np.ndarray:
    _require_transition_ring(N)
    size, _, moves = table.sums.T
    try:
        return np.sqrt(lam**4 / (1.0 + lam * lam) ** 2 * moves / size)
    except OverflowError:
        raise beyond_float_range("a class width sigma_R", lam, 1.0) from None


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


def _shift_bracket(n: int, m: int, k: int, alpha: float) -> float:
    c_nk = _comp(n, k)
    c_mk = _comp(m, k)
    bracket = ((2 * k - n) / (2.0 + alpha) + (2 * k - m) / (2.0 - alpha)) * (
        c_nk * c_mk / k
    )
    return bracket + (2.0 * alpha / (4.0 - alpha**2)) * (
        _comp(n - 1, k - 1) * c_mk - c_nk * _comp(m - 1, k - 1)
    )


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
    _require_partition(N, n, m, k)
    if k == 0:
        raise InvalidArgs(
            f"(n, k) = ({n}, {k}) is not an interior cell of the ring N = {N}"
        )
    alpha, lam = float(alpha), float(lam)
    if abs(alpha) == 2.0:
        raise AlphaSingular(
            "the second-order shift is singular at alpha = +/-2 "
            "(a flip-assisted transition becomes resonant)"
        )
    if lam == 0.0:
        return 0.0
    pref = 2.0 * alpha**2 * lam**2 * N / (alpha**2 + lam**2) ** 2
    return pref * _shift_bracket(n, m, k, alpha)


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


def small_lambda_components(
    N: int, lam: float, corrections: bool = True
) -> GaussianMixture:
    """Class-cluster mixture at unit longitudinal field, one peak per R.

    Components are ordered by ascending R.  ``corrections=False`` drops the
    second-order center shifts (useful at lambda = 0, where they vanish
    anyway, and for isolating the first-order picture).
    """
    lam = float(lam)
    table = _unit_alpha_classes(N)
    mu = _class_centers(table, N, lam)
    if corrections:
        mu = mu + _class_shifts(table, N, lam)
    sigma = _class_widths(table, N, lam)
    return GaussianMixture(np.column_stack((table.weights, mu, sigma * sigma)))


# ----------------------------------------------------------------------------
# small-lambda cells at generic longitudinal field
# ----------------------------------------------------------------------------


def generic_alpha_components(
    N: int,
    lam: float,
    alpha: float,
    exact_variance: bool = False,
    sigma_floor: float = 0.0,
) -> GaussianMixture:
    """Cell-resolved mixture at generic longitudinal field, one peak per (n, k).

    Peaks sit at the unperturbed cell energies ``alpha (N - 2n) + 4k - N``
    with weights ``f(n, k) / 2^N``; the two polarized cells are delta spikes
    of weight ``2^-N`` at ``N (alpha - 1)`` and ``-N (alpha + 1)``.  The
    default width uses the large-(n, k) form
    ``2 lam^4/(alpha^2+lam^2)^2 k^2 (N - 2k) / (n (N - n))``;
    ``exact_variance`` replaces it with the exact per-state transition count
    ``N_c / f``.  ``sigma_floor`` imposes a lower bound on every component's
    standard deviation (useful for plotting the lambda = 0 spike profile as
    a smoothed curve).
    """
    lam, alpha = float(lam), float(alpha)
    sigma_floor = float(sigma_floor)
    if sigma_floor < 0.0:
        raise InvalidArgs(f"sigma_floor must be >= 0, got {sigma_floor!r}")
    if lam * lam + alpha * alpha == 0.0:
        raise InvalidArgs("cell widths require lambda^2 + alpha^2 > 0")
    try:
        coupling = lam**4 / (alpha**2 + lam**2) ** 2
    except OverflowError:
        raise beyond_float_range("the cell width coupling", lam, alpha) from None
    floor_var = sigma_floor * sigma_floor
    pairs = cells(N)  # the two polarized cells first: spikes
    n, k = np.array(pairs).T
    counts = [f_count(N, a, b) for a, b in pairs]
    mu = alpha * (N - 2 * n) + 4 * k - N
    var = np.zeros(len(pairs))
    if exact_variance:  # count_Nc refuses the two-site ring
        var[2:] = coupling * np.array(
            [count_Nc(N, a, N - a, b) / f for (a, b), f in zip(pairs[2:], counts[2:])]
        )
    else:
        n, k = n[2:], k[2:]  # interior cells only
        var[2:] = 2.0 * coupling * k * k * (N - 2 * k) / (n * (N - n))
    var = np.where(floor_var > var, floor_var, var)
    return GaussianMixture(np.column_stack((_exact_shares(counts, 2**N), mu, var)))


# ----------------------------------------------------------------------------
# XX projection check
# ----------------------------------------------------------------------------


def xx_projection_check(N: int, lam: float, alpha: float, n: int) -> XXProjectionReport:
    """Build the fixed-alignment hopping block and compare moments to formulas.

    At strong fields the block of the rotated Hamiltonian with ``n``
    anti-aligned spins is ``sqrt(lambda^2 + alpha^2) (N - 2n)`` plus an XX
    hopping term of amplitude ``-lambda^2 / (lambda^2 + alpha^2)`` on the
    ring.  The report carries the block's exact first two spectral moments
    (computed from traces of the explicit matrix) next to the closed forms
    used by :func:`strong_field_moments`.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InvalidArgs(f"N must be an integer >= 2, got {N!r}")
    if N > XX_PROJECTION_MAX_SITES:
        raise CapExceeded(
            f"xx projection check caps at N = {XX_PROJECTION_MAX_SITES}, got {N}"
        )
    _require_occupation(N, n)
    lam, alpha = float(lam), float(alpha)
    root = _combined_field(lam, alpha)
    cos2 = lam * lam / (lam * lam + alpha * alpha)
    states = [b for b in range(1 << N) if bin(b).count("1") == n]
    index = {b: i for i, b in enumerate(states)}
    dim = len(states)
    H = np.zeros((dim, dim))
    diag = root * (N - 2 * n)
    np.fill_diagonal(H, diag)
    for b in states:
        for j in range(N):
            j2 = (j + 1) % N
            if (b >> j) & 1 and not (b >> j2) & 1:
                partner = b ^ (1 << j) ^ (1 << j2)
                H[index[partner], index[b]] += -cos2
                H[index[b], index[partner]] += -cos2
    mean_exact = float(np.trace(H)) / dim
    second = float(np.sum(H * H)) / dim  # Tr(H^2)/dim for the symmetric block
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
