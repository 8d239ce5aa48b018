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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from .blocks import (
    _comp,
    _require_partition,
    cells,
    count_Na,
    count_Nb,
    count_Nc,
    degeneracy_census,
    f_count,
)
from .curves import DensityCurve
from .errors import (
    AlphaSingular,
    CapExceeded,
    InvalidArgs,
    InvalidRegime,
    UnknownClass,
)
from .fermion import momentum_grid, one_particle_energy
from .quadrature import g_phi, integrate_phi

__all__ = [
    "XX_PROJECTION_MAX_SITES",
    "GaussianMixture",
    "MixtureComponent",
    "Visibility",
    "XXProjectionReport",
    "generic_alpha_components",
    "mean_one_particle_energy",
    "small_lambda_components",
    "small_lambda_deltaE",
    "small_lambda_deltaE_R",
    "small_lambda_ER",
    "small_lambda_sigmaR",
    "strong_field_components",
    "strong_field_moments",
    "tfim_fixed_n_moments",
    "tfim_mixture_components",
    "visibility_Nmax",
    "xx_projection_check",
]

XX_PROJECTION_MAX_SITES = 12

_WEIGHT_TOL = 1e-12


# ----------------------------------------------------------------------------
# mixture container
# ----------------------------------------------------------------------------


class MixtureComponent(NamedTuple):
    """One Gaussian peak: weight, center, and variance (0 = delta spike)."""

    w: float
    mu: float
    var: float


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    tw = np.empty_like(grid)
    tw[0] = 0.5 * (grid[1] - grid[0])
    tw[-1] = 0.5 * (grid[-1] - grid[-2])
    tw[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return tw


@dataclass(frozen=True)
class GaussianMixture:
    """A convex combination of Gaussian peaks.

    Zero-variance components are delta spikes; when sampled onto a grid
    their mass is deposited on the nearest grid node, scaled by the inverse
    trapezoid weight of that node so the sampled curve integrates to the
    spike's weight exactly.
    """

    components: tuple[MixtureComponent, ...]

    def __post_init__(self) -> None:
        comps = tuple(
            MixtureComponent(float(w), float(mu), float(var))
            for w, mu, var in self.components
        )
        if not comps:
            raise InvalidArgs("a mixture needs at least one component")
        total = 0.0
        for comp in comps:
            if not comp.w >= 0.0:
                raise InvalidArgs(f"component weight must be >= 0, got {comp.w!r}")
            if not comp.var >= 0.0:
                raise InvalidArgs(f"component variance must be >= 0, got {comp.var!r}")
            if not math.isfinite(comp.mu):
                raise InvalidArgs(f"component center must be finite, got {comp.mu!r}")
            total += comp.w
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise InvalidArgs(f"component weights must sum to 1, got {total!r}")
        object.__setattr__(self, "components", comps)

    def density_curve(self, grid: Iterable[float], abscissa: str = "E") -> DensityCurve:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2:
            raise InvalidArgs("grid must be a 1-D array with at least two points")
        values = np.zeros_like(grid)
        spikes = []
        for w, mu, var in self.components:
            if var > 0.0:
                values += (
                    w
                    * np.exp(-((grid - mu) ** 2) / (2.0 * var))
                    / math.sqrt(2.0 * math.pi * var)
                )
            elif w > 0.0:
                spikes.append((w, mu))
        if spikes:
            tw = _trapezoid_weights(grid)
            for w, mu in spikes:
                if mu < grid[0] or mu > grid[-1]:
                    continue  # off-grid spikes carry no representable mass
                i = int(np.argmin(np.abs(grid - mu)))
                values[i] += w / tw[i]
        return DensityCurve(grid=grid, values=values, abscissa=abscissa, norm="unit")

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {"w": c.w, "mu": c.mu, "var": c.var} for c in self.components
            ]
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "GaussianMixture":
        try:
            comps = tuple(
                MixtureComponent(float(c["w"]), float(c["mu"]), float(c["var"]))
                for c in payload["components"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgs(f"malformed mixture payload: {exc}") from exc
        return cls(comps)


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


def tfim_fixed_n_moments(N: int, lam: float, n: int) -> tuple[float, float]:
    """Mean and variance of the n-occupation cluster at transverse coupling lam.

    The cluster collects the C(N, n) ways of occupying n of the N
    antiperiodic one-particle levels.  Its mean is ``(N - 2n) <e>`` (the sign
    convention mirrors occupation n -> N - n) and its variance is the
    without-replacement sampling variance
    ``4 n (N - n) / (N - 1) * (<e^2> - <e>^2)``.
    """
    phis = momentum_grid(N, "even")
    _require_occupation(N, n)
    es = one_particle_energy(float(lam), phis)
    e1 = float(np.sum(es)) / (2 * N)
    e2 = float(np.sum(es * es)) / (4 * N)
    mean = (N - 2 * n) * e1
    var = 4.0 * n * (N - n) / (N - 1) * (e2 - e1 * e1)
    return mean, max(var, 0.0)


def tfim_mixture_components(N: int, lam: float) -> GaussianMixture:
    """Binomial mixture over occupation clusters for the transverse-field ring.

    For ``|lambda| >= 1`` every occupation contributes with weight
    ``C(N, n) / 2^N``; below that only even occupations appear, with doubled
    weight ``C(N, n) / 2^(N-1)``.  (The boundary coupling is rendered with
    the all-occupation branch.)
    """
    lam = float(lam)
    occupations = range(0, N + 1) if abs(lam) >= 1.0 else range(0, N + 1, 2)
    scale = 2**N if abs(lam) >= 1.0 else 2 ** (N - 1)
    comps = []
    for n in occupations:
        mean, var = tfim_fixed_n_moments(N, lam, n)
        comps.append(MixtureComponent(math.comb(N, n) / scale, mean, var))
    return GaussianMixture(tuple(comps))


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
    order-of-magnitude statement.
    """
    lam, alpha = float(lam), float(alpha)
    if not (math.isfinite(lam) and math.isfinite(alpha)):
        raise InvalidArgs(f"lambda and alpha must be finite, got {lam!r} and {alpha!r}")
    canon = _normalize_regime(regime)
    if canon == "tfim-large":
        return Visibility(2.0 * lam * lam, False)
    if canon == "tfim-small":
        if lam == 0.0:
            raise InvalidArgs("tfim-small visibility requires lambda != 0")
        return Visibility(8.0 / (lam * lam), False)
    if canon == "strong-fields":
        if lam == 0.0:
            raise InvalidArgs("strong-fields visibility requires lambda != 0")
        return Visibility(2.0 * (lam * lam + alpha * alpha) ** 3 / lam**4, False)
    if lam == 0.0:
        raise InvalidArgs("small-lambda visibility requires lambda != 0")
    return Visibility(1.0 / lam**4, True)


# ----------------------------------------------------------------------------
# strong-field clusters
# ----------------------------------------------------------------------------


def _combined_field(lam: float, alpha: float) -> float:
    root_sq = lam * lam + alpha * alpha
    if root_sq == 0.0:
        raise InvalidArgs("strong-field formulas require lambda^2 + alpha^2 > 0")
    return math.sqrt(root_sq)


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
    lam, alpha = float(lam), float(alpha)
    root = _combined_field(lam, alpha)
    root_sq = root * root
    mean = root * (N - 2 * n) - (N - 4.0 * n * (N - n) / (N - 1)) * (
        alpha * alpha / root_sq
    )
    var = 2.0 * n * (N - n) / (N - 1) * lam**4 / root_sq**2
    return mean, var


def strong_field_components(N: int, lam: float, alpha: float) -> GaussianMixture:
    """Binomial mixture over anti-alignment clusters at strong fields."""
    comps = []
    for n in range(N + 1):
        mean, var = strong_field_moments(N, lam, alpha, n)
        comps.append(MixtureComponent(math.comb(N, n) / 2**N, mean, var))
    return GaussianMixture(tuple(comps))


# ----------------------------------------------------------------------------
# small-lambda clusters at unit longitudinal field
# ----------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _unit_alpha_census(N: int):
    return degeneracy_census(N, 1)


def _require_class(N: int, R: int) -> dict:
    classes = _unit_alpha_census(N).classes
    if R not in classes:
        raise UnknownClass(f"R = {R} labels no degeneracy class at N = {N}")
    return classes


@lru_cache(maxsize=64)
def _unit_alpha_cells(N: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """The (n, k) cells of each class R = 2k - n, in ``cells(N)`` order."""
    by_class: dict[int, list[tuple[int, int]]] = {}
    for n, k in cells(N):
        by_class.setdefault(2 * k - n, []).append((n, k))
    return {R: tuple(members) for R, members in by_class.items()}


def _class_cells(
    N: int, R: int, interior_only: bool = False
) -> tuple[tuple[int, int], ...]:
    members = _unit_alpha_cells(N).get(R, ())
    return tuple(c for c in members if c[1] > 0) if interior_only else members


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
    lam = float(lam)
    classes = _require_class(N, R)
    N_R = classes[R]
    S = sum(
        math.comb(n - 1, k - 1) * math.comb(N - n - 1, k - 1)
        for n, k in _class_cells(N, R, interior_only=True)
    )
    root = math.sqrt(1.0 + lam * lam)
    return 2.0 * R * root + (root - 1.0 / (1.0 + lam * lam)) * (
        N - 4.0 * N * S / N_R
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
    c_nk = _comp(n, k)
    c_mk = _comp(m, k)
    c_nk2 = _comp(n - 1, k - 1)
    c_mk2 = _comp(m - 1, k - 1)
    bracket = ((2 * k - n) / (2.0 + alpha) + (2 * k - m) / (2.0 - alpha)) * (
        c_nk * c_mk / k
    )
    bracket += (2.0 * alpha / (4.0 - alpha**2)) * (c_nk2 * c_mk - c_nk * c_mk2)
    return pref * bracket


def small_lambda_deltaE_R(N: int, lam: float, R: int) -> float:
    """Second-order shift of the class center: per-state average over the class.

    Interior cells contribute their cell shift; the shift of a polarized cell
    is outside the cell formula's domain (k = 0), so a class containing only
    polarized cells gets zero.
    """
    lam = float(lam)
    classes = _require_class(N, R)
    total = sum(
        small_lambda_deltaE(N, n, N - n, k, 1.0, lam)
        for n, k in _class_cells(N, R, interior_only=True)
    )
    return total / classes[R]


def small_lambda_sigmaR(N: int, lam: float, R: int) -> float:
    """First-order width sigma_R of the degeneracy class R.

    The squared width is ``lam^4 / (1 + lam^2)^2`` times the per-state count
    of double-flip transitions that stay inside the class: block-splitting
    (a), block-joining (b), and block-conserving (c) moves summed over the
    class's cells.
    """
    lam = float(lam)
    classes = _require_class(N, R)
    total = 0
    for n, k in _class_cells(N, R):
        m = N - n
        total += count_Na(N, n, m, k) + count_Nb(N, n, m, k) + count_Nc(N, n, m, k)
    var = lam**4 / (1.0 + lam * lam) ** 2 * total / classes[R]
    return math.sqrt(var)


def small_lambda_components(
    N: int, lam: float, corrections: bool = True
) -> GaussianMixture:
    """Class-cluster mixture at unit longitudinal field, one peak per R.

    Components are ordered by ascending R.  ``corrections=False`` drops the
    second-order center shifts (useful at lambda = 0, where they vanish
    anyway, and for isolating the first-order picture).
    """
    lam = float(lam)
    census = _unit_alpha_census(N)
    comps = []
    for R in sorted(census.classes):
        w = census.classes[R] / 2**N
        mu = small_lambda_ER(N, lam, R)
        if corrections:
            mu += small_lambda_deltaE_R(N, lam, R)
        sigma = small_lambda_sigmaR(N, lam, R)
        comps.append(MixtureComponent(w, mu, sigma * sigma))
    return GaussianMixture(tuple(comps))


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
    coupling = lam**4 / (alpha**2 + lam**2) ** 2
    floor_var = sigma_floor * sigma_floor
    comps = []
    for n, k in ((0, 0), (N, 0)):
        mu = alpha * (N - 2 * n) + 4 * k - N
        comps.append(MixtureComponent(1 / 2**N, mu, max(0.0, floor_var)))
    for n, k in cells(N, include_polarized=False):
        f = f_count(N, n, k)
        mu = alpha * (N - 2 * n) + 4 * k - N
        if exact_variance:
            var = coupling * float(Fraction(count_Nc(N, n, N - n, k), f))
        else:
            var = 2.0 * coupling * k * k * (N - 2 * k) / (n * (N - n))
        comps.append(MixtureComponent(f / 2**N, mu, max(var, floor_var)))
    return GaussianMixture(tuple(comps))


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
