"""Oracle tests for the multi-Gaussian peak approximations.

Oracle discipline mirrors the other test modules:

* [DERIVED] values come from independent reconstructions computed here:
  exhaustive occupation-subset enumeration for the fixed-n moments, a dense
  rotated-frame Hamiltonian with degenerate perturbation sums for the
  small-lambda cluster formulas, and brute-force cluster statistics from
  exact spectra.
* Hand evaluations are frozen as literals with the derivation noted inline.
* Cheap identities (weights summing to one, symmetry, error types) are
  asserted directly.

The dense rotated-frame construction used by several oracles was checked
against the plain two-field Hamiltonian (unitary equivalence of sorted
spectra to 1e-14) before being adopted here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from ising_density.blocks import (
    _count_Na,
    _count_Nb,
    _count_Nc,
    brute_force_census,
    cells,
    count_Na,
    count_Nb,
    count_Nc,
    degeneracy_census,
    f_count,
)
from ising_density.cli import _build_mixture
from ising_density.curves import DensityCurve
from ising_density.errors import (
    AlphaSingular,
    CapExceeded,
    InvalidArgs,
    InvalidRegime,
    OddN,
    UnknownClass,
)
from ising_density.fermion import momentum_grid, one_particle_energy
from ising_density.model import IsingParams, build_hamiltonian, exact_spectrum
from ising_density.peaks import (
    GaussianMixture,
    MixtureComponent,
    Visibility,
    XXProjectionReport,
    generic_alpha_components,
    mean_one_particle_energy,
    small_lambda_components,
    small_lambda_deltaE,
    small_lambda_deltaE_R,
    small_lambda_ER,
    small_lambda_sigmaR,
    strong_field_components,
    strong_field_moments,
    tfim_fixed_n_moments,
    tfim_mixture_components,
    visibility_Nmax,
    xx_projection_check,
)
from ising_density.peaks import _unit_alpha_classes

# ----------------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------------


def comb0(a: int, b: int) -> int:
    """Binomial that vanishes outside 0 <= b <= a (matches the counting use)."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def rotated_hamiltonian(N: int, lam: float, alpha: float) -> np.ndarray:
    """Two-field Hamiltonian in the combined-field frame (dense, 2^N)."""
    dim = 1 << N
    root = math.sqrt(lam * lam + alpha * alpha)
    sin2 = alpha * alpha / (lam * lam + alpha * alpha)
    sincos = lam * alpha / (lam * lam + alpha * alpha)
    cos2 = lam * lam / (lam * lam + alpha * alpha)
    H = np.zeros((dim, dim))
    for b in range(dim):
        s = [2 * ((b >> j) & 1) - 1 for j in range(N)]
        bonds = sum(s[j] * s[(j + 1) % N] for j in range(N))
        n_up = sum((b >> j) & 1 for j in range(N))
        H[b, b] = -root * (2 * n_up - N) - sin2 * bonds
        for j in range(N):
            H[b ^ (1 << j), b] += -sincos * (s[(j - 1) % N] + s[(j + 1) % N])
        for j in range(N):
            H[b ^ (1 << j) ^ (1 << ((j + 1) % N)), b] += -cos2
    return H


def classify_cell(N: int, b: int) -> tuple[int, int]:
    """(n, k) for a basis state: aligned-spin count and cyclic block count."""
    n = bin(b).count("1")
    if b == 0 or b == (1 << N) - 1:
        return n, 0
    k = sum(
        1 for j in range(N) if (b >> j) & 1 and not (b >> ((j - 1) % N)) & 1
    )
    return n, k


def pt2_cell_shift(N: int, cell_n: int, cell_k: int, alpha: int, lam: float) -> float:
    """Second-order shift of one (n, k) cell, summed over its states.

    Uses the exact off-diagonal elements at coupling lam and the lambda=0
    class-energy denominators E0(R) - E0(R') = 2 (R - R') for integer alpha,
    summing over all couplings that leave the R class.
    """
    H = rotated_hamiltonian(N, lam, alpha)
    R_of = {}
    for b in range(1 << N):
        n, k = classify_cell(N, b)
        R_of[b] = 2 * k - alpha * n
    total = 0.0
    for b in range(1 << N):
        n, k = classify_cell(N, b)
        if (n, k) != (cell_n, cell_k):
            continue
        for f in range(1 << N):
            if R_of[f] == R_of[b]:
                continue
            total += H[b, f] ** 2 / (2.0 * (R_of[b] - R_of[f]))
    return total


@lru_cache(maxsize=None)
def dense_energies(N: int, lam: float, alpha: float) -> np.ndarray:
    return exact_spectrum(IsingParams.two_field(N, lam, alpha)).energies


def cluster_by_nearest(energies: np.ndarray, centers: np.ndarray) -> list[np.ndarray]:
    idx = np.argmin(np.abs(energies[:, None] - centers[None, :]), axis=1)
    return [energies[idx == i] for i in range(len(centers))]


def finite_e_avg(N: int, lam: float) -> float:
    phis = momentum_grid(N, "even")
    return float(np.sum(one_particle_energy(lam, phis))) / (2 * N)


# ----------------------------------------------------------------------------
# GaussianMixture container
# ----------------------------------------------------------------------------


def full_sum_density(mix: GaussianMixture, grid: np.ndarray) -> np.ndarray:
    """Every Gaussian on every node in component order, then each spike on
    its nearest node (the lower one on a tie).  Outside its window a Gaussian
    underflows to 0.0, so the windowed sampling must match this bit for bit."""
    values = np.zeros_like(grid)
    for w, mu, var in mix.components:
        if var > 0.0:
            values += w * np.exp(-((grid - mu) ** 2) / (2.0 * var)) / math.sqrt(
                2.0 * math.pi * var
            )
    trapezoid = np.gradient(grid)
    trapezoid[[0, -1]] *= 0.5
    for w, mu, var in mix.components:
        if var == 0.0 and grid[0] <= mu <= grid[-1]:
            i = int(np.argmin(np.abs(grid - mu)))
            values[i] += w / trapezoid[i]
    return values


class TestGaussianMixture:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidArgs):
            GaussianMixture((MixtureComponent(0.5, 0.0, 1.0),))

    def test_negative_weight_rejected(self):
        for bad, rule in ((-0.5, ">= 0"), (math.inf, "finite"), (math.nan, "finite")):
            with pytest.raises(InvalidArgs, match=rule):
                GaussianMixture(
                    (
                        MixtureComponent(1.5, 0.0, 1.0),
                        MixtureComponent(bad, 1.0, 1.0),
                    )
                )

    def test_negative_variance_rejected(self):
        for bad, rule in ((-1e-6, ">= 0"), (math.inf, "finite"), (math.nan, "finite")):
            with pytest.raises(InvalidArgs, match=rule):
                GaussianMixture((MixtureComponent(1.0, 0.0, bad),))

    def test_single_gaussian_curve_matches_formula(self):
        mix = GaussianMixture((MixtureComponent(1.0, 0.5, 2.0),))
        grid = np.linspace(-10.0, 11.0, 2001)
        curve = mix.density_curve(grid)
        expect = np.exp(-((grid - 0.5) ** 2) / 4.0) / math.sqrt(4.0 * math.pi)
        assert curve.values == pytest.approx(expect, rel=1e-12, abs=1e-300)
        assert curve.integral() == pytest.approx(1.0, abs=1e-9)

    def test_spike_deposition_is_mass_preserving(self):
        # Interior spike: trapezoid weight of an interior node on a uniform
        # grid of spacing 1 is exactly 1, so the node value equals the mass.
        mix = GaussianMixture((MixtureComponent(1.0, 3.2, 0.0),))
        grid = np.linspace(0.0, 10.0, 11)
        curve = mix.density_curve(grid)
        assert curve.values[3] == pytest.approx(1.0, rel=1e-12)
        assert np.count_nonzero(curve.values) == 1
        assert curve.integral() == pytest.approx(1.0, rel=1e-12)

    def test_edge_spike_keeps_unit_integral(self):
        mix = GaussianMixture((MixtureComponent(1.0, 0.0, 0.0),))
        grid = np.linspace(0.0, 10.0, 11)
        curve = mix.density_curve(grid)
        # Edge trapezoid weight is half a spacing, so the node doubles.
        assert curve.values[0] == pytest.approx(2.0, rel=1e-12)
        assert curve.integral() == pytest.approx(1.0, rel=1e-12)

    def test_spikes_land_on_the_nearest_node(self):
        # Reference: argmin of the distance, which takes the lower node on
        # a tie; spikes at the ends, on nodes, midway and in between.
        grid = np.linspace(-1.0, 1.0, 9)
        mus = [-1.0, -0.875, -0.75, -0.1, 0.0, 0.125, 0.6, 0.99, 1.0]
        mix = GaussianMixture([(1.0 / len(mus), mu, 0.0) for mu in mus])
        expect = np.zeros_like(grid)
        tw = np.full_like(grid, 0.25)
        tw[[0, -1]] = 0.125
        for mu in mus:
            i = int(np.argmin(np.abs(grid - mu)))
            expect[i] += (1.0 / len(mus)) / tw[i]
        np.testing.assert_array_equal(mix.density_curve(grid).values, expect)

    def test_out_of_grid_spike_is_dropped(self):
        mix = GaussianMixture(
            (
                MixtureComponent(0.5, -5.0, 0.0),
                MixtureComponent(0.5, 2.0, 0.0),
            )
        )
        grid = np.linspace(0.0, 4.0, 5)
        curve = mix.density_curve(grid)
        assert curve.integral() == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("case", ["narrow", "off-grid", "clipped", "spikes"])
    @pytest.mark.parametrize("seed", range(4))
    def test_windows_equal_the_full_sum(self, case, seed):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(-10.0, 10.0, 400))
        size = 60
        mu = rng.uniform(-9.0, 9.0, size)
        sigma = rng.uniform(0.05, 2.0, size)
        if case == "narrow":  # mostly below the grid spacing of about 0.05
            sigma = 10.0 ** rng.uniform(-4.0, -1.0, size)
        elif case == "off-grid":  # half the windows miss the grid
            mu[::2] = rng.choice([-1.0, 1.0], size // 2) * rng.uniform(600.0, 1e4, size // 2)
        elif case == "clipped":  # windows cut at either end
            mu = rng.choice([-10.0, 10.0], size) + rng.uniform(-3.0, 3.0, size)
            sigma = rng.uniform(0.5, 40.0, size)
        var = sigma**2
        if case == "narrow":  # mu +/- 40 sigma rounds to mu: only the node at mu
            mu[:3], var[:3] = grid[[10, 200, 390]], 1e-300
        elif case == "spikes":
            var[::3] = 0.0
        w = rng.dirichlet(np.ones(size))
        mix = GaussianMixture(np.column_stack((w, mu, var)))
        np.testing.assert_array_equal(
            mix.density_curve(grid).values, full_sum_density(mix, grid)
        )

    def test_builder_mixture_equals_the_full_sum(self):
        # Three spikes (the polarized cells and k = N/2) and 63 Gaussians,
        # 11 of them narrower than the grid spacing.
        mix = generic_alpha_components(16, 0.05, 0.47)
        grid = np.linspace(-40.0, 30.0, 7001)
        np.testing.assert_array_equal(
            mix.density_curve(grid).values, full_sum_density(mix, grid)
        )

    @pytest.mark.parametrize("grid", [
        np.linspace(1.0, -1.0, 5),
        np.array([-1.0, 0.0, 0.0, 1.0]),
        np.array([-1.0, math.nan, 1.0]),
        np.array([-1.0, 0.0, math.inf]),
    ])
    def test_grid_must_be_strictly_ascending(self, grid):
        mix = GaussianMixture(((0.5, 0.0, 1.0), (0.5, 0.3, 0.0)))
        with pytest.raises(InvalidArgs, match="strictly ascending"):
            mix.density_curve(grid)

    def test_json_round_trip(self):
        mix = GaussianMixture(
            (
                MixtureComponent(0.25, -1.0, 0.0),
                MixtureComponent(0.75, 2.0, 3.0),
            )
        )
        payload = mix.to_json_dict()
        assert payload == {
            "components": [
                {"w": 0.25, "mu": -1.0, "var": 0.0},
                {"w": 0.75, "mu": 2.0, "var": 3.0},
            ]
        }
        again = GaussianMixture.from_json_dict(payload)
        assert again == mix


# ----------------------------------------------------------------------------
# one-particle average
# ----------------------------------------------------------------------------


class TestMeanOneParticleEnergy:
    def test_free_point_is_exactly_one(self):
        assert mean_one_particle_energy(0.0, N=8) == pytest.approx(1.0, rel=1e-14)
        assert mean_one_particle_energy(0.0) == pytest.approx(1.0, rel=1e-12)

    def test_critical_integral_value(self):
        # (1/2pi) Int_0^{2pi} sqrt(2 - 2 cos phi) dphi
        #   = (1/2pi) Int 2 |sin(phi/2)| dphi = 4/pi.
        assert mean_one_particle_energy(1.0) == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_finite_sum_converges_to_integral(self):
        lam = 0.7
        finite = mean_one_particle_energy(lam, N=2000)
        limit = mean_one_particle_energy(lam)
        assert finite == pytest.approx(limit, abs=1e-6)

    def test_matches_momentum_grid_sum(self):
        N, lam = 10, 1.3
        assert mean_one_particle_energy(lam, N=N) == pytest.approx(
            finite_e_avg(N, lam), rel=1e-14
        )


# ----------------------------------------------------------------------------
# transverse-field fixed-n moments
# ----------------------------------------------------------------------------


class TestTfimFixedNMoments:
    @pytest.mark.parametrize("n", [0, 1, 3, 6, 8])
    def test_free_point(self, n):
        mean, var = tfim_fixed_n_moments(8, 0.0, n)
        assert mean == pytest.approx(8 - 2 * n, rel=1e-14, abs=1e-14)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_empty_subset_has_zero_variance(self):
        _, var = tfim_fixed_n_moments(10, 1.7, 0)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_against_exhaustive_subset_oracle(self):
        # All C(8,3) ways to occupy 3 of the 8 antiperiodic levels, with the
        # common -sum(e)/2 offset; the formula mean carries the opposite sign
        # convention (documented), the variance is convention-free.
        N, lam, n = 8, 2.0, 3
        es = one_particle_energy(lam, momentum_grid(N, "even"))
        offset = -0.5 * float(np.sum(es))
        sums = np.array(
            [sum(c) + offset for c in itertools.combinations(es, n)]
        )
        mean, var = tfim_fixed_n_moments(N, lam, n)
        assert var == pytest.approx(float(np.var(sums)), rel=1e-12)
        assert mean == pytest.approx(-float(np.mean(sums)), rel=1e-12)

    def test_single_level_variance_is_population_variance(self):
        N, lam = 10, 0.6
        es = one_particle_energy(lam, momentum_grid(N, "even"))
        _, var = tfim_fixed_n_moments(N, lam, 1)
        assert var == pytest.approx(float(np.var(es)), rel=1e-12)

    def test_variance_symmetric_under_occupation_complement(self):
        for n in range(0, 13):
            _, v1 = tfim_fixed_n_moments(12, 0.8, n)
            _, v2 = tfim_fixed_n_moments(12, 0.8, 12 - n)
            assert v1 == pytest.approx(v2, rel=1e-13, abs=1e-13)

    def test_invalid_occupation_rejected(self):
        with pytest.raises(InvalidArgs):
            tfim_fixed_n_moments(8, 1.0, -1)
        with pytest.raises(InvalidArgs):
            tfim_fixed_n_moments(8, 1.0, 9)

    def test_odd_ring_rejected(self):
        with pytest.raises(OddN):
            tfim_fixed_n_moments(7, 1.0, 2)


class TestTfimMixture:
    def test_small_coupling_components(self):
        mix = tfim_mixture_components(8, 0.2)
        assert len(mix.components) == 5  # even occupation numbers only
        e_avg = finite_e_avg(8, 0.2)
        for comp, n in zip(mix.components, range(0, 9, 2)):
            assert comp.w == pytest.approx(2 * math.comb(8, n) / 2**8, rel=1e-14)
            assert comp.mu == pytest.approx((8 - 2 * n) * e_avg, rel=1e-13, abs=1e-13)

    def test_large_coupling_components(self):
        mix = tfim_mixture_components(8, 10.0)
        assert len(mix.components) == 9
        assert [c.w for c in mix.components] == pytest.approx(
            [math.comb(8, n) / 2**8 for n in range(9)], rel=1e-14
        )

    def test_boundary_coupling_uses_all_occupations(self):
        # |lambda| = 1 is rendered with the all-n branch, matching how the
        # lambda = 1 panel is drawn with the large-coupling formula.
        assert len(tfim_mixture_components(8, 1.0).components) == 9

    @pytest.mark.parametrize("lam", [0.2, 1.5])
    def test_unit_integral(self, lam):
        width = 14 * (1 + lam) + 12.0
        grid = np.linspace(-width, width, 4001)
        curve = tfim_mixture_components(14, lam).density_curve(grid)
        assert isinstance(curve, DensityCurve)
        assert curve.integral() == pytest.approx(1.0, abs=1e-9)

    def test_density_symmetric_in_energy(self):
        grid = np.linspace(-24.0, 24.0, 1001)
        curve = tfim_mixture_components(10, 0.7).density_curve(grid)
        assert curve.values == pytest.approx(curve.values[::-1], rel=1e-12, abs=1e-300)

    def test_cluster_counts_at_strong_coupling(self):
        # Resolved-peak regime: assigning each exact level to the nearest
        # component mean recovers the binomial multiplicities exactly.
        from ising_density.fermion import enumerate_spectrum

        N, lam = 8, 10.0
        energies = enumerate_spectrum(N, lam).energies
        mix = tfim_mixture_components(N, lam)
        means = np.array([c.mu for c in mix.components])
        clusters = cluster_by_nearest(energies, means)
        # The mean sign convention mirrors occupation n -> N - n, so compare
        # against the reversed binomial row (which is symmetric anyway).
        assert [len(c) for c in clusters] == [math.comb(N, N - n) for n in range(N + 1)]


# ----------------------------------------------------------------------------
# peak visibility
# ----------------------------------------------------------------------------


class TestVisibility:
    def test_large_coupling_value(self):
        vis = visibility_Nmax(10.0, 0.0, "TFIM-large")
        assert isinstance(vis, Visibility)
        assert vis.n_max == pytest.approx(200.0, rel=1e-14)
        assert vis.order_of_magnitude is False

    def test_small_coupling_value(self):
        vis = visibility_Nmax(0.2, 0.0, "TFIM-small")
        assert vis.n_max == pytest.approx(200.0, rel=1e-14)

    def test_strong_fields_value(self):
        vis = visibility_Nmax(2.0, 0.5, "StrongFields")
        assert vis.n_max == pytest.approx(2 * 4.25**3 / 16.0, rel=1e-14)

    def test_integer_alpha_order_of_magnitude(self):
        vis = visibility_Nmax(0.3, 1.0, "SmallLambdaIntegerAlpha")
        assert vis.n_max == pytest.approx(1 / 0.3**4, rel=1e-14)
        assert vis.order_of_magnitude is True

    @pytest.mark.parametrize(
        "name",
        ["tfim-large-lambda", "TFIM-LARGE", "tfim large λ"],
    )
    def test_regime_aliases(self, name):
        assert visibility_Nmax(10.0, 0.0, name).n_max == pytest.approx(200.0)

    def test_unknown_regime_rejected(self):
        with pytest.raises(InvalidRegime):
            visibility_Nmax(1.0, 0.0, "weak")


# ----------------------------------------------------------------------------
# strong-field moments and mixture
# ----------------------------------------------------------------------------


class TestStrongFieldMoments:
    def test_polarized_example(self):
        mean, var = strong_field_moments(5, 3.0, 4.0, 0)
        assert mean == pytest.approx(21.8, rel=1e-14)
        assert var == pytest.approx(0.0, abs=1e-14)

    def test_central_variance_value(self):
        _, var = strong_field_moments(10, 4.0, 0.5, 5)
        assert var == pytest.approx((50.0 / 9.0) * 256.0 / 16.25**2, rel=1e-12)

    def test_reduces_to_transverse_case_at_large_coupling(self):
        # alpha = 0 collapses the formulas onto the fixed-n ones up to
        # O(1/lambda^2) corrections; measured offsets at lambda = 50 are
        # ~1e-4 relative.
        N, lam, n = 8, 50.0, 3
        s_mean, s_var = strong_field_moments(N, lam, 0.0, n)
        t_mean, t_var = tfim_fixed_n_moments(N, lam, n)
        assert s_mean == pytest.approx(t_mean, rel=1e-3)
        assert s_var == pytest.approx(t_var, rel=1e-3)

    def test_invalid_occupation_rejected(self):
        with pytest.raises(InvalidArgs):
            strong_field_moments(8, 2.0, 0.5, 9)

    def test_cluster_statistics_against_dense_spectrum(self):
        # Fields strong enough that the hopping width dominates the
        # (neglected) diagonal bond spread: every cluster resolved, counts
        # exact, central moments match the formulas.
        N, lam, alpha = 10, 8.0, 0.5
        energies = dense_energies(N, lam, alpha)
        mix = strong_field_components(N, lam, alpha)
        means = np.array([c.mu for c in mix.components])
        clusters = cluster_by_nearest(energies, means)
        assert [len(c) for c in clusters] == [math.comb(N, n) for n in range(N + 1)]
        for n in (3, 5):
            mean, var = strong_field_moments(N, lam, alpha, n)
            assert abs(float(np.mean(clusters[n])) - mean) < 0.2
            assert float(np.var(clusters[n])) == pytest.approx(var, rel=0.05)


class TestStrongFieldMixture:
    def test_unit_integral(self):
        grid = np.linspace(-50.0, 50.0, 4001)
        curve = strong_field_components(12, 3.0, 0.5).density_curve(grid)
        assert curve.integral() == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_transverse_mixture_without_longitudinal_field(self):
        N, lam = 12, 10.0
        grid = np.linspace(-(N * (lam + 1) + 10), N * (lam + 1) + 10, 4001)
        strong = strong_field_components(N, lam, 0.0).density_curve(grid)
        tfim = tfim_mixture_components(N, lam).density_curve(grid)
        l1 = float(np.trapezoid(np.abs(strong.values - tfim.values), grid))
        assert l1 < 0.05  # measured 0.025


# ----------------------------------------------------------------------------
# small-lambda class centers (alpha = 1)
# ----------------------------------------------------------------------------


def er_weighted_average_oracle(N: int, lam: float, R: int) -> float:
    """f-weighted average of diagonal cell energies within one class."""
    root = math.sqrt(1 + lam * lam)
    total = 0.0
    weight = 0
    for n, k in cells(N, include_polarized=True):
        if 2 * k - n != R:
            continue
        f = f_count(N, n, k)
        cell_energy = root * (N - 2 * n) - (N - 4 * k) / (1 + lam * lam)
        total += f * cell_energy
        weight += f
    return total / weight


class TestSmallLambdaER:
    def test_free_point_recovers_class_energies(self):
        for R in degeneracy_census(8, 1).classes:
            assert small_lambda_ER(8, 0.0, R) == pytest.approx(
                2.0 * R, rel=1e-12, abs=1e-12
            )

    def test_alternating_class_is_single_cell(self):
        # R = N/2 contains only the alternating cell (n, k) = (N/2, N/2),
        # whose diagonal energy is N/(1+lambda^2).
        N, lam = 8, 0.35
        assert small_lambda_ER(N, lam, N // 2) == pytest.approx(
            N / (1 + lam * lam), rel=1e-12
        )

    @pytest.mark.parametrize("R", [-10, -7, -5, -3, 0, 2, 5])
    def test_matches_weighted_average_oracle(self, R):
        N, lam = 10, 0.4
        assert small_lambda_ER(N, lam, R) == pytest.approx(
            er_weighted_average_oracle(N, lam, R), rel=1e-12
        )

    def test_small_ring_value_and_cluster(self):
        # Hand evaluation at (N=4, lambda=0.1, R=0): classes {(2,1), (0,0)},
        # N_R = 5, weighted average of the diagonal energies = 0.01191084...
        value = small_lambda_ER(4, 0.1, 0)
        assert value == pytest.approx(0.01191084, abs=1e-7)
        energies = dense_energies(4, 0.1, 1.0)
        cluster = energies[np.abs(energies) < 1.0]
        assert len(cluster) == 5
        assert abs(value - float(np.mean(cluster))) < 0.05

    def test_unrealized_class_rejected(self):
        with pytest.raises(UnknownClass):
            small_lambda_ER(8, 0.1, 7)
        with pytest.raises(UnknownClass):
            small_lambda_ER(8, 0.1, -7)


# ----------------------------------------------------------------------------
# small-lambda second-order shifts
# ----------------------------------------------------------------------------


class TestSmallLambdaDeltaE:
    def test_vanishes_without_coupling(self):
        assert small_lambda_deltaE(6, 2, 4, 1, 1.0, 0.0) == 0.0
        assert small_lambda_deltaE(8, 3, 5, 2, 1.0, 0.0) == 0.0

    def test_balanced_cell_cancels_identically(self):
        for lam in (0.05, 0.3, 1.0):
            assert small_lambda_deltaE(4, 2, 2, 1, 1.0, lam) == pytest.approx(
                0.0, abs=1e-15
            )

    def test_closed_form_single_block_cell(self):
        # Hand reduction at (N=6, n=2, m=4, k=1, alpha=1): the prefactor is
        # 12 lam^2/(1+lam^2)^2, the first bracket term is -2, the commutator
        # term vanishes, giving -24 lam^2 / (1+lam^2)^2.
        for lam in (0.1, 0.25):
            assert small_lambda_deltaE(6, 2, 4, 1, 1.0, lam) == pytest.approx(
                -24 * lam**2 / (1 + lam**2) ** 2, rel=1e-12
            )

    def test_exact_against_perturbation_oracle_single_block(self):
        # For k=1 cells the no-mixing assumption is exact: the formula equals
        # the brute-force second-order sum to rounding.
        lam = 0.1
        formula = small_lambda_deltaE(6, 2, 4, 1, 1.0, lam)
        oracle = pt2_cell_shift(6, 2, 1, 1, lam)
        assert formula == pytest.approx(oracle, abs=1e-10)

    def test_perturbation_oracle_multi_block(self):
        # Mixing of double-flip transitions enters at O(lam^4); measured
        # coefficient ~1.5, bounded here by 5 lam^4.
        lam = 0.08
        formula = small_lambda_deltaE(6, 3, 3, 2, 1.0, lam)
        oracle = pt2_cell_shift(6, 3, 2, 1, lam)
        assert abs(formula - oracle) < 5 * lam**4

    def test_perturbation_oracle_integer_alpha_three(self):
        lam = 0.05
        formula = small_lambda_deltaE(6, 2, 4, 1, 3.0, lam)
        oracle = pt2_cell_shift(6, 2, 1, 3, lam)
        assert abs(formula - oracle) < 5 * lam**4

    def test_residual_scales_as_fourth_power(self):
        lams = [0.05, 0.1, 0.2]
        errs = [
            abs(small_lambda_deltaE(6, 3, 3, 2, 1.0, lam) - pt2_cell_shift(6, 3, 2, 1, lam))
            for lam in lams
        ]
        slope = np.polyfit(np.log(lams), np.log(errs), 1)[0]
        assert slope >= 3.5  # measured 3.95

    def test_singular_longitudinal_field_rejected(self):
        for alpha in (2.0, -2.0):
            with pytest.raises(AlphaSingular):
                small_lambda_deltaE(6, 2, 4, 1, alpha, 0.1)

    def test_mismatched_partner_rejected(self):
        with pytest.raises(InvalidArgs):
            small_lambda_deltaE(6, 2, 3, 1, 1.0, 0.1)

    @pytest.mark.parametrize("n,m,k", [
        (0, 6, 0), (6, 0, 0), (2, 4, 0), (2, 4, 3), (0, 6, 1), (2.0, 4, 1), (True, 5, 1),
    ])
    def test_non_interior_cell_rejected(self, n, m, k):
        with pytest.raises(InvalidArgs):
            small_lambda_deltaE(6, n, m, k, 1.0, 0.1)


class TestSmallLambdaDeltaER:
    def test_vanishes_without_coupling(self):
        assert small_lambda_deltaE_R(8, 0.0, 0) == 0.0

    def test_polarized_only_class_has_no_interior_correction(self):
        # The cell formula is undefined at k = 0, so the class average runs
        # over interior cells only; a polarized-only class gets zero.
        assert small_lambda_deltaE_R(8, 0.2, -8) == 0.0

    @pytest.mark.parametrize("R", [-5, -2, 0, 1, 3])
    def test_matches_perturbation_oracle_per_class(self, R):
        N, lam = 8, 0.1
        census = degeneracy_census(N, 1)
        oracle = sum(
            pt2_cell_shift(N, n, k, 1, lam)
            for n, k in cells(N, include_polarized=False)
            if 2 * k - n == R
        ) / census.classes[R]
        assert abs(small_lambda_deltaE_R(N, lam, R) - oracle) < 5 * lam**4

    def test_unrealized_class_rejected(self):
        with pytest.raises(UnknownClass):
            small_lambda_deltaE_R(8, 0.1, 7)


# ----------------------------------------------------------------------------
# small-lambda cluster widths
# ----------------------------------------------------------------------------


class TestSmallLambdaSigmaR:
    def test_vanishes_without_coupling(self):
        assert small_lambda_sigmaR(8, 0.0, 0) == 0.0

    def test_polarized_only_class_is_sharp(self):
        assert small_lambda_sigmaR(8, 0.3, -8) == 0.0

    @pytest.mark.parametrize("N", [6, 8])
    def test_trace_identity_all_classes(self, N):
        # sigma_R^2 must equal lam^4/(1+lam^2)^2 * Tr((P V P)^2) / N_R with
        # V the double-flip coupling and P the class projector: the counting
        # formulas reproduce the projected trace exactly.
        lam = 0.3
        dim = 1 << N
        V = np.zeros((dim, dim))
        for b in range(dim):
            for j in range(N):
                V[b ^ (1 << j) ^ (1 << ((j + 1) % N)), b] += 1.0
        R_of = np.array([2 * classify_cell(N, b)[1] - classify_cell(N, b)[0] for b in range(dim)])
        census = degeneracy_census(N, 1)
        for R, N_R in census.classes.items():
            mask = R_of == R
            PVP = V[np.ix_(mask, mask)]
            trace = float(np.sum(PVP * PVP.T))
            expect = lam**4 / (1 + lam**2) ** 2 * trace / N_R
            got = small_lambda_sigmaR(N, lam, R) ** 2
            assert got == pytest.approx(expect, rel=1e-10, abs=1e-18)

    def test_alternating_class_width_from_conserving_transitions_only(self):
        # The alternating class has no interior (a)/(b) transitions; its
        # width comes solely from the block-conserving count.
        N, lam = 8, 0.25
        assert count_Na(N, 4, 4, 4) == 0
        assert count_Nb(N, 4, 4, 4) == 0
        expect = lam**4 / (1 + lam**2) ** 2 * count_Nc(N, 4, 4, 4) / f_count(N, 4, 4)
        assert small_lambda_sigmaR(N, lam, N // 2) ** 2 == pytest.approx(
            expect, rel=1e-12
        )

    def test_empirical_central_cluster_medium_ring(self):
        N, lam = 10, 0.25
        census = degeneracy_census(N, 1)
        Rs = sorted(census.classes)
        clusters = cluster_by_nearest(
            dense_energies(N, lam, 1.0), np.array([2.0 * R for R in Rs])
        )
        cl = clusters[Rs.index(0)]
        assert len(cl) == census.classes[0]
        sigma = small_lambda_sigmaR(N, lam, 0)
        assert abs(math.sqrt(float(np.var(cl))) - sigma) / sigma < 0.25  # measured 0.08

    def test_empirical_central_cluster_large_ring(self):
        # Dense 2^12 check of the central class width (variance within 20%).
        N, lam = 12, 0.3
        census = degeneracy_census(N, 1)
        Rs = sorted(census.classes)
        clusters = cluster_by_nearest(
            dense_energies(N, lam, 1.0), np.array([2.0 * R for R in Rs])
        )
        cl = clusters[Rs.index(0)]
        assert len(cl) == census.classes[0]
        var = small_lambda_sigmaR(N, lam, 0) ** 2
        assert abs(float(np.var(cl)) - var) / var < 0.20  # measured 0.025

    def test_unrealized_class_rejected(self):
        with pytest.raises(UnknownClass):
            small_lambda_sigmaR(8, 0.1, -6)

    def test_two_site_ring_is_refused(self):
        # Both bonds of the N = 2 ring join the same pair of spins, so the
        # transition counts give sigma_R = 0 for the class R = 1, whose two
        # exact levels lie 0.013 apart at lambda = 0.1.
        levels = np.linalg.eigvalsh(build_hamiltonian(IsingParams.two_field(2, 0.1, 1.0)))
        assert levels[-1] - levels[-2] > 0.01
        for widths in (
            lambda: small_lambda_sigmaR(2, 0.1, 1),
            lambda: small_lambda_components(2, 0.1),
            lambda: generic_alpha_components(2, 0.1, 0.5, exact_variance=True),
        ):
            with pytest.raises(InvalidArgs, match="N=2"):
                widths()


# ----------------------------------------------------------------------------
# integer-alpha cluster mixture
# ----------------------------------------------------------------------------


class TestSmallLambdaMixture:
    def test_component_layout(self):
        lam = 0.2
        for N in (8, 40):
            mix = small_lambda_components(N, lam)
            census = degeneracy_census(N, 1)
            Rs = sorted(census.classes)
            assert len(mix.components) == len(Rs)
            for comp, R in zip(mix.components, Rs):
                assert comp.w == pytest.approx(census.classes[R] / 2**N, rel=1e-14)
                assert comp.mu == pytest.approx(
                    small_lambda_ER(N, lam, R) + small_lambda_deltaE_R(N, lam, R),
                    rel=1e-12,
                )
                assert comp.var == pytest.approx(
                    small_lambda_sigmaR(N, lam, R) ** 2, rel=1e-12, abs=1e-300
                )

    def test_corrections_flag_reverts_to_bare_centers(self):
        N, lam = 8, 0.2
        mix = small_lambda_components(N, lam, corrections=False)
        Rs = sorted(degeneracy_census(N, 1).classes)
        for comp, R in zip(mix.components, Rs):
            assert comp.mu == pytest.approx(small_lambda_ER(N, lam, R), rel=1e-12)

    def test_unit_integral(self):
        grid = np.linspace(-20.0, 12.0, 4001)
        curve = small_lambda_components(8, 0.3).density_curve(grid)
        assert curve.integral() == pytest.approx(1.0, abs=1e-9)

    def test_free_point_reduces_to_class_histogram(self):
        # lambda = 0: every class is a delta spike at 2R with mass N_R/2^N.
        N = 8
        grid = np.linspace(-18.0, 10.0, 2801)  # spacing 0.01, spikes on-grid
        curve = small_lambda_components(N, 0.0, corrections=False).density_curve(grid)
        assert curve.integral() == pytest.approx(1.0, rel=1e-12)
        census = degeneracy_census(N, 1)
        for R, N_R in census.classes.items():
            window = (grid > 2 * R - 0.5) & (grid < 2 * R + 0.5)
            mass = float(np.trapezoid(curve.values[window], grid[window]))
            assert mass == pytest.approx(N_R / 2**N, rel=1e-9)

    @pytest.mark.parametrize("N", [8, 40])
    def test_class_sums_equal_a_scan_of_the_cells(self, N):
        # Reference: the class's cells scanned one by one, summed in
        # cells(N) order; the class table must reproduce it bit for bit.
        lam = 0.2
        root = math.sqrt(1.0 + lam * lam)
        for R, N_R in degeneracy_census(N, 1).classes.items():
            members = [(n, k) for n, k in cells(N) if 2 * k - n == R]
            interior = [(n, k) for n, k in members if k > 0]
            S = sum(
                math.comb(n - 1, k - 1) * math.comb(N - n - 1, k - 1) for n, k in interior
            )
            E_R = 2.0 * R * root + (root - 1.0 / (1.0 + lam * lam)) * (
                N - 4.0 * N * S / N_R
            )
            shift = sum(
                small_lambda_deltaE(N, n, N - n, k, 1.0, lam) for n, k in interior
            )
            moves = sum(
                count(N, n, N - n, k)
                for n, k in members
                for count in (count_Na, count_Nb, count_Nc)
            )
            sigma = math.sqrt(lam**4 / (1.0 + lam * lam) ** 2 * moves / N_R)
            assert small_lambda_ER(N, lam, R) == E_R
            assert small_lambda_deltaE_R(N, lam, R) == shift / N_R
            assert small_lambda_sigmaR(N, lam, R) == sigma

    @pytest.mark.parametrize("N", range(2, 41))
    def test_class_table_equals_the_validated_counts(self, N):
        # The public counts refuse the two-site ring, whose class sums the
        # walk still takes from the same formulas.
        public = (count_Na, count_Nb, count_Nc)
        counts = public if N > 2 else (_count_Na, _count_Nb, _count_Nc)
        sums = {}
        for n, k in cells(N):
            m, R = N - n, 2 * k - n
            entry = sums.setdefault(R, [0, 0, 0])
            entry[0] += f_count(N, n, k)
            entry[1] += f_count(N, n, k) * k // N
            entry[2] += sum(count(N, n, m, k) for count in counts)
        labels = sorted(sums)
        table = _unit_alpha_classes(N)
        assert table.R.tolist() == labels
        assert table.weights.tolist() == [sums[R][0] / 2**N for R in labels]
        assert table.sums.tolist() == [[float(v) for v in sums[R]] for R in labels]

    # From N = 3: on the two-site ring both bonds join the same pair, and the
    # scan counts each flip twice where the transition formulas count none.
    @pytest.mark.parametrize("N", range(3, 13))
    def test_class_table_equals_a_scan_of_all_strings(self, N):
        scan = brute_force_census(N)
        sums = {R: [size, 0, 0] for R, size in scan.classes_alpha1.items()}
        for (n, k), f in scan.f_table.items():
            sums[2 * k - n][1] += f * k // N
        for (n, k), moves in scan.transitions.items():
            sums[2 * k - n][2] += sum(moves.values())
        table = _unit_alpha_classes(N)
        assert table.R.tolist() == sorted(sums)
        assert table.sums.tolist() == [[float(v) for v in sums[R]] for R in sorted(sums)]

    def test_class_sums_beyond_float_range_are_refused(self):
        # 2N 2^N < 2^1024 holds up to N = 1013; the check precedes the walk.
        assert 2 * 1013 * 2**1013 < 2**1024 <= 2 * 1014 * 2**1014
        with pytest.raises(CapExceeded, match="N = 1014"):
            small_lambda_components(1014, 0.1)
        with pytest.raises(InvalidArgs, match="N=1"):
            small_lambda_components(1, 0.1)

    def test_non_unit_longitudinal_field_rejected(self):
        # The alpha = 1 precondition lives in the CLI's kind -> mixture map.
        with pytest.raises(InvalidArgs):
            _build_mixture("multi-int-alpha", IsingParams.two_field(8, 0.2, 0.9))

    def test_cluster_counts_and_centers_against_dense_spectrum(self):
        N, lam = 8, 0.2
        census = degeneracy_census(N, 1)
        Rs = sorted(census.classes)
        mix = small_lambda_components(N, lam)
        means = np.array([c.mu for c in mix.components])
        clusters = cluster_by_nearest(dense_energies(N, lam, 1.0), means)
        assert [len(c) for c in clusters] == [census.classes[R] for R in Rs]
        tol = max(5 * lam**4 * N, 1e-3)
        for i, R in enumerate(Rs):
            diff = abs(float(np.mean(clusters[i])) - means[i])
            if census.classes[R] == 1:
                # The polarized singleton acquires a second-order shift that
                # the interior-cell average cannot see; measured 0.20 here.
                assert diff < 0.25
            else:
                assert diff < tol


# ----------------------------------------------------------------------------
# generic-alpha cell mixture
# ----------------------------------------------------------------------------


class TestGenericAlphaMixture:
    def test_component_layout(self):
        N, lam, alpha = 10, 0.3, 0.9
        mix = generic_alpha_components(N, lam, alpha)
        by_mean = {round(c.mu, 9): c for c in mix.components}
        total = 0.0
        for n, k in cells(N, include_polarized=True):
            mu = alpha * (N - 2 * n) + 4 * k - N
            comp = by_mean[round(mu, 9)]
            assert comp.w == pytest.approx(f_count(N, n, k) / 2**N, rel=1e-14)
            total += comp.w
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_polarized_spikes_present(self):
        # The two polarized cells are weight-2^-N delta spikes; note the
        # alternating cell k = N/2 also has vanishing hopping width, so the
        # spikes are identified by their centers.
        N, lam, alpha = 10, 0.3, 0.9
        mix = generic_alpha_components(N, lam, alpha)
        for mu in (N * (alpha - 1), -N * (alpha + 1)):
            matches = [c for c in mix.components if abs(c.mu - mu) < 1e-9]
            assert len(matches) == 1
            assert matches[0].var == 0.0
            assert matches[0].w == pytest.approx(2.0**-N, rel=1e-14)

    def test_large_cell_variance_formula(self):
        N, lam, alpha = 10, 0.3, 0.9
        mix = generic_alpha_components(N, lam, alpha)
        n, k = 4, 2
        mu = alpha * (N - 2 * n) + 4 * k - N
        comp = next(c for c in mix.components if abs(c.mu - mu) < 1e-9)
        expect = (
            2 * lam**4 / (alpha**2 + lam**2) ** 2 * k**2 * (N - 2 * k) / (n * (N - n))
        )
        assert comp.var == pytest.approx(expect, rel=1e-12)

    def test_exact_variance_flag_value(self):
        N, lam, alpha = 10, 0.3, 0.9
        mix = generic_alpha_components(N, lam, alpha, exact_variance=True)
        n, k = 4, 2
        mu = alpha * (N - 2 * n) + 4 * k - N
        comp = next(c for c in mix.components if abs(c.mu - mu) < 1e-9)
        # 2 k (k-1) (N-2k) / ((n-1)(N-n-1)) = 2*2*1*6/(3*5) = 8/5.
        assert comp.var == pytest.approx(
            lam**4 / (alpha**2 + lam**2) ** 2 * 8.0 / 5.0, rel=1e-12
        )

    def test_exact_variance_equals_transition_count_ratio(self):
        # The closed form 2k(k-1)(N-2k)/((n-1)(N-n-1)) is the exact ratio
        # N_c/f on interior cells; the single-block column where the closed
        # form degenerates to 0/0 evaluates to 2.
        N = 8
        for n, k in cells(N, include_polarized=False):
            ratio = Fraction(count_Nc(N, n, N - n, k), f_count(N, n, k))
            if n == 1 or n == N - 1:
                assert ratio == 2
                continue
            closed = Fraction(2 * k * (k - 1) * (N - 2 * k), (n - 1) * (N - n - 1))
            assert ratio == closed

    def test_sigma_floor_bounds_all_widths(self):
        mix = generic_alpha_components(10, 0.3, 0.9, sigma_floor=0.5)
        assert all(c.var >= 0.25 - 1e-15 for c in mix.components)

    def test_free_point_with_floor_is_smoothed_profile(self):
        # lambda = 0 with a width floor must reproduce the unperturbed
        # profile: a Gaussian of width sigma at every cell energy.
        N, alpha, floor = 8, 0.9, 0.1
        grid = np.linspace(-22.0, 14.0, 3001)
        curve = generic_alpha_components(N, 0.0, alpha, sigma_floor=floor).density_curve(
            grid
        )
        expect = np.zeros_like(grid)
        for n, k in cells(N, include_polarized=True):
            mu = alpha * (N - 2 * n) + 4 * k - N
            w = f_count(N, n, k) / 2**N
            expect += (
                w
                * np.exp(-((grid - mu) ** 2) / (2 * floor**2))
                / math.sqrt(2 * math.pi * floor**2)
            )
        assert curve.values == pytest.approx(expect, rel=1e-12, abs=1e-300)

    def test_unit_integral_rational_and_irrational(self):
        grid = np.linspace(-30.0, 20.0, 6001)
        for alpha in (0.9, math.sqrt(5) - 1):
            curve = generic_alpha_components(10, 0.3, alpha).density_curve(grid)
            assert curve.integral() == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------------
# XX projection check
# ----------------------------------------------------------------------------


class TestXXProjection:
    @pytest.mark.parametrize("lam,alpha", [(3.0, 4.0), (1.0, 1.0)])
    def test_moments_match_formulas(self, lam, alpha):
        report = xx_projection_check(8, lam, alpha, 3)
        assert isinstance(report, XXProjectionReport)
        assert report.dimension == math.comb(8, 3)
        assert report.mean_deviation < 1e-10
        assert report.variance_deviation < 1e-10

    def test_trace_identity_for_hopping_second_moment(self):
        # Tr(Hop^2) counts (state, bond, direction) triples with an occupied
        # source and empty target: 2 N C(N-2, n-1) elements of size cos^4.
        N, lam, alpha, n = 8, 3.0, 4.0, 3
        cos4 = (lam**2 / (lam**2 + alpha**2)) ** 2
        report = xx_projection_check(N, lam, alpha, n)
        expect = cos4 * 2 * N * math.comb(N - 2, n - 1) / math.comb(N, n)
        assert report.variance_exact == pytest.approx(expect, rel=1e-12)
        # ... and the closed form is the same number.
        assert report.variance_formula == pytest.approx(
            2 * n * (N - n) / (N - 1) * cos4, rel=1e-12
        )

    def test_polarized_subspace_trivial(self):
        report = xx_projection_check(8, 2.0, 1.0, 0)
        assert report.dimension == 1
        assert report.variance_exact == pytest.approx(0.0, abs=1e-14)
        assert report.mean_exact == pytest.approx(8 * math.sqrt(5.0), rel=1e-12)

    def test_matches_strong_field_variance(self):
        N, lam, alpha, n = 10, 3.0, 4.0, 4
        report = xx_projection_check(N, lam, alpha, n)
        _, var = strong_field_moments(N, lam, alpha, n)
        # The strong-field width keeps only the hopping part, which is
        # exactly the projected second moment.
        assert report.variance_formula == pytest.approx(var, rel=1e-12)

    def test_cap_and_argument_errors(self):
        with pytest.raises(CapExceeded):
            xx_projection_check(14, 1.0, 1.0, 7)
        with pytest.raises(InvalidArgs):
            xx_projection_check(8, 1.0, 1.0, 9)
        with pytest.raises(InvalidArgs):
            xx_projection_check(8, 0.0, 0.0, 4)


# ----------------------------------------------------------------------------
# couplings beyond float range
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("formula,what,lam,alpha", [
    (lambda: tfim_fixed_n_moments(8, 1e300, 3), "a transverse-field cluster moment",
     1e300, 0.0),
    (lambda: strong_field_moments(8, 1e100, 1.0, 3), "a strong-field cluster moment",
     1e100, 1.0),
    (lambda: small_lambda_ER(8, 1e300, 0), "a class center E_R", 1e300, 1.0),
    (lambda: small_lambda_deltaE_R(8, 1e100, 0), "the class shift prefactor",
     1e100, 1.0),
    (lambda: small_lambda_sigmaR(8, 1e100, 0), "a class width sigma_R", 1e100, 1.0),
    (lambda: generic_alpha_components(8, 0.1, 1e200), "the cell width coupling",
     0.1, 1e200),
])
def test_formulas_beyond_float_range_name_the_couplings(formula, what, lam, alpha):
    message = f"{what} at lambda = {lam!r}, alpha = {alpha!r} is beyond float range"
    with pytest.raises(InvalidArgs) as info:
        formula()
    assert str(info.value) == message
