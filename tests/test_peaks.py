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
import json
import math
import re
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from ising_density import errors, peaks
from ising_density.blocks import (
    _cell_cost,
    _f_count,
    _transitions,
    block_census,
    brute_force_census,
    cells,
    count_N1,
    count_N2,
    count_Na,
    count_Nb,
    count_Nc,
    degeneracy_census,
)
from ising_density.cli import _build_mixture, _write_mixture_json
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
    Visibility,
    XXProjectionReport,
    generic_alpha_components,
    small_lambda_components,
    small_lambda_deltaE,
    small_lambda_deltaE_R,
    small_lambda_ER,
    small_lambda_sigmaR,
    strong_field_components,
    tfim_mixture_components,
    visibility_Nmax,
    xx_projection_check,
)
from ising_density.peaks import (
    _COMPONENT_BYTES,
    _class_centers,
    _class_shifts,
    _class_widths,
    _ClassTable,
    _ratio,
    _tfim_moments,
    _unit_alpha_classes,
)

# ----------------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------------


def comb0(a: int, b: int) -> int:
    """Binomial that vanishes outside 0 <= b <= a (matches the counting use)."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def comp(j: int, r: int) -> int:
    """Compositions of j into r positive parts; comp(0, 0) = 1."""
    return 1 if j == r == 0 else comb0(j - 1, r - 1)


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


def tfim_cluster(N: int, lam: float, n: int) -> tuple[float, float]:
    """Mean and variance of the n-occupation cluster.  The mixture keeps only
    even n below |lambda| = 1, so the row comes from its formula directly."""
    mean, var = _tfim_moments(N, lam, np.array([n]))
    return float(mean[0]), float(var[0])


def strong_cluster(N: int, lam: float, alpha: float, n: int) -> tuple[float, float]:
    """Mean and variance of component n of the strong-field mixture."""
    mix = strong_field_components(N, lam, alpha)
    return float(mix.mu[n]), float(mix.var[n])


# ----------------------------------------------------------------------------
# GaussianMixture container
# ----------------------------------------------------------------------------


def full_sum_density(mix: GaussianMixture, grid: np.ndarray) -> np.ndarray:
    """Every Gaussian on every node in component order, then each spike on
    its nearest node (the lower one on a tie).  Outside its window a Gaussian
    underflows to 0.0, so the windowed sampling must match this bit for bit."""
    values = np.zeros_like(grid)
    for w, mu, var in mix.components.tolist():
        if var > 0.0:
            values += w * np.exp(-((grid - mu) ** 2) / (2.0 * var)) / math.sqrt(
                2.0 * math.pi * var
            )
    trapezoid = np.gradient(grid)
    trapezoid[[0, -1]] *= 0.5
    for w, mu, var in mix.components.tolist():
        if var == 0.0 and grid[0] <= mu <= grid[-1]:
            i = int(np.argmin(np.abs(grid - mu)))
            values[i] += w / trapezoid[i]
    return values


class TestGaussianMixture:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidArgs):
            GaussianMixture(((0.5, 0.0, 1.0),))

    def test_negative_weight_rejected(self):
        for bad, rule in ((-0.5, ">= 0"), (math.inf, "finite"), (math.nan, "finite")):
            with pytest.raises(InvalidArgs, match=rule):
                GaussianMixture(((1.5, 0.0, 1.0), (bad, 1.0, 1.0)))

    def test_negative_variance_rejected(self):
        for bad, rule in ((-1e-6, ">= 0"), (math.inf, "finite"), (math.nan, "finite")):
            with pytest.raises(InvalidArgs, match=rule):
                GaussianMixture(((1.0, 0.0, bad),))

    def test_single_gaussian_curve_matches_formula(self):
        mix = GaussianMixture(((1.0, 0.5, 2.0),))
        grid = np.linspace(-10.0, 11.0, 2001)
        curve = mix.density_curve(grid)
        expect = np.exp(-((grid - 0.5) ** 2) / 4.0) / math.sqrt(4.0 * math.pi)
        assert curve.values == pytest.approx(expect, rel=1e-12, abs=1e-300)
        assert curve.integral() == pytest.approx(1.0, abs=1e-9)

    def test_spike_deposition_is_mass_preserving(self):
        # Interior spike: trapezoid weight of an interior node on a uniform
        # grid of spacing 1 is exactly 1, so the node value equals the mass.
        mix = GaussianMixture(((1.0, 3.2, 0.0),))
        grid = np.linspace(0.0, 10.0, 11)
        curve = mix.density_curve(grid)
        assert curve.values[3] == pytest.approx(1.0, rel=1e-12)
        assert np.count_nonzero(curve.values) == 1
        assert curve.integral() == pytest.approx(1.0, rel=1e-12)

    def test_edge_spike_keeps_unit_integral(self):
        mix = GaussianMixture(((1.0, 0.0, 0.0),))
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
        mix = GaussianMixture(((0.5, -5.0, 0.0), (0.5, 2.0, 0.0)))
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

    def test_json_round_trip(self, tmp_path):
        mix = GaussianMixture(((0.25, -1.0, 0.0), (0.75, 2.0, 3.0)))
        path = tmp_path / "m.mixture.json"
        _write_mixture_json(str(path), {"n": 2}, mix)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload == {
            "params": {"n": 2},
            "components": [
                {"w": 0.25, "mu": -1.0, "var": 0.0},
                {"w": 0.75, "mu": 2.0, "var": 3.0},
            ],
        }
        again = GaussianMixture(
            [(c["w"], c["mu"], c["var"]) for c in payload["components"]]
        )
        assert np.array_equal(again.components, mix.components)

    def test_one_read_only_table(self):
        source = np.array([(0.25, -1.0, 0.0), (0.75, 2.0, 3.0)])
        mix = GaussianMixture(source)
        source[0, 0] = 0.5  # the mixture keeps its own copy
        table = mix.components
        assert table.shape == (2, 3) and table.dtype == np.float64
        assert not table.flags.writeable
        for column, values in enumerate((mix.w, mix.mu, mix.var)):
            assert np.shares_memory(values, table)
            assert not values.flags.writeable
            np.testing.assert_array_equal(values, table[:, column])
        np.testing.assert_array_equal(mix.w, [0.25, 0.75])
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5


# ----------------------------------------------------------------------------
# transverse-field fixed-n moments
# ----------------------------------------------------------------------------


class TestTfimFixedNMoments:
    @pytest.mark.parametrize("n", [0, 1, 3, 6, 8])
    def test_free_point(self, n):
        mean, var = tfim_cluster(8, 0.0, n)
        assert mean == pytest.approx(8 - 2 * n, rel=1e-14, abs=1e-14)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_empty_subset_has_zero_variance(self):
        _, var = tfim_cluster(10, 1.7, 0)
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
        mean, var = tfim_cluster(N, lam, n)
        assert var == pytest.approx(float(np.var(sums)), rel=1e-12)
        assert mean == pytest.approx(-float(np.mean(sums)), rel=1e-12)

    def test_single_level_variance_is_population_variance(self):
        N, lam = 10, 0.6
        es = one_particle_energy(lam, momentum_grid(N, "even"))
        _, var = tfim_cluster(N, lam, 1)
        assert var == pytest.approx(float(np.var(es)), rel=1e-12)

    def test_variance_symmetric_under_occupation_complement(self):
        for n in range(0, 13):
            _, v1 = tfim_cluster(12, 0.8, n)
            _, v2 = tfim_cluster(12, 0.8, 12 - n)
            assert v1 == pytest.approx(v2, rel=1e-13, abs=1e-13)

    def test_odd_ring_rejected(self):
        with pytest.raises(OddN):
            tfim_cluster(7, 1.0, 2)


class TestTfimMixture:
    def test_small_coupling_components(self):
        mix = tfim_mixture_components(8, 0.2)
        assert len(mix.components) == 5  # even occupation numbers only
        e_avg = finite_e_avg(8, 0.2)
        for w, mu, n in zip(mix.w, mix.mu, range(0, 9, 2)):
            assert w == pytest.approx(2 * math.comb(8, n) / 2**8, rel=1e-14)
            assert mu == pytest.approx((8 - 2 * n) * e_avg, rel=1e-13, abs=1e-13)

    def test_large_coupling_components(self):
        mix = tfim_mixture_components(8, 10.0)
        assert len(mix.components) == 9
        assert mix.w == pytest.approx(
            [math.comb(8, n) / 2**8 for n in range(9)], rel=1e-14
        )

    @pytest.mark.parametrize("lam", [0.3, 0.999, 1.0, -1.0, 2.3])
    def test_weights_are_the_binomial_quotients(self, lam):
        # Below |lambda| = 1 a weight is 2 C(N, n) / 2^N, the same rational as
        # C(N, n) / 2^(N-1) and so the same float: each is one int/int division.
        step, shift = (1, 0) if abs(lam) >= 1.0 else (2, 1)
        for N in range(2, 71, 2):
            binomials = [math.comb(N, n) for n in range(0, N + 1, step)]
            expected = _ratio(binomials, 2 ** (N - shift))
            assert tfim_mixture_components(N, lam).w.tobytes() == expected.tobytes()

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
        means = mix.mu
        clusters = cluster_by_nearest(energies, means)
        # The mean sign convention mirrors occupation n -> N - n, so compare
        # against the reversed binomial row (which is symmetric anyway).
        assert [len(c) for c in clusters] == [math.comb(N, N - n) for n in range(N + 1)]


# ----------------------------------------------------------------------------
# peak visibility
# ----------------------------------------------------------------------------


class TestVisibility:
    def test_large_coupling_value(self):
        vis = visibility_Nmax(10.0, 0.0, "tfim-large")
        assert isinstance(vis, Visibility)
        assert vis.n_max == pytest.approx(200.0, rel=1e-14)
        assert vis.order_of_magnitude is False

    def test_small_coupling_value(self):
        vis = visibility_Nmax(0.2, 0.0, "tfim-small")
        assert vis.n_max == pytest.approx(200.0, rel=1e-14)

    def test_strong_fields_value(self):
        vis = visibility_Nmax(2.0, 0.5, "strong-fields")
        assert vis.n_max == pytest.approx(2 * 4.25**3 / 16.0, rel=1e-14)

    def test_integer_alpha_order_of_magnitude(self):
        vis = visibility_Nmax(0.3, 1.0, "small-lambda-integer-alpha")
        assert vis.n_max == pytest.approx(1 / 0.3**4, rel=1e-14)
        assert vis.order_of_magnitude is True

    def test_unknown_regime_rejected(self):
        with pytest.raises(InvalidRegime):
            visibility_Nmax(1.0, 0.0, "weak")

    @pytest.mark.parametrize("name", ["TFIM-large", "tfim large λ", "integer-alpha"])
    def test_only_the_four_regime_names_are_accepted(self, name):
        with pytest.raises(InvalidRegime) as info:
            visibility_Nmax(1.0, 0.0, name)
        assert str(info.value).endswith(
            "expected one of ['small-lambda-integer-alpha', 'strong-fields', "
            "'tfim-large', 'tfim-small']"
        )


# ----------------------------------------------------------------------------
# strong-field moments and mixture
# ----------------------------------------------------------------------------


class TestStrongFieldMoments:
    def test_polarized_example(self):
        mean, var = strong_cluster(5, 3.0, 4.0, 0)
        assert mean == pytest.approx(21.8, rel=1e-14)
        assert var == pytest.approx(0.0, abs=1e-14)

    def test_central_variance_value(self):
        _, var = strong_cluster(10, 4.0, 0.5, 5)
        assert var == pytest.approx((50.0 / 9.0) * 256.0 / 16.25**2, rel=1e-12)

    def test_reduces_to_transverse_case_at_large_coupling(self):
        # alpha = 0 collapses the formulas onto the fixed-n ones up to
        # O(1/lambda^2) corrections; measured offsets at lambda = 50 are
        # ~1e-4 relative.
        N, lam, n = 8, 50.0, 3
        s_mean, s_var = strong_cluster(N, lam, 0.0, n)
        t_mean, t_var = tfim_cluster(N, lam, n)
        assert s_mean == pytest.approx(t_mean, rel=1e-3)
        assert s_var == pytest.approx(t_var, rel=1e-3)

    def test_cluster_statistics_against_dense_spectrum(self):
        # Fields strong enough that the hopping width dominates the
        # (neglected) diagonal bond spread: every cluster resolved, counts
        # exact, central moments match the formulas.
        N, lam, alpha = 10, 8.0, 0.5
        energies = dense_energies(N, lam, alpha)
        mix = strong_field_components(N, lam, alpha)
        means = mix.mu
        clusters = cluster_by_nearest(energies, means)
        assert [len(c) for c in clusters] == [math.comb(N, n) for n in range(N + 1)]
        for n in (3, 5):
            mean, var = strong_cluster(N, lam, alpha, n)
            assert abs(float(np.mean(clusters[n])) - mean) < 0.2
            assert float(np.var(clusters[n])) == pytest.approx(var, rel=0.05)


class TestStrongFieldMixture:
    def test_last_component_holds_the_ground_state(self):
        # n counts spins aligned with the combined field: at n = N the mean is
        # -24.55, next to the exact ground state -25.37; n = 0 sits at +24.11.
        N, lam, alpha = 8, 3.0, 0.5
        ground = dense_energies(N, lam, alpha)[0]
        mix = strong_field_components(N, lam, alpha)
        assert int(np.argmin(np.abs(mix.mu - ground))) == N

    def test_weights_are_the_binomial_quotients(self):
        for N in [*range(2, 71), 1100]:
            expected = _ratio([math.comb(N, n) for n in range(N + 1)], 2**N)
            assert strong_field_components(N, 3.0, 0.5).w.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("N", [1000, 3000])
    def test_build_memory_per_component_is_flat(self, N):
        # Each C(N, n), about N / 8 bytes, is freed once its weight is formed;
        # holding all N + 1 of them took 193 and 386 B per component.
        strong_field_components(8, 3.0, 0.5)
        tracemalloc.start()
        try:
            strong_field_components(N, 3.0, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (N + 1) <= 128  # measured 108 and 107 B

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
    for n, k, f in cells(N):
        if 2 * k - n != R:
            continue
        cell_energy = root * (N - 2 * n) - (N - 4 * k) / (1 + lam * lam)
        total += f * cell_energy
        weight += f
    return total / weight


def center_prefactor(lam: float) -> float:
    """sqrt(1 + lam^2) - 1/(1 + lam^2) in the operation order of the centers."""
    lam2 = lam * lam
    return math.expm1(math.log1p(lam2) / 2.0) + lam2 / (1.0 + lam2)


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
            for n, k, _ in cells(N)[2:]
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
        expect = lam**4 / (1 + lam**2) ** 2 * count_Nc(N, 4, 4, 4) / _f_count(N, 4, 4)
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
            for w, mu, var, R in zip(mix.w, mix.mu, mix.var, Rs):
                assert w == pytest.approx(census.classes[R] / 2**N, rel=1e-14)
                assert mu == pytest.approx(
                    small_lambda_ER(N, lam, R) + small_lambda_deltaE_R(N, lam, R),
                    rel=1e-12,
                )
                assert var == pytest.approx(
                    small_lambda_sigmaR(N, lam, R) ** 2, rel=1e-12, abs=1e-300
                )

    def test_unit_integral(self):
        grid = np.linspace(-20.0, 12.0, 4001)
        curve = small_lambda_components(8, 0.3).density_curve(grid)
        assert curve.integral() == pytest.approx(1.0, abs=1e-9)

    def test_free_point_reduces_to_class_histogram(self):
        # lambda = 0: every class is a delta spike at 2R with mass N_R/2^N.
        N = 8
        grid = np.linspace(-18.0, 10.0, 2801)  # spacing 0.01, spikes on-grid
        curve = small_lambda_components(N, 0.0).density_curve(grid)
        assert curve.integral() == pytest.approx(1.0, rel=1e-12)
        census = degeneracy_census(N, 1)
        for R, N_R in census.classes.items():
            window = (grid > 2 * R - 0.5) & (grid < 2 * R + 0.5)
            mass = float(np.trapezoid(curve.values[window], grid[window]))
            assert mass == pytest.approx(N_R / 2**N, rel=1e-9)

    @pytest.mark.parametrize("N", [8, 40])
    def test_class_sums_equal_a_scan_of_the_cells(self, N):
        # Reference: the class's cells scanned one by one.  E_R and sigma_R
        # are their formulas at the scanned sums, bit for bit; the class shift
        # is the mean of the cells' shifts, which are added here as floats,
        # so it matches to their rounding (the exact check is below).
        lam = 0.2
        root = math.sqrt(1.0 + lam * lam)
        for R, N_R in degeneracy_census(N, 1).classes.items():
            members = [(n, k) for n, k, _ in cells(N) if 2 * k - n == R]
            interior = [(n, k) for n, k in members if k > 0]
            S = sum(
                math.comb(n - 1, k - 1) * math.comb(N - n - 1, k - 1) for n, k in interior
            )
            E_R = 2.0 * R * root + center_prefactor(lam) * ((N * N_R - 4 * N * S) / N_R)
            shift = sum(
                small_lambda_deltaE(N, n, N - n, k, 1.0, lam) for n, k in interior
            )
            moves = sum(
                count(N, n, N - n, k)
                for n, k in members
                for count in (count_Na, count_Nb, count_Nc)
            )
            sigma = math.sqrt(lam**4 / (1.0 + lam * lam) ** 2 * (moves / N_R))
            assert small_lambda_ER(N, lam, R) == E_R
            assert small_lambda_deltaE_R(N, lam, R) == pytest.approx(shift / N_R, rel=1e-14)
            assert small_lambda_sigmaR(N, lam, R) == sigma

    @pytest.mark.parametrize("N", range(2, 41))
    def test_class_table_equals_the_validated_counts(self, N):
        # The public counts refuse the two-site ring, whose class sums the
        # walk still takes from the same formula.
        public = (count_Na, count_Nb, count_Nc)
        sums = {}
        for n, k, f in cells(N):
            m, R = N - n, 2 * k - n
            entry = sums.setdefault(R, [0] * 6)
            entry[0] += f
            entry[2] += sum(
                [count(N, n, m, k) for count in public] if N > 2
                else _transitions(N, n, m, k)
            )
            if k > 0:
                entry[1] += f * k // N
                entry[3] += (2 * k - n) * f
                entry[4] += (2 * k - m) * f
                entry[5] += (
                    comp(n - 1, k - 1) * comp(m, k) - comp(n, k) * comp(m - 1, k - 1)
                )
        labels = sorted(sums)
        table = _unit_alpha_classes(N)
        assert table.R.tolist() == labels
        assert table.sums.tolist() == [sums[R] for R in labels]

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
        assert [row[:3] for row in table.sums.tolist()] == [sums[R] for R in sorted(sums)]

    @pytest.mark.parametrize("N", range(3, 41))
    def test_class_values_against_exact_fractions(self, N):
        # The table's exact sums (checked above) in rational arithmetic.  Each
        # ratio -- N S_R / N_R, T_R / N_R and the shift bracket
        # (A_R + 3 B_R + 2N D_R) / (3N N_R) -- must enter its formula
        # correctly rounded, and each class shift must lie within 1e-15
        # relative of its exact value (the per-cell float sums this replaced
        # were 6.6e-15 off at N = 12, lambda = 0.2).
        table = _unit_alpha_classes(N)
        for lam in (0.05, 0.2, 0.5):
            root, x = math.sqrt(1.0 + lam * lam), Fraction(lam)
            exact_pref = 2 * x**2 * N / (1 + x**2) ** 2
            for R, row in zip(table.R.tolist(), table.sums.tolist()):
                size, blocks, moves, a, b, d = row
                center = 2.0 * R * root + center_prefactor(lam) * float(
                    Fraction(N * size - 4 * N * blocks, size)
                )
                sigma = math.sqrt(lam**4 / (1.0 + lam * lam) ** 2 * float(Fraction(moves, size)))
                bracket = Fraction(a + 3 * b + 2 * N * d, 3 * N * size)
                shift = small_lambda_deltaE_R(N, lam, R)
                assert small_lambda_ER(N, lam, R) == center
                assert small_lambda_sigmaR(N, lam, R) == sigma
                assert shift == 2.0 * lam**2 * N / (1.0 + lam**2) ** 2 * float(bracket)
                assert shift == pytest.approx(float(exact_pref * bracket), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("N", [12, 40, 200])
    def test_class_centers_against_a_60_digit_evaluation(self, N):
        # E_R = 2R sqrt(1 + lam^2) + (sqrt(1 + lam^2) - 1/(1 + lam^2))
        # (N - 4N S_R / N_R) subtracts near-equal terms twice for R = 0, whose
        # center was 4.8e-14 relative off at N = 200 when computed as written.
        table = _unit_alpha_classes(N)
        with localcontext() as ctx:
            ctx.prec = 60
            for lam in (0.05, 0.162, 0.3, 0.5):
                x2 = Decimal(lam) ** 2
                root = (1 + x2).sqrt()
                for R, (size, blocks, *_) in zip(table.R.tolist(), table.sums.tolist()):
                    exact = 2 * R * root + (root - 1 / (1 + x2)) * (
                        N - Decimal(4 * N * blocks) / size
                    )
                    error = abs(Decimal(small_lambda_ER(N, lam, R)) - exact)
                    assert error <= Decimal("1e-15") * abs(exact), (lam, R)

    def test_class_sums_beyond_float_range_give_finite_values(self):
        # Sums near 2^1100 leave float range; each value takes them only
        # through int/int ratios, so it stays finite and equals its formula at
        # the correctly rounded ratios.
        N, lam, big = 1100, 0.1, 2**1100
        rows = [[3 * big, big, 2 * N * big, -N * big, N * big + 1, big // 7]]
        rows.append([5 * big + 3, 2 * big, N * big, N * big, -3 * N * big, -big])
        table = _ClassTable(np.array([-2, 0]), {-2: 0, 0: 1}, np.array(rows, dtype=object))
        values = [f(table, N, lam) for f in (_class_centers, _class_shifts, _class_widths)]
        assert all(np.isfinite(v).all() for v in values)
        root = math.sqrt(1.0 + lam * lam)
        for center, R, (size, blocks, *_) in zip(values[0], (-2, 0), rows):
            assert center == 2.0 * R * root + center_prefactor(lam) * float(
                Fraction(N * size - 4 * N * blocks, size)
            )
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
        means = mix.mu
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
        by_mean = {round(mu, 9): w for w, mu in zip(mix.w.tolist(), mix.mu.tolist())}
        total = 0.0
        for n, k, f in cells(N):
            mu = alpha * (N - 2 * n) + 4 * k - N
            w = by_mean[round(mu, 9)]
            assert w == pytest.approx(f / 2**N, rel=1e-14)
            total += w
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_polarized_spikes_present(self):
        # The two polarized cells are weight-2^-N delta spikes; note the
        # alternating cell k = N/2 also has vanishing hopping width, so the
        # spikes are identified by their centers.
        N, lam, alpha = 10, 0.3, 0.9
        mix = generic_alpha_components(N, lam, alpha)
        for mu in (N * (alpha - 1), -N * (alpha + 1)):
            matches = np.flatnonzero(np.abs(mix.mu - mu) < 1e-9)
            assert len(matches) == 1
            assert mix.var[matches[0]] == 0.0
            assert mix.w[matches[0]] == pytest.approx(2.0**-N, rel=1e-14)

    def test_large_cell_variance_formula(self):
        N, lam, alpha = 10, 0.3, 0.9
        mix = generic_alpha_components(N, lam, alpha)
        n, k = 4, 2
        mu = alpha * (N - 2 * n) + 4 * k - N
        i = np.flatnonzero(np.abs(mix.mu - mu) < 1e-9)[0]
        expect = (
            2 * lam**4 / (alpha**2 + lam**2) ** 2 * k**2 * (N - 2 * k) / (n * (N - n))
        )
        assert mix.var[i] == pytest.approx(expect, rel=1e-12)

    def test_exact_variance_equals_transition_count_ratio(self):
        # The closed form 2k(k-1)(N-2k)/((n-1)(N-n-1)) is the exact ratio
        # N_c/f on interior cells; the single-block column where the closed
        # form degenerates to 0/0 evaluates to 2.
        N = 8
        for n, k, _ in cells(N)[2:]:
            ratio = Fraction(count_Nc(N, n, N - n, k), _f_count(N, n, k))
            if n == 1 or n == N - 1:
                assert ratio == 2
                continue
            closed = Fraction(2 * k * (k - 1) * (N - 2 * k), (n - 1) * (N - n - 1))
            assert ratio == closed

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
        _, var = strong_cluster(N, lam, alpha, n)
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
    (lambda: small_lambda_deltaE(6, 2, 4, 1, 1e200, 0.1), "the second-order cell shift",
     0.1, 1e200),
    (lambda: small_lambda_deltaE(6, 2, 4, 1, 1.0, 1e200), "the second-order cell shift",
     1e200, 1.0),
    (lambda: small_lambda_deltaE(6, 2, 4, 1, 1e-200, 1e-200),
     "the second-order cell shift", 1e-200, 1e-200),
    (lambda: xx_projection_check(8, 1e200, 1.0, 3), "the XX projection block",
     1e200, 1.0),
    # A finite root whose block entries overflow in Tr(H^2).
    (lambda: xx_projection_check(8, 1e154, 1.0, 3), "the XX projection block",
     1e154, 1.0),
    (lambda: _tfim_moments(8, 1e300, np.array([3])), "a transverse-field cluster moment",
     1e300, 0.0),
    (lambda: strong_field_components(8, 1e100, 1.0), "a strong-field cluster moment",
     1e100, 1.0),
    (lambda: small_lambda_ER(8, 1e300, 0), "a class center E_R", 1e300, 1.0),
    (lambda: small_lambda_deltaE_R(8, 1e100, 0), "the class shift prefactor",
     1e100, 1.0),
    (lambda: small_lambda_sigmaR(8, 1e100, 0), "a class width sigma_R", 1e100, 1.0),
    (lambda: generic_alpha_components(8, 0.1, 1e200), "the cell width coupling",
     0.1, 1e200),
    (lambda: generic_alpha_components(8, 1e-160, 1e-160), "the cell width coupling",
     1e-160, 1e-160),
])
def test_formulas_beyond_float_range_name_the_couplings(formula, what, lam, alpha):
    message = f"{what} at lambda = {lam!r}, alpha = {alpha!r} is beyond float range"
    with pytest.raises(InvalidArgs) as info:
        formula()
    assert str(info.value) == message


@pytest.mark.parametrize("lam,alpha", [
    (0.1, math.inf), (0.1, -math.inf), (0.1, math.nan), (math.inf, 1.0), (math.nan, 1.0),
])
@pytest.mark.parametrize("formula", [
    lambda lam, alpha: small_lambda_deltaE(6, 2, 4, 1, alpha, lam),
    lambda lam, alpha: xx_projection_check(8, lam, alpha, 3),
], ids=["cell-shift", "xx-projection"])
def test_non_finite_couplings_are_refused(formula, lam, alpha):
    with pytest.raises(InvalidArgs, match="^lambda and alpha must be finite, got "):
        formula(lam, alpha)


class _Walked(Exception):
    """Raised in place of the cell walk, once the caps before it have passed."""


def _walk(N):
    raise _Walked(N)


def test_generic_mixture_counts_its_components_before_the_walk(monkeypatch):
    monkeypatch.setattr("ising_density.peaks.cells", _walk)
    with pytest.raises(_Walked):
        generic_alpha_components(4905, 0.15, 0.5)
    with pytest.raises(CapExceeded, match="^a mixture of 6017211 components at N = 4906 "):
        generic_alpha_components(4906, 0.15, 0.5)


def test_generic_mixture_sums_cells_and_components_against_the_cap(monkeypatch):
    count, cell_bytes = _cell_cost(100)
    # The cells alone and the components alone each fit; their sum does not.
    cap = count * max(cell_bytes, _COMPONENT_BYTES)
    monkeypatch.setattr(errors, "DEFAULT_MAX_BYTES", cap)
    monkeypatch.setattr("ising_density.peaks.cells", _walk)
    errors.check_cap("the cells", count * cell_bytes)
    errors.check_cap("the components", count * _COMPONENT_BYTES)
    with pytest.raises(CapExceeded, match=f"^a mixture of {count} components at N = 100 "):
        generic_alpha_components(100, 0.15, 0.5)


# ----------------------------------------------------------------------------
# ring sizes
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("N, rule", [
    (0, "must be >= 2, got N=0"),
    (1, "must be >= 2, got N=1"),
    (2.5, "must be an integer, got N=2.5"),
    (True, "must be an integer, got N=True"),
])
@pytest.mark.parametrize("build", [
    lambda N: tfim_mixture_components(N, 2.0),
    lambda N: strong_field_components(N, 1.0, 1.0),
    lambda N: small_lambda_components(N, 0.1),
    lambda N: generic_alpha_components(N, 0.1, 0.5),
    lambda N: xx_projection_check(N, 1.0, 1.0, 0),
], ids=["tfim", "strong", "int-alpha", "generic", "xx-projection"])
def test_builders_keep_one_ring_size_rule(build, N, rule):
    with pytest.raises(InvalidArgs, match=f"^ring size {re.escape(rule)}$"):
        build(N)


# Ring sizes and cell labels given as numpy integers are taken as Python ints
# before any arithmetic: in int64, 2**N wraps to 0 at N = 70 and the exact
# counts overflow.
@pytest.mark.parametrize("call", [
    lambda N: count_Na(N, N // 2, N - N // 2, N // 4),
    lambda N: count_Nb(N, N // 2, N - N // 2, N // 4),
    lambda N: count_Nc(N, N // 2, N - N // 2, N // 4),
    lambda N: count_N1(N // 2, N // 4),
    lambda N: count_N2(N // 2, N // 4),
    lambda N: block_census(N),
    lambda N: degeneracy_census(N, Fraction(9, 10)),
    lambda N: tfim_mixture_components(N, 0.5),
    lambda N: strong_field_components(N, 2.0, 1.0),
    lambda N: small_lambda_components(N, 0.2),
    lambda N: small_lambda_ER(N, 0.2, 0),
    lambda N: small_lambda_deltaE_R(N, 0.2, 0),
    lambda N: small_lambda_sigmaR(N, 0.2, 0),
    lambda N: small_lambda_deltaE(N, N // 2, N - N // 2, N // 4, 0.5, 0.2),
    lambda N: generic_alpha_components(N, 0.15, 0.5),
], ids=[
    "Na", "Nb", "Nc", "N1", "N2", "block-census", "degeneracy-census", "tfim",
    "strong", "int-alpha", "ER", "deltaE_R", "sigmaR", "deltaE", "generic",
])
def test_numpy_integers_give_the_python_int_result(call):
    def fingerprint(result):
        if isinstance(result, GaussianMixture):
            return result.components.tobytes()
        return repr(result)  # a numpy N left in a field shows as np.int64(70)

    assert fingerprint(call(np.int64(70))) == fingerprint(call(70))


def test_cells_caps_a_numpy_ring_size_before_the_walk():
    # 2 + N^2 // 4 in int64 wraps to 2 at N = 2^32.
    with pytest.raises(CapExceeded, match="^walking the 4611686018427387906 cells "):
        cells(np.int64(2**32))


@pytest.mark.parametrize("N", [1, 2, 63, 64, 400, 2001])
@pytest.mark.parametrize("step", [1, 2])
def test_binomial_weights_are_bit_equal_to_math_comb(N: int, step: int) -> None:
    expected = [step * math.comb(N, j) / 2**N for j in range(0, N + 1, step)]
    assert peaks._binomial_weights(N, step) == expected
