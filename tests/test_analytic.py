"""Tests for the analytic density approximations.

Independent oracles: scipy.integrate.quad for all phi-integrals (the package
uses its own Gauss-Legendre ladder), closed forms at beta = 0, and structural
properties (symmetry, monotonicity, stretched-exponential doubling) that do
not reuse the implementation's arithmetic.
"""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from ising_density import analytic
from ising_density.analytic import (
    gaussian_density_tfim,
    gaussian_density_two_fields,
    ground_state_energy_per_spin,
    saddle_density,
    saddle_density_extensive,
    tail_density_critical,
)
from ising_density.errors import (
    AtOrBelowGroundState,
    InvalidArgs,
    NoConvergence,
    OutOfSupport,
)
from ising_density.model import IsingParams, abscissa_scale


def quad_rhs(beta: float, lam: float) -> float:
    """Saddle equation right-hand side via scipy quadrature (oracle)."""

    def integrand(phi: float) -> float:
        g = math.sqrt(1 - 2 * lam * math.cos(phi) + lam * lam)
        return -math.tanh(beta * g) * g / (2 * math.pi)

    lo, _ = quad(integrand, 0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    hi, _ = quad(integrand, math.pi, 2 * math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)
    return lo + hi


def one_point_saddle(e: float, lam: float) -> tuple[float, float, float]:
    """beta_sp, entropy S and curvature Integral g^2 sech^2 at one e."""
    beta, entropy, curvature = analytic._saddle_grid(np.array([float(e)]), lam)
    return float(beta[0]), float(entropy[0]), float(curvature[0])


def test_ground_state_energy_per_spin_values() -> None:
    assert ground_state_energy_per_spin(0.0) == pytest.approx(-1.0, abs=1e-12)
    assert ground_state_energy_per_spin(1.0) == pytest.approx(-4 / math.pi, rel=1e-12)
    # Large-field expansion: e_gs = -lambda - 1/(4 lambda) + O(lambda^-3).
    assert ground_state_energy_per_spin(10.0) == pytest.approx(-10.025, abs=1e-3)
    assert ground_state_energy_per_spin(-0.8) == pytest.approx(
        ground_state_energy_per_spin(0.8), rel=1e-12
    )


def test_ground_state_energy_against_scipy() -> None:
    for lam in (0.3, 0.7, 1.0, 1.5, 5.0):
        def integrand(phi: float) -> float:
            return -math.sqrt(1 - 2 * lam * math.cos(phi) + lam * lam) / (2 * math.pi)

        expected = quad(integrand, 0, math.pi, limit=200)[0] + quad(
            integrand, math.pi, 2 * math.pi, limit=200
        )[0]
        assert ground_state_energy_per_spin(lam) == pytest.approx(expected, abs=1e-11)


def test_solve_saddle_at_zero_energy() -> None:
    beta, entropy, curvature = one_point_saddle(0.0, 1.0)
    assert abs(beta) <= 1e-10
    assert abs(entropy) <= 1e-12
    # At beta = 0 the prefactor integral is 2 pi (1 + lambda^2).
    assert math.sqrt(16 / curvature) == pytest.approx(
        math.sqrt(16 / (4 * math.pi)), rel=1e-9
    )


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_solve_saddle_residual_on_grid(lam: float) -> None:
    e_gs = ground_state_energy_per_spin(lam)
    grid = np.linspace(0.995 * e_gs, -0.995 * e_gs, 100)
    betas = []
    for e in grid:
        beta, entropy, _ = one_point_saddle(e, lam)
        assert abs(quad_rhs(beta, lam) - e) <= 1e-10
        assert entropy <= 1e-12
        betas.append(beta)
        if e != 0.0:
            assert beta * e < 0.0
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))


def test_solve_saddle_out_of_support() -> None:
    e_gs = ground_state_energy_per_spin(1.0)
    for e in (e_gs, -e_gs, 1.5 * e_gs, 2.0):
        with pytest.raises(OutOfSupport):
            saddle_density(e, IsingParams.tfim(16, 1.0))


def test_saddle_density_peak_matches_gaussian_closed_form() -> None:
    params = IsingParams.tfim(16, 1.0)
    peak = saddle_density(0.0, params)
    assert peak == pytest.approx(math.sqrt(16 / (4 * math.pi)), rel=1e-9)
    assert peak == pytest.approx(gaussian_density_tfim(0.0, params), rel=1e-9)


def test_saddle_density_symmetric() -> None:
    params = IsingParams.tfim(20, 0.7)
    for e in (0.1, 0.35, 0.6):
        assert saddle_density(e, params) == pytest.approx(
            saddle_density(-e, params), rel=1e-10
        )


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_saddle_density_unit_integral(lam: float) -> None:
    # The Laplace normalization carries an O(1/N) defect (~0.34/N), so the
    # 0.005 budget needs N >= ~70; N=150 leaves a comfortable margin.
    params = IsingParams.tfim(150, lam)
    e_gs = ground_state_energy_per_spin(lam)
    grid = np.linspace(0.999 * e_gs, -0.999 * e_gs, 801)
    values = np.array([saddle_density(float(e), params) for e in grid])
    assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=0.005)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_saddle_grid_matches_one_point_solves(lam: float) -> None:
    """The grid solve picks one rule order for all points, the one-point solve
    its own; both stay within the stated bound of each other."""
    N = 16
    e_gs = ground_state_energy_per_spin(lam)
    grid = np.linspace(0.995 * e_gs, -0.995 * e_gs, 41)
    values = saddle_density_extensive(grid * N, IsingParams.tfim(N, lam))
    expected = []
    for e in grid:
        _, entropy, curvature = one_point_saddle(e, lam)
        expected.append(math.sqrt(N / curvature) * math.exp(N * entropy) / N)
    np.testing.assert_allclose(values, expected, rtol=1e-13, atol=0)
    assert isinstance(saddle_density_extensive(0.5, IsingParams.tfim(N, lam)), float)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_saddle_next_to_a_gapped_band_edge(lam: float) -> None:
    """There d beta / d e is so large that Newton steps stay above 1e-13
    relative; the solve stops at the residual's rounding floor instead."""
    e_gs = ground_state_energy_per_spin(lam)
    for e in (0.99999 * e_gs, -0.99999 * e_gs):
        beta, _, curvature = one_point_saddle(e, lam)
        assert abs(quad_rhs(beta, lam) - e) <= 1e-10
        prefactor = math.sqrt(16 / curvature)
        assert math.isfinite(prefactor) and prefactor > 0.0


def test_saddle_grid_with_a_point_beyond_the_band_edge() -> None:
    e_gs = ground_state_energy_per_spin(1.0)
    grid = np.linspace(-1.0, 1.0, 9)
    grid[5] = -1.01 * e_gs
    grid[7] = -1.02 * e_gs
    with pytest.raises(OutOfSupport, match=re.escape(f"got e={float(grid[5])!r}") + "$"):
        saddle_density(grid, IsingParams.tfim(16, 1.0))


def test_saddle_grid_is_solved_in_chunks() -> None:
    """Unchunked, one (points x nodes) temporary of this grid would take
    more than 100 MB."""
    grid = np.linspace(-0.7, 0.7, 200_001)
    tracemalloc.start()
    try:
        values = saddle_density(grid, IsingParams.tfim(16, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert values[100_000] == pytest.approx(math.sqrt(16 / (4 * math.pi)), rel=1e-12)
    np.testing.assert_allclose(values, values[::-1], rtol=1e-12)


def test_saddle_grid_gives_up_at_max_order(monkeypatch) -> None:
    """Near the critical band edge the rule must reach order 128."""
    e_gs = ground_state_energy_per_spin(1.0)  # cached before the rule is patched
    monkeypatch.setattr(analytic, "_MAX_ORDER", 32)
    orders: list[int] = []

    def recording_leggauss(order: int):
        orders.append(order)
        return np.polynomial.legendre.leggauss(order)

    monkeypatch.setattr(analytic, "_leggauss", recording_leggauss)
    with pytest.raises(NoConvergence):
        saddle_density(np.array([0.0, 0.999 * e_gs]), IsingParams.tfim(16, 1.0))
    assert orders == [16, 32]


def test_gaussian_density_tfim_values() -> None:
    assert gaussian_density_tfim(0.0, IsingParams.tfim(16, 1.0)) == pytest.approx(
        1.1283791670955126, rel=1e-12
    )
    assert gaussian_density_tfim(0.0, IsingParams.tfim(8, 0.0)) == pytest.approx(
        math.sqrt(8 / (2 * math.pi)), rel=1e-12
    )
    params = IsingParams.tfim(12, 0.6)
    e = np.linspace(-3, 3, 2001)
    rho = gaussian_density_tfim(e, params)
    assert np.trapezoid(rho, e) == pytest.approx(1.0, abs=1e-6)


def test_two_field_density_at_correction_zeros() -> None:
    params = IsingParams.two_field(16, 1.0, 1.0)
    scale = math.sqrt(16 * 3.0)
    expected = math.exp(-1.5) / math.sqrt(2 * math.pi)
    for sign in (+1, -1):
        E = sign * math.sqrt(3) * scale
        assert gaussian_density_two_fields(E, params) == pytest.approx(
            expected, rel=1e-12
        )


def test_two_field_density_alpha_zero_is_gaussian() -> None:
    params = IsingParams.two_field(10, 0.8, 0.0)
    for eps in (-2.0, -0.5, 0.0, 1.0, 3.0):
        E = eps * math.sqrt(10 * (1 + 0.64))
        assert gaussian_density_two_fields(E, params) == pytest.approx(
            math.exp(-(eps**2) / 2) / math.sqrt(2 * math.pi), rel=1e-12
        )


def test_two_field_correction_integrates_to_zero() -> None:
    params = IsingParams.two_field(12, 0.5, 1.5)
    plain = IsingParams.two_field(12, 0.5, 0.0)
    s_corr = math.sqrt(12 * (1 + 0.25 + 2.25))
    s_plain = math.sqrt(12 * 1.25)
    eps = np.linspace(-8, 8, 40001)
    corrected = np.array(
        [gaussian_density_two_fields(float(x) * s_corr, params) for x in eps]
    )
    gaussian = np.array(
        [gaussian_density_two_fields(float(x) * s_plain, plain) for x in eps]
    )
    assert abs(np.trapezoid(corrected - gaussian, eps)) <= 1e-6


def test_rescaled_energy() -> None:
    params = IsingParams.two_field(16, 1.0, 1.0)
    eps = math.sqrt(48.0) / abscissa_scale(params, "eps")
    assert eps == pytest.approx(1.0, rel=1e-12)


def test_tail_density_critical_closed_form() -> None:
    N = 16
    E_gs = N * ground_state_energy_per_spin(1.0)
    x = 1.0
    expected = (
        2.0**-N
        * x**-0.75
        / math.sqrt(8 * math.sqrt(6 * math.pi) * N)
        * math.exp(math.sqrt(math.pi * N * x / 6))
    )
    assert tail_density_critical(E_gs + x, N) == pytest.approx(expected, rel=1e-12)


def test_tail_density_critical_on_an_array() -> None:
    N = 16
    E_gs = N * ground_state_energy_per_spin(1.0)
    gaps = np.array([0.25, 1.0, 2.5, 4.0])
    expected = [
        2.0**-N
        * x**-0.75
        / math.sqrt(8 * math.sqrt(6 * math.pi) * N)
        * math.exp(math.sqrt(math.pi * N * x / 6))
        for x in gaps
    ]
    np.testing.assert_allclose(
        tail_density_critical(E_gs + gaps, N), expected, rtol=1e-14, atol=0
    )
    energies = E_gs + np.array([1.0, -1.0, 0.0])
    with pytest.raises(AtOrBelowGroundState, match=re.escape(f"got E={float(energies[1])!r}") + "$"):
        tail_density_critical(energies, N)


@pytest.mark.parametrize(
    "N, energies",
    [
        (1200, [-1500.0, -1250.0, -1000.0]),  # 2**-N underflows on its own
        (1000, [-300.0, -250.0]),  # exp(...) overflows on its own
    ],
)
def test_tail_density_critical_beyond_the_factors_float_range(N, energies) -> None:
    E_gs = N * ground_state_energy_per_spin(1.0)
    expected = [
        math.exp(
            -N * math.log(2.0)
            - 0.75 * math.log(E - E_gs)
            - 0.5 * math.log(8 * math.sqrt(6 * math.pi) * N)
            + math.sqrt(math.pi * N * (E - E_gs) / 6)
        )
        for E in energies
    ]
    values = tail_density_critical(np.array(energies), N)
    assert np.all(values > 0.0)
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0)
    assert tail_density_critical(energies[0], N) == values[0]


def test_tail_density_critical_stretched_exponential_doubling() -> None:
    """log of (rho corrected for its algebraic prefactor) scales as sqrt(E - E_gs)."""
    N = 12
    E_gs = N * ground_state_energy_per_spin(1.0)

    def exponent(x: float) -> float:
        rho = tail_density_critical(E_gs + x, N)
        return (
            math.log(rho)
            + N * math.log(2)
            + 0.5 * math.log(8 * math.sqrt(6 * math.pi) * N)
            + 0.75 * math.log(x)
        )

    assert exponent(2.0) == pytest.approx(math.sqrt(2) * exponent(1.0), rel=1e-9)


def test_tail_density_critical_rejects_at_or_below_ground_state() -> None:
    N = 10
    E_gs = N * ground_state_energy_per_spin(1.0)
    for E in (E_gs, E_gs - 0.5):
        with pytest.raises(AtOrBelowGroundState):
            tail_density_critical(E, N)


def test_tail_density_critical_beyond_float_range_is_refused() -> None:
    with pytest.raises(InvalidArgs) as info:
        tail_density_critical(np.array([-20.0, 1e10]), 16)
    assert str(info.value) == "tail density at N = 16, E = 10000000000.0 is beyond float range"


def test_quadrature_gives_up_at_max_order(monkeypatch) -> None:
    """A finite integrand that never settles stops at _MAX_ORDER, not beyond."""
    monkeypatch.setattr(analytic, "_MAX_ORDER", 64)
    orders: list[int] = []

    def recording_leggauss(order: int):
        orders.append(order)
        return np.polynomial.legendre.leggauss(order)

    monkeypatch.setattr(analytic, "_leggauss", recording_leggauss)
    with pytest.raises(NoConvergence):
        analytic.gauss_legendre(lambda x: np.full_like(x, len(x)), 0.0, 1.0)
    assert orders == [16, 32, 64]
