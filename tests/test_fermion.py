"""Tests for the free-fermion spectrum enumeration.

The cross-oracle is the dense many-body diagonalization from the model core:
for even N both routes must produce the identical sorted spectrum, which
checks the momentum grids, the sector parity rules and the occupation
enumeration all at once.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from ising_density.errors import CapExceeded, InvalidArgs, OddN
from ising_density.fermion import (
    enumerate_spectrum,
    momentum_grid,
    one_particle_energy,
)
from ising_density.model import IsingParams, exact_spectrum


def test_momentum_grid_antiperiodic_four_sites() -> None:
    grid = momentum_grid(4, "even")
    np.testing.assert_allclose(
        grid, [math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4, 7 * math.pi / 4]
    )


def test_momentum_grid_periodic_four_sites() -> None:
    grid = momentum_grid(4, "odd")
    np.testing.assert_allclose(grid, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])


def test_momentum_grid_two_sites() -> None:
    np.testing.assert_allclose(
        momentum_grid(2, "even"), [math.pi / 2, 3 * math.pi / 2]
    )


def test_momentum_grid_rejects_odd_N() -> None:
    with pytest.raises(OddN):
        momentum_grid(5, "even")


@pytest.mark.parametrize("parity", ["antiperiodic", "periodic", "Even", None])
def test_momentum_grid_names_only_even_and_odd(parity) -> None:
    with pytest.raises(InvalidArgs, match="parity must be 'even' or 'odd'"):
        momentum_grid(4, parity)


def test_one_particle_energy_values() -> None:
    # e(phi) = 2 sqrt(1 - 2 lambda cos phi + lambda^2)
    assert one_particle_energy(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert one_particle_energy(0.0, 0.5) == pytest.approx(2.0, rel=1e-14)
    assert one_particle_energy(2.0, math.pi) == pytest.approx(6.0, rel=1e-14)
    assert one_particle_energy(0.3, math.pi / 3) == pytest.approx(
        2 * math.sqrt(1 - 0.3 + 0.09), rel=1e-14
    )


def test_one_particle_energy_nonnegative() -> None:
    phis = np.linspace(0, 2 * math.pi, 101)
    for lam in (0.2, 1.0, 3.0):
        assert np.all(one_particle_energy(lam, phis) >= 0)


def test_enumerate_spectrum_counts() -> None:
    for N, lam in ((2, 0.3), (4, 1.0), (6, 2.4), (8, 0.9)):
        spec = enumerate_spectrum(N, lam)
        assert len(spec.energies) == 2**N
        assert np.all(np.diff(spec.energies) >= -1e-12)
        assert spec.method == "fermion"
        np.testing.assert_allclose(
            spec.energies, -spec.energies[::-1], atol=1e-9
        )


def test_enumerate_spectrum_four_sites_classical() -> None:
    E = enumerate_spectrum(4, 0.0).energies
    np.testing.assert_allclose(E, [-4.0, -4.0] + [0.0] * 12 + [4.0, 4.0], atol=1e-12)


def test_enumerate_spectrum_large_field_clusters() -> None:
    """At lambda >> 1 the spectrum clusters near lambda (2 n - N) with binomial counts."""
    N, lam = 4, 10.0
    E = enumerate_spectrum(N, lam).energies
    counts = [
        int(np.sum(np.abs(E - lam * (2 * n - N)) < lam / 2)) for n in range(N + 1)
    ]
    assert counts == [1, 4, 6, 4, 1]


def test_enumerate_spectrum_rejects_odd_N() -> None:
    with pytest.raises(OddN):
        enumerate_spectrum(5, 1.0)


def test_enumerate_spectrum_cap() -> None:
    with pytest.raises(CapExceeded):
        enumerate_spectrum(24, 1.0)


@pytest.mark.parametrize("N", [2, 4, 6, 8])
@pytest.mark.parametrize("lam", [0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0])
def test_fermion_matches_dense(N: int, lam: float) -> None:
    dense = exact_spectrum(IsingParams.tfim(N, lam)).energies
    fermion = enumerate_spectrum(N, lam).energies
    np.testing.assert_allclose(fermion, dense, atol=1e-8)


@pytest.mark.parametrize("lam", [0.4, 1.3])
def test_fermion_matches_dense_negative_lambda(lam: float) -> None:
    dense = exact_spectrum(IsingParams.tfim(6, -lam)).energies
    fermion = enumerate_spectrum(6, -lam).energies
    np.testing.assert_allclose(fermion, dense, atol=1e-8)


def test_ground_state_energy_against_single_particle_sum() -> None:
    """Even-sector vacuum energy is -(1/2) sum over the antiperiodic grid."""
    N, lam = 8, 0.6
    E0 = enumerate_spectrum(N, lam).energies[0]
    grid = momentum_grid(N, "even")
    vacuum = -0.5 * one_particle_energy(lam, grid).sum()
    assert E0 == pytest.approx(vacuum, rel=1e-12)
