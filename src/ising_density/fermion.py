"""Free-fermion enumeration of the transverse-field Ising spectrum.

A Jordan-Wigner transformation maps the ring onto free fermions with
one-particle energies

    e(phi) = 2 g(phi),   g(phi) = sqrt(1 - 2 lambda cos phi + lambda^2) >= 0,

sampled on two momentum grids: the Even (antiperiodic) sector uses
phi_j = pi (2j + 1) / N and the Odd (periodic) sector uses phi_j = 2 pi j / N,
j = 0..N-1.  A many-body level is E = sum_j e_j (n_j - 1/2) over occupation
numbers n_j in {0, 1}, and the physical spectrum keeps, per sector, only one
occupation parity:

    |lambda| <  1:  both sectors, even sum(n_j) only;
    |lambda| >  1:  antiperiodic sector with even sum(n_j),
                    periodic sector with odd sum(n_j);
    |lambda| == 1:  the |lambda| < 1 rule (both conventions agree there).

Either way exactly 2^N energies survive.  Both grids are invariant under
phi -> pi - phi, which realizes the lambda -> -lambda spectral invariance
exactly, so negative lambda is enumerated via |lambda|.  The function g
is also the integrand kernel of every phi-integral in ``analytic``, which
imports it from here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapExceeded, InvalidArgs, OddN, float_range
from .model import IsingParams, ManyBodySpectrum

DEFAULT_MAX_SITES = 22


def g_phi(phi: np.ndarray | float, lam: float) -> np.ndarray | float:
    """g(phi) = sqrt(1 - 2 lambda cos phi + lambda^2), clamped at the kink."""
    val = 1.0 - 2.0 * lam * np.cos(phi) + lam * lam
    return np.sqrt(np.maximum(val, 0.0))


def one_particle_energy(lam: float, phi: float | np.ndarray) -> float | np.ndarray:
    """Dispersion e(phi) = 2 g(phi) = 2 sqrt(1 - 2 lambda cos phi + lambda^2) >= 0."""
    result = 2.0 * g_phi(phi, lam)
    return float(result) if np.isscalar(phi) else result


def momentum_grid(N: int, parity: str) -> np.ndarray:
    """Sorted momentum phases in [0, 2 pi) for one sector of an even-N ring."""
    if N % 2 != 0:
        raise OddN(f"free-fermion sectors require even N, got {N}")
    if parity not in ("even", "odd"):
        raise InvalidArgs(f"parity must be 'even' or 'odd', got {parity!r}")
    j = np.arange(N)
    if parity == "even":
        return math.pi * (2 * j + 1) / N
    return 2 * math.pi * j / N


def _sector_levels(energies: np.ndarray, keep_even: bool) -> np.ndarray:
    """All sum_j e_j (n_j - 1/2) with the requested occupation parity.

    Builds the 2^N subset sums by doubling: after processing j levels the
    arrays hold all subset sums of the first j energies, split by parity.
    """
    even, odd = np.zeros(1), np.zeros(0)
    for e in energies:
        even, odd = np.concatenate([even, odd + e]), np.concatenate([odd, even + e])
    sums = even if keep_even else odd
    sums -= 0.5 * energies.sum()
    return sums


def enumerate_spectrum(N: int, lam: float) -> ManyBodySpectrum:
    """Exact sorted 2^N spectrum from the free-fermion sector rules."""
    params = IsingParams.tfim(N, lam)
    if N > DEFAULT_MAX_SITES:
        raise CapExceeded(
            f"enumerate_spectrum materializes 2^N energies; N={N} exceeds "
            f"cap {DEFAULT_MAX_SITES}"
        )
    size = abs(params.lam)
    even = one_particle_energy(size, momentum_grid(N, "even"))
    odd = one_particle_energy(size, momentum_grid(N, "odd"))
    # Levels lie within half the dispersion's sum, which lambda^2 overflows
    # from |lambda| ~ 1e154 on.
    with float_range("the free-fermion dispersion", params.lam, 0.0) as finite:
        finite(even.sum() + odd.sum())
    energies = np.concatenate(
        [
            _sector_levels(even, keep_even=True),
            _sector_levels(odd, keep_even=size <= 1.0),
        ]
    )
    energies.sort()
    return ManyBodySpectrum(energies=energies, method="fermion", params=params)
