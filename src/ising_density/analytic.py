"""Analytic approximations to the many-body density of states.

All formulas live at the level of the energy per spin e = E/N with
g(phi) = sqrt(1 - 2 lambda cos phi + lambda^2).  The saddle-point density is

    rho(e) = A exp(N S(e)),

with the saddle inverse temperature beta_sp fixed by

    e = -(1/2 pi) Integral tanh(beta g) g dphi,

the entropy per spin (normalized so S(0) = 0)

    S(e) = e beta_sp + (1/2 pi) Integral log cosh(beta_sp g) dphi,

and the prefactor

    A = sqrt( N / Integral_0^{2 pi} g^2 sech^2(beta_sp g) dphi ).

At beta_sp = 0 the prefactor integral is 2 pi (1 + lambda^2), which
reproduces the bulk Gaussian

    rho_G(e) = sqrt(N / (2 pi (1 + lambda^2))) exp(-N e^2 / (2 (1 + lambda^2))).

With a longitudinal field the bulk density in the rescaled energy
eps = E / sqrt(N (1 + lambda^2 + alpha^2)) acquires a cubic correction

    rho(eps) = exp(-eps^2/2)/sqrt(2 pi)
               [1 - alpha^2 (eps^3 - 3 eps) / (sqrt(N) (1+lambda^2+alpha^2)^{3/2})].

At lambda = 1 the low-energy tail admits the stretched-exponential form

    rho(E) = 2^{-N} (E - E_gs)^{-3/4} (8 sqrt(6 pi) N)^{-1/2}
             exp( sqrt( pi N (E - E_gs) / 6 ) ).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AtOrBelowGroundState,
    InvalidArgs,
    NegativeDensityWarning,
    NoConvergence,
    OutOfSupport,
)
from .model import IsingParams, abscissa_scale
from .quadrature import g_phi, integrate_phi

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SaddleSolution:
    """Saddle-point data at one energy per spin."""

    e: float
    beta_sp: float
    entropy: float
    prefactor: float
    lam: float
    N: int


def _logcosh(x: np.ndarray) -> np.ndarray:
    """log cosh x, stable for large |x|."""
    ax = np.abs(x)
    return ax - math.log(2.0) + np.log1p(np.exp(-2.0 * ax))


def _sech2(x: np.ndarray) -> np.ndarray:
    """sech^2 x, stable for large |x|."""
    ex = np.exp(-2.0 * np.abs(x))
    return 4.0 * ex / (1.0 + ex) ** 2


@lru_cache(maxsize=None)
def ground_state_energy_per_spin(lam: float) -> float:
    """e_gs(lambda) = -(1/2 pi) Integral_0^{2 pi} g(phi) dphi."""
    return -integrate_phi(lambda phi: g_phi(phi, lam)) / _TWO_PI


def _rhs(beta: float, lam: float) -> float:
    """Right-hand side of the saddle equation at inverse temperature beta."""
    return (
        -integrate_phi(lambda phi: np.tanh(beta * g_phi(phi, lam)) * g_phi(phi, lam))
        / _TWO_PI
    )


def _rhs_derivative(beta: float, lam: float) -> float:
    return (
        -integrate_phi(lambda phi: g_phi(phi, lam) ** 2 * _sech2(beta * g_phi(phi, lam)))
        / _TWO_PI
    )


def solve_saddle(e: float, lam: float, N: int = 1) -> SaddleSolution:
    """Solve the saddle equation for beta_sp and fill entropy and prefactor.

    The prefactor scales with the chain length, so N enters here only
    through A = sqrt(N / Integral g^2 sech^2).  The saddle equation itself
    is intensive.
    """
    e = float(e)
    e_gs = ground_state_energy_per_spin(lam)
    if abs(e) >= abs(e_gs):
        raise OutOfSupport(
            f"saddle point exists only for |e| < |e_gs| = {abs(e_gs):.6f}, got e={e}"
        )

    def objective(beta: float) -> float:
        return _rhs(beta, lam) - e

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if objective(lo) > 0.0:
            break
        lo *= 2.0
    else:  # pragma: no cover - unreachable in-range
        raise NoConvergence("bracket expansion failed on the negative side")
    for _ in range(200):
        if objective(hi) < 0.0:
            break
        hi *= 2.0
    else:  # pragma: no cover - unreachable in-range
        raise NoConvergence("bracket expansion failed on the positive side")

    for _ in range(300):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if objective(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    beta = 0.5 * (lo + hi)
    for _ in range(2):
        slope = _rhs_derivative(beta, lam)
        if slope != 0.0:
            beta -= objective(beta) / slope

    entropy = e * beta + integrate_phi(
        lambda phi: _logcosh(beta * g_phi(phi, lam))
    ) / _TWO_PI
    curvature = integrate_phi(
        lambda phi: g_phi(phi, lam) ** 2 * _sech2(beta * g_phi(phi, lam))
    )
    prefactor = math.sqrt(N / curvature)
    return SaddleSolution(
        e=e, beta_sp=beta, entropy=entropy, prefactor=prefactor, lam=lam, N=N
    )


def saddle_density(e: float, params: IsingParams) -> float:
    """Saddle-point density per unit e: rho(e) = A exp(N S(e)).

    Conversion to the extensive argument is rho_E(E) = rho(E/N)/N.
    """
    if params.alpha != 0.0:
        raise InvalidArgs("saddle_density applies to the transverse-field model only")
    sol = solve_saddle(e, params.lam, N=params.N)
    return sol.prefactor * math.exp(params.N * sol.entropy)


def saddle_density_extensive(E: float, params: IsingParams) -> float:
    """Saddle-point density per unit E."""
    return saddle_density(E / params.N, params) / params.N


def gaussian_density_tfim(
    e: float | np.ndarray, params: IsingParams
) -> float | np.ndarray:
    """Bulk Gaussian density per unit e for the transverse-field model."""
    if params.alpha != 0.0:
        raise InvalidArgs(
            "gaussian_density_tfim applies to the transverse-field model only"
        )
    N, lam = params.N, params.lam
    width = 1.0 + lam * lam
    value = np.sqrt(N / (_TWO_PI * width)) * np.exp(
        -N * np.asarray(e, dtype=float) ** 2 / (2.0 * width)
    )
    return float(value) if np.isscalar(e) else value


def gaussian_density_two_fields(
    E: float | np.ndarray, params: IsingParams, clamp: bool = False
) -> float | np.ndarray:
    """Cubic-corrected bulk density per unit eps for the two-field model.

    Values are reported per unit of the rescaled energy eps; the extensive
    conversion is rho_E(E) = rho_eps(E/s)/s with s = sqrt(N (1+lambda^2+alpha^2)).
    The cubic correction can push extreme-|eps| values below zero; that is
    reported via NegativeDensityWarning and, with clamp=True, cut off at 0.
    """
    if params.model != "two-field":
        raise InvalidArgs("gaussian_density_two_fields requires the two-field model")
    N, lam, alpha = params.N, params.lam, params.alpha
    w = 1.0 + lam * lam + alpha * alpha
    eps = np.asarray(E, dtype=float) / abscissa_scale(params, "eps")
    base = np.exp(-(eps**2) / 2.0) / math.sqrt(_TWO_PI)
    correction = 1.0 - alpha * alpha * (eps**3 - 3.0 * eps) / (math.sqrt(N) * w**1.5)
    value = base * correction
    if np.any(value < 0.0):
        warnings.warn(
            "cubic correction drives the density negative at extreme eps",
            NegativeDensityWarning,
            stacklevel=2,
        )
        if clamp:
            value = np.maximum(value, 0.0)
    return float(value) if np.isscalar(E) else value


def tail_density_critical(E: float, N: int) -> float:
    """Low-energy tail of the lambda = 1 density, per unit E."""
    E_gs = N * ground_state_energy_per_spin(1.0)
    gap = E - E_gs
    if gap <= 0.0:
        raise AtOrBelowGroundState(
            f"tail formula requires E > E_gs = {E_gs:.6f}, got E={E}"
        )
    return (
        2.0**-N
        * gap**-0.75
        / math.sqrt(8.0 * math.sqrt(6.0 * math.pi) * N)
        * math.exp(math.sqrt(math.pi * N * gap / 6.0))
    )
