"""Gauss-Legendre quadrature for the periodic phi-integrals.

All analytic-density integrals have the form (1/2pi) * int_0^{2pi} F(phi) dphi
with F built from g(phi, lambda) = sqrt(1 - 2 lambda cos phi + lambda^2).
The integrands are smooth except for the |lambda| = 1 kink of g at phi = 0
(mod 2pi), so the interval is always split at phi = 0 and phi = pi and each
panel is integrated with a fixed-order rule whose order doubles from
``_MIN_ORDER`` until two successive results agree to ``_TOL`` relative to
max(1, |result|).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NoConvergence

_MIN_ORDER = 16
_MAX_ORDER = 1 << 13
_TOL = 1e-13


@lru_cache(maxsize=32)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integrate f over [a, b], doubling the rule order until converged."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    order = _MIN_ORDER
    x, w = _leggauss(order)
    prev = half * float(np.dot(w, f(mid + half * x)))
    if not np.isfinite(prev):
        raise NoConvergence(f"quadrature integrand is not finite on [{a}, {b}]")
    while order < _MAX_ORDER:
        order *= 2
        x, w = _leggauss(order)
        cur = half * float(np.dot(w, f(mid + half * x)))
        if abs(cur - prev) < _TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise NoConvergence(f"quadrature did not converge on [{a}, {b}]")


def integrate_phi(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """int_0^{2pi} f(phi) dphi, split at phi = 0 and phi = pi."""
    return gauss_legendre(f, 0.0, np.pi) + gauss_legendre(f, np.pi, 2.0 * np.pi)


def g_phi(phi: np.ndarray | float, lam: float) -> np.ndarray | float:
    """g(phi) = sqrt(1 - 2 lambda cos phi + lambda^2), clamped at the kink."""
    val = 1.0 - 2.0 * lam * np.cos(phi) + lam * lam
    return np.sqrt(np.maximum(val, 0.0))
