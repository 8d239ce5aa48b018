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

Every phi-integral is split at phi = 0 and phi = pi, where g has its
|lambda| = 1 kink, and each panel takes a Gauss-Legendre rule whose order
doubles, n = 16, 32, ..., until two successive results agree to
1e-13 max(1, |value|) (``gauss_legendre``, behind ``integrate_phi``).

The saddle is solved for a whole e-grid at once.  The phi-integrals are row
sums over a (points x nodes) matrix, with one rule of n nodes on each panel.
Every point starts at beta = 0 and takes Newton steps, each capped at
2 max(1, |beta|), until its step is below 1e-13 max(1, |beta|) or its
residual is at the rounding floor of the node sum.  Integral tanh(beta g) g
dphi increases with beta and is concave for beta > 0 (convex for beta < 0),
so the steps from beta = 0 approach the root from one side without
overshooting.  The rule order follows the same doubling test, each order
warm-started from the previous roots, until at every point the right-hand
side at the previous root, the entropy and the curvature integral agree
between the two orders to 1e-13 max(1, |value|).  At _MAX_ORDER the solve
raises NoConvergence; a coupling whose curvature integral 2 pi (1 + lambda^2)
at beta = 0 is not finite is refused before any solve.  The right-hand side
is compared rather than beta itself because beta is ill-conditioned near the
band edge, where d beta / d e grows without bound.  The grid is processed in
chunks so that each (chunk x nodes) temporary stays near 8 MB.

Error bound: entropy and curvature agree with the next-lower rule to
1e-13 max(1, |value|), and the equation is solved to 1e-13 max(1, |beta|) or
to rounding, so rho = A exp(N S) carries a relative error of about
1e-13 (N max(1, |S|) + 1/2) from the quadrature plus the rounding of e.

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
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    AtOrBelowGroundState,
    InvalidArgs,
    NoConvergence,
    OutOfSupport,
    float_range,
)
from .fermion import g_phi
from .model import IsingParams, abscissa_scale

_TWO_PI = 2.0 * math.pi
_MIN_ORDER = 16
_MAX_ORDER = 1 << 13
# Agreement of two rule orders, and the Newton step size, relative to max(1, |x|).
_TOL = 1e-13
# A residual within 16 ulps of its target is at the rounding floor of the
# node sum (measured at most 2.2 ulps at orders 64 and 128), so Newton stops
# there.
_RESIDUAL_FLOOR = 16.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny  # smallest normal float
_MAX_STEPS = 200
# Rows per chunk keep each (points x nodes) temporary near this size.
_CHUNK_BYTES = 8 << 20
_CURVATURE = "the saddle curvature integral"


def _logcosh(x: np.ndarray) -> np.ndarray:
    """log cosh x, stable for large |x|; two temporaries the size of x."""
    ax = np.abs(x)
    tail = np.multiply(ax, -2.0)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    ax -= math.log(2.0)
    ax += tail
    return ax


def _sech2(x: np.ndarray) -> np.ndarray:
    """sech^2 x, stable for large |x|; two temporaries the size of x."""
    ex = np.abs(x)
    ex *= -2.0
    np.exp(ex, out=ex)
    denom = ex + 1.0
    denom *= denom
    ex *= 4.0
    ex /= denom
    return ex


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


@lru_cache(maxsize=None)
def ground_state_energy_per_spin(lam: float) -> float:
    """e_gs(lambda) = -(1/2 pi) Integral_0^{2 pi} g(phi) dphi."""
    return -integrate_phi(lambda phi: g_phi(phi, lam)) / _TWO_PI


def _panel_nodes(order: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """g and the weights at the order-point Gauss-Legendre nodes of [0, pi]
    and of [pi, 2 pi]."""
    x, w = _leggauss(order)
    half = 0.5 * math.pi
    g = g_phi(np.concatenate((half + half * x, 3.0 * half + half * x)), lam)
    w = np.concatenate((w, w)) * half
    # The curvature integral is largest at beta = 0; if it is finite, so is
    # every integral of the solve.
    with float_range(_CURVATURE, lam, 0.0) as finite:
        finite(w @ (g * g))
    return g, w


def _newton_chunk(
    e: np.ndarray, beta: np.ndarray, g: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Newton-solve one chunk of the grid on one rule, starting from beta.

    Returns the root, the right-hand side at the starting beta, and the
    entropy and curvature integral at the root.
    """
    target = -_TWO_PI * e  # Integral tanh(beta g) g dphi at the saddle
    wg = w * g
    wg2 = wg * g
    beta = beta.copy()
    rhs_start = None
    todo = np.arange(e.size)
    for _ in range(_MAX_STEPS):
        b = beta[todo]
        x = np.multiply.outer(b, g)
        residual = np.tanh(x) @ wg - target[todo]
        slope = _sech2(x) @ wg2
        del x
        if rhs_start is None:
            rhs_start = e - residual / _TWO_PI
        if not np.all(slope > 0.0):
            first = float(e[todo[np.argmin(slope > 0.0)]])
            raise NoConvergence(f"saddle equation is flat at e={first}")
        cap = 2.0 * np.maximum(1.0, np.abs(b))
        step = np.clip(residual / slope, -cap, cap)
        beta[todo] = b - step
        small = np.abs(step) <= _TOL * np.maximum(1.0, np.abs(beta[todo]))
        at_floor = np.abs(residual) <= _RESIDUAL_FLOOR * np.abs(target[todo])
        todo = todo[~(small | at_floor)]
        if todo.size == 0:
            break
    else:
        raise NoConvergence(
            f"saddle Newton iteration did not settle at e={float(e[todo[0]])}"
        )
    x = np.multiply.outer(beta, g)
    entropy = e * beta + (_logcosh(x) @ w) / _TWO_PI
    curvature = _sech2(x) @ wg2
    return beta, rhs_start, entropy, curvature


def _agree(new: np.ndarray, old: np.ndarray) -> bool:
    return bool(np.all(np.abs(new - old) <= _TOL * np.maximum(1.0, np.abs(new))))


def _saddle_grid(e: np.ndarray, lam: float) -> tuple[np.ndarray, ...]:
    """beta_sp, entropy S and curvature Integral g^2 sech^2 at every e of a
    1-D array; the algorithm and its error bound are in the module docstring."""
    with float_range(_CURVATURE, lam, 0.0) as finite:
        finite(_TWO_PI * (1.0 + lam * lam))  # the curvature at beta = 0
    e_gs = ground_state_energy_per_spin(lam)
    outside = np.flatnonzero(~(np.abs(e) < abs(e_gs)))
    if outside.size:
        raise OutOfSupport(
            f"saddle point exists only for |e| < |e_gs| = {abs(e_gs):.6f}, "
            f"got e={float(e[outside[0]])}"
        )
    beta = np.zeros_like(e)
    previous = None
    order = _MIN_ORDER
    while True:
        g, w = _panel_nodes(order, lam)
        rows = max(1, _CHUNK_BYTES // (8 * g.size))
        chunks = [
            _newton_chunk(e[i : i + rows], beta[i : i + rows], g, w)
            for i in range(0, e.size, rows)
        ]
        beta, rhs_start, entropy, curvature = (np.concatenate(c) for c in zip(*chunks))
        del chunks
        if previous is not None and (
            _agree(rhs_start, e)
            and _agree(entropy, previous[0])
            and _agree(curvature, previous[1])
        ):
            return beta, entropy, curvature
        if order >= _MAX_ORDER:
            raise NoConvergence(
                f"saddle quadrature did not converge by order {order} at lambda={lam}"
            )
        previous = entropy, curvature
        order *= 2


def saddle_density(
    e: float | np.ndarray, params: IsingParams
) -> float | np.ndarray:
    """Saddle-point density per unit e: rho(e) = A exp(N S(e)).

    Conversion to the extensive argument is rho_E(E) = rho(E/N)/N.
    """
    if params.alpha != 0.0:
        raise InvalidArgs("saddle_density applies to the transverse-field model only")
    points = np.asarray(e, dtype=float)
    _, entropy, curvature = _saddle_grid(points.ravel(), params.lam)
    value = np.sqrt(params.N / curvature) * np.exp(params.N * entropy)
    return float(value[0]) if np.isscalar(e) else value.reshape(points.shape)


def saddle_density_extensive(
    E: float | np.ndarray, params: IsingParams
) -> float | np.ndarray:
    """Saddle-point density per unit E."""
    return saddle_density(E / params.N, params) / params.N


# Far out, overflow gives exact zeros, or NaNs that the curve rule refuses.
@np.errstate(over="ignore", invalid="ignore")
def gaussian_density_tfim(
    e: float | np.ndarray, params: IsingParams
) -> float | np.ndarray:
    """Bulk Gaussian density per unit e for the transverse-field model."""
    if params.alpha != 0.0:
        raise InvalidArgs(
            "gaussian_density_tfim applies to the transverse-field model only"
        )
    N, lam = params.N, params.lam
    with float_range("the bulk Gaussian width", lam, 0.0) as finite:
        width = finite(1.0 + lam * lam)
    value = np.sqrt(N / (_TWO_PI * width)) * np.exp(
        -N * np.asarray(e, dtype=float) ** 2 / (2.0 * width)
    )
    return float(value) if np.isscalar(e) else value


# Far out, overflow gives NaNs (0 * inf) that the curve rule refuses.
@np.errstate(over="ignore", invalid="ignore")
def gaussian_density_two_fields(
    E: float | np.ndarray, params: IsingParams
) -> float | np.ndarray:
    """Cubic-corrected bulk density per unit eps for the two-field model.

    Values are reported per unit of the rescaled energy eps; the extensive
    conversion is rho_E(E) = rho_eps(E/s)/s with s = sqrt(N (1+lambda^2+alpha^2)).
    The cubic correction can push extreme-|eps| values below zero; they are
    returned as they are.
    """
    if params.model != "two-field":
        raise InvalidArgs("gaussian_density_two_fields requires the two-field model")
    N, lam, alpha = params.N, params.lam, params.alpha
    w = 1.0 + lam * lam + alpha * alpha
    eps = np.asarray(E, dtype=float) / abscissa_scale(params, "eps")
    with float_range("the cubic correction", lam, alpha):
        denominator = math.sqrt(N) * w**1.5
    base = np.exp(-(eps**2) / 2.0) / math.sqrt(_TWO_PI)
    value = base * (1.0 - alpha * alpha * (eps**3 - 3.0 * eps) / denominator)
    return float(value) if np.isscalar(E) else value


def tail_density_critical(E: float | np.ndarray, N: int) -> float | np.ndarray:
    """Low-energy tail of the lambda = 1 density, per unit E."""
    E_gs = N * ground_state_energy_per_spin(1.0)
    energies = np.asarray(E, dtype=float)
    gap = energies - E_gs
    below = np.flatnonzero(gap <= 0.0)
    if below.size:
        raise AtOrBelowGroundState(
            f"tail formula requires E > E_gs = {E_gs:.6f}, "
            f"got E={float(energies.flat[below[0]])}"
        )
    norm = math.sqrt(8.0 * math.sqrt(6.0 * math.pi) * N)
    root = np.sqrt(math.pi * N * gap / 6.0)
    with np.errstate(all="ignore"):
        value = np.asarray(2.0**-N * gap**-0.75 / norm * np.exp(root))
    # 2**-N is subnormal beyond N = 1022.  There, and where the product leaves
    # the normal float range, it is one exponential of the summed logarithms.
    redo = ~(value >= _TINY) | np.isinf(value) | (N > 1022)
    if redo.any():
        log_value = -N * math.log(2.0) - 0.75 * np.log(gap[redo]) - math.log(norm)
        try:
            with np.errstate(over="raise"):
                value[redo] = np.exp(log_value + root[redo])
        except FloatingPointError:  # the exponential grows fastest at the largest E
            raise InvalidArgs(
                f"tail density at N = {N}, E = {float(energies.max())!r} "
                "is beyond float range"
            ) from None
    return float(value) if np.isscalar(E) else value
