"""Model core: parameters, dense Hamiltonian, exact spectra and trace moments.

The Hamiltonian of the quantum Ising ring in transverse field lambda and
longitudinal field alpha is

    H = - sum_n sigma^x_n sigma^x_{n+1} - lambda sum_n sigma^z_n
        - alpha sum_n sigma^x_n,

with periodic boundary conditions (site N+1 = site 1).  The computational
basis diagonalizes sigma^z: basis state b in [0, 2^N) has sigma^z_n = +1
when bit n of b is 0 and -1 when it is 1, while sigma^x_n flips bit n.

Trace moments m_k = 2^{-N} Tr H^k admit closed forms valid once the ring is
long enough that no product of k local terms can wrap around it:

    m1 = 0
    m2 = N (1 + lambda^2 + alpha^2)                     (N >= 3)
    m3 = -6 N alpha^2                                   (N >= 4)
    m4 = 3 N^2 (1 + lambda^2 + alpha^2)^2
         - N (2 + 8 lambda^2 + 2 lambda^4
              + 4 lambda^2 alpha^2 + 2 alpha^4 - 24 alpha^2)   (N >= 5)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapExceeded, EigensolverFailure, InvalidArgs

DEFAULT_MAX_BYTES = 4 * 1024**3

_MODELS = ("tfim", "two-field")
_METHODS = ("dense", "fermion")
ABSCISSAE = ("E", "e", "eps")


@dataclass(frozen=True)
class IsingParams:
    """Parameters of one Ising ring: size N, fields lambda and alpha."""

    N: int
    lam: float
    alpha: float = 0.0
    model: str = "tfim"

    def __post_init__(self) -> None:
        if not isinstance(self.N, (int, np.integer)) or self.N < 2:
            raise InvalidArgs(f"N must be an integer >= 2, got {self.N!r}")
        object.__setattr__(self, "N", int(self.N))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (math.isfinite(self.lam) and math.isfinite(self.alpha)):
            raise InvalidArgs(
                f"lambda and alpha must be finite, got {self.lam!r} and {self.alpha!r}"
            )
        if self.model not in _MODELS:
            raise InvalidArgs(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.model == "tfim" and self.alpha != 0.0:
            raise InvalidArgs("tfim model requires alpha = 0; use two-field instead")

    @classmethod
    def tfim(cls, N: int, lam: float) -> "IsingParams":
        return cls(N=N, lam=lam, alpha=0.0, model="tfim")

    @classmethod
    def two_field(cls, N: int, lam: float, alpha: float) -> "IsingParams":
        return cls(N=N, lam=lam, alpha=alpha, model="two-field")


def abscissa_scale(params: IsingParams, abscissa: str) -> float:
    """Energy per unit of an abscissa: 1 for ``E``, N for the per-spin ``e``
    and sqrt(N (1 + lambda^2 + alpha^2)) for the rescaled ``eps``."""
    if abscissa == "E":
        return 1.0
    if abscissa == "e":
        return float(params.N)
    if abscissa == "eps":
        return math.sqrt(params.N * (1.0 + params.lam**2 + params.alpha**2))
    raise InvalidArgs(f"abscissa must be one of {ABSCISSAE}")


@dataclass(frozen=True)
class ManyBodySpectrum:
    """A complete sorted many-body spectrum and how it was obtained."""

    energies: np.ndarray
    method: str
    params: IsingParams

    def __post_init__(self) -> None:
        energies = np.asarray(self.energies, dtype=float)
        if energies.ndim != 1:
            raise InvalidArgs("energies must be a one-dimensional array")
        if not np.all(np.isfinite(energies)):
            raise InvalidArgs("energies must be finite")
        object.__setattr__(self, "energies", energies)
        if self.method not in _METHODS:
            raise InvalidArgs(f"method must be one of {_METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class MomentSet:
    """Trace moments m_k = 2^{-N} Tr H^k up to fourth order."""

    m1: float | None = None
    m2: float | None = None
    m3: float | None = None
    m4: float | None = None
    max_order: int = field(default=4)


def build_hamiltonian(
    params: IsingParams, max_bytes: int = DEFAULT_MAX_BYTES
) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian matrix in the sigma^z product basis."""
    N = params.N
    dim = 1 << N
    needed = dim * dim * 8
    if needed > max_bytes:
        raise CapExceeded(
            f"dense Hamiltonian for N={N} needs {needed} bytes "
            f"(> cap of {max_bytes}); raise max_bytes to override"
        )
    b = np.arange(dim)
    popcount = np.zeros(dim, dtype=np.int64)
    for n in range(N):
        popcount += (b >> n) & 1
    H = np.zeros((dim, dim))
    # sigma^z_n = +1 for bit 0, so sum_n sigma^z_n = N - 2 popcount(b).
    H[b, b] = -params.lam * (N - 2 * popcount)
    for n in range(N):
        bond = (1 << n) | (1 << ((n + 1) % N))
        H[b ^ bond, b] += -1.0
        if params.alpha != 0.0:
            H[b ^ (1 << n), b] += -params.alpha
    return H


def exact_spectrum(
    params: IsingParams, max_bytes: int = DEFAULT_MAX_BYTES
) -> ManyBodySpectrum:
    """All 2^N eigenvalues by dense symmetric diagonalization, sorted."""
    H = build_hamiltonian(params, max_bytes=max_bytes)
    try:
        energies = np.linalg.eigvalsh(H)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
        raise EigensolverFailure(str(exc)) from exc
    return ManyBodySpectrum(energies=energies, method="dense", params=params)


def numeric_moments(spectrum: ManyBodySpectrum, max_order: int = 4) -> MomentSet:
    """Trace moments of a complete spectrum: m_k = mean of E^k."""
    if not 1 <= max_order <= 4:
        raise InvalidArgs(f"max_order must be in 1..4, got {max_order}")
    E = spectrum.energies
    if len(E) != 2**spectrum.params.N:
        raise InvalidArgs(
            f"spectrum incomplete: {len(E)} energies for N={spectrum.params.N}"
        )
    values = {f"m{k}": float(np.mean(E**k)) for k in range(1, max_order + 1)}
    return MomentSet(max_order=max_order, **values)


def analytic_moments(params: IsingParams) -> MomentSet:
    """Closed-form trace moments for the bulk ring (see module docstring).

    The formulas assume the ring is long enough that no closed loop of
    local terms contributes: m2 needs N >= 3, m3 needs N >= 4 and m4
    needs N >= 5.  They are returned regardless; callers on shorter rings
    should prefer numeric_moments.
    """
    N, lam, alpha = params.N, params.lam, params.alpha
    w = 1.0 + lam**2 + alpha**2
    m4 = 3 * N**2 * w**2 - N * (
        2
        + 8 * lam**2
        + 2 * lam**4
        + 4 * lam**2 * alpha**2
        + 2 * alpha**4
        - 24 * alpha**2
    )
    return MomentSet(m1=0.0, m2=N * w, m3=-6.0 * N * alpha**2, m4=m4, max_order=4)
