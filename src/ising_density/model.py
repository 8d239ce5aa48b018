"""Model core: parameters, Hamiltonian, exact spectra and trace moments.

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

from .errors import CapExceeded, EigensolverFailure, InvalidArgs, beyond_float_range

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


def _check_cap(what: str, needed: int, max_bytes: int) -> None:
    if needed > max_bytes:
        raise CapExceeded(
            f"{what} needs {needed} bytes (> cap of {max_bytes}); "
            "raise max_bytes to override"
        )


def build_hamiltonian(
    params: IsingParams, max_bytes: int = DEFAULT_MAX_BYTES
) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian in the sigma^z basis (the small-N oracle)."""
    N = params.N
    dim = 1 << N
    _check_cap(f"dense Hamiltonian for N={N}", dim * dim * 8, max_bytes)
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


def _orbits(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every basis state b under the cyclic shift T (bit n -> bit n+1):
    its orbit representative a (the smallest state T^r b), the shift l with
    b = T^l a, and the orbit's period R."""
    dim = 1 << N
    b = np.arange(dim, dtype=np.int64)
    rep, shift, period = b.copy(), np.zeros(dim, np.int64), np.zeros(dim, np.int64)
    t = b
    for r in range(1, N + 1):
        t = ((t << 1) | (t >> (N - 1))) & (dim - 1)
        smaller = t < rep
        rep[smaller] = t[smaller]
        shift[smaller] = N - r
        period[(period == 0) & (t == b)] = r
    return rep, shift, period


def exact_spectrum(
    params: IsingParams, max_bytes: int = DEFAULT_MAX_BYTES
) -> ManyBodySpectrum:
    """All 2^N eigenvalues, sorted, by diagonalizing H in momentum blocks.

    H commutes with T, so the momentum states |a(k)> ~ sum_r e^{-ikr} T^r |a>,
    one per representative a with k R_a = 0 (mod 2 pi), block-diagonalize it.
    A term of amplitude h taking a to T^l c adds h e^{ikl} sqrt(R_a / R_c) to
    <c(k)|H|a(k)> (Sandvik, arXiv:1101.3281, sec. 4).  H is real, so momenta
    k and -k share their levels and only k = 0 .. N/2 are diagonalized.
    """
    N = params.N
    dim = 1 << N
    # Orbit tables and term arrays take about 160 bytes per state.  A complex
    # block is held twice during its solve (eigvalsh works on a copy), and the
    # k = 0 block holds every orbit, at least 2^N / N of them.
    needed = max(160 * dim, 32 * (dim // N) ** 2)
    _check_cap(f"diagonalizing N={N} in momentum blocks", needed, max_bytes)
    rep, shift, period = _orbits(N)
    reps = np.flatnonzero(rep == np.arange(dim))
    R = period[reps]
    masks = [(1 << n) | (1 << ((n + 1) % N)) for n in range(N)]
    amps = [-1.0] * N
    if params.alpha != 0.0:
        masks += [1 << n for n in range(N)]
        amps += [-params.alpha] * N
    flipped = (reps[:, None] ^ np.array(masks)).ravel()
    src = np.repeat(np.arange(len(reps)), len(masks))
    dst = np.searchsorted(reps, rep[flipped])
    weight = np.tile(amps, len(reps)) * np.sqrt(R[src] / R[dst])
    angle = 2.0 * np.pi * shift[flipped] / N
    popcount = sum((reps >> n) & 1 for n in range(N))
    diagonal = -params.lam * (N - 2 * popcount)
    momenta = [(k * R) % N == 0 for k in range(N // 2 + 1)]
    largest = max(int(keep.sum()) for keep in momenta)
    _check_cap(f"momentum block of dimension {largest}", 32 * largest**2, max_bytes)
    levels = []
    for k, keep in enumerate(momenta):
        real = 2 * k % N == 0
        pos = np.cumsum(keep) - 1
        on = keep[src] & keep[dst]
        values = weight[on] * np.exp(1j * k * angle[on])
        H = np.diag(diagonal[keep].astype(float if real else complex))
        np.add.at(H, (pos[dst[on]], pos[src[on]]), values.real if real else values)
        try:
            E = np.linalg.eigvalsh(H)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
            raise EigensolverFailure(str(exc)) from exc
        levels += [E] if real else [E, E]
    energies = np.sort(np.concatenate(levels))
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
    try:
        with np.errstate(over="raise", invalid="raise"):  # overflow is an error
            values = {f"m{k}": float(np.mean(E**k)) for k in range(1, max_order + 1)}
    except FloatingPointError:
        params = spectrum.params
        raise beyond_float_range("a spectral moment", params.lam, params.alpha) from None
    return MomentSet(max_order=max_order, **values)


def analytic_moments(params: IsingParams) -> MomentSet:
    """Closed-form trace moments for the bulk ring (see module docstring).

    The formulas assume the ring is long enough that no closed loop of
    local terms contributes: m2 needs N >= 3, m3 needs N >= 4 and m4
    needs N >= 5.  They are returned regardless; callers on shorter rings
    should prefer numeric_moments.
    """
    N, lam, alpha = params.N, params.lam, params.alpha
    try:  # a float ** raises OverflowError where * and + give inf
        w = 1.0 + lam**2 + alpha**2
        m4 = 3 * N**2 * w**2 - N * (
            2
            + 8 * lam**2
            + 2 * lam**4
            + 4 * lam**2 * alpha**2
            + 2 * alpha**4
            - 24 * alpha**2
        )
    except OverflowError:
        m4 = math.inf
    if not math.isfinite(m4):  # m2 and m3 are finite wherever m4 is
        raise beyond_float_range("the closed-form moment m4", lam, alpha)
    return MomentSet(m1=0.0, m2=N * w, m3=-6.0 * N * alpha**2, m4=m4, max_order=4)
