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
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_MAX_BYTES  # noqa: F401  (bench/checks.py reads it here)
from .errors import EigensolverFailure, InvalidArgs, check_cap, float_range
from .errors import require_finite_couplings, require_ring

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
        object.__setattr__(self, "N", require_ring(self.N))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "alpha", float(self.alpha))
        require_finite_couplings(self.lam, self.alpha)
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
    and sqrt(N (1 + lambda^2 + alpha^2)) for the rescaled ``eps``, which is
    refused where it leaves float range."""
    if abscissa == "E":
        return 1.0
    if abscissa == "e":
        return float(params.N)
    if abscissa == "eps":
        lam, alpha = params.lam, params.alpha
        with float_range("the rescaled abscissa eps", lam, alpha) as finite:
            return finite(math.sqrt(params.N * (1.0 + lam**2 + alpha**2)))
    raise InvalidArgs(f"abscissa must be one of {ABSCISSAE}")


@dataclass(frozen=True)
class ManyBodySpectrum:
    """Many-body energies, in the order given, and how they were obtained."""

    energies: np.ndarray
    method: str
    params: IsingParams

    def __post_init__(self) -> None:
        # C order: a strided column, such as a table's, is copied once, so
        # reductions group their sums as on any contiguous array and the
        # spectrum does not keep the table's buffer alive.
        energies = np.asarray(self.energies, dtype=float, order="C")
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


def build_hamiltonian(params: IsingParams) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian in the sigma^z basis (the small-N oracle)."""
    N = params.N
    dim = 1 << N
    check_cap(f"dense Hamiltonian for N={N}", dim * dim * 8)
    b = np.arange(dim)
    popcount = np.bitwise_count(b).astype(np.int64)  # uint8 wraps in N - 2 popcount
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


def exact_spectrum(params: IsingParams) -> ManyBodySpectrum:
    """All 2^N eigenvalues, sorted, by diagonalizing H in real momentum blocks.

    H commutes with T, so the momentum states |a(k)> ~ sum_r e^{-ikr} T^r |a>,
    one per representative a with k R_a = 0 (mod 2 pi), block-diagonalize it.
    A term of amplitude h taking a to T^l c adds h e^{ikl} sqrt(R_a / R_c) to
    <c(k)|H|a(k)> (Sandvik, arXiv:1101.3281, sec. 4).  H is real, so momenta
    k and -k share their levels and only k = 0 .. N/2 are diagonalized.

    Each block is solved as a real symmetric matrix.  The reflection P (bit
    reversal) obeys P T P = T^-1, so P times complex conjugation K is an
    antiunitary symmetry of H that maps each k block to itself:
    PK |a(k)> = e^{ikl} |a'(k)> where P a = T^l a'.  With the phased states
    |~a> = e^{ikl/2} |a(k)>, taking l from the smaller of a and a' for both,
    PK swaps |~a> and |~a'>.  So |~a> for a = a' and, for a pair,
    (|~a> + |~a'>) / sqrt(2) and i (|~a> - |~a'>) / sqrt(2) form a PK-invariant
    basis of the same size, in which H is real.  Each term scatters into at
    most four real entries of that basis.

    Each block splits further into sectors of two Z2 symmetries, and each
    sector is solved on its own.  With alpha = 0 (the tfim model) every term
    flips an even number of spins, so the parity of popcount(a) is conserved.
    At k = 0 and k = N/2, where k = -k, P itself maps the block to itself,
    and P |~a> = e^{ikl} |~a'>: the even combination has P sign e^{ikl} and
    the odd one the opposite sign, with e^{ikl} = 1 at k = 0 and (-1)^l at
    k = N/2.  A block of d rows becomes up to four sectors of about d/4.
    """
    N, lam, alpha = params.N, params.lam, params.alpha
    # Gershgorin: every level lies within N (1 + |lambda| + |alpha|) of 0.
    with float_range("the Hamiltonian", lam, alpha) as finite:
        finite(N * (1.0 + abs(lam) + abs(alpha)))
    dim = 1 << N
    # Orbit tables and term arrays take about 160 bytes per state.  A block is
    # held twice during its solve (eigvalsh works on a copy), and the k = 0
    # block holds every orbit, at least 2^N / N of them.
    needed = max(160 * dim, 16 * (dim // N) ** 2)
    check_cap(f"diagonalizing N={N} in momentum blocks", needed)
    rep, shift, period = _orbits(N)
    reps = np.flatnonzero(rep == np.arange(dim))
    R = period[reps]
    index = np.arange(len(reps))
    mirrored = sum(((reps >> n) & 1) << (N - 1 - n) for n in range(N))
    mate = np.searchsorted(reps, rep[mirrored])
    lead, follow = np.minimum(index, mate), np.maximum(index, mate)
    turn = shift[mirrored][lead]
    # Coefficients of |~a> on its PK-even (slot 0) and PK-odd (slot 1) states.
    even = np.where(mate == index, 1.0, math.sqrt(0.5))
    odd = np.sign(mate - index) * math.sqrt(0.5)
    masks = [(1 << n) | (1 << ((n + 1) % N)) for n in range(N)]
    amps = [-1.0] * N
    if alpha != 0.0:
        masks += [1 << n for n in range(N)]
        amps += [-alpha] * N
    flipped = (reps[:, None] ^ np.array(masks)).ravel()
    src = np.repeat(index, len(masks))
    dst = np.searchsorted(reps, rep[flipped])
    weight = np.tile(amps, len(reps)) * np.sqrt(R[src] / R[dst])
    angle = 2.0 * np.pi / N * (shift[flipped] + 0.5 * (turn[src] - turn[dst]))
    popcount = np.bitwise_count(reps).astype(np.int64)
    diagonal = -lam * (N - 2 * popcount)
    # Sector bits of the state numbered by each orbit: 2 for an odd spin flip
    # parity (conserved when alpha = 0), 1 for a P-odd state at k = 0, N/2.
    parity = 2 * (popcount & 1) if alpha == 0.0 else np.zeros_like(popcount)
    slot = (index != lead).astype(np.int64)
    momenta = [(k * R) % N == 0 for k in range(N // 2 + 1)]
    # No sector has more rows than the k = 0 block, which keeps every orbit.
    largest = len(reps)
    check_cap(f"momentum block of dimension {largest}", 16 * largest**2)
    # Largest blocks first: the buffers of the smaller blocks that follow then
    # fit in memory the first ones freed, which keeps the resident peak down.
    order = sorted(range(N // 2 + 1), key=lambda k: -np.count_nonzero(momenta[k]))
    levels = []
    for k in order:
        keep = momenta[k]
        sector = parity
        if 2 * k == N:
            sector = parity | (slot ^ (turn & 1))
        elif k == 0:
            sector = parity | slot
        # Sector matrices are packed one after another into one array; pos
        # numbers the states of each sector and row is where each one's row
        # starts.  The last slot collects the entries between sectors, which
        # are zero up to rounding (sin(pi m) at k = N/2), and is dropped.
        sizes = np.bincount(sector[keep], minlength=4)
        start = np.concatenate(([0], np.cumsum(sizes**2)))
        pos = np.zeros(len(reps), np.int64)
        for label in range(4):
            inside = keep & (sector == label)
            pos[inside] = np.arange(sizes[label])
        row = start[sector] + pos * sizes[sector]
        on = keep[src] & keep[dst]
        s, d, w = src[on], dst[on], weight[on]
        x, y = w * np.cos(k * angle[on]), w * np.sin(k * angle[on])
        # <row|H|col> = Re(conj(u_row) (x + iy) u_col) for u = even, i odd.
        rows = (lead[d], lead[d], follow[d], follow[d])
        cols = (lead[s], follow[s], lead[s], follow[s])
        values = (
            even[d] * even[s] * x,
            -even[d] * odd[s] * y,
            odd[d] * even[s] * y,
            odd[d] * odd[s] * x,
        )
        flat = np.concatenate([
            np.where(sector[r] == sector[c], row[r] + pos[c], start[-1])
            for r, c in zip(rows, cols)
        ])
        packed = np.bincount(flat, np.concatenate(values), start[-1] + 1)
        for label in np.flatnonzero(sizes):
            n = sizes[label]
            H = packed[start[label] : start[label + 1]].reshape(n, n)
            H.flat[:: n + 1] += diagonal[keep & (sector == label)]
            try:
                E = np.linalg.eigvalsh(H)
            except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy internal
                raise EigensolverFailure(str(exc)) from exc
            levels += [E] if 2 * k % N == 0 else [E, E]
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
    params = spectrum.params
    with float_range("a spectral moment", params.lam, params.alpha) as finite:
        orders = range(1, max_order + 1)
        return MomentSet(**{f"m{k}": finite(float(np.mean(E**k))) for k in orders})


def analytic_moments(params: IsingParams) -> MomentSet:
    """Closed-form trace moments for the bulk ring (see module docstring).

    The formulas assume the ring is long enough that no closed loop of
    local terms contributes: m2 needs N >= 3, m3 needs N >= 4 and m4
    needs N >= 5.  They are returned regardless; callers on shorter rings
    should prefer numeric_moments.
    """
    N, lam, alpha = params.N, params.lam, params.alpha
    with float_range("the closed-form moment m4", lam, alpha) as finite:
        w = 1.0 + lam**2 + alpha**2
        m4 = 3 * N**2 * w**2 - N * (
            2
            + 8 * lam**2
            + 2 * lam**4
            + 4 * lam**2 * alpha**2
            + 2 * alpha**4
            - 24 * alpha**2
        )
        finite(m4)  # m2 and m3 are finite wherever m4 is
    return MomentSet(m1=0.0, m2=N * w, m3=-6.0 * N * alpha**2, m4=m4)
