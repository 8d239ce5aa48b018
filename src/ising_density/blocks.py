"""Exact combinatorics of cyclic spin-block configurations.

A length-N cyclic binary string with n up-spins arranged in k maximal
up-blocks (equivalently k down-blocks) exists for 1 <= k <= min(n, N-n),
plus the two polarized strings labeled (n, k) = (0, 0) and (N, 0).  The
number of such strings is

    f(n, k) = (N / k) C(n-1, k-1) C(N-n-1, k-1),

which is always an integer.  With a longitudinal field alpha the diagonal
energies E0 = alpha (N - 2n) + 4k - N group the cells into degeneracy
classes; for rational alpha = p/q in lowest terms the class label

    R = 2 q k - p n

is an integer with E0 = N (alpha - 1) + 2R/q exactly (R = 2k - n and
E0 = 2R at alpha = 1).

Adjacent-pair spin flips that conserve E0 at alpha = 1 fall into three
classes, counted per (n, k) cell over all its configurations:

    a: (n, k) -> (n-2, k-1)   N_a = N comp(n-2, k-1) comp(m, k)
    b: (n, k) -> (n+2, k+1)   N_b = N comp(n, k) comp(m-2, k+1)
    c: (n, k) -> (n, k)       N_c = 2N [A(n,k) B(m,k) + B(n,k) A(m,k)]

with m = N - n, comp(j, r) the number of compositions of j into r positive
parts, A(x, k) = comp(x-1, k) and B(x, k) = comp(x-1, k-1).  N1 and N2
count length-1 and length-2 up-blocks over all compositions of n into k
parts: fixing one of the k parts at length 1 (or 2) leaves a composition of
n-1 (or n-2) into k-1 parts, so N1 = k comp(n-1, k-1) and
N2 = k comp(n-2, k-1), with comp(0, 0) = 1 covering k = 1.

Every walk over the cells of a ring (both censuses and the two small-lambda
mixtures) reads the (n, k, f(n, k)) triples of :func:`cells`, which computes
each count once as an exact Python int.  It refuses a ring whose
2 + floor(N^2/4) cells and their counts would pass the package's one memory
cap (``errors.DEFAULT_MAX_BYTES``) before it builds any.  Ring sizes and
cell labels given as numpy integers are taken as Python ints first, so no
count wraps in int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from .errors import CapExceeded, InvalidArgs, check_cap, require_integer, require_ring

BRUTE_FORCE_MAX_SITES = 16


def _comp(j: int, r: int) -> int:
    """Compositions of j into r positive parts; comp(0, 0) = 1."""
    if j == 0 and r == 0:
        return 1
    if j < 1 or r < 1:
        return 0
    return comb(j - 1, r - 1)


def _require_transition_ring(N: int) -> None:
    # On the two-site ring both bonds join the same pair of spins, and the
    # transition counts N_a, N_b and N_c, which treat bonds as distinct,
    # miss flips that a scan of all strings finds.
    if N < 3:
        raise InvalidArgs(f"transition counts need a ring of N >= 3, got N={N}")


def cells(N: int) -> list[tuple[int, int, int]]:
    """All valid cells of a length-N ring as (n, k, f(n, k)) triples, the two
    polarized ones first."""
    N = require_ring(N)
    count, each = _cell_cost(N)
    check_cap(f"walking the {count} cells at N = {N}", count * each)
    out = [(0, 0, 1), (N, 0, 1)]
    for n in range(1, N):
        out.extend((n, k, _f_count(N, n, k)) for k in range(1, min(n, N - n) + 1))
    return out


def _cell_cost(N: int) -> tuple[int, int]:
    """The number of cells of the ring N and the bytes a cell and its count
    f(n, k) take: 96 + N // 10 (tracemalloc: 197 per cell at N = 1024, 298
    at N = 2048)."""
    return 2 + N * N // 4, 96 + N // 10


def _f_count(N: int, n: int, k: int) -> int:
    """Number f(n, k) of cyclic strings in an interior cell (n, k), k >= 1."""
    numerator = N * _comp(n, k) * _comp(N - n, k)
    assert numerator % k == 0
    return numerator // k


def _require_composition(n: int, k: int) -> tuple[int, int]:
    """(n, k) as Python ints, refused unless 1 <= k <= n."""
    n = require_integer("up-spin count", "n", n)
    k = require_integer("block count", "k", k)
    if k < 1 or n < k:
        raise InvalidArgs(f"compositions need 1 <= k <= n, got n={n}, k={k}")
    return n, k


def count_N1(n: int, k: int) -> int:
    """Total number of length-1 parts over all compositions of n into k parts."""
    n, k = _require_composition(n, k)
    return k * _comp(n - 1, k - 1)


def count_N2(n: int, k: int) -> int:
    """Total number of length-2 parts over all compositions of n into k parts."""
    n, k = _require_composition(n, k)
    return k * _comp(n - 2, k - 1)


def _require_partition(N: int, n: int, m: int, k: int) -> tuple[int, int, int, int]:
    """(N, n, m, k) as Python ints, refused unless m = N - n and (n, k) is a
    cell of the ring N."""
    n = require_integer("up-spin count", "n", n)
    m = require_integer("down-spin count", "m", m)
    k = require_integer("block count", "k", k)
    if m != N - n:
        raise InvalidArgs(f"m must equal N - n, got N={N}, n={n}, m={m}")
    N = require_ring(N)
    if not 0 <= n <= N:
        raise InvalidArgs(f"up-spin count must satisfy 0 <= n <= N, got n={n}")
    if k == 0:
        if n not in (0, N):
            raise InvalidArgs(f"k=0 is reserved for the polarized strings, got n={n}")
    elif not 1 <= k <= min(n, N - n):
        raise InvalidArgs(
            f"block count must satisfy 1 <= k <= min(n, N-n) = "
            f"{min(n, N - n)}, got k={k}"
        )
    return N, n, m, k


def _checked_transitions(N: int, n: int, m: int, k: int) -> tuple[int, int, int]:
    N, n, m, k = _require_partition(N, n, m, k)
    _require_transition_ring(N)
    return _transitions(N, n, m, k)


def count_Na(N: int, n: int, m: int, k: int) -> int:
    """E0-conserving flips of a whole 2-up-block: (n, k) -> (n-2, k-1)."""
    return _checked_transitions(N, n, m, k)[0]


def count_Nb(N: int, n: int, m: int, k: int) -> int:
    """E0-conserving flips of an interior down-pair: (n, k) -> (n+2, k+1)."""
    return _checked_transitions(N, n, m, k)[1]


def count_Nc(N: int, n: int, m: int, k: int) -> int:
    """E0-conserving flips of an up-down boundary pair: (n, k) -> (n, k)."""
    return _checked_transitions(N, n, m, k)[2]


def _transitions(N: int, n: int, m: int, k: int) -> tuple[int, int, int]:
    """(N_a, N_b, N_c) of a cell, unvalidated, for callers that walk cells(N)."""
    # A(x) = comp(x - 1, k), B(x) = comp(x - 1, k - 1)
    return (
        N * _comp(n - 2, k - 1) * _comp(m, k),
        N * _comp(n, k) * _comp(m - 2, k + 1),
        2 * N * (_comp(n - 1, k) * _comp(m - 1, k - 1)
                 + _comp(n - 1, k - 1) * _comp(m - 1, k)),
    )


@dataclass(frozen=True)
class BlockCensus:
    """Formula-built f(n, k) table for one ring size."""

    N: int
    table: dict[tuple[int, int], int]
    polarized: dict[tuple[int, int], int]


def block_census(N: int) -> BlockCensus:
    N = require_ring(N)
    table = {(n, k): f for n, k, f in cells(N)[2:]}
    return BlockCensus(N=N, table=table, polarized={(0, 0): 1, (N, 0): 1})


@dataclass(frozen=True)
class DegeneracyCensus:
    """Degeneracy classes of the diagonal energies at exact rational alpha."""

    N: int
    alpha: Fraction
    classes: dict[int, int]
    energy_of: dict[int, Fraction]


def _as_fraction(alpha: object) -> Fraction:
    if isinstance(alpha, bool) or isinstance(alpha, float):
        raise InvalidArgs(
            "degeneracy grouping needs an exact rational alpha; pass an int, "
            "a Fraction, or a 'p/q' string"
        )
    if isinstance(alpha, (int, Fraction)):
        return Fraction(alpha)
    if isinstance(alpha, str):
        try:
            return Fraction(alpha)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidArgs(f"cannot parse alpha {alpha!r} as a rational") from exc
    raise InvalidArgs(f"unsupported alpha type {type(alpha).__name__}")


def degeneracy_census(N: int, alpha: object) -> DegeneracyCensus:
    """Group all 2^N basis states by exact diagonal energy E0.

    Classes are labeled by the integer R = 2qk - pn (alpha = p/q in lowest
    terms), with E0(R) = N (alpha - 1) + 2R/q.
    """
    N = require_ring(N)
    frac = _as_fraction(alpha)
    p, q = frac.numerator, frac.denominator
    classes: dict[int, int] = {}
    for n, k, f in cells(N):
        R = 2 * q * k - p * n
        classes[R] = classes.get(R, 0) + f
    assert sum(classes.values()) == 2**N
    ordered = dict(sorted(classes.items()))
    energy_of = {R: N * (frac - 1) + Fraction(2 * R, q) for R in ordered}
    return DegeneracyCensus(N=N, alpha=frac, classes=ordered, energy_of=energy_of)


@dataclass(frozen=True)
class BruteForceCensus:
    """Tables from an exhaustive scan over all 2^N strings (test oracle)."""

    N: int
    f_table: dict[tuple[int, int], int]
    transitions: dict[tuple[int, int], dict[str, int]] = field(repr=False)
    unit_blocks: dict[tuple[int, int], int] = field(repr=False)
    double_blocks: dict[tuple[int, int], int] = field(repr=False)
    classes_alpha1: dict[int, int] = field(repr=False)


def brute_force_census(N: int) -> BruteForceCensus:
    """Scan every length-N binary string and tabulate everything exactly.

    Independent of the closed-form counts: block structure is read off each
    string via bit operations, transitions by flipping each adjacent pair.
    """
    N = require_ring(N)
    if N > BRUTE_FORCE_MAX_SITES:
        raise CapExceeded(
            f"brute-force census scans 2^N strings; N={N} > {BRUTE_FORCE_MAX_SITES}"
        )
    size = 1 << N
    mask = size - 1
    b = np.arange(size, dtype=np.int64)
    left = ((b << 1) | (b >> (N - 1))) & mask  # bit i = original bit i-1
    right = ((b >> 1) | ((b & 1) << (N - 1))) & mask  # bit i = original bit i+1
    right2 = ((b >> 2) | ((b & 3) << (N - 2))) & mask  # bit i = original bit i+2
    # Up-spins, block starts, length-1 and length-2 blocks of each string;
    # bitwise_count gives uint8, which wraps in arithmetic with Python ints.
    starts = b & ~left & mask
    n_of, k_of, unit_of, double_of = np.bitwise_count(
        np.stack((b, starts, starts & ~right, starts & right & ~right2))
    ).astype(np.int64)

    n_cells = (N + 1) * (N + 2)
    cell_id = n_of * (N + 2) + k_of
    f_counts = np.bincount(cell_id, minlength=n_cells)
    unit_totals = np.bincount(cell_id, weights=unit_of, minlength=n_cells)
    double_totals = np.bincount(cell_id, weights=double_of, minlength=n_cells)

    class_totals = {name: np.zeros(n_cells, dtype=np.int64) for name in "abc"}
    for p in range(N):
        pair = (1 << p) | (1 << ((p + 1) % N))
        flipped = b ^ pair
        dn = n_of[flipped] - n_of
        dk = k_of[flipped] - k_of
        for name, want in (("a", (-2, -1)), ("b", (2, 1)), ("c", (0, 0))):
            sel = (dn == want[0]) & (dk == want[1])
            class_totals[name] += np.bincount(cell_id[sel], minlength=n_cells)

    def cell_of(idx: int) -> tuple[int, int]:
        return idx // (N + 2), idx % (N + 2)

    f_table = {cell_of(i): int(c) for i, c in enumerate(f_counts) if c}
    transitions: dict[tuple[int, int], dict[str, int]] = {}
    for i in range(n_cells):
        entry = {name: int(class_totals[name][i]) for name in ("a", "b", "c")}
        if any(entry.values()):
            transitions[cell_of(i)] = entry
    unit_blocks = {cell_of(i): int(round(t)) for i, t in enumerate(unit_totals) if t}
    double_blocks = {cell_of(i): int(round(t)) for i, t in enumerate(double_totals) if t}
    R_values = 2 * k_of - n_of
    offsets = np.bincount(R_values + N, minlength=2 * N + 1)
    classes_alpha1 = {int(R) - N: int(c) for R, c in enumerate(offsets) if c}
    return BruteForceCensus(
        N, f_table, transitions, unit_blocks, double_blocks, classes_alpha1
    )
