"""Exception hierarchy for the ising_density package, and the one home of
each rule that several modules check, with one message each: the memory cap
(check_cap, asked before work whose memory grows with its input builds), the
grid-point cap, the integer, ring-size and finite-coupling rules, and the
float-range rule of every coupling formula (float_range).
``--help`` loads this module, so it imports no numpy."""

from __future__ import annotations

import contextlib
import math
import operator
from typing import Callable, Iterator

DEFAULT_MAX_BYTES = 4 * 1024**3
# The most points of a grid (--grid or a mixture's default) or bins of a histogram.
MAX_GRID_POINTS = 200_001


class IsingError(Exception):
    """Base class for all package errors."""


class CapExceeded(IsingError):
    """A requested computation would exceed a configured size/memory cap."""


def check_cap(what: str, needed: int) -> None:
    """Refuse work that would hold more than DEFAULT_MAX_BYTES (read per call)."""
    if needed > DEFAULT_MAX_BYTES:
        raise CapExceeded(f"{what} needs {needed} bytes (> cap of {DEFAULT_MAX_BYTES})")


class EigensolverFailure(IsingError):
    """The dense symmetric eigensolver failed to converge."""


class OddN(IsingError):
    """Free-fermion operations require an even spin count."""


class InvalidArgs(IsingError):
    """Arguments violate an operation's preconditions."""


def require_integer(what: str, name: str, value: object) -> int:
    """``value`` as a Python int, so exact formulas never run in int64; refuse
    a value that is not an int or numpy integer (bool is not)."""
    from numbers import Integral  # numpy loads it; ``--help`` loads neither

    if not isinstance(value, Integral) or isinstance(value, bool):
        raise InvalidArgs(f"{what} must be an integer, got {name}={value!r}")
    return operator.index(value)


def require_ring(N: object) -> int:
    """``N`` as a Python int, refused unless it is an integer >= 2."""
    N = require_integer("ring size", "N", N)
    if N < 2:
        raise InvalidArgs(f"ring size must be >= 2, got N={N}")
    return N


def require_finite_couplings(lam: float, alpha: float) -> None:
    """Refuse a non-finite lambda or alpha."""
    if not (math.isfinite(lam) and math.isfinite(alpha)):
        raise InvalidArgs(f"lambda and alpha must be finite, got {lam!r} and {alpha!r}")


@contextlib.contextmanager
def float_range(what: str, lam: float, alpha: float) -> Iterator[Callable]:
    """Refuse a coupling formula that leaves float range, with one message: an
    OverflowError or ZeroDivisionError raised in the block (a float ** raises
    where * and + give inf), or a non-finite value passed to the yielded
    ``finite``, which returns a finite one as is.  numpy is silent inside."""
    import numpy as np

    def finite(value):
        if not np.isfinite(value).all():
            raise OverflowError
        return value

    try:
        with np.errstate(all="ignore"):
            yield finite
    except (OverflowError, ZeroDivisionError):
        raise InvalidArgs(
            f"{what} at lambda = {lam!r}, alpha = {alpha!r} is beyond float range"
        ) from None


class OutOfSupport(IsingError):
    """Energy per spin lies at or outside the spectral support |e_gs|."""


class NoConvergence(IsingError):
    """Root bracketing or iteration failed to converge."""


class AtOrBelowGroundState(IsingError):
    """Tail formula evaluated at E <= E_gs."""


class InvalidRegime(IsingError):
    """Unknown visibility regime tag."""


class UnknownClass(IsingError):
    """Degeneracy class label R is not realized for the given parameters."""


class AlphaSingular(IsingError):
    """Second-order shift formula is singular at |alpha| = 2."""


class EmptySpectrum(IsingError):
    """Density estimation requires at least one eigenvalue."""


class DisjointSupports(IsingError):
    """Two curves share no abscissa overlap to compare on."""
