"""Exception hierarchy for the ising_density package, and its one memory cap:
work whose memory grows with its input (a dense or block solve, a walk over
the cells of a ring, a binomial mixture) asks check_cap before it builds."""

from __future__ import annotations

DEFAULT_MAX_BYTES = 4 * 1024**3


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


def beyond_float_range(what: str, lam: float, alpha: float) -> InvalidArgs:
    """The error for couplings at which a formula leaves float range."""
    return InvalidArgs(
        f"{what} at lambda = {lam!r}, alpha = {alpha!r} is beyond float range"
    )


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
