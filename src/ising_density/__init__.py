"""Exact spectra of the quantum Ising chain and analytic density approximations.

The package covers both the transverse-field ring and its two-field extension
(an added longitudinal field): exact dense and free-fermion spectra, trace
moments, saddle-point / Gaussian / cubic-corrected and tail densities,
block-structure combinatorics, multi-Gaussian peak mixtures with perturbative
corrections, and density-curve utilities behind the ``ising-density`` CLI.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Every public name by home module: the one list of them, which ``cli``
# also resolves its commands' names from.  Names resolve on first access, so
# importing the package (or the CLI through it) loads no compute module
# and no numpy until one is used.
_NAMES = {
    "errors": (
        "AlphaSingular",
        "AtOrBelowGroundState",
        "CapExceeded",
        "DisjointSupports",
        "EigensolverFailure",
        "EmptySpectrum",
        "InvalidArgs",
        "InvalidRegime",
        "IsingError",
        "NoConvergence",
        "OddN",
        "OutOfSupport",
        "UnknownClass",
    ),
    "model": (
        "IsingParams",
        "ManyBodySpectrum",
        "MomentSet",
        "abscissa_scale",
        "analytic_moments",
        "build_hamiltonian",
        "exact_spectrum",
        "numeric_moments",
    ),
    "fermion": ("enumerate_spectrum", "momentum_grid", "one_particle_energy"),
    "analytic": (
        "gaussian_density_tfim",
        "gaussian_density_two_fields",
        "ground_state_energy_per_spin",
        "saddle_density",
        "saddle_density_extensive",
        "tail_density_critical",
    ),
    "blocks": (
        "BlockCensus",
        "DegeneracyCensus",
        "block_census",
        "brute_force_census",
        "cells",
        "count_N1",
        "count_N2",
        "count_Na",
        "count_Nb",
        "count_Nc",
        "degeneracy_census",
    ),
    "curves": (
        "ComparisonReport",
        "DensityCurve",
        "compare",
        "curve_peaks",
        "histogram",
        "kernel_density",
        "read_curve_csv",
        "write_curve_csv",
    ),
    "peaks": (
        "GaussianMixture",
        "Visibility",
        "XXProjectionReport",
        "generic_alpha_components",
        "small_lambda_ER",
        "small_lambda_components",
        "small_lambda_deltaE",
        "small_lambda_deltaE_R",
        "small_lambda_sigmaR",
        "strong_field_components",
        "tfim_mixture_components",
        "visibility_Nmax",
        "xx_projection_check",
    ),
}
_HOMES = {name: home for home, names in _NAMES.items() for name in names}

__all__ = sorted(_HOMES)


def _resolver(module: str, namespace: dict):
    """The PEP 562 ``__getattr__`` of ``module``, whose globals are
    ``namespace``: it imports a public name's home module and binds the name
    in ``namespace``, so each name resolves once."""

    def __getattr__(name: str):
        home = _HOMES.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f".{home}", __name__), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _resolver(__name__, globals())


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
