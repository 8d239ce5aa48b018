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

# Every public name by home module.  Names resolve on first access, so
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
        "NegativeDensityWarning",
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
        "SaddleSolution",
        "gaussian_density_tfim",
        "gaussian_density_two_fields",
        "ground_state_energy_per_spin",
        "saddle_density",
        "saddle_density_extensive",
        "solve_saddle",
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
        "f_count",
        "k_bar",
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
        "MixtureComponent",
        "Visibility",
        "XXProjectionReport",
        "generic_alpha_components",
        "mean_one_particle_energy",
        "small_lambda_ER",
        "small_lambda_components",
        "small_lambda_deltaE",
        "small_lambda_deltaE_R",
        "small_lambda_sigmaR",
        "strong_field_components",
        "strong_field_moments",
        "tfim_fixed_n_moments",
        "tfim_mixture_components",
        "visibility_Nmax",
        "xx_projection_check",
    ),
}
_HOMES = {name: home for home, names in _NAMES.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
