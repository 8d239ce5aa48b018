"""The benchmark's workloads: CLI invocations and the checks on their outputs.

Each workload is a fixed sequence of ``ising-density`` invocations.  The seed
picks the couplings from the stated ranges; ring sizes, grid point counts,
bin counts and the KDE bandwidth are fixed, so the amount of work does not
depend on the seed.  Every output is checked against what its command
promises (``checks.py``).

Why these three:

* ``exact-spectra`` -- dense diagonalisation (``model``) dominates; it is the
  workload for any change to how exact spectra are computed.  ``peaks``,
  ``analytic`` and the curve estimators are not called.
* ``fermion-density`` -- free-fermion enumeration, the CLI's spectrum CSV
  write/read path and the ``curves`` estimators (KDE sums many centres over
  few grid points); no dense matrix and no mixture.
* ``approx-suite`` -- mixtures (``peaks``, ``blocks``), the saddle solve and
  other closed forms (``analytic``) and the curve write path; no eigensolve
  and no CSV reads.  Mixtures sum few Gaussians over many grid points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI invocation; file names are relative to the working directory.

    ``check`` names a function in ``checks.py`` and the arguments it takes
    after the working directory.
    """

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    inputs: tuple[str, ...]
    check: tuple[str, tuple]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _fmt(x: float) -> str:
    return repr(float(x))


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    """A coupling in [lo, hi], rounded so command lines stay readable."""
    return round(rng.uniform(lo, hi), 4)


def _grid(spec: tuple[float, float, int]) -> str:
    lo, hi, points = spec
    return f"--grid={lo}:{hi}:{points}"


def exact_spectra(rng: random.Random) -> list[Op]:
    """Dense spectra at N=12 (both models), the fermion cross-check, moments at N=11."""
    lam_2f, alpha_2f = _draw(rng, 0.3, 1.5), _draw(rng, 0.2, 1.2)
    lam_tf = _draw(rng, 0.3, 1.5)
    lam_m, alpha_m = _draw(rng, 0.3, 1.5), _draw(rng, 0.2, 1.2)
    two_field = ("--model", "two-field", "--n", "12", "--lambda", _fmt(lam_2f),
                 "--alpha", _fmt(alpha_2f))
    tfim = ("--model", "tfim", "--n", "12", "--lambda", _fmt(lam_tf))
    return [
        Op("spectrum-two-field-dense",
           ("spectrum", *two_field, "--out", "two_field_12.csv"),
           ("two_field_12.csv",), (),
           ("check_spectrum", ("two_field_12.csv", 12, lam_2f, alpha_2f))),
        Op("spectrum-tfim-dense",
           ("spectrum", *tfim, "--out", "tfim_12_dense.csv"),
           ("tfim_12_dense.csv",), (),
           ("check_spectrum", ("tfim_12_dense.csv", 12, lam_tf, 0.0))),
        Op("spectrum-tfim-fermion",
           ("spectrum", *tfim, "--method", "fermion", "--out", "tfim_12_fermion.csv"),
           ("tfim_12_fermion.csv",), (),
           ("check_spectrum", ("tfim_12_fermion.csv", 12, lam_tf, 0.0))),
        Op("compare-spectra",
           ("compare", "--a", "tfim_12_dense.csv", "--b", "tfim_12_fermion.csv",
            "--out", "spectra_compare.json"),
           ("spectra_compare.json",), ("tfim_12_dense.csv", "tfim_12_fermion.csv"),
           ("check_spectrum_compare", ("spectra_compare.json",))),
        Op("moments-two-field",
           ("moments", "--model", "two-field", "--n", "11", "--lambda", _fmt(lam_m),
            "--alpha", _fmt(alpha_m), "--out", "moments_11.csv"),
           ("moments_11.csv",), (),
           ("check_moments_table", ("moments_11.csv", 11, lam_m, alpha_m))),
    ]


def fermion_density(rng: random.Random) -> list[Op]:
    """Fermion spectrum at N=18, its histogram and KDE, and their comparison."""
    lam = _draw(rng, 0.4, 1.6)
    return [
        Op("spectrum-tfim-fermion",
           ("spectrum", "--model", "tfim", "--n", "18", "--lambda", _fmt(lam),
            "--method", "fermion", "--out", "tfim_18.csv"),
           ("tfim_18.csv",), (),
           ("check_spectrum", ("tfim_18.csv", 18, lam, 0.0))),
        Op("density-histogram",
           ("density", "--in", "tfim_18.csv", "--bins", "200", "--out", "hist.csv"),
           ("hist.csv",), ("tfim_18.csv",),
           ("check_histogram", ("hist.csv", 200))),
        Op("density-kde",
           ("density", "--in", "tfim_18.csv", "--kde", "0.4", "--out", "kde.csv"),
           ("kde.csv",), ("tfim_18.csv",),
           ("check_kde", ("kde.csv", "tfim_18.csv", 0.4))),
        # Histogram and KDE of one spectrum: their L1 distance stays small.
        Op("compare-curves",
           ("compare", "--a", "hist.csv", "--b", "kde.csv", "--out", "curve_compare.json"),
           ("curve_compare.json",), ("hist.csv", "kde.csv"),
           ("check_curve_compare", ("curve_compare.json", 0.25))),
    ]


# Fixed grids (absolute energy) for the mixtures.  Each spans every component
# centre with at least 8 widths of margin over the coupling range drawn below,
# and its spacing is below the narrowest width, so the curves integrate to 1.
GENERIC_GRID = (-112.0, 74.0, 40001)
INT_ALPHA_GRID = (-412.0, 216.0, 40001)
TFIM_GRID = (-1200.0, 1200.0, 9601)
STRONG_GRID = (-440.0, 420.0, 8601)
SADDLE_POINTS = 701


def approx_suite(rng: random.Random) -> list[Op]:
    """The four mixture regimes, saddle, Gaussian and tail curves, a census."""
    lam_g, alpha_g = _draw(rng, 0.14, 0.2), _draw(rng, 0.4, 0.55)
    lam_i = _draw(rng, 0.15, 0.25)
    lam_t = _draw(rng, 1.5, 2.5)
    lam_s, alpha_s = _draw(rng, 3.0, 5.0), _draw(rng, 1.0, 3.0)
    lam_a = _draw(rng, 0.5, 1.5)
    tail_hi = _draw(rng, -19.5, -18.5)

    def mixture(kind, n, lam, alpha, grid, out, components):
        coupling = ("--lambda", _fmt(lam)) + (() if alpha is None else ("--alpha", _fmt(alpha)))
        sidecar = out[: -len(".csv")] + ".mixture.json"
        return Op(f"approx-{kind}",
                  ("approx", "--kind", kind, "--n", str(n), *coupling, _grid(grid), "--out", out),
                  (out, sidecar), (),
                  ("check_mixture", (out, grid, components)))

    return [
        mixture("multi-generic", 64, lam_g, alpha_g, GENERIC_GRID, "generic.csv",
                2 + sum(min(n, 64 - n) for n in range(1, 64))),
        mixture("multi-int-alpha", 200, lam_i, 1.0, INT_ALPHA_GRID, "int_alpha.csv", None),
        mixture("multi-tfim", 400, lam_t, None, TFIM_GRID, "tfim.csv", 401),
        mixture("multi-strong", 64, lam_s, alpha_s, STRONG_GRID, "strong.csv", 65),
        Op("approx-saddle",
           ("approx", "--kind", "saddle", "--n", "16", "--lambda", _fmt(lam_a),
            _grid((-0.7, 0.7, SADDLE_POINTS)), "--per-spin", "--out", "saddle.csv"),
           ("saddle.csv",), (),
           ("check_saddle", ("saddle.csv", 16, lam_a, SADDLE_POINTS))),
        Op("approx-gaussian",
           ("approx", "--kind", "gaussian", "--n", "16", "--lambda", _fmt(lam_a),
            _grid((-1.2, 1.2, 2401)), "--per-spin", "--out", "gaussian.csv"),
           ("gaussian.csv",), (),
           ("check_gaussian", ("gaussian.csv", 16, lam_a))),
        Op("approx-tail",
           ("approx", "--kind", "tail", "--n", "16", "--lambda", "1",
            _grid((-20.3, tail_hi, 300)), "--out", "tail.csv"),
           ("tail.csv",), (),
           ("check_tail", ("tail.csv", 16))),
        Op("census-classes",
           ("census", "--n", "200", "--alpha", "9/10", "--out", "census.csv"),
           ("census.csv",), (),
           ("check_census", ("census.csv", 200, "9/10"))),
    ]


WORKLOADS = {
    "exact-spectra": exact_spectra,
    "fermion-density": fermion_density,
    "approx-suite": approx_suite,
}


def build(name: str, seed: int) -> list[Op]:
    """The ops of workload ``name`` with couplings drawn from ``seed``."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng)
