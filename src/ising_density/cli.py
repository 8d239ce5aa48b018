"""Command-line front end emitting reproducible CSV/JSON artifacts.

Subcommands mirror the figure-class computations: exact spectra, empirical
densities, analytic and multi-Gaussian approximations, curve comparison,
block/degeneracy censuses, trace moments, and peak-visibility estimates.

Conventions shared by all subcommands:

* every output file carries `# key = value` metadata lines with the full
  physical parameters, and reruns with identical inputs are byte-identical
  (numbers are written in shortest round-trip form, no timestamps);
* usage errors exit with code 2; compute errors exit with code 1 and a
  single JSON object ``{"code": ..., "message": ...}`` on stderr;
* grids are given as ``LO:HI:POINTS`` with inclusive endpoints, interpreted
  in the output abscissa: absolute energy ``E`` by default, per-spin ``e``
  with ``--per-spin``, rescaled ``eps`` with ``--rescaled``.

The CLI bounds how long an idle OpenBLAS worker spins before it sleeps; a
value the caller set for ``OPENBLAS_THREAD_TIMEOUT`` wins.
"""

from __future__ import annotations

import os

# OpenBLAS reads this once, when numpy loads, so it is set before anything
# here can import numpy.  After start-up and after each BLAS call an idle
# worker spins on sched_yield for 2**28 TSC cycles (about 0.1 s of a core)
# before it sleeps; 2**16 is about 25 µs.  It moves no result bit.  The
# thread count, which does move dense eigenvalue bits, is left alone.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")

import functools
import json
import math
import sys
from typing import TYPE_CHECKING, Callable

import click

from . import _resolver
from .errors import MAX_GRID_POINTS, EmptySpectrum, InvalidArgs, IsingError

if TYPE_CHECKING:
    import numpy as np

    from .model import IsingParams, ManyBodySpectrum
    from .peaks import GaussianMixture
    from .table import Table


# Commands call the package's public names as attributes of this module,
# such as ``_lib.exact_spectrum(params)``.  The package's resolver imports a
# name's home module on first use and binds the name here, so ``--help``,
# usage errors and each subcommand import only what they run.  It runs only
# for names not bound yet, so a name replaced from outside, as a tracer
# does, is the one a command calls.
_lib = sys.modules[__name__]
__getattr__ = _resolver(__name__, globals())


_MULTI_KINDS = ("multi-tfim", "multi-strong", "multi-int-alpha", "multi-generic")
_ANALYTIC_KINDS = ("gaussian", "saddle", "tail")


def _compute_errors(fn: Callable) -> Callable:
    """Translate library errors, and floating-point overflow or division by
    zero at extreme inputs, into the exit-1 stderr-JSON convention."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (IsingError, ArithmeticError) as exc:
            click.echo(
                json.dumps({"code": type(exc).__name__, "message": str(exc)}),
                err=True,
            )
            sys.exit(1)

    return wrapper


def _parse_grid(ctx, param, value):
    if value is None:
        return None
    parts = str(value).split(":")
    if len(parts) != 3:
        raise click.BadParameter("expected LO:HI:POINTS")
    try:
        lo, hi, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise click.BadParameter("expected numeric LO:HI and integer POINTS")
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise click.BadParameter("grid needs finite LO, HI and HI - LO")
    if not hi > lo:
        raise click.BadParameter("grid needs HI > LO")
    if points < 2:
        raise click.BadParameter("grid needs at least 2 points")
    if points > MAX_GRID_POINTS:
        raise click.BadParameter(f"grid needs at most {MAX_GRID_POINTS} points")
    import numpy as np

    return np.linspace(lo, hi, points)


def _params_metadata(params: IsingParams) -> dict:
    return {
        "model": params.model,
        "n": params.N,
        "lambda": repr(params.lam),
        "alpha": repr(params.alpha),
    }


def _spectrum_from_table(table: Table) -> ManyBodySpectrum:
    if table.kind != "spectrum":
        raise InvalidArgs(
            f"{table.source} is not a spectrum CSV (header {table.header!r})"
        )
    metadata = table.metadata
    try:
        model = metadata["model"]
        n = int(metadata["n"])
        lam = float(metadata["lambda"])
        alpha = float(metadata.get("alpha", "0.0"))
        method = metadata.get("method", "dense")
        params = _lib.IsingParams(N=n, lam=lam, alpha=alpha, model=model)
        return _lib.ManyBodySpectrum(table.columns[1], method, params)
    except (KeyError, ValueError, InvalidArgs) as exc:
        raise InvalidArgs(f"malformed spectrum CSV {table.source}: {exc}") from exc


# One mixture component as ``json.dump(..., indent=2)`` lays it out.  ``%r``
# of a float is what ``json`` writes for it when it is finite, and a
# GaussianMixture holds only finite numbers.
_COMPONENT_JSON = '\n    {\n      "w": %r,\n      "mu": %r,\n      "var": %r\n    }'


def _write_mixture_json(path: str, params: dict, mixture: GaussianMixture) -> None:
    """Write ``{"params": params, "components": [{"w", "mu", "var"}, ...]}``
    with the bytes of ``json.dump(..., indent=2)`` and a final newline,
    formatting rows from the component table: no per-component dict."""
    from .table import write_text

    head = json.dumps({"params": params}, indent=2).removesuffix("\n}")
    # A memoryview yields Python floats one at a time, with no list per column.
    rows = zip(*map(memoryview, (mixture.w, mixture.mu, mixture.var)))
    write_text(
        path, head + ',\n  "components": [', _COMPONENT_JSON, rows, ",", "\n  ]\n}\n"
    )


# ----------------------------------------------------------------------------
# command group
# ----------------------------------------------------------------------------


@click.group()
def main() -> None:
    """Density-of-states toolkit for transverse- and two-field Ising rings."""


@main.command()
@click.option("--model", type=click.Choice(["tfim", "two-field"]), required=True)
@click.option("--n", "n", type=int, required=True, help="Ring size N.")
@click.option("--lambda", "lam", type=float, required=True, help="Transverse field.")
@click.option("--alpha", type=float, default=0.0, help="Longitudinal field.")
@click.option(
    "--method",
    type=click.Choice(["dense", "fermion"]),
    default="dense",
    show_default=True,
)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_compute_errors
def spectrum(model, n, lam, alpha, method, out) -> None:
    """Compute a complete many-body spectrum and write an eigenvalue CSV."""
    from .table import SPECTRUM_HEADER, write_table

    params = _lib.IsingParams(n, lam, alpha, model)
    if method == "fermion":
        if params.model != "tfim":
            raise InvalidArgs(
                "the fermion method applies to the transverse-field model only"
            )
        result = _lib.enumerate_spectrum(n, lam)
    else:
        result = _lib.exact_spectrum(params)
    metadata = {**_params_metadata(result.params), "method": result.method}
    rows = enumerate(map(float, result.energies))
    write_table(out, metadata, SPECTRUM_HEADER, rows)


@main.command()
@click.option("--in", "source", type=click.Path(dir_okay=False), required=True)
@click.option("--bins", type=int, default=None, help="Histogram bin count.")
@click.option("--kde", "kde_sigma", type=float, default=None, help="Kernel width.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_compute_errors
def density(source, bins, kde_sigma, out) -> None:
    """Turn a spectrum CSV into an empirical density curve CSV."""
    if bins is not None and kde_sigma is not None:
        raise click.UsageError("--bins and --kde are mutually exclusive")
    from .table import read_table

    spec = _spectrum_from_table(read_table(source))
    metadata = _params_metadata(spec.params)
    metadata["method"] = spec.method
    if kde_sigma is not None:
        curve = _lib.kernel_density(spec, kde_sigma)
        metadata["kde"] = repr(float(kde_sigma))
    else:
        curve = _lib.histogram(spec, bins=bins)
        metadata["bins"] = str(bins) if bins is not None else "default"
    _lib.write_curve_csv(curve, out, metadata)


def _build_mixture(kind: str, params: IsingParams) -> GaussianMixture:
    if kind == "multi-tfim":
        if params.alpha != 0.0:
            raise InvalidArgs("multi-tfim requires alpha = 0")
        return _lib.tfim_mixture_components(params.N, params.lam)
    if kind == "multi-strong":
        return _lib.strong_field_components(params.N, params.lam, params.alpha)
    if kind == "multi-int-alpha":
        if params.alpha != 1.0:
            raise InvalidArgs(
                "multi-int-alpha is implemented for alpha = 1 "
                f"(got alpha = {params.alpha!r})"
            )
        return _lib.small_lambda_components(params.N, params.lam)
    return _lib.generic_alpha_components(params.N, params.lam, params.alpha)


def _default_energy_grid(mixture: GaussianMixture) -> np.ndarray:
    """Span all components with margin, spaced to resolve the narrowest peak."""
    import numpy as np

    sigmas = np.sqrt(mixture.var[mixture.var > 0.0])
    widest = float(sigmas.max()) if sigmas.size else 1.0
    narrowest = float(sigmas.min()) if sigmas.size else 1.0
    lo = float(mixture.mu.min()) - 8.0 * widest - 1.0
    hi = float(mixture.mu.max()) + 8.0 * widest + 1.0
    span = hi - lo
    step = min(narrowest / 4.0, span / 2000.0)
    points = min(int(math.ceil(span / step)) + 1, MAX_GRID_POINTS)
    return np.linspace(lo, hi, points)


def _analytic_values(kind: str, params: IsingParams, e_grid: np.ndarray) -> np.ndarray:
    if kind == "gaussian":
        if params.model == "tfim":
            return _lib.gaussian_density_tfim(e_grid / params.N, params) / params.N
        import numpy as np

        scale = _lib.abscissa_scale(params, "eps")
        values = _lib.gaussian_density_two_fields(e_grid, params)
        return np.maximum(values, 0.0) / scale  # the cubic correction can go negative
    if kind == "saddle":
        return _lib.saddle_density_extensive(e_grid, params)
    if params.model != "tfim" or params.lam != 1.0:
        raise InvalidArgs("the tail formula is specific to tfim at lambda = 1")
    return _lib.tail_density_critical(e_grid, params.N)


@main.command()
@click.option(
    "--kind",
    type=click.Choice(list(_ANALYTIC_KINDS) + list(_MULTI_KINDS)),
    required=True,
)
@click.option("--model", type=click.Choice(["tfim", "two-field"]), default=None)
@click.option("--n", "n", type=int, required=True)
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--alpha", type=float, default=0.0)
@click.option("--grid", callback=_parse_grid, default=None, help="LO:HI:POINTS.")
@click.option("--per-spin", is_flag=True, help="Abscissa e = E/N.")
@click.option("--rescaled", is_flag=True, help="Abscissa eps = E/sqrt(N w).")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_compute_errors
def approx(kind, model, n, lam, alpha, grid, per_spin, rescaled, out) -> None:
    """Write an analytic or multi-Gaussian density approximation as CSV.

    Multi-* kinds also write the mixture parameters to a
    ``<out>.mixture.json`` sidecar and pick a support-spanning grid when
    ``--grid`` is omitted; the analytic kinds require an explicit grid.
    """
    if per_spin and rescaled:
        raise click.UsageError("--per-spin and --rescaled are mutually exclusive")
    target = "e" if per_spin else ("eps" if rescaled else "E")
    import numpy as np

    model = model or ("tfim" if alpha == 0.0 else "two-field")
    params = _lib.IsingParams(n, lam, alpha, model)
    metadata = _params_metadata(params)
    metadata["kind"] = kind
    # Sampled at E = grid * scale, written on the grid with densities * scale.
    if grid is not None:
        from .curves import _require_grid

        scale = _lib.abscissa_scale(params, target)
        with np.errstate(over="ignore"):  # the node rule refuses what overflows
            e_grid = grid * scale
        _require_grid(e_grid, "--grid scaled to units of E")
    mixture = None
    if kind in _MULTI_KINDS:
        mixture = _build_mixture(kind, params)
        if grid is None:
            e_grid = _default_energy_grid(mixture)
        curve = mixture.density_curve(e_grid)
    else:
        if grid is None:
            raise click.UsageError(f"--grid is required for kind '{kind}'")
        curve = _lib.DensityCurve(e_grid, _analytic_values(kind, params, e_grid))
    if grid is None:
        scale = _lib.abscissa_scale(params, target)
        grid = e_grid / scale
    with np.errstate(over="ignore"):  # the curve rule refuses what overflows
        curve = _lib.DensityCurve(grid, curve.values * scale, abscissa=target)
    _lib.write_curve_csv(curve, out, metadata)
    if mixture is not None:
        sidecar = out.removesuffix(".csv") + ".mixture.json"
        _write_mixture_json(sidecar, metadata, mixture)


@main.command("compare")
@click.option("--a", "path_a", type=click.Path(dir_okay=False), required=True)
@click.option("--b", "path_b", type=click.Path(dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_compute_errors
def compare_command(path_a, path_b, out) -> None:
    """Compare two spectrum CSVs or two curve CSVs; write a JSON report.

    Spectrum inputs are compared as sorted eigenvalue sequences (l1 = mean
    absolute difference, sup = max); curve inputs are compared as densities
    with peak matching.
    """
    from .table import read_table, write_text

    table_a, table_b = read_table(path_a), read_table(path_b)
    for table in (table_a, table_b):
        if table.kind is None:
            raise InvalidArgs(
                f"{table.source} is not a spectrum or curve CSV "
                f"(header {table.header!r})"
            )
    if table_a.kind != table_b.kind:
        raise InvalidArgs(
            f"cannot compare a {table_a.kind} file with a {table_b.kind} file"
        )
    if table_a.kind == "spectrum":
        spec_a = _spectrum_from_table(table_a)
        spec_b = _spectrum_from_table(table_b)
        if len(spec_a.energies) != len(spec_b.energies):
            raise InvalidArgs(
                "spectrum comparison needs equal level counts, got "
                f"{len(spec_a.energies)} and {len(spec_b.energies)}"
            )
        if len(spec_a.energies) == 0:
            raise EmptySpectrum("cannot compare empty spectra")
        import numpy as np

        with np.errstate(over="ignore"):  # the report refuses an overflow
            diff = np.abs(np.sort(spec_a.energies) - np.sort(spec_b.energies))
            l1 = float(np.mean(diff))
        report = _lib.ComparisonReport(
            l1=l1,
            sup=float(np.max(diff)),
            peak_positions=[],
            grids_aligned=True,
        )
    else:
        curve_a, _ = _lib.read_curve_csv(table_a)
        curve_b, _ = _lib.read_curve_csv(table_b)
        report = _lib.compare(curve_a, curve_b)
    write_text(out, json.dumps(report.to_json_dict(), indent=2) + "\n")


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--alpha", type=str, default=None, help="Rational alpha as P/Q.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_compute_errors
def census(n, alpha, out) -> None:
    """Write the block-count table, or the degeneracy classes at rational alpha."""
    from .table import write_table

    if alpha is None:
        result = _lib.block_census(n)
        table = {**result.polarized, **result.table}
        rows = ((nn, kk, table[(nn, kk)]) for nn, kk in sorted(table))
        write_table(out, {"n": n}, "n,k,f", rows)
    else:
        result = _lib.degeneracy_census(n, alpha)
        rows = (
            (R, result.classes[R], result.energy_of[R]) for R in sorted(result.classes)
        )
        write_table(out, {"n": n, "alpha": alpha}, "R,count,energy", rows)


@main.command()
@click.option("--model", type=click.Choice(["tfim", "two-field"]), required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--alpha", type=float, default=0.0)
@click.option("--max-order", type=click.IntRange(1, 4), default=4, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_compute_errors
def moments(model, n, lam, alpha, max_order, out) -> None:
    """Tabulate numeric (dense-trace) vs analytic moments up to max order."""
    from .table import write_table

    params = _lib.IsingParams(n, lam, alpha, model)
    analytic = _lib.analytic_moments(params)
    numeric = _lib.numeric_moments(_lib.exact_spectrum(params), max_order=max_order)
    rows = [
        (k, float(getattr(numeric, f"m{k}")), float(getattr(analytic, f"m{k}")))
        for k in range(1, max_order + 1)
    ]
    write_table(out, _params_metadata(params), "order,numeric,analytic", rows)


@main.command()
@click.option("--regime", type=str, required=True)
@click.option("--lambda", "lam", type=float, required=True)
@click.option("--alpha", type=float, default=0.0)
@_compute_errors
def visibility(regime, lam, alpha) -> None:
    """Print the largest ring size with resolved peaks for a regime."""
    result = _lib.visibility_Nmax(lam, alpha, regime)
    suffix = " (order of magnitude)" if result.order_of_magnitude else ""
    click.echo(f"{result.n_max!r}{suffix}")
