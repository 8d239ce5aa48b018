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
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import warnings
from typing import TYPE_CHECKING, Callable

import click

from . import _HOMES, _NAMES
from .errors import EmptySpectrum, InvalidArgs, IsingError, NegativeDensityWarning

if TYPE_CHECKING:
    import numpy as np

    from .model import IsingParams, ManyBodySpectrum
    from .peaks import GaussianMixture
    from .table import Table


def _load(*homes: str) -> None:
    """Bind into this module the package's public names (``_NAMES``) of
    ``homes`` that are not bound yet.

    A command loads the modules it runs before calling their names, so
    ``--help``, usage errors and each subcommand import only what they need.
    A name replaced from outside, as a tracer does, stays replaced;
    ``__getattr__`` resolves the same names from outside.
    """
    bound = globals()
    for home in homes:
        module = importlib.import_module(f".{home}", __package__)
        for name in _NAMES[home]:
            if name not in bound:
                bound[name] = getattr(module, name)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(home)
    return globals()[name]


_MULTI_KINDS = ("multi-tfim", "multi-strong", "multi-int-alpha", "multi-generic")
_ANALYTIC_KINDS = ("gaussian", "saddle", "tail")
_DEFAULT_GRID_MAX_POINTS = 200_001


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
    if points > _DEFAULT_GRID_MAX_POINTS:
        raise click.BadParameter(
            f"grid needs at most {_DEFAULT_GRID_MAX_POINTS} points"
        )
    import numpy as np

    return np.linspace(lo, hi, points)


def _build_params(model: str | None, n: int, lam: float, alpha: float) -> IsingParams:
    if model is None:
        model = "tfim" if alpha == 0.0 else "two-field"
    if model == "tfim":
        if alpha != 0.0:
            raise InvalidArgs("--model tfim is incompatible with --alpha != 0")
        return IsingParams.tfim(n, lam)
    return IsingParams.two_field(n, lam, alpha)


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
        params = IsingParams(N=n, lam=lam, alpha=alpha, model=model)
        return ManyBodySpectrum(energies=table.columns[1], method=method, params=params)
    except (KeyError, ValueError, InvalidArgs) as exc:
        raise InvalidArgs(f"malformed spectrum CSV {table.source}: {exc}") from exc


def _write_json(path: str, payload: dict) -> None:
    from .table import open_text

    with open_text(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


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

    _load("model")
    params = _build_params(model, n, lam, alpha)
    if method == "fermion":
        if params.model != "tfim":
            raise InvalidArgs(
                "the fermion method applies to the transverse-field model only"
            )
        _load("fermion")
        result = enumerate_spectrum(n, lam)
    else:
        result = exact_spectrum(params)
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

    _load("model", "curves")
    spec = _spectrum_from_table(read_table(source))
    metadata = _params_metadata(spec.params)
    metadata["method"] = spec.method
    if kde_sigma is not None:
        curve = kernel_density(spec, kde_sigma)
        metadata["kde"] = repr(float(kde_sigma))
    else:
        curve = histogram(spec, bins=bins)
        metadata["bins"] = str(bins) if bins is not None else "default"
    write_curve_csv(curve, out, metadata)


def _build_mixture(kind: str, params: IsingParams) -> GaussianMixture:
    _load("peaks")
    if kind == "multi-tfim":
        if params.alpha != 0.0:
            raise InvalidArgs("multi-tfim requires alpha = 0")
        return tfim_mixture_components(params.N, params.lam)
    if kind == "multi-strong":
        return strong_field_components(params.N, params.lam, params.alpha)
    if kind == "multi-int-alpha":
        if params.alpha != 1.0:
            raise InvalidArgs(
                "multi-int-alpha is implemented for alpha = 1 "
                f"(got alpha = {params.alpha!r})"
            )
        return small_lambda_components(params.N, params.lam)
    return generic_alpha_components(params.N, params.lam, params.alpha)


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
    points = min(int(math.ceil(span / step)) + 1, _DEFAULT_GRID_MAX_POINTS)
    return np.linspace(lo, hi, points)


def _analytic_values(kind: str, params: IsingParams, e_grid: np.ndarray) -> np.ndarray:
    _load("analytic")
    if kind == "gaussian":
        if params.model == "tfim":
            return gaussian_density_tfim(e_grid / params.N, params) / params.N
        scale = abscissa_scale(params, "eps")
        with warnings.catch_warnings():  # the negative values are clamped at 0
            warnings.simplefilter("ignore", NegativeDensityWarning)
            return gaussian_density_two_fields(e_grid, params, clamp=True) / scale
    if kind == "saddle":
        return saddle_density_extensive(e_grid, params)
    if params.model != "tfim" or params.lam != 1.0:
        raise InvalidArgs("the tail formula is specific to tfim at lambda = 1")
    return tail_density_critical(e_grid, params.N)


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
    _load("model", "curves")
    params = _build_params(model, n, lam, alpha)
    metadata = _params_metadata(params)
    metadata["kind"] = kind
    if grid is not None:
        import numpy as np

        from .curves import _require_grid

        with np.errstate(over="ignore"):  # the node rule refuses what overflows
            e_grid = grid * abscissa_scale(params, target)
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
        values = _analytic_values(kind, params, e_grid)
        curve = DensityCurve(e_grid, values, abscissa="E")
    if target != "E":
        curve = curve.with_abscissa(target, params)
    write_curve_csv(curve, out, metadata)
    if mixture is not None:
        sidecar = (
            out[: -len(".csv")] + ".mixture.json"
            if out.endswith(".csv")
            else out + ".mixture.json"
        )
        _write_json(sidecar, {"params": metadata, **mixture.to_json_dict()})


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
    from .table import read_table

    _load("model", "curves")
    table_a, table_b = read_table(path_a), read_table(path_b)
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
        report = ComparisonReport(
            l1=l1,
            sup=float(np.max(diff)),
            peak_positions=[],
            grids_aligned=True,
        )
    else:
        curve_a, _ = read_curve_csv(table_a)
        curve_b, _ = read_curve_csv(table_b)
        report = compare(curve_a, curve_b)
    _write_json(out, report.to_json_dict())


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--alpha", type=str, default=None, help="Rational alpha as P/Q.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_compute_errors
def census(n, alpha, out) -> None:
    """Write the block-count table, or the degeneracy classes at rational alpha."""
    from .table import write_table

    _load("blocks")
    if alpha is None:
        result = block_census(n)
        table = {**result.polarized, **result.table}
        rows = ((nn, kk, table[(nn, kk)]) for nn, kk in sorted(table))
        write_table(out, {"n": n}, "n,k,f", rows)
    else:
        result = degeneracy_census(n, alpha)
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

    _load("model")
    params = _build_params(model, n, lam, alpha)
    analytic = analytic_moments(params)
    numeric = numeric_moments(exact_spectrum(params), max_order=max_order)
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
    _load("peaks")
    result = visibility_Nmax(lam, alpha, regime)
    suffix = " (order of magnitude)" if result.order_of_magnitude else ""
    click.echo(f"{result.n_max!r}{suffix}")
