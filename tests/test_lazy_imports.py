"""Tests that each subcommand imports only the modules it runs, that the
package and CLI names resolve lazily to their home modules, and that the
benchmark tracer can still replace the names the commands call."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest
from click.testing import CliRunner

import ising_density
from ising_density import cli
from ising_density.model import IsingParams, exact_spectrum
from ising_density.table import SPECTRUM_HEADER, write_table

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Submodules every CLI process loads: the CLI and the error classes behind
# the exit-1 convention.
BASE = {"cli", "errors"}
# ``curves`` imports ``model`` and ``table``; ``peaks`` imports ``blocks``,
# ``curves``, ``fermion`` and ``quadrature``; ``analytic`` and ``fermion``
# import ``model`` and ``quadrature``.
CURVES = {"curves", "model", "table"}
PEAKS = {"peaks", "blocks", "fermion", "quadrature"} | CURVES
ANALYTIC = {"analytic", "quadrature"} | CURVES


def _package_modules(modules: frozenset[str]) -> set[str]:
    return {
        name.split(".", 1)[1] for name in modules if name.startswith("ising_density.")
    }


@pytest.mark.parametrize(
    "args",
    [
        ("--help",),
        ("spectrum", "--help"),
        ("spectrum",),  # a required option missing
        ("approx", "--kind", "nope", "--n", "4", "--lambda", "1", "--out", "a.csv"),
        ("no-such-command",),
    ],
)
def test_help_and_usage_errors_load_no_numpy_and_no_compute_module(run_cli, args):
    result = run_cli(*args)
    assert result.returncode == (0 if "--help" in args else 2), result.stderr
    assert "numpy" not in result.modules
    assert _package_modules(result.modules) == BASE


def _write_spectrum(path: Path) -> None:
    params = IsingParams.tfim(6, 1.0)
    metadata = {"model": "tfim", "n": 6, "lambda": "1.0", "alpha": "0.0",
                "method": "dense"}
    energies = exact_spectrum(params).energies
    write_table(str(path), metadata, SPECTRUM_HEADER, enumerate(map(float, energies)))


@pytest.mark.parametrize(
    "args, modules",
    [
        (("spectrum", "--model", "tfim", "--n", "6", "--lambda", "1",
          "--out", "s.csv"), {"model", "table"}),
        (("spectrum", "--model", "tfim", "--n", "6", "--lambda", "1",
          "--method", "fermion", "--out", "s.csv"),
         {"model", "table", "fermion", "quadrature"}),
        (("density", "--in", "d.csv", "--bins", "8", "--out", "h.csv"), CURVES),
        (("density", "--in", "d.csv", "--kde", "0.5", "--out", "k.csv"), CURVES),
        (("compare", "--a", "d.csv", "--b", "d.csv", "--out", "r.json"), CURVES),
        (("approx", "--kind", "multi-tfim", "--n", "8", "--lambda", "0.3",
          "--out", "m.csv"), PEAKS),
        (("approx", "--kind", "multi-generic", "--n", "8", "--lambda", "0.3",
          "--alpha", "0.7", "--grid=-12:12:50", "--out", "m.csv"), PEAKS),
        (("approx", "--kind", "gaussian", "--n", "8", "--lambda", "1",
          "--grid=-1:1:11", "--per-spin", "--out", "g.csv"), ANALYTIC),
        (("approx", "--kind", "saddle", "--n", "8", "--lambda", "1",
          "--grid=-1:1:11", "--per-spin", "--out", "s.csv"), ANALYTIC),
        (("approx", "--kind", "tail", "--n", "16", "--lambda", "1",
          "--grid=-20.3:-19:5", "--out", "t.csv"), ANALYTIC),
        (("census", "--n", "6", "--out", "c.csv"), {"blocks", "table"}),
        (("census", "--n", "6", "--alpha", "1/2", "--out", "c.csv"),
         {"blocks", "table"}),
        (("moments", "--model", "tfim", "--n", "6", "--lambda", "1",
          "--out", "o.csv"), {"model", "table"}),
        (("visibility", "--regime", "tfim-small", "--lambda", "0.3"), PEAKS),
    ],
    ids=lambda value: " ".join(value[:3]) if isinstance(value, tuple) else None,
)
def test_each_subcommand_loads_only_its_modules(tmp_path, run_cli, args, modules):
    _write_spectrum(tmp_path / "d.csv")
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    assert _package_modules(result.modules) == BASE | modules


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_on_cli_to_their_home_objects():
    for name, span in _load_tracer().CLI_CALLS.items():
        home = importlib.import_module(f"ising_density.{span.split('.')[0]}")
        assert getattr(cli, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_spectrum_calls_a_replaced_exact_spectrum(tmp_path, monkeypatch):
    real = cli.exact_spectrum
    calls = []

    def replacement(params):
        calls.append(params)
        return real(params)

    monkeypatch.setattr(cli, "exact_spectrum", replacement)
    out = tmp_path / "s.csv"
    result = CliRunner().invoke(
        cli.main,
        ["spectrum", "--model", "tfim", "--n", "4", "--lambda", "1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert calls == [IsingParams.tfim(4, 1.0)]
    assert out.exists()


def test_package_names_are_their_home_modules_objects():
    for name in ising_density.__all__:
        value = getattr(ising_density, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("ising_density.")
        assert getattr(home, name) is value, name


def test_package_dir_lists_every_public_name():
    assert set(ising_density.__all__) <= set(dir(ising_density))
    assert "__version__" in dir(ising_density)


def test_package_star_import():
    namespace: dict = {}
    exec("from ising_density import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ising_density.__all__)


def test_package_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ising_density.no_such_name
    with pytest.raises(ImportError):
        exec("from ising_density import no_such_name", {})
