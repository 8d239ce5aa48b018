"""Tests that each subcommand imports only the modules it runs, that the
package and CLI names resolve lazily to their home modules, that every public
name and public class member has a caller outside the unit tests and every
private name a user in the package or the benchmark, that the benchmark
tracer can still replace the names the commands call, and that the CLI's
bound on OpenBLAS's idle spin is set before numpy loads and moves no output
byte."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest
from click.testing import CliRunner

import ising_density
from ising_density import cli
from ising_density.model import IsingParams, exact_spectrum
from ising_density.table import SPECTRUM_HEADER, write_table

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

# Submodules every CLI process loads: the CLI and the error classes behind
# the exit-1 convention.
BASE = {"cli", "errors"}
# ``curves`` imports ``model`` and ``table``; ``peaks`` imports ``blocks``,
# ``curves`` and ``fermion``; ``analytic`` imports ``fermion`` and ``model``;
# ``fermion`` imports ``model``.
CURVES = {"curves", "model", "table"}
PEAKS = {"peaks", "blocks", "fermion"} | CURVES
ANALYTIC = {"analytic", "fermion"} | CURVES


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
         {"model", "table", "fermion"}),
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
    for name in ising_density.__all__:
        home = importlib.import_module(getattr(ising_density, name).__module__)
        assert getattr(cli, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="'ising_density.cli' has no attribute"):
        cli.no_such_name


def test_traced_run_records_the_mixture_and_the_cell_walk(tmp_path):
    # The tracer replaces names by attribute (``peaks.cells``, the names
    # ``peaks`` imports for it, the CLI's names); one it no longer finds ends
    # the traced run, and one it no longer calls through reads zero.
    script = "import sys; sys.path.insert(0, sys.argv[1]); import tracer; " \
        "tracer.run(sys.argv[2], sys.argv[3:])"
    args = ["approx", "--kind", "multi-int-alpha", "--n", "12", "--lambda", "0.2",
            "--alpha", "1", "--out", "x.csv"]
    package_root = str(Path(ising_density.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(TRACER.parent), "trace.json", *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": package_root},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert "peaks.components" in [span[0] for span in trace["spans"]]
    assert trace["counts"]["blocks.cells.calls"] >= 1


def _fresh_env(**variables: str) -> dict[str, str]:
    """This process's environment without ``OPENBLAS_THREAD_TIMEOUT``, with
    the package importable and ``variables`` set."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(Path(ising_density.__file__).parents[1])
    return {**env, **variables}


@pytest.mark.parametrize(
    "module, given, expected",
    [
        ("ising_density.cli", None, "16"),
        ("ising_density.cli", "20", "20"),
        ("ising_density", None, None),
    ],
)
def test_only_the_cli_bounds_the_openblas_spin_before_numpy_loads(
    module, given, expected
):
    script = "import importlib, json, os, sys; importlib.import_module(sys.argv[1]); " \
        "print(json.dumps([os.environ.get('OPENBLAS_THREAD_TIMEOUT'), " \
        "'numpy' in sys.modules]))"
    env = _fresh_env() if given is None else _fresh_env(OPENBLAS_THREAD_TIMEOUT=given)
    proc = subprocess.run(
        [sys.executable, "-c", script, module], env=env, capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [expected, False]


def test_spin_bound_and_tracer_leave_dense_spectrum_bytes_alone(tmp_path):
    # A setting that acts on the BLAS library must not move a result byte,
    # and a traced run, which loads numpy before ``main``, must write what
    # an untraced one does.  At N = 12 the thread count moves bytes (one
    # BLAS thread writes another file), so this run would see it change.
    args = ["spectrum", "--model", "two-field", "--n", "12", "--lambda", "0.7",
            "--alpha", "0.4"]
    runs = {
        "bound.csv": ([sys.executable, "-m", "ising_density"], _fresh_env()),
        "default.csv": ([sys.executable, "-m", "ising_density"],
                        _fresh_env(OPENBLAS_THREAD_TIMEOUT="28")),
        "traced.csv": ([sys.executable, "-c", "import sys; sys.path.insert(0, "
                        "sys.argv[1]); import tracer; tracer.run(sys.argv[2], "
                        "sys.argv[3:])", str(TRACER.parent), "trace.json"],
                       _fresh_env()),
    }
    for out, (command, env) in runs.items():
        proc = subprocess.run(
            [*command, *args, "--out", out],
            cwd=tmp_path,
            env={**env, "OPENBLAS_NUM_THREADS": "2"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    written = {out: (tmp_path / out).read_bytes() for out in runs}
    assert written["bound.csv"] == written["default.csv"] == written["traced.csv"]


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


def test_a_name_replaced_before_its_module_loads_is_the_one_called(tmp_path):
    # A tracer replaces names on ``cli`` before their home modules load.  The
    # resolver runs only for names not bound yet, so the replacement is the
    # one the command calls, and it is still bound afterwards.
    _write_spectrum(tmp_path / "d.csv")
    script = """\
import json, sys
from ising_density import cli
loaded_before = "ising_density.curves" in sys.modules
calls = []

def kernel_density(spec, sigma):
    from ising_density.curves import kernel_density as real
    calls.append(sigma)
    return real(spec, sigma)

cli.kernel_density = kernel_density
cli.main(["density", "--in", "d.csv", "--kde", "0.5", "--out", "k.csv"],
         standalone_mode=False)
print(json.dumps([loaded_before, "ising_density.curves" in sys.modules, calls,
                  cli.kernel_density is kernel_density]))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=_fresh_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, [0.5], True]
    assert (tmp_path / "k.csv").exists()


def _cli_tree() -> ast.Module:
    return ast.parse((ROOT / "src" / "ising_density" / "cli.py").read_text("utf-8"))


def test_cli_reaches_registry_names_only_through_the_resolver():
    # ``_lib.<typo>`` is an AttributeError and a bare registry name a
    # NameError, each only on the branch that reaches it; both show here.
    tree = _cli_tree()
    via_lib = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "_lib"
    }
    assert via_lib and sorted(via_lib - set(ising_density._HOMES)) == []
    # A bare name is allowed when a top-level import binds it at start-up (the
    # error classes) or in an annotation, which is never evaluated.
    imported = {
        alias.asname or alias.name for node in tree.body
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    annotations = [
        node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ] + [node.annotation for node in ast.walk(tree) if isinstance(node, ast.arg)]
    in_annotations = {
        id(node) for annotation in annotations if annotation is not None
        for node in ast.walk(annotation)
    }
    bare = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        and id(node) not in in_annotations
        and node.id in ising_density._HOMES and node.id not in imported
    }
    assert sorted(bare) == []
    assert {ising_density._HOMES[name] for name in imported
            if name in ising_density._HOMES} == {"errors"}


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


def _references(
    tree: ast.AST, skip: str | None = None, names: bool = True
) -> set[str]:
    """Names a tree refers to by an Attribute, a string that is exactly an
    identifier (as ``getattr`` and ``setattr`` take it: the benchmark tracer
    wraps ``build_hamiltonian`` that way) and, with ``names``, a Name that is
    not an assignment target or an import alias, leaving out the body of each
    definition from the name it defines.  A class member is reached only as
    an attribute or a string, so a local variable of its name is no caller."""
    found: set[str] = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _references(node, node.name, names)
            continue
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)  # only an identifier can match a name
        elif names and isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif names and isinstance(node, ast.alias):
            found.add(node.asname or node.name.rpartition(".")[2])
        found |= _references(node, skip, names)
    return found - {skip}


def _public_class_members() -> dict[str, str]:
    """``Class.member`` to ``member`` for the methods, classmethods,
    staticmethods and properties each public class defines itself."""
    kinds = (FunctionType, classmethod, staticmethod, property)
    members = {}
    for name in ising_density.__all__:
        value = getattr(ising_density, name)
        if isinstance(value, type):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and isinstance(member, kinds):
                    members[f"{name}.{attr}"] = attr
    return members


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    sources = [
        *(p for p in (ROOT / "src" / "ising_density").glob("*.py")
          if p.name != "__init__.py"),
        *(ROOT / "bench").glob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sources]
    used = set().union(*map(_references, trees))
    attributes = set().union(*(_references(tree, names=False) for tree in trees))
    unused = [name for name in ising_density._HOMES if name not in used]
    unused += [
        label for label, member in _public_class_members().items()
        if member not in attributes
    ]
    assert sorted(unused) == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level private names a module defines: by def, class or
    assignment, dunders left out."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def test_every_private_name_is_used_by_the_package_or_the_benchmark():
    package = list((ROOT / "src" / "ising_density").glob("*.py"))
    defined: set[str] = set()
    used: set[str] = set()
    for path in [*package, *(ROOT / "bench").glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in package:
            defined |= _private_definitions(tree)
        used |= _references(tree)
    assert sorted(defined - used) == []


def test_only_errors_catches_overflow():
    # Every coupling formula refuses its overflow through errors.float_range,
    # so no other module names OverflowError in an except clause.
    found = []
    for path in sorted((ROOT / "src" / "ising_density").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                if "OverflowError" in names:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
