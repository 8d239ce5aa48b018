"""End-to-end tests of the command-line interface.

Each subcommand is exercised through click's test runner against temporary
files; file formats are checked by parsing the artifacts back with the
library readers.  Exit-code conventions: 0 success, 1 compute errors (with
a JSON object on stderr), 2 usage errors.
"""

from __future__ import annotations

import json
import math
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from ising_density.analytic import gaussian_density_tfim
from ising_density.blocks import degeneracy_census
from ising_density.cli import main
from ising_density.curves import read_curve_csv
from ising_density.model import IsingParams
from ising_density.peaks import (
    GaussianMixture,
    generic_alpha_components,
    small_lambda_components,
    strong_field_components,
    tfim_mixture_components,
)


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, f"{args} failed: {result.output}\n{result.stderr}"
    return result


def read_rows(path, header):
    lines = path.read_text().splitlines()
    meta = {}
    rows = []
    seen_header = False
    for line in lines:
        if line.startswith("#"):
            key, _, value = line.lstrip("#").strip().partition("=")
            meta[key.strip()] = value.strip()
        elif not seen_header:
            assert line == header
            seen_header = True
        elif line:
            rows.append(line.split(","))
    assert seen_header
    return meta, rows


class TestSpectrum:
    def test_csv_format_and_determinism(self, runner, tmp_path):
        out = tmp_path / "spec.csv"
        args = [
            "spectrum", "--model", "tfim", "--n", "6", "--lambda", "0.7",
            "--method", "dense", "--out", str(out),
        ]
        run_ok(runner, args)
        first = out.read_bytes()
        meta, rows = read_rows(out, "index,energy")
        assert meta["model"] == "tfim"
        assert meta["n"] == "6"
        assert meta["lambda"] == "0.7"
        assert meta["method"] == "dense"
        assert len(rows) == 64
        energies = [float(r[1]) for r in rows]
        assert [int(r[0]) for r in rows] == list(range(64))
        assert energies == sorted(energies)
        run_ok(runner, args)
        assert out.read_bytes() == first

    def test_fermion_and_dense_agree_via_compare(self, runner, tmp_path):
        a, b = tmp_path / "fermion.csv", tmp_path / "dense.csv"
        report_path = tmp_path / "report.json"
        run_ok(runner, [
            "spectrum", "--model", "tfim", "--n", "10", "--lambda", "1",
            "--method", "fermion", "--out", str(a),
        ])
        run_ok(runner, [
            "spectrum", "--model", "tfim", "--n", "10", "--lambda", "1",
            "--method", "dense", "--out", str(b),
        ])
        run_ok(runner, ["compare", "--a", str(a), "--b", str(b),
                        "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert report["l1"] <= 1e-8
        assert report["sup"] <= 1e-8

    def test_two_field_fermion_is_a_compute_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "spectrum", "--model", "two-field", "--n", "6", "--lambda", "0.5",
            "--alpha", "1", "--method", "fermion",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 1
        payload = json.loads(result.stderr)
        assert payload["code"] == "InvalidArgs"
        assert payload["message"]

    def test_ring_beyond_the_size_cap_is_a_compute_error(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "spectrum", "--model", "tfim", "--n", "30", "--lambda", "1",
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "CapExceeded"
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_huge_but_finite_couplings_give_finite_levels(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_ok(runner, [
                "spectrum", "--model", "two-field", "--n", "4", "--lambda", "1e300",
                "--out", str(out),
            ])
        _, rows = read_rows(out, "index,energy")
        energies = [float(r[1]) for r in rows]
        assert len(energies) == 16
        assert all(math.isfinite(e) for e in energies)
        assert energies[0] == pytest.approx(-4e300, rel=1e-12)
        assert energies[-1] == pytest.approx(4e300, rel=1e-12)

    def test_missing_required_option_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "spectrum", "--model", "tfim", "--lambda", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2


class TestDensity:
    def test_histogram_from_spectrum_file(self, runner, tmp_path):
        spec = tmp_path / "spec.csv"
        out = tmp_path / "hist.csv"
        run_ok(runner, [
            "spectrum", "--model", "tfim", "--n", "8", "--lambda", "0.5",
            "--method", "fermion", "--out", str(spec),
        ])
        run_ok(runner, ["density", "--in", str(spec), "--bins", "40",
                        "--out", str(out)])
        curve, meta = read_curve_csv(str(out))
        assert curve.integral() == pytest.approx(1.0, rel=1e-9)
        assert meta["bins"] == "40"

    def test_kernel_density_smoothing(self, runner, tmp_path):
        spec = tmp_path / "spec.csv"
        out = tmp_path / "kde.csv"
        run_ok(runner, [
            "spectrum", "--model", "tfim", "--n", "6", "--lambda", "0.5",
            "--method", "dense", "--out", str(spec),
        ])
        run_ok(runner, ["density", "--in", str(spec), "--kde", "0.5",
                        "--out", str(out)])
        curve, meta = read_curve_csv(str(out))
        assert curve.integral() == pytest.approx(1.0, abs=1e-6)
        assert meta["kde"] == "0.5"

    def test_bins_and_kde_together_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "density", "--in", str(tmp_path / "none.csv"), "--bins", "10",
            "--kde", "0.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2


class TestApprox:
    def test_gaussian_curve_matches_library(self, runner, tmp_path):
        out = tmp_path / "gauss.csv"
        run_ok(runner, [
            "approx", "--kind", "gaussian", "--n", "16", "--lambda", "1",
            "--grid", "-8:8:161", "--out", str(out),
        ])
        curve, meta = read_curve_csv(str(out))
        assert meta["kind"] == "gaussian"
        assert curve.abscissa == "E"
        assert len(curve.grid) == 161
        assert curve.grid[0] == -8.0 and curve.grid[-1] == 8.0
        params = IsingParams.tfim(16, 1.0)
        # Absolute-energy density = per-spin density / N on e = E/N.
        center = gaussian_density_tfim(0.0, params) / 16.0
        mid = curve.values[80]
        assert mid == pytest.approx(center, rel=1e-9)

    def test_per_spin_flag_switches_abscissa(self, runner, tmp_path):
        out = tmp_path / "gauss_e.csv"
        run_ok(runner, [
            "approx", "--kind", "gaussian", "--n", "16", "--lambda", "1",
            "--grid", "-0.5:0.5:101", "--per-spin", "--out", str(out),
        ])
        curve, _ = read_curve_csv(str(out))
        assert curve.abscissa == "e"
        params = IsingParams.tfim(16, 1.0)
        assert curve.values[50] == pytest.approx(
            gaussian_density_tfim(0.0, params), rel=1e-9
        )

    @pytest.mark.parametrize("args, abscissa", [
        (("--kind", "saddle", "--lambda", "0.7", "--grid=-0.7:0.7:15", "--per-spin"),
         "e"),
        (("--kind", "gaussian", "--lambda", "0.3", "--alpha", "0.7", "--grid=-3:3:13",
          "--rescaled"), "eps"),
        (("--kind", "multi-strong", "--lambda", "1.5", "--alpha", "1",
          "--grid=-3.3:3.3:23", "--per-spin"), "e"),
    ], ids=["saddle-per-spin", "gaussian-rescaled", "multi-strong-per-spin"])
    def test_scaled_abscissa_is_the_grid_asked_for(
        self, runner, tmp_path, args, abscissa
    ):
        # N = 12 is not a power of two, so E / 12 need not give back e exactly.
        out = tmp_path / "x.csv"
        run_ok(runner, ["approx", "--n", "12", *args, "--out", str(out)])
        curve, _ = read_curve_csv(str(out))
        lo, hi, points = args[-2].removeprefix("--grid=").split(":")
        assert curve.abscissa == abscissa
        np.testing.assert_array_equal(
            curve.grid, np.linspace(float(lo), float(hi), int(points))
        )

    @pytest.mark.parametrize("kind, alpha, builder, count", [
        pytest.param(kind, alpha, builder, count, id=kind)
        for kind, alpha, builder, count in (
            ("multi-tfim", 0.0, lambda: tfim_mixture_components(12, 1.5), 13),
            ("multi-strong", 1.0, lambda: strong_field_components(12, 1.5, 1.0), 13),
            ("multi-int-alpha", 1.0, lambda: small_lambda_components(12, 1.5), 17),
            ("multi-generic", 0.5, lambda: generic_alpha_components(12, 1.5, 0.5), 38),
        )
    ])
    def test_multi_kinds_emit_mixture_sidecar(
        self, runner, tmp_path, kind, alpha, builder, count
    ):
        out = tmp_path / "multi.csv"
        run_ok(runner, [
            "approx", "--kind", kind, "--n", "12", "--lambda", "1.5",
            "--alpha", repr(alpha), "--grid", "-45:45:3001", "--out", str(out),
        ])
        curve, meta = read_curve_csv(str(out))
        assert curve.integral() == pytest.approx(1.0, abs=1e-6)
        assert meta["lambda"] == "1.5"
        sidecar = tmp_path / "multi.mixture.json"
        assert sidecar.exists()
        payload = json.loads(sidecar.read_text())
        mixture = GaussianMixture(
            [(c["w"], c["mu"], c["var"]) for c in payload["components"]]
        )
        assert len(mixture.components) == count
        assert np.array_equal(mixture.components, builder().components)

    def test_multi_int_alpha_defaults(self, runner, tmp_path):
        # The figure-preview form: no --model, no --grid; model is inferred
        # from alpha and the grid spans the mixture support.
        out = tmp_path / "classes.csv"
        run_ok(runner, [
            "approx", "--kind", "multi-int-alpha", "--n", "16",
            "--lambda", "0.3333", "--alpha", "1", "--out", str(out),
        ])
        curve, meta = read_curve_csv(str(out))
        assert meta["model"] == "two-field"
        assert curve.integral() == pytest.approx(1.0, abs=1e-6)
        assert (tmp_path / "classes.mixture.json").exists()

    def test_saddle_requires_grid(self, runner, tmp_path):
        result = runner.invoke(main, [
            "approx", "--kind", "saddle", "--n", "16", "--lambda", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2

    def test_tail_requires_critical_coupling(self, runner, tmp_path):
        result = runner.invoke(main, [
            "approx", "--kind", "tail", "--n", "16", "--lambda", "0.5",
            "--grid", "-18:-10:51", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["code"] == "InvalidArgs"

    def test_multi_int_alpha_rejects_generic_alpha(self, runner, tmp_path):
        result = runner.invoke(main, [
            "approx", "--kind", "multi-int-alpha", "--n", "10",
            "--lambda", "0.2", "--alpha", "0.9",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["code"] == "InvalidArgs"

    def test_multi_tfim_rejects_longitudinal_field(self, runner, tmp_path):
        result = runner.invoke(main, [
            "approx", "--kind", "multi-tfim", "--n", "8", "--lambda", "1",
            "--alpha", "0.5", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["code"] == "InvalidArgs"

    @pytest.mark.parametrize("kind,couplings", [
        ("multi-tfim", ["--lambda", "0.5"]),
        ("multi-strong", ["--lambda", "4", "--alpha", "1"]),
    ])
    def test_weights_do_not_overflow_on_large_rings(
        self, runner, tmp_path, kind, couplings
    ):
        out = tmp_path / "large.csv"
        run_ok(runner, [
            "approx", "--kind", kind, "--n", "1100", *couplings, "--out", str(out),
        ])
        curve, _ = read_curve_csv(str(out))
        assert curve.integral() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind,couplings", [
        ("multi-tfim", ["--lambda", "0.5"]),
        ("multi-strong", ["--lambda", "0.5", "--alpha", "1"]),
    ])
    def test_binomial_mixtures_beyond_the_memory_cap_fail_fast(
        self, runner, tmp_path, kind, couplings
    ):
        # numpy refused the 2^62 + 1 occupations with a traceback before.
        args = ["approx", "--kind", kind, "--n", str(2**62), *couplings]
        assert_fails_fast_at_the_cap(runner, tmp_path, args, str(2**62))

    @pytest.mark.parametrize("lam,alpha", [
        ("nan", "0"), ("inf", "0"), ("0.5", "nan"), ("0.5", "-inf"),
    ])
    def test_non_finite_couplings_are_compute_errors(self, runner, tmp_path, lam, alpha):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "approx", "--kind", "gaussian", "--n", "8", "--lambda", lam,
            "--alpha", alpha, "--grid", "-3:3:7", "--out", str(out),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["code"] == "InvalidArgs"
        assert not out.exists()

    @pytest.mark.parametrize("kind,lam,code", [
        ("saddle", "1e300", "InvalidArgs"),
        ("multi-strong", "1e100", "InvalidArgs"),
    ])
    def test_extreme_couplings_are_compute_errors(
        self, runner, tmp_path, kind, lam, code
    ):
        result = runner.invoke(main, [
            "approx", "--kind", kind, "--n", "8", "--lambda", lam,
            "--grid", "-0.5:0.5:5", "--per-spin", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["code"] == code

    @pytest.mark.parametrize("args,what", [
        (["moments", "--model", "two-field", "--n", "6", "--lambda", "1e200",
          "--alpha", "1"], "the closed-form moment m4"),
        (["approx", "--kind", "multi-strong", "--n", "6", "--lambda", "1e300",
          "--alpha", "1e300"], "a strong-field cluster moment"),
        (["approx", "--kind", "multi-generic", "--n", "6", "--lambda", "1e300"],
         "the cell width coupling"),
        (["approx", "--kind", "multi-int-alpha", "--n", "6", "--lambda", "1e100",
          "--alpha", "1"], "the class shift prefactor"),
        (["approx", "--kind", "multi-int-alpha", "--n", "6", "--lambda", "1e300",
          "--alpha", "1"], "a class center E_R"),
        (["approx", "--kind", "multi-tfim", "--n", "6", "--lambda", "1e300"],
         "a transverse-field cluster moment"),
        (["spectrum", "--model", "two-field", "--n", "4", "--lambda", "1e308",
          "--alpha", "1e308"], "the Hamiltonian"),
        (["spectrum", "--model", "tfim", "--n", "8", "--lambda", "1e300",
          "--method", "fermion"], "the free-fermion dispersion"),
    ])
    def test_huge_couplings_are_refused_by_name(self, runner, tmp_path, args, what):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 1
        (line,) = result.stderr.splitlines()
        lam = float(args[args.index("--lambda") + 1])
        alpha = float(args[args.index("--alpha") + 1]) if "--alpha" in args else 0.0
        assert json.loads(line) == {
            "code": "InvalidArgs",
            "message": f"{what} at lambda = {lam!r}, alpha = {alpha!r} "
            "is beyond float range",
        }
        assert not out.exists()

    def test_multi_int_alpha_needs_three_sites(self, runner, tmp_path):
        # On the two-site ring the transition counts give sigma_R = 0 for a
        # class whose two exact levels lie 0.013 apart.
        result = runner.invoke(main, [
            "approx", "--kind", "multi-int-alpha", "--n", "2", "--lambda", "0.1",
            "--alpha", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 1
        error = json.loads(result.stderr)
        assert error["code"] == "InvalidArgs"
        assert "N=2" in error["message"]

    def test_saddle_at_huge_lambda_is_the_gaussian(self, runner, tmp_path):
        # beta_sp ~ e / (1 + lambda^2) is far below any fixed absolute
        # tolerance in beta; the density is the Gaussian closed form.
        out = tmp_path / "x.csv"
        run_ok(runner, [
            "approx", "--kind", "saddle", "--n", "8", "--lambda", "1e20",
            "--grid", "-0.5:0.5:5", "--per-spin", "--out", str(out),
        ])
        curve, _ = read_curve_csv(str(out))
        expected = math.sqrt(8 / (2 * math.pi * (1 + 1e40)))
        np.testing.assert_allclose(curve.values, expected, rtol=1e-9, atol=0)

    def test_saddle_grid_beyond_the_band_edge_is_a_compute_error(
        self, runner, tmp_path
    ):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "approx", "--kind", "saddle", "--n", "16", "--lambda", "1",
            "--grid", "-1:1.3:24", "--per-spin", "--out", str(out),
        ])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["code"] == "OutOfSupport"
        assert error["message"].endswith("got e=1.3")
        assert not out.exists()

    def test_grid_point_count_is_capped(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "approx", "--kind", "gaussian", "--n", "8", "--lambda", "1",
            "--grid", "0:1:10000000000", "--out", str(out),
        ])
        assert result.exit_code == 2
        assert "200001" in result.stderr
        assert not out.exists()

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        out = tmp_path / "again.csv"
        args = [
            "approx", "--kind", "multi-strong", "--n", "10", "--lambda", "3",
            "--alpha", "0.5", "--grid", "-40:40:801", "--out", str(out),
        ]
        run_ok(runner, args)
        first = out.read_bytes()
        run_ok(runner, args)
        assert out.read_bytes() == first


class TestCompare:
    def test_curve_comparison_report(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        report_path = tmp_path / "report.json"
        for path, lam in ((a, "1.5"), (b, "1.6")):
            run_ok(runner, [
                "approx", "--kind", "multi-tfim", "--n", "10",
                "--lambda", lam, "--grid", "-40:40:2001", "--out", str(path),
            ])
        run_ok(runner, ["compare", "--a", str(a), "--b", str(b),
                        "--out", str(report_path)])
        report = json.loads(report_path.read_text())
        assert set(report) >= {"l1", "sup", "peak_positions", "grids_aligned"}
        assert report["grids_aligned"] is True
        assert report["l1"] > 0.0

    def test_mixed_inputs_rejected(self, runner, tmp_path):
        spec = tmp_path / "spec.csv"
        curve = tmp_path / "curve.csv"
        run_ok(runner, [
            "spectrum", "--model", "tfim", "--n", "6", "--lambda", "1",
            "--method", "fermion", "--out", str(spec),
        ])
        run_ok(runner, [
            "approx", "--kind", "multi-tfim", "--n", "6", "--lambda", "1",
            "--grid", "-20:20:401", "--out", str(curve),
        ])
        result = runner.invoke(main, [
            "compare", "--a", str(spec), "--b", str(curve),
            "--out", str(tmp_path / "r.json"),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["code"] == "InvalidArgs"

    @pytest.mark.parametrize("pair, named", [
        (("census", "spectrum"), "census"),
        (("spectrum", "census"), "census"),
        (("moments", "moments"), "moments"),
    ], ids=["census-spectrum", "spectrum-census", "moments-moments"])
    def test_other_tables_are_refused_as_neither_kind(
        self, runner, tmp_path, pair, named
    ):
        paths = {name: tmp_path / f"{name}.csv" for name in set(pair)}
        commands = {
            "census": ["census", "--n", "6"],
            "spectrum": ["spectrum", "--model", "tfim", "--n", "6", "--lambda", "1"],
            "moments": ["moments", "--model", "tfim", "--n", "4", "--lambda", "1"],
        }
        for name, path in paths.items():
            run_ok(runner, [*commands[name], "--out", str(path)])
        header = next(
            line for line in paths[named].read_text().splitlines()
            if not line.startswith("#")
        )
        out = tmp_path / "r.json"
        result = runner.invoke(main, [
            "compare", "--a", str(paths[pair[0]]), "--b", str(paths[pair[1]]),
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "code": "InvalidArgs",
            "message": f"{paths[named]} is not a spectrum or curve CSV "
            f"(header {header!r})",
        }
        assert not out.exists()


class TestFileErrors:
    """Unreadable inputs and unwritable outputs give one JSON line and exit 1."""

    @staticmethod
    def assert_file_error(result, path):
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["code"] == "InvalidArgs"
        assert str(path) in payload["message"]

    @pytest.mark.parametrize("args", [
        ["spectrum", "--model", "tfim", "--n", "4", "--lambda", "0.5"],
        ["approx", "--kind", "gaussian", "--n", "8", "--lambda", "1",
         "--grid", "-3:3:7"],
    ])
    def test_unwritable_out(self, runner, tmp_path, args):
        out = tmp_path / "missing" / "x.csv"
        self.assert_file_error(runner.invoke(main, [*args, "--out", str(out)]), out)

    def test_unwritable_mixture_sidecar(self, runner, tmp_path):
        sidecar = tmp_path / "m.mixture.json"
        sidecar.mkdir()
        result = runner.invoke(main, [
            "approx", "--kind", "multi-tfim", "--n", "8", "--lambda", "1",
            "--out", str(tmp_path / "m.csv"),
        ])
        self.assert_file_error(result, sidecar)

    def test_unwritable_compare_report(self, runner, tmp_path):
        curve = tmp_path / "c.csv"
        run_ok(runner, [
            "approx", "--kind", "multi-tfim", "--n", "6", "--lambda", "1",
            "--grid", "-20:20:401", "--out", str(curve),
        ])
        out = tmp_path / "missing" / "r.json"
        result = runner.invoke(main, [
            "compare", "--a", str(curve), "--b", str(curve), "--out", str(out),
        ])
        self.assert_file_error(result, out)

    def test_non_numeric_curve_row(self, runner, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("abscissa,density\n-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
        bad.write_text("abscissa,density\n-1.0,0.0\n0.0,peak\n1.0,0.0\n")
        result = runner.invoke(main, [
            "compare", "--a", str(good), "--b", str(bad),
            "--out", str(tmp_path / "r.json"),
        ])
        self.assert_file_error(result, bad)

    @pytest.mark.parametrize("edit", [
        ("# model = tfim", "# model = foo"),
        ("# alpha = 0.0", "# alpha = 0.7"),
        ("# method = dense", "# method = foo"),
    ], ids=["unknown-model", "tfim-with-alpha", "unknown-method"])
    @pytest.mark.parametrize("command", ["density", "compare"])
    def test_invalid_spectrum_metadata(self, runner, tmp_path, edit, command):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        run_ok(runner, [
            "spectrum", "--model", "tfim", "--n", "4", "--lambda", "0.5",
            "--out", str(good),
        ])
        text = good.read_text()
        assert edit[0] in text
        bad.write_text(text.replace(*edit))
        out = tmp_path / "out"
        args = (
            ["density", "--in", str(bad), "--bins", "8"]
            if command == "density"
            else ["compare", "--a", str(good), "--b", str(bad)]
        )
        self.assert_file_error(runner.invoke(main, [*args, "--out", str(out)]), bad)
        assert not out.exists()


class TestCensus:
    def test_block_table_column_sums(self, runner, tmp_path):
        out = tmp_path / "census.csv"
        run_ok(runner, ["census", "--n", "6", "--out", str(out)])
        _, rows = read_rows(out, "n,k,f")
        sums = {}
        for n_text, _, f_text in rows:
            sums[int(n_text)] = sums.get(int(n_text), 0) + int(f_text)
        assert sums == {n: math.comb(6, n) for n in range(7)}

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_ring_below_two_sites_is_refused(self, runner, tmp_path, n):
        # Every command that takes a ring size states the one rule.
        for command in [
            ["census"],
            ["census", "--alpha", "1"],
            ["spectrum", "--model", "tfim", "--lambda", "1"],
            ["moments", "--model", "tfim", "--lambda", "1"],
            ["approx", "--kind", "multi-tfim", "--lambda", "0.5"],
            ["approx", "--kind", "multi-strong", "--lambda", "3", "--alpha", "1"],
            ["approx", "--kind", "multi-int-alpha", "--lambda", "0.1", "--alpha", "1"],
            ["approx", "--kind", "multi-generic", "--lambda", "0.1", "--alpha", "0.5"],
        ]:
            out = tmp_path / "x.csv"
            result = runner.invoke(main, [*command, "--n", n, "--out", str(out)])
            assert result.exit_code == 1, command
            assert json.loads(result.stderr) == {
                "code": "InvalidArgs",
                "message": f"ring size must be >= 2, got N={n}",
            }, command
            assert not out.exists()

    def test_degeneracy_table(self, runner, tmp_path):
        out = tmp_path / "classes.csv"
        run_ok(runner, ["census", "--n", "6", "--alpha", "9/10",
                        "--out", str(out)])
        meta, rows = read_rows(out, "R,count,energy")
        assert meta["alpha"] == "9/10"
        census = degeneracy_census(6, "9/10")
        assert len(rows) == len(census.classes)
        total = 0
        for R_text, count_text, energy_text in rows:
            R, count = int(R_text), int(count_text)
            assert census.classes[R] == count
            assert energy_text == str(census.energy_of[R])
            total += count
        assert total == 64


@pytest.mark.parametrize("commands", [
    [["spectrum", "--model", "tfim", "--n", "5", "--lambda", "1", "--method", "fermion"],
     ["approx", "--kind", "multi-tfim", "--n", "5", "--lambda", "0.5"]],
    [["approx", "--kind", kind, "--n", "8", "--lambda", "0", "--alpha", "0"]
     for kind in ("multi-strong", "multi-generic")],
    [[command, "--model", "tfim", "--n", "8", "--lambda", "0.5", "--alpha", "0.5", *rest]
     for command, rest in [("spectrum", []), ("moments", []),
                           ("approx", ["--kind", "multi-tfim"])]],
], ids=["odd-ring", "zero-field", "tfim-with-alpha"])
def test_one_rule_prints_one_error_line_from_every_command(runner, tmp_path, commands):
    lines = set()
    for command in commands:
        result = runner.invoke(main, [*command, "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 1, command
        lines.add(result.stderr)
    assert len(lines) == 1, lines
    assert list(tmp_path.iterdir()) == []


def assert_fails_fast_at_the_cap(runner, tmp_path, args, n):
    start = time.perf_counter()
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "x.csv")])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert result.stdout == ""
    (line,) = result.stderr.splitlines()
    error = json.loads(line)
    assert error["code"] == "CapExceeded"
    assert f"N = {n}" in error["message"]
    assert list(tmp_path.iterdir()) == []
    return error["message"]


@pytest.mark.parametrize("n", ["100000", str(2**62)])
@pytest.mark.parametrize("command", [
    ["census"],
    ["census", "--alpha", "1/2"],
    ["approx", "--kind", "multi-generic", "--lambda", "0.1", "--alpha", "0.5"],
    ["approx", "--kind", "multi-int-alpha", "--lambda", "0.1", "--alpha", "1"],
], ids=["census", "census-alpha", "multi-generic", "multi-int-alpha"])
def test_cell_walks_beyond_the_memory_cap_fail_fast(runner, tmp_path, command, n):
    # cells(N) refuses the ring before it builds a cell; census --n 100000
    # ran out of memory before, and multi-int-alpha had a float-range cap.
    assert_fails_fast_at_the_cap(runner, tmp_path, [*command, "--n", n], n)


def test_multi_generic_counts_its_components_against_the_cap(runner, tmp_path):
    # cells(4906) passes the walk's own cap (6,017,211 cells at 586 B each),
    # but the cells plus one component per cell do not.
    args = ["approx", "--kind", "multi-generic", "--lambda", "0.1", "--alpha", "0.5"]
    message = assert_fails_fast_at_the_cap(runner, tmp_path, [*args, "--n", "4906"], "4906")
    assert message.startswith("a mixture of 6017211 components at N = 4906 ")


class TestMoments:
    def test_numeric_vs_analytic_table(self, runner, tmp_path):
        out = tmp_path / "moments.csv"
        run_ok(runner, [
            "moments", "--model", "two-field", "--n", "6", "--lambda", "0.5",
            "--alpha", "1", "--max-order", "4", "--out", str(out),
        ])
        _, rows = read_rows(out, "order,numeric,analytic")
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
        for _, numeric_text, analytic_text in rows:
            numeric, analytic = float(numeric_text), float(analytic_text)
            assert numeric == pytest.approx(analytic, rel=1e-10, abs=1e-10)

    def test_overflowing_moments_are_one_json_line(self, runner, tmp_path):
        out = tmp_path / "moments.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [
                "moments", "--model", "two-field", "--n", "4", "--lambda", "1e200",
                "--alpha", "1", "--out", str(out),
            ])
        assert result.exit_code == 1, result.exception
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"code", "message"}
        assert not out.exists()


class TestVisibility:
    def test_prints_value(self, runner):
        result = run_ok(runner, [
            "visibility", "--regime", "tfim-large", "--lambda", "10",
        ])
        assert result.output.split()[0] == "200.0"

    def test_order_of_magnitude_marker(self, runner):
        result = run_ok(runner, [
            "visibility", "--regime", "small-lambda-integer-alpha",
            "--lambda", "0.3", "--alpha", "1",
        ])
        assert "order of magnitude" in result.output
        value = float(result.output.split()[0])
        assert value == pytest.approx(1 / 0.3**4, rel=1e-12)

    def test_unknown_regime_is_compute_error(self, runner):
        result = runner.invoke(main, [
            "visibility", "--regime", "weak", "--lambda", "1",
        ])
        assert result.exit_code == 1
        assert json.loads(result.stderr)["code"] == "InvalidRegime"

    @pytest.mark.parametrize("args", [
        ["--regime", "tfim-small", "--lambda", "1e-200"],
        ["--regime", "small-lambda-integer-alpha", "--lambda", "1e-100"],
        ["--regime", "strong-fields", "--lambda", "1e-200", "--alpha", "1e200"],
        ["--regime", "tfim-large", "--lambda", "1e200"],
    ])
    def test_n_max_beyond_float_range_is_invalid(self, runner, args):
        result = runner.invoke(main, ["visibility", *args])
        assert result.exit_code == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["code"] == "InvalidArgs"
        assert "beyond float range" in error["message"]
        assert f"lambda = {float(args[3])!r}" in error["message"]

    @pytest.mark.parametrize("args", [
        ["--regime", "strong-fields", "--lambda", "nan", "--alpha", "1"],
        ["--regime", "tfim-large", "--lambda", "inf"],
    ])
    def test_non_finite_couplings_are_compute_errors(self, runner, args):
        result = runner.invoke(main, ["visibility", *args])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["code"] == "InvalidArgs"
        assert result.stdout == ""
