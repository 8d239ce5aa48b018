"""Shipping acceptance suite: one test per criterion, one verdict line each.

Every criterion is exercised at its stated tolerance and prints a single
``criterion NN: PASS/FAIL`` line (visible with ``pytest -s`` or in the
failure output).  Tolerances are never loosened to make a test pass:
criterion 7's literal nearest-class clustering protocol is known not to
hold for this implementation at the stated tolerances — the test fails
honestly and its assertion message carries the per-class detail.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import ising_density
from ising_density.analytic import (
    gaussian_density_tfim,
    gaussian_density_two_fields,
    saddle_density,
)
from ising_density.blocks import (
    block_census,
    brute_force_census,
    count_N1,
    count_N2,
    count_Na,
    count_Nb,
    count_Nc,
    degeneracy_census,
)
from ising_density.curves import compare, histogram, read_curve_csv
from ising_density.fermion import enumerate_spectrum
from ising_density.model import (
    IsingParams,
    analytic_moments,
    exact_spectrum,
    numeric_moments,
)
from ising_density.peaks import (
    small_lambda_deltaE,
    small_lambda_deltaE_R,
    small_lambda_ER,
    small_lambda_sigmaR,
    strong_field_components,
    tfim_mixture_components,
    xx_projection_check,
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@lru_cache(maxsize=None)
def _dense(N: int, lam: float, alpha: float):
    return exact_spectrum(IsingParams.two_field(N, lam, alpha))


# ----------------------------------------------------------------------------
# 1. free-fermion enumeration vs dense diagonalization
# ----------------------------------------------------------------------------


def test_criterion_01_fermion_matches_dense() -> None:
    start = time.perf_counter()
    worst = 0.0
    for N in (4, 6, 8, 10):
        for lam in (0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0):
            dense = np.sort(exact_spectrum(IsingParams.tfim(N, lam)).energies)
            fermion = np.sort(enumerate_spectrum(N, lam).energies)
            worst = max(worst, float(np.max(np.abs(dense - fermion))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 120.0
    _verdict(1, ok, f"max sorted-spectrum gap {worst:.2e} (tol 1e-08), {elapsed:.1f} s")


# ----------------------------------------------------------------------------
# 2. trace moments vs closed forms
# ----------------------------------------------------------------------------


def test_criterion_02_moment_identities() -> None:
    start = time.perf_counter()
    worst, worst_at = 0.0, ""
    for N in range(6, 11):
        for lam in (0.0, 0.5, 1.0, 2.0):
            for alpha in (0.0, 0.5, 1.0, 2.0):
                params = IsingParams.two_field(N, lam, alpha)
                numeric = numeric_moments(exact_spectrum(params), max_order=4)
                analytic = analytic_moments(params)
                for order in (1, 2, 3, 4):
                    a = getattr(analytic, f"m{order}")
                    if a is None:  # closed form not size-valid at this order
                        continue
                    x = getattr(numeric, f"m{order}")
                    err = abs(x - a) / max(1.0, abs(a))
                    if err > worst:
                        worst, worst_at = err, f"N={N} lam={lam} alpha={alpha} m{order}"
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 300.0
    _verdict(2, ok, f"max relative error {worst:.2e} at {worst_at or 'n/a'} "
                    f"(tol 1e-10), {elapsed:.1f} s")


# ----------------------------------------------------------------------------
# 3. saddle-point vs Gaussian density at criticality (difference CSV emitted)
# ----------------------------------------------------------------------------


def test_criterion_03_saddle_vs_gaussian(tmp_path) -> None:
    params = IsingParams.tfim(16, 1.0)
    grid = np.linspace(-0.75, 0.75, 801)
    saddle = np.array([saddle_density(float(e), params) for e in grid])
    gauss = gaussian_density_tfim(grid, params)
    scale = saddle_density(0.0, params)
    sup = float(np.max(np.abs(saddle - gauss))) / scale

    lines = ["# model = tfim", "# n = 16", "# lambda = 1.0", "e,difference"]
    lines.extend(f"{float(e)!r},{float(d)!r}" for e, d in zip(grid, saddle - gauss))
    difference_csv = tmp_path / "criterion3_difference.csv"
    difference_csv.write_text("\n".join(lines) + "\n")

    ok = sup <= 0.05
    _verdict(3, ok, f"sup|saddle - gaussian|/rho(0) = {sup:.4f} (tol 0.05), "
                    f"difference CSV in {difference_csv}")


# ----------------------------------------------------------------------------
# 4. transverse-field mixture vs exact histogram at N = 14
# ----------------------------------------------------------------------------


def test_criterion_04_tfim_mixture_vs_histogram() -> None:
    start = time.perf_counter()
    worst, worst_lam = 0.0, 0.0
    for lam in (0.2, 0.3, 0.4, 0.5, 1.5, 10.0, 20.0):
        spectrum = enumerate_spectrum(14, lam)
        hist = histogram(spectrum, bins=200)
        mixture = tfim_mixture_components(14, lam)
        l1 = 0.5 * compare(mixture.density_curve(hist.grid), hist).l1
        if l1 > worst:
            worst, worst_lam = l1, lam
    elapsed = time.perf_counter() - start
    ok = worst <= 0.12 and elapsed < 60.0
    _verdict(4, ok, f"max L1 {worst:.4f} at lam={worst_lam} (tol 0.12), "
                    f"{elapsed:.1f} s")


# ----------------------------------------------------------------------------
# 5. cubic correction improves on the pure Gaussian (two-field, N = 12)
# ----------------------------------------------------------------------------


def test_criterion_05_cubic_correction_improvement() -> None:
    start = time.perf_counter()
    params = IsingParams.two_field(12, 1.0, 1.0)
    hist = histogram(_dense(12, 1.0, 1.0)).with_abscissa("eps", params)
    mask = np.abs(hist.grid) <= 2.5
    eps = hist.grid[mask]
    scale = math.sqrt(params.N * (1.0 + params.lam**2 + params.alpha**2))
    cubic = gaussian_density_two_fields(eps * scale, params)
    gauss = np.exp(-(eps**2) / 2.0) / math.sqrt(2.0 * math.pi)
    l1_cubic = float(np.trapezoid(np.abs(cubic - hist.values[mask]), eps))
    l1_gauss = float(np.trapezoid(np.abs(gauss - hist.values[mask]), eps))
    improvement = 1.0 - l1_cubic / l1_gauss
    elapsed = time.perf_counter() - start
    ok = improvement >= 0.30 and elapsed < 600.0
    _verdict(5, ok, f"cubic L1 {l1_cubic:.4f} vs Gaussian L1 {l1_gauss:.4f}: "
                    f"{improvement:.1%} smaller (need >= 30%), {elapsed:.1f} s")


# ----------------------------------------------------------------------------
# 6. generic-alpha mixture peaks line up with the histogram (N = 12)
# ----------------------------------------------------------------------------


def test_criterion_06_strong_field_peaks() -> None:
    # Protocol: 200-bin histogram; every component mean must lie within 0.5 of
    # the nearest histogram local maximum (plateau-aware, no prominence filter
    # — the most permissive reading); L1 is half the integrated absolute gap.
    from scipy.signal import find_peaks

    start = time.perf_counter()
    violations: list[str] = []
    worst_l1 = 0.0
    for lam in (2.0, 3.0, 4.0, 5.0):
        hist = histogram(_dense(12, lam, 0.5), bins=200)
        mixture = strong_field_components(12, lam, 0.5)
        worst_l1 = max(worst_l1, 0.5 * compare(mixture.density_curve(hist.grid), hist).l1)
        maxima = hist.grid[find_peaks(hist.values)[0]]
        for component in mixture.components:
            gap = float(np.min(np.abs(maxima - component.mu)))
            if gap > 0.5:
                violations.append(
                    f"lam={lam} mean {component.mu:+.2f} "
                    f"({component.w * 4096:.0f} levels): nearest maximum {gap:.2f} away"
                )
    elapsed = time.perf_counter() - start
    ok = not violations and worst_l1 <= 0.15
    detail = f"max L1 {worst_l1:.4f} (tol 0.15), {elapsed:.1f} s"
    if violations:
        detail += (
            f"; {len(violations)} component means farther than 0.5 from any "
            "histogram maximum:\n  " + "\n  ".join(violations)
        )
    _verdict(6, ok, detail)


# ----------------------------------------------------------------------------
# 7. class clustering at unit longitudinal field (N = 12) — known failure
# ----------------------------------------------------------------------------


def test_criterion_07_class_clusters() -> None:
    start = time.perf_counter()
    failures: list[str] = []
    for lam in (0.3, 0.5):
        energies = np.sort(_dense(12, lam, 1.0).energies)
        census = degeneracy_census(12, 1)
        labels = sorted(census.classes)
        centers = np.array([2.0 * R for R in labels])
        nearest = np.argmin(np.abs(energies[:, None] - centers[None, :]), axis=1)
        mean_tol = max(5.0 * lam**4 * 12, 1e-3)
        for j, R in enumerate(labels):
            cluster = energies[nearest == j]
            expected = census.classes[R]
            if len(cluster) != expected:
                failures.append(
                    f"lam={lam} R={R:+d}: count {len(cluster)} != N_R {expected}"
                )
                continue
            target = small_lambda_ER(12, lam, R) + small_lambda_deltaE_R(12, lam, R)
            gap = abs(float(np.mean(cluster)) - target)
            if gap > mean_tol:
                failures.append(
                    f"lam={lam} R={R:+d}: mean off by {gap:.4f} (tol {mean_tol:.4f})"
                )
            if expected >= 10:
                sigma = small_lambda_sigmaR(12, lam, R)
                spread = float(np.std(cluster))
                if abs(spread - sigma) > 0.25 * sigma:
                    failures.append(
                        f"lam={lam} R={R:+d}: std {spread:.4f} vs sigma_R "
                        f"{sigma:.4f} (tol 25%)"
                    )
    elapsed = time.perf_counter() - start
    ok = not failures
    detail = (
        f"all clusters within tolerance, {elapsed:.1f} s"
        if ok
        else f"{len(failures)} violations, {elapsed:.1f} s:\n  " + "\n  ".join(failures)
    )
    _verdict(7, ok, detail)


# ----------------------------------------------------------------------------
# 8. combinatorial counts vs exhaustive scans, all N <= 14
# ----------------------------------------------------------------------------


def test_criterion_08_combinatorics_exact() -> None:
    # N = 2 is the degenerate doubled-bond ring (its two adjacent pairs are
    # the same pair, so the per-pair scan counts each flip twice); the
    # transition counts are meaningful from N = 3 up.
    start = time.perf_counter()
    mismatches: list[str] = []
    for N in range(3, 15):
        brute = brute_force_census(N)
        census = block_census(N)
        combined = {**census.table, **census.polarized}
        if brute.f_table != combined:
            mismatches.append(f"N={N}: f table")
        zero = {"a": 0, "b": 0, "c": 0}
        for (n, k) in combined:
            m = N - n
            counts = brute.transitions.get((n, k), zero)
            if (
                counts["a"] != count_Na(N, n, m, k)
                or counts["b"] != count_Nb(N, n, m, k)
                or counts["c"] != count_Nc(N, n, m, k)
            ):
                mismatches.append(f"N={N} cell ({n},{k}): transition counts")
        for (n, k) in census.table:  # k * total_L = N * N_L * C(m-1, k-1)
            for length, counter in ((1, count_N1), (2, count_N2)):
                table = brute.unit_blocks if length == 1 else brute.double_blocks
                lhs = k * table.get((n, k), 0)
                rhs = N * counter(n, k) * math.comb(N - n - 1, k - 1)
                if lhs != rhs:
                    mismatches.append(f"N={N} cell ({n},{k}): N{length} total")
        if brute.classes_alpha1 != degeneracy_census(N, 1).classes:
            mismatches.append(f"N={N}: alpha=1 census")
        by_R: Counter = Counter()
        for (n, k), count in brute.f_table.items():
            by_R[20 * k - 9 * n] += count
        if dict(by_R) != degeneracy_census(N, "9/10").classes:
            mismatches.append(f"N={N}: alpha=9/10 census")
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 120.0
    detail = (
        f"all counts exact for N <= 14, {elapsed:.1f} s"
        if not mismatches
        else f"mismatches: {mismatches}"
    )
    _verdict(8, ok, detail)


# ----------------------------------------------------------------------------
# 9. fixed-alignment projection moments
# ----------------------------------------------------------------------------


def test_criterion_09_xx_projection_moments() -> None:
    worst = 0.0
    for N in (6, 8, 10):
        for lam, alpha in ((3.0, 4.0), (1.0, 1.0)):
            for n in range(1, N):
                report = xx_projection_check(N, lam, alpha, n)
                worst = max(worst, report.mean_deviation, report.variance_deviation)
    ok = worst <= 1e-10
    _verdict(9, ok, f"max moment deviation {worst:.2e} (tol 1e-10)")


# ----------------------------------------------------------------------------
# 10. second-order shift residual scales as lambda^4
# ----------------------------------------------------------------------------


def _pt2_cell_shift(N: int, cell_n: int, cell_k: int, lam: float) -> float:
    """Brute second-order shift of one cell at alpha = 1: exact off-diagonal
    elements of the combined-field-frame Hamiltonian over the lambda = 0
    class-energy denominators 2 (R - R')."""
    alpha = 1.0
    dim = 1 << N
    root = math.sqrt(lam * lam + alpha * alpha)
    sin2 = alpha * alpha / (lam * lam + alpha * alpha)
    sincos = lam * alpha / (lam * lam + alpha * alpha)
    cos2 = lam * lam / (lam * lam + alpha * alpha)
    H = np.zeros((dim, dim))
    cells = {}
    for b in range(dim):
        s = [2 * ((b >> j) & 1) - 1 for j in range(N)]
        bonds = sum(s[j] * s[(j + 1) % N] for j in range(N))
        n_up = sum((b >> j) & 1 for j in range(N))
        H[b, b] = -root * (2 * n_up - N) - sin2 * bonds
        for j in range(N):
            H[b ^ (1 << j), b] += -sincos * (s[(j - 1) % N] + s[(j + 1) % N])
            H[b ^ (1 << j) ^ (1 << ((j + 1) % N)), b] += -cos2
        if b in (0, dim - 1):
            cells[b] = (n_up, 0)
        else:
            k = sum(
                1 for j in range(N) if (b >> j) & 1 and not (b >> ((j - 1) % N)) & 1
            )
            cells[b] = (n_up, k)
    R_of = {b: 2 * cells[b][1] - cells[b][0] for b in range(dim)}
    total = 0.0
    for b in range(dim):
        if cells[b] != (cell_n, cell_k):
            continue
        for f in range(dim):
            if R_of[f] != R_of[b]:
                total += H[b, f] ** 2 / (2.0 * (R_of[b] - R_of[f]))
    return total


def test_criterion_10_perturbation_scaling() -> None:
    lams = (0.05, 0.1, 0.2)
    errors = [
        abs(small_lambda_deltaE(6, 3, 3, 2, 1.0, lam) - _pt2_cell_shift(6, 3, 2, lam))
        for lam in lams
    ]
    slope = float(np.polyfit(np.log(lams), np.log(errors), 1)[0])
    ok = slope >= 3.5
    _verdict(10, ok, f"log-log residual slope {slope:.2f} (need >= 3.5)")


# ----------------------------------------------------------------------------
# 11. CLI preview commands: speed, normalization, peak count
# ----------------------------------------------------------------------------


def _count_local_maxima(values: np.ndarray) -> int:
    floor = 1e-9 * float(np.max(values))
    interior = (
        (values[1:-1] > values[:-2])
        & (values[1:-1] > values[2:])
        & (values[1:-1] > floor)
    )
    return int(np.count_nonzero(interior))


def test_criterion_11_cli_preview(tmp_path) -> None:
    script = shutil.which("ising-density")
    command = [script] if script else [sys.executable, "-m", "ising_density"]
    # The package may be importable only through this process's sys.path.
    package_root = str(Path(ising_density.__file__).parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    commands = (
        ("multi-int-alpha", ["--kind", "multi-int-alpha", "--n", "64",
                             "--lambda", "0.3333", "--alpha", "1"]),
        ("multi-tfim", ["--kind", "multi-tfim", "--n", "64", "--lambda", "0.25"]),
    )
    details = []
    ok = True
    for name, args in commands:
        out = tmp_path / f"{name}.csv"
        start = time.perf_counter()
        proc = subprocess.run(
            [*command, "approx", *args, "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        curve, _ = read_curve_csv(str(out))
        integral = curve.integral()
        maxima = _count_local_maxima(curve.values)
        good = elapsed < 1.0 and abs(integral - 1.0) <= 1e-6 and maxima >= 10
        ok = ok and good
        details.append(f"{name}: {elapsed:.2f} s, integral {integral:.8f}, "
                       f"{maxima} maxima")
    _verdict(11, ok, "; ".join(details))
