"""Checks on the CLI's outputs, and the context recorded with each result.

Each check tests what its command promises, with closed forms computed here
rather than by the package, and raises ``CheckFailed`` when the output does
not hold it.  ``run.py`` starts this file as a separate checker process
and calls ``run_check`` and ``context`` in it, one JSON line per call on
standard input and one per reply on standard output (``serve``): numpy
and the parsed outputs would otherwise swell the benchmark process, and a
child's peak RSS as ``wait4`` reports it starts from the peak of the
process that spawned it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output does not hold what its command promises."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def run_check(name: str, args: tuple, work: str) -> str | None:
    """Run check ``name`` on the outputs in ``work``; return why it failed."""
    try:
        CHECKS[name](Path(work), *args)
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a malformed output can break any parser step
        return f"unreadable output: {exc!r}"
    return None


# ----------------------------------------------------------------------------
# output readers
# ----------------------------------------------------------------------------


def read_table(path: Path) -> tuple[dict[str, str], str, list[list[str]]]:
    """``# key = value`` lines, the header line and the comma-split rows."""
    meta: dict[str, str] = {}
    header = None
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line
        elif line:
            rows.append(line.split(","))
    _require(header is not None, f"{path.name}: no table header")
    return meta, header, rows


def read_spectrum(path: Path) -> np.ndarray:
    _, header, rows = read_table(path)
    _require(header == "index,energy", f"{path.name}: header {header!r}")
    _require(
        all(int(row[0]) == i for i, row in enumerate(rows)),
        f"{path.name}: index column is not 0, 1, 2, ...",
    )
    return np.array([float(row[1]) for row in rows])


def read_curve(path: Path) -> tuple[np.ndarray, np.ndarray]:
    _, header, rows = read_table(path)
    _require(header == "abscissa,density", f"{path.name}: header {header!r}")
    data = np.array([[float(x) for x in row] for row in rows])
    return data[:, 0], data[:, 1]


def _close(value: float, expected: float, rel: float, scale: float | None = None) -> bool:
    return abs(value - expected) <= rel * (abs(expected) if scale is None else scale)


# ----------------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------------


def closed_moments(n: int, lam: float, alpha: float) -> dict[int, float]:
    """Trace moments m1..m4 of the ring, valid for N >= 5."""
    w = 1.0 + lam**2 + alpha**2
    m4 = 3 * n**2 * w**2 - n * (
        2 + 8 * lam**2 + 2 * lam**4 + 4 * lam**2 * alpha**2 + 2 * alpha**4 - 24 * alpha**2
    )
    return {1: 0.0, 2: n * w, 3: -6.0 * n * alpha**2, 4: m4}


def _moment_scale(moments: dict[int, float], k: int) -> float:
    """Size of m_k against which a deviation is judged (m1 and m3 may vanish)."""
    return max(abs(moments[k]), moments[2] ** (k / 2))


def gaussian_tfim_per_spin(e: np.ndarray, n: int, lam: float) -> np.ndarray:
    w = 1.0 + lam * lam
    return np.sqrt(n / (2.0 * math.pi * w)) * np.exp(-n * e * e / (2.0 * w))


def tail_critical(energy: np.ndarray, n: int) -> np.ndarray:
    """Near-ground-state density at lambda = 1, with E_gs = -4N/pi."""
    gap = energy + 4.0 * n / math.pi
    return (
        2.0**-n
        * gap**-0.75
        / math.sqrt(8.0 * math.sqrt(6.0 * math.pi) * n)
        * np.exp(np.sqrt(math.pi * n * gap / 6.0))
    )


# ----------------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------------

# Trace moments of a complete spectrum agree with the closed forms to this
# relative accuracy; both exact methods reach ~1e-13.
MOMENT_REL = 1e-9
# Dense and free-fermion spectra of one ring agree to this (absolute).
SPECTRA_SUP = 1e-9
# A unit-normalised curve integrates to 1 within this.  Histograms are exact;
# KDE and mixtures sampled on grids that resolve every peak are exact to far
# better than this.
UNIT_INTEGRAL = 1e-6
# A KDE may differ from the exact Gaussian kernel sum by this fraction of its
# peak density, which leaves room for binned or FFT estimators.
KDE_REL_TO_PEAK = 1e-3
# Closed-form densities evaluated by the CLI agree with the ones here to this
# relative accuracy (quadrature for E_gs and the saddle converges to 1e-13).
CLOSED_FORM_REL = 1e-8


def check_usage(work: Path) -> None:
    text = (work / "op.log").read_text(encoding="utf-8")
    _require("Usage: ising-density" in text, "--help printed no usage line")


def check_spectrum(work: Path, name: str, n: int, lam: float, alpha: float) -> None:
    energies = read_spectrum(work / name)
    _require(len(energies) == 2**n, f"{name}: {len(energies)} rows, expected 2^{n}")
    _require(bool(np.all(np.diff(energies) >= 0.0)), f"{name}: energies not ascending")
    expected = closed_moments(n, lam, alpha)
    for k in (1, 2, 3, 4):
        got = float(np.mean(energies**k))
        _require(
            _close(got, expected[k], MOMENT_REL, _moment_scale(expected, k)),
            f"{name}: m{k} = {got!r}, closed form {expected[k]!r}",
        )


def check_spectrum_compare(work: Path, name: str) -> None:
    report = json.loads((work / name).read_text(encoding="utf-8"))
    _require(report["sup"] <= SPECTRA_SUP, f"{name}: sup = {report['sup']!r}")
    _require(0.0 <= report["l1"] <= report["sup"], f"{name}: l1 = {report['l1']!r}")
    _require(report["grids_aligned"] is True, f"{name}: grids not aligned")


def check_moments_table(work: Path, name: str, n: int, lam: float, alpha: float) -> None:
    _, header, rows = read_table(work / name)
    _require(header == "order,numeric,analytic", f"{name}: header {header!r}")
    _require([int(r[0]) for r in rows] == [1, 2, 3, 4], f"{name}: orders {rows!r}")
    expected = closed_moments(n, lam, alpha)
    for order, numeric, analytic in rows:
        k = int(order)
        scale = _moment_scale(expected, k)
        _require(
            _close(float(analytic), expected[k], 1e-12, scale),
            f"{name}: analytic m{k} = {analytic}, closed form {expected[k]!r}",
        )
        _require(
            _close(float(numeric), expected[k], MOMENT_REL, scale),
            f"{name}: numeric m{k} = {numeric}, closed form {expected[k]!r}",
        )


def _check_unit_curve(name: str, grid: np.ndarray, values: np.ndarray) -> None:
    _require(bool(np.all(np.diff(grid) > 0.0)), f"{name}: abscissae not ascending")
    _require(bool(np.all(values >= 0.0)), f"{name}: negative density")
    integral = float(np.trapezoid(values, grid))
    _require(abs(integral - 1.0) <= UNIT_INTEGRAL, f"{name}: integral {integral!r}")


def check_histogram(work: Path, name: str, bins: int) -> None:
    grid, values = read_curve(work / name)
    _require(len(grid) == bins + 2, f"{name}: {len(grid)} rows, expected {bins} + 2")
    _check_unit_curve(name, grid, values)


def check_kde(work: Path, name: str, spectrum: str, sigma: float) -> None:
    grid, values = read_curve(work / name)
    _check_unit_curve(name, grid, values)
    energies = read_spectrum(work / spectrum)
    peak = float(values.max())
    for i in np.linspace(0, len(grid) - 1, 9).astype(int):
        z = (grid[i] - energies) / sigma
        exact = float(np.exp(-0.5 * z * z).sum()) / (
            len(energies) * sigma * math.sqrt(2.0 * math.pi)
        )
        _require(
            abs(values[i] - exact) <= KDE_REL_TO_PEAK * peak,
            f"{name}: density {values[i]!r} at {grid[i]!r}, exact sum {exact!r}",
        )


def check_curve_compare(work: Path, name: str, max_l1: float) -> None:
    report = json.loads((work / name).read_text(encoding="utf-8"))
    _require(0.0 <= report["l1"] <= max_l1, f"{name}: l1 = {report['l1']!r}")
    _require(0.0 <= report["sup"] < math.inf, f"{name}: sup = {report['sup']!r}")
    _require(
        all(p["offset"] >= 0.0 for p in report["peak_positions"]),
        f"{name}: negative peak offset",
    )


def check_mixture(
    work: Path, name: str, grid_spec: tuple[float, float, int], components: int | None
) -> None:
    grid, values = read_curve(work / name)
    lo, hi, points = grid_spec
    _require(len(grid) == points, f"{name}: {len(grid)} rows, expected {points}")
    _require(
        _close(grid[0], lo, 1e-12, 1.0) and _close(grid[-1], hi, 1e-12, abs(hi)),
        f"{name}: grid spans [{grid[0]!r}, {grid[-1]!r}], expected [{lo}, {hi}]",
    )
    _check_unit_curve(name, grid, values)
    sidecar = name[: -len(".csv")] + ".mixture.json"
    comps = json.loads((work / sidecar).read_text(encoding="utf-8"))["components"]
    if components is not None:
        _require(len(comps) == components, f"{sidecar}: {len(comps)} components")
    _require(
        all(c["w"] >= 0.0 and c["var"] >= 0.0 for c in comps),
        f"{sidecar}: negative weight or variance",
    )
    total = math.fsum(c["w"] for c in comps)
    _require(abs(total - 1.0) <= 1e-12, f"{sidecar}: weights sum to {total!r}")


def check_saddle(work: Path, name: str, n: int, lam: float, points: int) -> None:
    grid, values = read_curve(work / name)
    _require(len(grid) == points and points % 2 == 1, f"{name}: {len(grid)} rows")
    middle = points // 2
    _require(abs(grid[middle]) <= 1e-12, f"{name}: middle abscissa {grid[middle]!r}")
    peak = float(gaussian_tfim_per_spin(np.array(0.0), n, lam))
    _require(
        _close(values[middle], peak, CLOSED_FORM_REL),
        f"{name}: saddle density {values[middle]!r} at e = 0, Gaussian peak {peak!r}",
    )
    _require(
        bool(np.all(values > 0.0)) and int(np.argmax(values)) == middle,
        f"{name}: saddle density not positive with its maximum at e = 0",
    )


def _check_closed_form(
    work: Path, name: str, form: Callable[[np.ndarray], np.ndarray]
) -> None:
    grid, values = read_curve(work / name)
    index = np.linspace(0, len(grid) - 1, 7).astype(int)
    for i, want in zip(index, form(grid[index])):
        _require(
            _close(values[i], float(want), CLOSED_FORM_REL),
            f"{name}: density {values[i]!r} at {grid[i]!r}, closed form {want!r}",
        )


def check_gaussian(work: Path, name: str, n: int, lam: float) -> None:
    _check_closed_form(work, name, lambda e: gaussian_tfim_per_spin(e, n, lam))


def check_tail(work: Path, name: str, n: int) -> None:
    _check_closed_form(work, name, lambda energy: tail_critical(energy, n))


def check_census(work: Path, name: str, n: int, alpha_text: str) -> None:
    alpha = Fraction(alpha_text)
    _, header, rows = read_table(work / name)
    _require(header == "R,count,energy", f"{name}: header {header!r}")
    labels = [int(r[0]) for r in rows]
    _require(labels == sorted(set(labels)), f"{name}: labels not strictly ascending")
    total = sum(int(r[1]) for r in rows)
    _require(total == 2**n, f"{name}: counts sum to {total}, expected 2^{n}")
    for label, _, energy in rows:
        want = n * (alpha - 1) + Fraction(2 * int(label), alpha.denominator)
        _require(Fraction(energy) == want, f"{name}: E0({label}) = {energy}, not {want}")


CHECKS = {
    fn.__name__: fn
    for fn in (
        check_usage, check_spectrum, check_spectrum_compare, check_moments_table,
        check_histogram, check_kde, check_curve_compare, check_mixture, check_saddle,
        check_gaussian, check_tail, check_census,
    )
}


# ----------------------------------------------------------------------------
# context
# ----------------------------------------------------------------------------


def context(root: str, blas_threads: str) -> dict:
    """What the results depend on besides the code under test."""
    sys.path.insert(0, os.path.join(root, "src"))
    from ising_density.fermion import DEFAULT_MAX_SITES
    from ising_density.model import DEFAULT_MAX_BYTES

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(Path(root) / ".git"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(blas_threads),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "dense_max_bytes": DEFAULT_MAX_BYTES,
        "dense_max_n": max(n for n in range(2, 64) if 8 * 4**n <= DEFAULT_MAX_BYTES),
        "fermion_max_sites": DEFAULT_MAX_SITES,
    }


def _commit(git: Path) -> str:
    """HEAD of a git directory, read without running git."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def serve() -> None:
    """Answer calls read from standard input until it closes."""
    replies = sys.stdout
    sys.stdout = sys.stderr  # keep stray prints out of the replies
    functions = {"run_check": run_check, "context": context}
    for line in sys.stdin:
        call = json.loads(line)
        try:
            reply = {"value": functions[call["function"]](*call["args"])}
        except Exception as exc:
            reply = {"raised": repr(exc)}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve()
