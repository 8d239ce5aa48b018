"""Tests for the model core: Hamiltonian build, spectra, trace moments.

Expected spectra for lambda = 0 come from an independent classical oracle:
with no transverse field the Hamiltonian is diagonal in the sigma^x product
basis, so the spectrum is {-sum_n s_n s_{n+1} - alpha sum_n s_n} over all
sign configurations s in {+-1}^N on the ring.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest

from ising_density import errors
from ising_density.errors import CapExceeded, InvalidArgs
from ising_density.fermion import enumerate_spectrum
from ising_density.model import (
    IsingParams,
    ManyBodySpectrum,
    abscissa_scale,
    analytic_moments,
    build_hamiltonian,
    exact_spectrum,
    numeric_moments,
)


def classical_energies(N: int, alpha: float = 0.0) -> np.ndarray:
    """Spectrum of -sum s_n s_{n+1} - alpha sum s_n over all sign strings."""
    energies = []
    for signs in itertools.product((1, -1), repeat=N):
        bond = sum(signs[n] * signs[(n + 1) % N] for n in range(N))
        energies.append(-bond - alpha * sum(signs))
    return np.sort(np.asarray(energies, dtype=float))


def test_params_validation() -> None:
    with pytest.raises(InvalidArgs):
        IsingParams(N=1, lam=1.0)
    with pytest.raises(InvalidArgs):
        IsingParams(N=4, lam=1.0, alpha=0.5, model="tfim")
    with pytest.raises(InvalidArgs):
        IsingParams(N=4, lam=1.0, model="bogus")
    p = IsingParams.two_field(6, 0.5, 1.0)
    assert p.model == "two-field" and p.alpha == 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_params_reject_non_finite_couplings(bad: float) -> None:
    with pytest.raises(InvalidArgs):
        IsingParams.tfim(6, bad)
    with pytest.raises(InvalidArgs):
        IsingParams.two_field(6, bad, 0.5)
    with pytest.raises(InvalidArgs):
        IsingParams.two_field(6, 0.5, bad)


def test_abscissa_scale() -> None:
    params = IsingParams.two_field(16, 1.0, 1.0)
    assert abscissa_scale(params, "E") == 1.0
    assert abscissa_scale(params, "e") == 16.0
    assert abscissa_scale(params, "eps") == pytest.approx(48.0**0.5, rel=1e-15)
    with pytest.raises(InvalidArgs):
        abscissa_scale(params, "bogus")


@pytest.mark.parametrize("lam, alpha", [(1e200, 1.0), (1.0, -1e155), (1e154, 1e154)])
def test_abscissa_scale_eps_beyond_float_range_is_refused(lam, alpha) -> None:
    params = IsingParams.two_field(8, lam, alpha)
    with pytest.raises(InvalidArgs) as info:
        abscissa_scale(params, "eps")
    assert str(info.value) == (
        f"the rescaled abscissa eps at lambda = {lam!r}, alpha = {alpha!r} "
        "is beyond float range"
    )
    assert abscissa_scale(params, "e") == 8.0


_BEYOND = "the test formula at lambda = 2.0, alpha = -0.5 is beyond float range"


@pytest.mark.parametrize("body", [
    lambda finite: 1e200**2,
    lambda finite: 1.0 / 0.0,
    lambda finite: finite(float("inf")),
    lambda finite: finite(float("nan")),
    lambda finite: finite(np.array([1.0, -np.inf])),
    lambda finite: finite(np.array([np.nan, 1.0])),
], ids=["overflow", "zero-division", "inf", "nan", "inf-in-array", "nan-in-array"])
def test_float_range_refuses_with_one_message(body) -> None:
    with pytest.raises(InvalidArgs) as info:
        with errors.float_range("the test formula", 2.0, -0.5) as finite:
            body(finite)
    assert str(info.value) == _BEYOND


def test_float_range_silences_numpy_and_passes_finite_values_through() -> None:
    value = np.array([1.0, 2.0])
    with errors.float_range("the test formula", 2.0, -0.5) as finite:
        assert np.isinf(np.array([1e300]) * 1e300).all()  # no RuntimeWarning
        assert finite(value) is value
        assert finite(3.5) == 3.5


def test_build_hamiltonian_three_site_classical() -> None:
    H = build_hamiltonian(IsingParams.tfim(3, 0.0))
    spectrum = np.linalg.eigvalsh(H)
    expected = classical_energies(3)
    assert expected.tolist() == [-3.0, -3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    np.testing.assert_allclose(spectrum, expected, atol=1e-12)


def test_build_hamiltonian_two_site_field_diagonal() -> None:
    H = build_hamiltonian(IsingParams.tfim(2, 5.0))
    assert sorted(np.diag(H).tolist()) == [-10.0, 0.0, 0.0, 10.0]


def test_build_hamiltonian_is_symmetric() -> None:
    H = build_hamiltonian(IsingParams.two_field(5, 0.7, 1.3))
    np.testing.assert_array_equal(H, H.T)


def test_build_hamiltonian_four_site_classical() -> None:
    H = build_hamiltonian(IsingParams.tfim(4, 0.0))
    expected = classical_energies(4)
    assert expected.tolist() == [-4.0, -4.0] + [0.0] * 12 + [4.0, 4.0]
    np.testing.assert_allclose(np.linalg.eigvalsh(H), expected, atol=1e-12)


def test_exact_spectrum_three_site_longitudinal() -> None:
    spec = exact_spectrum(IsingParams.two_field(3, 0.0, 1.0))
    expected = classical_energies(3, alpha=1.0)
    assert expected.tolist() == [-6.0, 0.0, 0.0, 0.0, 0.0, 2.0, 2.0, 2.0]
    np.testing.assert_allclose(spec.energies, expected, atol=1e-12)


def test_exact_spectrum_two_site_traceless() -> None:
    spec = exact_spectrum(IsingParams.tfim(2, 1.0))
    assert abs(spec.energies.sum()) < 1e-12
    np.testing.assert_allclose(spec.energies, -spec.energies[::-1], atol=1e-12)


def test_exact_spectrum_sorted_and_complete() -> None:
    spec = exact_spectrum(IsingParams.two_field(6, 0.8, 0.3))
    assert len(spec.energies) == 64
    assert np.all(np.diff(spec.energies) >= -1e-12)
    assert spec.method == "dense"


@pytest.mark.parametrize("N", [4, 6, 8])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_tfim_spectrum_mirror_symmetry_even_N(N: int, lam: float) -> None:
    E = exact_spectrum(IsingParams.tfim(N, lam)).energies
    np.testing.assert_allclose(E, -E[::-1], atol=1e-9)


def test_tfim_odd_N_has_no_mirror_symmetry() -> None:
    E = exact_spectrum(IsingParams.tfim(3, 0.0)).energies
    assert abs((E**3).mean()) > 1.0


@pytest.mark.parametrize("N", [3, 4, 5, 6])
@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_tfim_lambda_negation_invariance(N: int, lam: float) -> None:
    E_pos = exact_spectrum(IsingParams.tfim(N, lam)).energies
    E_neg = exact_spectrum(IsingParams.tfim(N, -lam)).energies
    np.testing.assert_allclose(E_pos, E_neg, atol=1e-9)


def test_cap_exceeded(monkeypatch) -> None:
    with pytest.raises(CapExceeded):
        build_hamiltonian(IsingParams.tfim(15, 1.0))
    monkeypatch.setattr(errors, "DEFAULT_MAX_BYTES", 1000)  # read at call time
    with pytest.raises(CapExceeded):
        exact_spectrum(IsingParams.tfim(8, 1.0))


def test_cap_counts_the_solver_copy_of_the_largest_block(monkeypatch) -> None:
    # At N = 12 the largest block is k = 0, one row per orbit: 352 of them.
    # Every block is real, 8 bytes per entry, and eigvalsh works on a copy,
    # so the solve holds the block twice.
    params = IsingParams.tfim(12, 1.0)
    one_copy = 8 * 352**2
    monkeypatch.setattr(errors, "DEFAULT_MAX_BYTES", 3 * one_copy // 2)
    with pytest.raises(CapExceeded):
        exact_spectrum(params)
    monkeypatch.setattr(errors, "DEFAULT_MAX_BYTES", 2 * one_copy)
    assert len(exact_spectrum(params).energies) == 2**12


@pytest.mark.parametrize("N", range(2, 11))
@pytest.mark.parametrize(
    "model,lam,alpha",
    [
        ("tfim", 0.7, 0.0),
        ("tfim", 0.0, 0.0),
        ("tfim", -1.3, 0.0),
        ("two-field", 0.6, 0.9),
        ("two-field", 0.0, 1.0),
        ("two-field", 1.2, 0.0),
        ("two-field", -0.4, -1.1),
    ],
)
def test_momentum_blocks_match_dense_oracle(
    N: int, model: str, lam: float, alpha: float
) -> None:
    assert_matches_dense_oracle(IsingParams(N=N, lam=lam, alpha=alpha, model=model))


def test_momentum_blocks_match_dense_oracle_at_eleven_sites() -> None:
    assert_matches_dense_oracle(IsingParams.two_field(11, 0.6, 0.9))


def assert_matches_dense_oracle(params: IsingParams) -> None:
    expected = np.linalg.eigvalsh(build_hamiltonian(params))
    energies = exact_spectrum(params).energies
    assert len(energies) == 2**params.N
    np.testing.assert_allclose(energies, expected, rtol=0.0, atol=1e-11)


@pytest.mark.parametrize("lam", [0.7, 1.3])
def test_momentum_blocks_match_free_fermions_at_twelve_sites(lam: float) -> None:
    expected = enumerate_spectrum(12, lam).energies
    energies = exact_spectrum(IsingParams.tfim(12, lam)).energies
    np.testing.assert_allclose(energies, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("N", [11, 12])
@pytest.mark.parametrize("model,lam,alpha", [("tfim", 0.9, 0.0), ("two-field", 0.8, 0.6)])
def test_every_momentum_block_is_solved_as_a_real_matrix(
    monkeypatch: pytest.MonkeyPatch, N: int, model: str, lam: float, alpha: float
) -> None:
    blocks = record_solves(monkeypatch, IsingParams(N=N, lam=lam, alpha=alpha, model=model))
    assert {dtype for dtype, _, _ in blocks} == {np.dtype(np.float64)}
    # The momenta k and -k share their sectors for 0 < k < N/2.
    copies = [1 if 2 * k % N == 0 else 2 for _, k, _ in blocks]
    assert sum(c * n for c, (_, _, n) in zip(copies, blocks)) == 2**N


def test_sectors_at_twelve_sites(monkeypatch: pytest.MonkeyPatch) -> None:
    # tfim: spin-flip parity splits every momentum, and the reflection splits
    # k = 0 and k = 6 again, so no solve reaches the 335-352 rows of a block.
    blocks = record_solves(monkeypatch, IsingParams.tfim(12, 0.9))
    assert len(blocks) == 18
    assert max(n for _, _, n in blocks) == 176
    # two-field: only the reflection, at k = 0 (352 orbits) and k = 6 (348).
    blocks = record_solves(monkeypatch, IsingParams.two_field(12, 0.8, 0.6))
    assert len(blocks) == 9
    split = sorted(n for _, k, n in blocks if k in (0, 6))
    assert split == [128, 158, 190, 224]


def record_solves(
    monkeypatch: pytest.MonkeyPatch, params: IsingParams
) -> list[tuple[np.dtype, int, int]]:
    """(dtype, momentum k, rows) of every eigvalsh call of exact_spectrum,
    with k read from the caller's frame."""
    solve, blocks = np.linalg.eigvalsh, []

    def record(H: np.ndarray) -> np.ndarray:
        blocks.append((H.dtype, sys._getframe(1).f_locals["k"], H.shape[0]))
        return solve(H)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    exact_spectrum(params)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    return blocks


def test_momentum_blocks_thirteen_sites_complete_with_bulk_moments() -> None:
    params = IsingParams.two_field(13, 0.8, 0.6)
    spec = exact_spectrum(params)
    assert len(spec.energies) == 2**13
    numeric, formula = numeric_moments(spec), analytic_moments(params)
    assert abs(numeric.m1) < 1e-10 * formula.m2**0.5
    for name in ("m2", "m3", "m4"):
        expected = getattr(formula, name)
        assert getattr(numeric, name) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("N", [12, 14])
def test_reflection_sectors_complete_with_bulk_moments(N: int) -> None:
    # Even N: both k = 0 and k = N/2 are split by the reflection.
    params = IsingParams.two_field(N, 0.8, 0.6)
    spec = exact_spectrum(params)
    assert len(spec.energies) == 2**N
    numeric, formula = numeric_moments(spec), analytic_moments(params)
    assert abs(numeric.m1) < 1e-10 * formula.m2**0.5
    for name in ("m2", "m3", "m4"):
        assert getattr(numeric, name) == pytest.approx(getattr(formula, name), rel=1e-10)


def test_sectors_match_free_fermions_at_fourteen_sites() -> None:
    expected = enumerate_spectrum(14, 0.9).energies
    energies = exact_spectrum(IsingParams.tfim(14, 0.9)).energies
    np.testing.assert_allclose(energies, expected, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize(
    "params", [IsingParams.tfim(12, 0.9), IsingParams.two_field(12, 0.8, 0.6)]
)
def test_exact_spectrum_rerun_is_byte_identical(params: IsingParams) -> None:
    first = exact_spectrum(params).energies.tobytes()
    assert exact_spectrum(params).energies.tobytes() == first


def test_numeric_moments_three_site() -> None:
    spec = exact_spectrum(IsingParams.tfim(3, 0.0))
    mom = numeric_moments(spec)
    assert mom.m1 == pytest.approx(0.0, abs=1e-12)
    assert mom.m2 == pytest.approx(3.0, rel=1e-12)


def test_moments_beyond_float_range_name_the_couplings() -> None:
    params = IsingParams.two_field(4, 1e100, 1.0)
    spectrum = ManyBodySpectrum(np.full(16, 1e100), "dense", params)
    suffix = "at lambda = 1e+100, alpha = 1.0 is beyond float range"
    with pytest.raises(InvalidArgs) as info:
        numeric_moments(spectrum)
    assert str(info.value) == f"a spectral moment {suffix}"
    with pytest.raises(InvalidArgs) as info:
        analytic_moments(params)
    assert str(info.value) == f"the closed-form moment m4 {suffix}"


def test_numeric_moments_requires_complete_spectrum() -> None:
    spec = exact_spectrum(IsingParams.tfim(4, 1.0))
    truncated = ManyBodySpectrum(spec.energies[:-1], "dense", spec.params)
    with pytest.raises(InvalidArgs):
        numeric_moments(truncated)


@pytest.mark.parametrize("N", [4, 6, 8])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_tfim_odd_moments_vanish_even_N(N: int, lam: float) -> None:
    mom = numeric_moments(exact_spectrum(IsingParams.tfim(N, lam)))
    scale = mom.m2**1.5
    assert abs(mom.m1) < 1e-10 * scale
    assert abs(mom.m3) < 1e-10 * scale


def test_analytic_moments_tfim_example() -> None:
    mom = analytic_moments(IsingParams.tfim(10, 1.0))
    assert mom.m2 == pytest.approx(20.0, rel=1e-14)
    assert mom.m1 == 0.0 and mom.m3 == 0.0
    # m4 = 3 N^2 (1+lambda^2)^2 - N (2 + 8 lambda^2 + 2 lambda^4)
    assert mom.m4 == pytest.approx(3 * 100 * 4 - 10 * 12, rel=1e-14)


def test_analytic_moments_two_field_m3_matches_dense_at_four_sites() -> None:
    params = IsingParams.two_field(4, 0.7, 1.0)
    formula = analytic_moments(params)
    numeric = numeric_moments(exact_spectrum(params))
    assert formula.m3 == pytest.approx(-24.0, rel=1e-14)
    assert numeric.m3 == pytest.approx(formula.m3, rel=1e-10)


def test_analytic_moments_alpha_zero_matches_tfim() -> None:
    two_field = analytic_moments(IsingParams.two_field(8, 1.3, 0.0))
    tfim = analytic_moments(IsingParams.tfim(8, 1.3))
    assert two_field.m3 == 0.0
    assert two_field.m2 == tfim.m2
    assert two_field.m4 == pytest.approx(tfim.m4, rel=1e-14)


@pytest.mark.parametrize("N", [5, 6, 8])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_moment_identities_hold_from_five_sites(
    N: int, lam: float, alpha: float
) -> None:
    params = IsingParams.two_field(N, lam, alpha)
    numeric = numeric_moments(exact_spectrum(params))
    formula = analytic_moments(params)
    scale2 = max(1.0, abs(formula.m2))
    assert abs(numeric.m1 - formula.m1) < 1e-10 * scale2**0.5
    assert abs(numeric.m2 - formula.m2) < 1e-10 * scale2
    assert abs(numeric.m3 - formula.m3) < 1e-10 * scale2**1.5
    assert abs(numeric.m4 - formula.m4) < 1e-10 * scale2**2


def test_moment_formula_size_validity_thresholds() -> None:
    """Empirical validity table: m2 from N=3, m3 from N=4, m4 from N=5.

    Below threshold the ring is short enough that closed loops of local
    terms contribute extra traces and the bulk formulas break.
    """
    # N=2: doubled bond makes numeric m2 = 4 + 2 lambda^2, formula gives 2 + 2 lambda^2.
    p2 = IsingParams.tfim(2, 1.0)
    assert numeric_moments(exact_spectrum(p2)).m2 == pytest.approx(6.0, rel=1e-12)
    assert analytic_moments(p2).m2 == pytest.approx(4.0, rel=1e-12)
    # N=3: triangle term shifts m3 (classical value -24 vs formula -18).
    p3 = IsingParams.two_field(3, 0.0, 1.0)
    assert numeric_moments(exact_spectrum(p3)).m3 == pytest.approx(-24.0, rel=1e-12)
    assert analytic_moments(p3).m3 == pytest.approx(-18.0, rel=1e-12)
    # N=4: four-site ring loop shifts m4.
    p4 = IsingParams.tfim(4, 1.0)
    m4_numeric = numeric_moments(exact_spectrum(p4)).m4
    assert abs(m4_numeric - analytic_moments(p4).m4) > 1.0
    # N=3 second moment is already exact.
    assert numeric_moments(exact_spectrum(IsingParams.tfim(3, 0.7))).m2 == pytest.approx(
        analytic_moments(IsingParams.tfim(3, 0.7)).m2, rel=1e-12
    )


def test_moment_set_invariants() -> None:
    mom = numeric_moments(exact_spectrum(IsingParams.two_field(6, 1.0, 0.5)))
    assert mom.m2 >= 0.0
    assert mom.m4 >= mom.m2**2
