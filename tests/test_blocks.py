"""Tests for exact cyclic block combinatorics.

The oracle here is an independent pure-Python scan over all 2^N binary
strings: block structure (n, k), two-adjacent-spin-flip transition classes,
counts of length-1/length-2 up-blocks, and exact-rational degeneracy classes
are all recomputed from scratch and compared with the formula tables.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

import pytest

from ising_density.blocks import (
    BlockCensus,
    _f_count,
    block_census,
    brute_force_census,
    count_N1,
    count_N2,
    count_Na,
    count_Nb,
    count_Nc,
    degeneracy_census,
)
from ising_density.errors import CapExceeded, InvalidArgs


def bits_of(b: int, N: int) -> tuple[int, ...]:
    return tuple((b >> i) & 1 for i in range(N))


def cyclic_block_count(bits: tuple[int, ...]) -> int:
    """Number of maximal cyclic runs of 1s; 0 for the two polarized strings."""
    N = len(bits)
    return sum(1 for i in range(N) if bits[i] == 1 and bits[i - 1] == 0)


def scan_f_table(N: int) -> Counter:
    table: Counter = Counter()
    for b in range(2**N):
        bits = bits_of(b, N)
        table[(sum(bits), cyclic_block_count(bits))] += 1
    return table


def scan_transitions(N: int) -> dict:
    """Totals of E0-conserving adjacent-pair flips per (n, k) cell at alpha=1.

    Classes: a = (dn, dk) = (-2, -1), b = (+2, +1), c = (0, 0); any other
    (dn, dk) changes E0 = 2(2k - n) and is not counted.
    """
    totals: dict = defaultdict(lambda: {"a": 0, "b": 0, "c": 0})
    for b in range(2**N):
        bits = bits_of(b, N)
        n, k = sum(bits), cyclic_block_count(bits)
        for p in range(N):
            flipped = b ^ ((1 << p) | (1 << ((p + 1) % N)))
            fbits = bits_of(flipped, N)
            dn = sum(fbits) - n
            dk = cyclic_block_count(fbits) - k
            if (dn, dk) == (-2, -1):
                totals[(n, k)]["a"] += 1
            elif (dn, dk) == (2, 1):
                totals[(n, k)]["b"] += 1
            elif (dn, dk) == (0, 0):
                totals[(n, k)]["c"] += 1
    return totals


def scan_block_lengths(N: int, length: int) -> Counter:
    """Total number of up-blocks of exactly `length` per (n, k) cell."""
    totals: Counter = Counter()
    for b in range(2**N):
        bits = bits_of(b, N)
        n, k = sum(bits), cyclic_block_count(bits)
        if k == 0:
            continue
        count = 0
        for i in range(N):
            if bits[i] == 1 and bits[i - 1] == 0:
                run = 0
                while bits[(i + run) % N] == 1:
                    run += 1
                if run == length:
                    count += 1
        totals[(n, k)] += count
    return totals


def scan_classes(N: int, alpha: Fraction) -> Counter:
    classes: Counter = Counter()
    for b in range(2**N):
        bits = bits_of(b, N)
        n, k = sum(bits), cyclic_block_count(bits)
        classes[alpha * (N - 2 * n) + 4 * k - N] += 1
    return classes


def test_f_count_examples() -> None:
    assert _f_count(4, 2, 1) == 4
    assert _f_count(4, 2, 2) == 2
    assert sum(_f_count(6, 3, k) for k in (1, 2, 3)) == 20


def test_count_Na_validates_its_cell() -> None:
    for n, k in [(3, 0), (3, 4), (7, 1), (2, -1)]:
        with pytest.raises(InvalidArgs):
            count_Na(6, n, 6 - n, k)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 8, 10])
def test_f_table_matches_string_scan(N: int) -> None:
    expected = scan_f_table(N)
    census = block_census(N)
    combined = dict(census.table)
    combined.update(census.polarized)
    assert combined == dict(expected)


@pytest.mark.parametrize("N", [4, 6, 9])
def test_block_census_invariants(N: int) -> None:
    census = block_census(N)
    for n in range(1, N):
        assert sum(
            census.table[(n, k)] for k in range(1, min(n, N - n) + 1)
        ) == comb(N, n)
    total = sum(census.table.values()) + sum(census.polarized.values())
    assert total == 2**N
    for (n, k), value in census.table.items():
        assert value == census.table[(N - n, k)]


@pytest.mark.parametrize("N", [5, 7, 8])
def test_mean_block_count_identity(N: int) -> None:
    census = block_census(N)
    for n in range(1, N):
        weighted = sum(
            k * census.table[(n, k)] for k in range(1, min(n, N - n) + 1)
        )
        assert Fraction(weighted, comb(N, n)) == Fraction(n * (N - n), N - 1)


def test_transition_count_examples() -> None:
    assert count_Nc(5, 2, 3, 2) == 10
    assert count_Nc(4, 2, 2, 2) == 0
    assert count_Nb(4, 0, 4, 0) == 4
    assert count_Na(4, 2, 2, 1) == 4


def test_transition_count_validation() -> None:
    with pytest.raises(InvalidArgs):
        count_Na(6, 2, 3, 1)
    with pytest.raises(InvalidArgs):
        count_Nc(6, 3, 3, 0)


@pytest.mark.parametrize("count", [count_Na, count_Nb, count_Nc])
def test_transition_counts_refuse_the_two_site_ring(count) -> None:
    # Both bonds of the N = 2 ring join the same pair of spins: the scan of
    # all strings finds 4 c-flips in cell (1, 1) where the formula counts 0.
    assert brute_force_census(2).transitions[(1, 1)]["c"] == 4
    with pytest.raises(InvalidArgs, match="N=2"):
        count(2, 1, 1, 1)


@pytest.mark.parametrize("N", [1, 0, -3])
def test_block_census_refuses_rings_below_two_sites(N: int) -> None:
    with pytest.raises(InvalidArgs, match=f"ring size must be >= 2, got N={N}"):
        block_census(N)


@pytest.mark.parametrize("N", [4, 5, 6, 8])
def test_transition_counts_match_string_scan(N: int) -> None:
    scanned = scan_transitions(N)
    cells = list(scanned) + [(0, 0), (N, 0)]
    for n, k in cells:
        m = N - n
        expected = scanned.get((n, k), {"a": 0, "b": 0, "c": 0})
        assert count_Na(N, n, m, k) == expected["a"]
        assert count_Nb(N, n, m, k) == expected["b"]
        assert count_Nc(N, n, m, k) == expected["c"]


@pytest.mark.parametrize("N", [6, 8, 10])
def test_inverse_transition_pairing(N: int) -> None:
    """Every class-a transition is the inverse of a class-b transition."""
    for n in range(2, N - 1):
        for k in range(1, min(n, N - n) + 1):
            image_n, image_k = n - 2, k - 1
            if image_k == 0:
                valid = image_n in (0, N)
            else:
                valid = image_k <= min(image_n, N - image_n)
            if not valid:
                assert count_Na(N, n, N - n, k) == 0
                continue
            assert count_Na(N, n, N - n, k) == count_Nb(
                N, image_n, N - image_n, image_k
            )


def test_unit_and_double_block_counts() -> None:
    assert count_N1(2, 2) == 2
    assert count_N1(1, 1) == 1
    assert count_N1(5, 1) == 0
    assert count_N2(4, 2) == 2
    assert count_N2(2, 1) == 1
    assert count_N2(7, 1) == 0
    with pytest.raises(InvalidArgs):
        count_N1(2, 3)


@pytest.mark.parametrize("N", [5, 6, 8])
@pytest.mark.parametrize("length", [1, 2])
def test_block_length_totals_match_scan(N: int, length: int) -> None:
    """k * (cell total of length-L blocks) = N * N_L(n,k) * C(m-1, k-1)."""
    counter = count_N1 if length == 1 else count_N2
    scanned = scan_block_lengths(N, length)
    for n in range(1, N):
        for k in range(1, min(n, N - n) + 1):
            total = scanned.get((n, k), 0)
            rhs = N * counter(n, k) * comb(N - n - 1, k - 1)
            assert k * total == rhs


def test_degeneracy_census_alpha_one_example() -> None:
    census = degeneracy_census(4, 1)
    assert census.classes[0] == 5
    assert census.energy_of[0] == 0
    assert sum(census.classes.values()) == 16
    assert census.energy_of[-4] == -8  # all-up polarized ground class


@pytest.mark.parametrize("N", [4, 6, 8, 10])
@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(9, 10)])
def test_degeneracy_census_matches_scan(N: int, alpha: Fraction) -> None:
    census = degeneracy_census(N, alpha)
    by_energy = {census.energy_of[R]: count for R, count in census.classes.items()}
    assert by_energy == dict(scan_classes(N, alpha))
    assert len(set(census.energy_of.values())) == len(census.classes)


def test_degeneracy_census_irregular_at_rational_alpha() -> None:
    """alpha = 9/10 splits classes that alpha = 1 merges."""
    merged = degeneracy_census(8, 1)
    split = degeneracy_census(8, Fraction(9, 10))
    assert len(split.classes) > len(merged.classes)


def test_degeneracy_census_rejects_float_alpha() -> None:
    with pytest.raises(InvalidArgs):
        degeneracy_census(6, 0.9)  # type: ignore[arg-type]


def test_degeneracy_census_accepts_string_alpha() -> None:
    census = degeneracy_census(6, "9/10")
    assert census.alpha == Fraction(9, 10)


@pytest.mark.parametrize("N", [4, 6, 8])
def test_brute_force_census_matches_formulas(N: int) -> None:
    brute = brute_force_census(N)
    census = block_census(N)
    combined = dict(census.table)
    combined.update(census.polarized)
    assert brute.f_table == combined
    zero = {"a": 0, "b": 0, "c": 0}
    for n, k in combined:
        m = N - n
        counts = brute.transitions.get((n, k), zero)
        assert counts["a"] == count_Na(N, n, m, k)
        assert counts["b"] == count_Nb(N, n, m, k)
        assert counts["c"] == count_Nc(N, n, m, k)
    alpha_one = degeneracy_census(N, 1)
    assert brute.classes_alpha1 == alpha_one.classes


def test_brute_force_census_block_lengths() -> None:
    N = 6
    brute = brute_force_census(N)
    assert brute.unit_blocks == {
        cell: total for cell, total in scan_block_lengths(N, 1).items() if total
    }
    assert brute.double_blocks == {
        cell: total for cell, total in scan_block_lengths(N, 2).items() if total
    }


def test_brute_force_census_cap() -> None:
    with pytest.raises(CapExceeded):
        brute_force_census(18)


def test_census_total_completeness() -> None:
    brute = brute_force_census(4)
    assert sum(brute.f_table.values()) == 16
