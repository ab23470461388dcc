from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

from klbraid import whitney2
from klbraid.chain_formula import kl_coeff_via_chains
from klbraid.kl_recursion import kl_coeff
from klbraid.lattice_oracle import build_partition_lattice, flag_whitney_bruteforce
from klbraid.stirling import stirling_second
from klbraid.whitney2 import (
    flag_whitney_product,
    kl_c1,
    kl_coeff_via_pxy,
    pxy_grid_report,
)


def test_flag_whitney_singletons():
    # one flag entry counts elements of that corank via second-kind numbers
    for n in range(2, 9):
        for r in range(n):
            assert flag_whitney_product(n, (r,)) == stirling_second(n, n - r)


def test_flag_whitney_empty_index():
    assert flag_whitney_product(5, ()) == 1


def test_flag_whitney_validation():
    with pytest.raises(ValueError):
        flag_whitney_product(5, (3, 2))
    with pytest.raises(ValueError):
        flag_whitney_product(5, (5,))
    with pytest.raises(ValueError):
        flag_whitney_product(5, (-1,))


@pytest.mark.parametrize("n", range(2, 7))
def test_flag_whitney_matches_bruteforce(n):
    L = build_partition_lattice(n)
    rk = L.rank
    for length in range(0, rk + 1):
        for I in combinations_with_replacement(range(0, rk + 1), length):
            assert flag_whitney_product(n, I) == flag_whitney_bruteforce(L, I)


def test_kl_c1_spot_values():
    assert kl_c1(4) == 1
    assert kl_c1(5) == 5
    assert kl_c1(6) == 16
    assert kl_c1(7) == 42
    # two-block second-kind count minus the near-top Whitney number
    assert kl_c1(6) == stirling_second(6, 2) - stirling_second(6, 5)


def test_kl_c1_sweep():
    for n in range(4, 26):
        assert kl_c1(n) == kl_coeff(n, 1)


def test_kl_c1_plain_int_closed_form():
    # C(n,1) = 2^(n-1) - 1 - n(n-1)/2, far past the recursion sweep above
    for n in range(2, 201):
        assert kl_c1(n) == 2 ** (n - 1) - 1 - n * (n - 1) // 2, n


def test_kl_c1_degenerate_prefix():
    # below n = 4 the degree bound kills the linear coefficient
    assert kl_c1(2) == 0
    assert kl_c1(3) == 0
    with pytest.raises(ValueError):
        kl_c1(1)


def test_pxy_default_reading_matches_recursion():
    for n in range(4, 11):
        for i in range(1, (n - 2) // 2 + 1):
            assert kl_coeff_via_pxy(n, i) == kl_coeff(n, i)


def test_pxy_rejects_out_of_range():
    with pytest.raises(ValueError):
        kl_coeff_via_pxy(6, 0)
    with pytest.raises(ValueError):
        kl_coeff_via_pxy(6, 3)


def test_grid_report_diagnoses_a_wrong_sum(monkeypatch):
    report = pxy_grid_report(max_n=8, max_i=2)
    assert list(report) == ["w-rank-prev"]
    assert report["w-rank-prev"].matches
    # a sum that is zero everywhere misses at the first grid cell, and the
    # mismatches carry (n, i, got, want) diagnostics
    monkeypatch.setattr(whitney2, "kl_coeff_via_pxy", lambda n, i: 0)
    (res,) = pxy_grid_report(max_n=8, max_i=2).values()
    assert not res.matches
    assert res.mismatches[0] == (4, 1, 0, 1)


def test_pxy_matches_recursion_beyond_the_grid():
    for n in range(11, 14):
        for i in (1, 2, 3):
            if 2 * i < n - 1:
                assert kl_coeff_via_pxy(n, i) == kl_coeff(n, i)


@pytest.mark.parametrize("n", [100, 300, 500])
def test_pxy_matches_chain_sum_past_the_recursion_cap(n):
    # independent routes: signed first-kind times second-kind numbers in
    # the chain sum, alternating flag-Whitney products in pxy
    for i in range(1, 6):
        assert kl_coeff_via_pxy(n, i) == kl_coeff_via_chains(n, i)
