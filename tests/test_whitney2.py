from __future__ import annotations

from itertools import combinations_with_replacement

import pytest

from klbraid.kl_recursion import kl_coeff
from klbraid.lattice_oracle import build_partition_lattice, flag_whitney_bruteforce
from klbraid.stirling import stirling_second
from klbraid.whitney2 import (
    DEFAULT_PXY_INTERPRETATION,
    INTERPRETATIONS,
    Interpretation,
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
    with pytest.raises(ValueError):
        kl_coeff_via_pxy(6, 1, "no-such-reading")


def test_registry_contents():
    assert DEFAULT_PXY_INTERPRETATION in INTERPRETATIONS
    assert set(INTERPRETATIONS) == {"w-rank-prev", "product-shifted"}
    for name, it in INTERPRETATIONS.items():
        assert it.name == name
        assert it.summary


def test_grid_report_scores_every_reading(monkeypatch):
    # a reading that sums to zero everywhere misses at the first grid cell
    zero = Interpretation("zero", lambda n, i: 0, "always 0")
    monkeypatch.setitem(INTERPRETATIONS, "zero", zero)
    report = pxy_grid_report(max_n=8, max_i=2)
    assert set(report) == set(INTERPRETATIONS)
    assert report["w-rank-prev"].matches
    assert report["product-shifted"].matches
    assert not report["zero"].matches
    # mismatches carry (n, i, got, want) diagnostics
    n, i, got, want = report["zero"].mismatches[0]
    assert (n, i) == (4, 1)
    assert got == 0 and want == 1


def test_equivalent_readings_agree_beyond_the_grid():
    # the flag-sum reading and its direct product expansion are the same
    # formula written two ways; check agreement past the scoring grid
    for n in range(11, 14):
        for i in (1, 2, 3):
            if 2 * i < n - 1:
                assert kl_coeff_via_pxy(n, i, "w-rank-prev") == kl_coeff_via_pxy(
                    n, i, "product-shifted"
                )
