from __future__ import annotations

import sys
import threading
from itertools import combinations, combinations_with_replacement

import pytest

from klbraid import whitney2
from klbraid.chain_formula import kl_coeff_via_chains
from klbraid.kl_recursion import KLTable, kl_coeff
from klbraid.lattice_oracle import build_partition_lattice, flag_whitney_bruteforce
from klbraid.stirling import stirling_second
from klbraid.whitney2 import (
    flag_whitney_product,
    kl_c1,
    kl_coeff_via_pxy,
    kl_coeffs_via_pxy,
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
    # whole rows of a fresh table through n = 150, all 5,476 cells in one call
    table = KLTable()
    cells = [(n, i) for n in range(4, 151) for i in range(1, (n - 2) // 2 + 1)]
    assert len(cells) == 5_476
    for (n, i), c in zip(cells, kl_coeffs_via_pxy(cells)):
        assert c == table.poly(n).coeff(i), (n, i)


def _pxy_by_enumeration(n, i):
    """The alternating triple sum (``whitney2`` docstring) cell by cell: all
    2*3^(i-1) (skip set D, composition a) terms, each a flag Whitney product.

    Each flag entry pairs a[t_j(D)] with the previous index a[j-1], and D
    runs over all subsets of {1..r}: pairing with the following index a[j+1]
    instead misses the recursion at (n, i) = (5, 1), and restricting D to
    proper subsets misses it at (4, 1).

    Every flag index in the sum is valid, so ``flag_whitney_product`` is
    called on it directly, and raises ``ValueError`` on one that is not.  The
    a_k strictly increase (a_{r+1} = N - i > i because 2i < N), and
    t_j(D) >= j is nondecreasing in j.  So as j runs r, ..., 1,
    a[t_j(D)] + a[j-1] strictly decreases, from at most (N - i) + (i - 1) to
    at least a_1 >= 1, and the entries strictly increase within [1, N - 1].
    """
    N = n - 1
    total = 0
    for r in range(1, i + 1):
        for size in range(r + 1):
            sign = (-1) ** size
            for D in combinations(range(1, r + 1), size):
                # t[j] = t_j(D), the first k >= j outside D (at most r + 1)
                t = [0]
                for j in range(1, r + 1):
                    k = j
                    while k in D:
                        k += 1
                    t.append(k)
                for middle in combinations(range(1, i), r - 1):
                    a = (0,) + middle + (i, N - i)
                    idx = tuple(N - (a[t[j]] + a[j - 1]) for j in range(r, 0, -1))
                    total += sign * flag_whitney_product(n, idx)
    return total


def test_pxy_transfer_matches_the_enumeration():
    for n in range(4, 24):
        for i in range(1, min(8, (n - 2) // 2) + 1):
            assert kl_coeff_via_pxy(n, i) == _pxy_by_enumeration(n, i), (n, i)


def test_pxy_reads_few_stirling_numbers(monkeypatch):
    # the enumeration read 275,562 Stirling numbers for C(500, 10); the
    # transfer form reads 2 per term of its O(i^3) sums
    reads = []

    def counted(n, k):
        reads.append((n, k))
        return stirling_second(n, k)

    want = kl_coeff_via_chains(500, 10)
    monkeypatch.setattr(whitney2, "stirling_second", counted)
    assert kl_coeff_via_pxy(500, 10) == want
    assert len(reads) < 1000


def test_pxy_fills_its_memo_without_recursion():
    # a recursive fill nests two frames per level of y
    want = kl_coeff_via_pxy(120, 59)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        got = kl_coeff_via_pxy(120, 59)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


def test_pxy_memo_fills_concurrently():
    # each call fills its own memo, so threads share only the Stirling triangle
    cells = [(n, i) for n in (30, 41, 52, 63) for i in (6, 9, 12, 14)]
    want = {cell: kl_coeff_via_pxy(*cell) for cell in cells}
    got = {}

    def worker(n):
        for i in (14, 12, 9, 6):
            got[n, i] = kl_coeff_via_pxy(n, i)

    threads = [threading.Thread(target=worker, args=(n,)) for n in (30, 41, 52, 63)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_pxy_rejects_out_of_range():
    with pytest.raises(ValueError):
        kl_coeff_via_pxy(6, 0)
    with pytest.raises(ValueError):
        kl_coeff_via_pxy(6, 3)


def test_pxy_batch_checks_every_cell_before_summing(monkeypatch):
    def refuse(n, k):
        raise AssertionError("summed despite an invalid cell")

    monkeypatch.setattr(whitney2, "stirling_second", refuse)
    with pytest.raises(ValueError, match="outside"):
        kl_coeffs_via_pxy([(30, 5), (6, 3)])
    with pytest.raises(ValueError, match="need n >= 2"):
        kl_coeffs_via_pxy([(30, 5), (1, 1)])


def test_pxy_calls_keep_no_memo(monkeypatch):
    # an identical second call reads as many Stirling numbers as the first
    reads = []

    def counted(n, k):
        reads.append((n, k))
        return stirling_second(n, k)

    monkeypatch.setattr(whitney2, "stirling_second", counted)
    first = kl_coeff_via_pxy(60, 10)
    once = len(reads)
    assert kl_coeff_via_pxy(60, 10) == first
    assert len(reads) == 2 * once > 0


def test_grid_report_diagnoses_a_wrong_sum(monkeypatch):
    report = pxy_grid_report(max_n=8, max_i=2)
    assert list(report) == ["w-rank-prev"]
    assert report["w-rank-prev"].matches
    # a sum that is zero everywhere misses at the first grid cell, and the
    # mismatches carry (n, i, got, want) diagnostics
    monkeypatch.setattr(whitney2, "kl_coeffs_via_pxy", lambda cells: [0] * len(cells))
    (res,) = pxy_grid_report(max_n=8, max_i=2).values()
    assert not res.matches
    assert res.mismatches[0] == (4, 1, 0, 1)


def test_pxy_matches_recursion_beyond_the_grid():
    # single coefficients, past the whole rows above
    table = KLTable()
    for n in range(4, 121):
        for i in range(1, min(12, (n - 2) // 2) + 1):
            assert kl_coeff_via_pxy(n, i) == kl_coeff(n, i, table), (n, i)


@pytest.mark.parametrize("n", [100, 300, 500])
def test_pxy_matches_chain_sum_past_the_recursion_cap(n):
    # independent routes that share no Stirling read: alternating
    # flag-Whitney products of S in pxy, the top edge of the block-count
    # polynomials, which reads no Stirling number, in the chain sum
    for i in range(1, 11):
        assert kl_coeff_via_pxy(n, i) == kl_coeff_via_chains(n, i), (n, i)
