from __future__ import annotations

import sys
import threading

import pytest

from klbraid import kl_recursion, stirling
from klbraid.errors import InternalConsistencyError
from klbraid.kl_recursion import (
    KLTable,
    default_table,
    kl_braid_poly,
    kl_coeff,
    verify_defining_identity,
)
from klbraid.polynomial import IntPoly
from klbraid.whitney2 import kl_coeff_via_pxy

# frozen low-order polynomials, cross-checked against the lattice oracle
KNOWN_POLYS = {
    2: IntPoly([1]),
    3: IntPoly([1]),
    4: IntPoly([1, 1]),
    5: IntPoly([1, 5]),
    6: IntPoly([1, 16, 15]),
    7: IntPoly([1, 42, 175]),
    8: IntPoly([1, 99, 1225, 735]),
    9: IntPoly([1, 219, 6769, 16065]),
    10: IntPoly([1, 466, 32830, 204400, 76545]),
}


@pytest.mark.parametrize("n,want", sorted(KNOWN_POLYS.items()))
def test_known_polynomials(n, want):
    assert kl_braid_poly(n) == want


def test_kl_coeff_reads_the_polynomial():
    assert kl_coeff(8, 0) == 1
    assert kl_coeff(8, 2) == 1225
    assert kl_coeff(8, 3) == 735
    assert kl_coeff(8, 17) == 0


def test_degree_bound():
    # degree strictly below half the rank n - 1
    for n in range(2, 22):
        assert 2 * kl_braid_poly(n).degree < n - 1


def test_constant_term_is_one():
    for n in range(1, 22):
        assert kl_coeff(n, 0) == 1


def test_coefficients_positive():
    for n in range(2, 26):
        p = kl_braid_poly(n)
        assert all(p.coeff(k) > 0 for k in range(p.degree + 1))


def test_negative_coefficient_is_rejected(monkeypatch):
    # Q = -1 + t - t^2 + t^3 closes the identity at n = 4 (rank 3) with
    # P = 1 - t, so only the nonnegativity check can refuse it
    table = KLTable()
    table.poly(3)
    monkeypatch.setattr(
        table, "_summands", lambda n, include_trivial: iter([(None, IntPoly([-1, 1, -1, 1]))])
    )
    with pytest.raises(InternalConsistencyError, match=r"t\^1 negative at n=4: -1"):
        table.poly(4)
    assert len(table._polys) == 4


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kl_braid_poly(0)
    with pytest.raises(ValueError):
        kl_coeff(5, -1)


def test_fresh_table_is_isolated():
    table = KLTable()
    assert table.poly(6) == KNOWN_POLYS[6]
    assert kl_braid_poly(6, table) == KNOWN_POLYS[6]
    assert default_table() is default_table()


def test_identity_report_structure():
    rep = verify_defining_identity(6)
    assert rep.n == 6
    assert rep.equal
    assert rep.mismatches == []
    assert rep.lhs == rep.rhs
    # one summand per partition of n
    assert len(rep.summands) == 11
    # the all-singletons localization contributes the polynomial itself
    assert rep.lhs == kl_braid_poly(6).reverse(5)


@pytest.mark.parametrize("n", range(2, 16))
def test_defining_identity_holds(n):
    assert verify_defining_identity(n).equal


def test_identity_summands_recombine_to_rhs():
    rep = verify_defining_identity(5)
    total = IntPoly.zero()
    for _, poly in rep.summands:
        total = total + poly
    assert total == rep.rhs
    # at t = 1 every chi factor vanishes, so only the all-singletons
    # summand survives and the whole right side collapses to P(1)
    assert sum(poly(1) for _, poly in rep.summands) == kl_braid_poly(5)(1)


def test_thread_safety_of_shared_table():
    import threading

    table = KLTable()
    out = {}

    def worker(n):
        out[n] = table.poly(n)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(2, 14)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for n, p in out.items():
        assert p == kl_braid_poly(n)


# --- the Z-polynomial diagonal ---------------------------------------------

@pytest.fixture
def cold(monkeypatch):
    """An empty diagonal memo and an empty default table, so that kl_coeff
    answers from the diagonal."""
    monkeypatch.setattr(kl_recursion, "_diagonal", {})
    monkeypatch.setattr(kl_recursion, "_DEFAULT_TABLE", KLTable())


def _fresh_stirling_cache(monkeypatch):
    cache = stirling.StirlingCache()
    monkeypatch.setattr(stirling, "_DEFAULT_CACHE", cache)
    return cache


def test_cold_diagonal_equals_the_fill(cold):
    # i outermost, so later indices extend a memo that holds only lower ones
    fill = KLTable()
    for i in range(16):
        for n in range(1, 31):
            assert kl_coeff(n, i) == fill.poly(n).coeff(i), (n, i)
    assert len(default_table()._polys) == 2


def test_diagonal_reads_a_filled_row(cold):
    default_table().poly(9)
    kl_recursion._diagonal[9, 2] = -1  # never read: row 9 is in the table
    assert kl_coeff(9, 2) == 6769


def test_diagonal_walks_no_partition(cold, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the diagonal walked partitions")

    for name, module in list(sys.modules.items()):
        if name.startswith("klbraid") and hasattr(module, "partitions_of"):
            monkeypatch.setattr(module, "partitions_of", refuse)
    monkeypatch.setattr(KLTable, "_solve", refuse)
    for n in range(1, 41):
        assert kl_coeff(n, 0) == 1
        if n >= 4:
            # C(n, 1) = S(n, 2) - S(n, n-1), the corollary's closed form
            assert kl_coeff(n, 1) == 2 ** (n - 1) - 1 - n * (n - 1) // 2
        for i in range(2, n):
            kl_coeff(n, i)
    assert default_table()._polys == [None, IntPoly.one()]


@pytest.mark.parametrize("entries", [
    (("first", 7, 3), ("second", 7, 3)),  # tests/test_cli.py's _CORRUPT_STIRLING
    (("second", 8, 2),),
    (("second", 8, 7),),
])
def test_corrupted_stirling_entry_is_caught(cold, monkeypatch, entries):
    cache = _fresh_stirling_cache(monkeypatch)
    cache.first(8, 3)
    cache.second(8, 3)
    for kind, row, col in entries:
        getattr(cache, f"_{kind}")[row][col] += 1
    with pytest.raises(InternalConsistencyError, match=r"defining identity at n=\d+, i=1"):
        kl_coeff(8, 1)


def test_diagonal_deep_in_n_does_not_recurse(cold, monkeypatch):
    _fresh_stirling_cache(monkeypatch)
    assert kl_coeff(400, 2) == kl_coeff_via_pxy(400, 2)


@pytest.mark.parametrize("n", [60, 100])
def test_diagonal_equals_pxy_beyond_the_fill(cold, n):
    for i in range(1, 6):
        assert kl_coeff(n, i) == kl_coeff_via_pxy(n, i), (n, i)


def test_concurrent_diagonal_is_consistent(cold):
    out = {}

    def worker(n):
        out[n] = [kl_coeff(n, i) for i in range(n // 2)]

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(20, 26)]
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
    fill = KLTable()
    for n, row in out.items():
        assert row == [fill.poly(n).coeff(i) for i in range(n // 2)]
