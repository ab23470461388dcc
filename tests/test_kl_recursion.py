from __future__ import annotations

import pytest

from klbraid.errors import InternalConsistencyError
from klbraid.kl_recursion import (
    KLTable,
    default_table,
    kl_braid_poly,
    kl_coeff,
    verify_defining_identity,
)
from klbraid.polynomial import IntPoly

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
