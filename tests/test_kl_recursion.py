from __future__ import annotations

import hashlib
import re
import sys
import threading

import pytest

from klbraid import chain_formula, kl_recursion, stirling
from klbraid.errors import InternalConsistencyError
from klbraid.kl_recursion import (
    KLTable,
    kl_braid_poly,
    kl_coeff,
    verify_defining_identity,
)
from klbraid.partitions import partitions_of
from klbraid.polynomial import IntPoly
from klbraid.stirling import partition_char_poly
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
    # with every S(n, k) of rows n <= 4 negated, C(4, 1) = -1 satisfies both
    # identity checks, since each of their terms reads one S, so only the
    # sign check can refuse it
    cache = _fresh_stirling_cache(monkeypatch)
    _, second = cache.rows(4)
    for row in second:
        row[:] = [-entry for entry in row]
    table = KLTable()
    with pytest.raises(InternalConsistencyError, match=r"t\^1 negative at n=4: -1"):
        table.poly(4)
    assert len(table._polys) == 4


@pytest.mark.parametrize("m", [4, kl_recursion.PARTITION_CHECK_MAX_N])
def test_broken_partition_identity_is_rejected(monkeypatch, m):
    # drop the one-block term, so only the partition close can refuse row m
    table = KLTable()
    table.poly(m - 1)
    real = kl_recursion.chi_block_row

    def broken(prev):
        row = real(prev)
        row[1] = IntPoly()
        return row

    with monkeypatch.context() as patch:
        patch.setattr(kl_recursion, "chi_block_row", broken)
        with pytest.raises(InternalConsistencyError,
                           match=f"defining identity failed to close at n={m}"):
            table.poly(m)
    assert len(table._polys) == m
    # the refused row of B was not kept, so rows m and m + 1 close against
    # the right rows of B
    fresh = KLTable()
    assert table.poly(m) == fresh.poly(m)
    assert table.poly(m + 1) == fresh.poly(m + 1)


def test_every_block_count_is_checked(monkeypatch):
    # one more set partition of a single shape changes only B_{12,l} for that
    # shape's block count l, so the close must refuse row 12 for every l
    table = KLTable()
    table.poly(11)
    real = kl_recursion.chi_block_row
    for l in range(1, 12):
        target = next(lam for lam in partitions_of(12) if lam.length == l)
        extra = IntPoly.one()
        for b in target.blocks:
            extra = extra * partition_char_poly(b)

        def corrupted(prev, l=l, extra=extra):
            row = real(prev)
            row[l] = row[l] + extra
            return row

        with monkeypatch.context() as patch:
            patch.setattr(kl_recursion, "chi_block_row", corrupted)
            with pytest.raises(InternalConsistencyError,
                               match="defining identity failed to close at n=12"):
                table.poly(12)
        assert len(table._polys) == 12
    assert table.poly(12) == KLTable().poly(12)


def test_partition_close_walks_no_integer_partition(monkeypatch):
    top = kl_recursion.PARTITION_CHECK_MAX_N
    want = KLTable().poly(top)

    def refuse(*args, **kwargs):
        raise AssertionError("the partition close walked integer partitions")

    monkeypatch.setattr(kl_recursion, "partitions_of", refuse)
    monkeypatch.setattr(kl_recursion, "multiplicity", refuse)
    assert KLTable().poly(top) == want


def test_partition_close_reads_no_chi(monkeypatch):
    # the close builds B from the last row alone, so it shares no chi with
    # verify_defining_identity
    top = kl_recursion.PARTITION_CHECK_MAX_N
    want = KLTable().poly(top)

    def refuse(*args, **kwargs):
        raise AssertionError("the partition close read chi")

    monkeypatch.setattr(kl_recursion, "partition_char_poly", refuse)
    assert KLTable().poly(top) == want


def test_rows_past_the_partition_check_walk_no_partition(monkeypatch):
    top = kl_recursion.PARTITION_CHECK_MAX_N
    want = KLTable().poly(top + 10)
    table = KLTable()
    table.poly(top)

    def refuse(*args, **kwargs):
        raise AssertionError("a row past the partition check walked partitions")

    monkeypatch.setattr(kl_recursion, "partitions_of", refuse)
    assert table.poly(top + 10) == want


# sha256 of repr(P_n.coeffs) + "\n" for n = 1..40, taken from the fill that
# summed the defining identity over every integer partition of n
ROWS_1_TO_40_SHA256 = "3e2918fcc328007b202fc3677c4d6269da648a6b07027adadd549e721530175c"


def test_rows_match_the_partition_fill():
    table = KLTable()
    digest = hashlib.sha256()
    for n in range(1, 41):
        digest.update(f"{table.poly(n).coeffs!r}\n".encode())
    assert digest.hexdigest() == ROWS_1_TO_40_SHA256


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kl_braid_poly(0)
    with pytest.raises(ValueError):
        kl_coeff(5, -1)


def test_fresh_table_is_isolated():
    table = KLTable()
    assert table.poly(6) == KNOWN_POLYS[6]
    assert kl_braid_poly(6, table) == KNOWN_POLYS[6]


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
    total = IntPoly()
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
    """An empty default table, so that kl_coeff starts from an empty memo."""
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
    assert len(kl_recursion._DEFAULT_TABLE._polys) == 2


def test_single_coefficients_equal_whole_rows_to_100():
    # the coefficients fill Z entries for k <= 12 only; the rows filled
    # afterwards on the same table read those entries and add the rest
    table = KLTable()
    fresh = KLTable()
    for i in range(13):
        for n in range(1, 101):
            assert kl_coeff(n, i, table) == fresh.poly(n).coeff(i), (n, i)
    assert len(table._polys) == 2
    assert [table.poly(n) for n in range(1, 101)] == [fresh.poly(n) for n in range(1, 101)]


def test_single_coefficients_equal_whole_rows_to_150():
    # the same tie past the CLI's cap, coefficients first on their own table
    table = KLTable()
    fresh = KLTable()
    for i in range(13):
        for n in range(1, 151):
            assert kl_coeff(n, i, table) == fresh.poly(n).coeff(i), (n, i)
    assert len(table._polys) == 2


def test_rows_and_coefficients_share_one_memo(monkeypatch):
    solved = []
    real = KLTable._solve_diagonal

    def counting(self, m, k, *rest):
        solved.append((m, k))
        return real(self, m, k, *rest)

    monkeypatch.setattr(KLTable, "_solve_diagonal", counting)
    table = KLTable()
    assert kl_coeff(20, 3, table) == kl_coeff_via_pxy(20, 3)
    assert len(table._polys) == 2
    assert set(solved) == {(m, k) for m in range(4, 21) for k in range(1, min(3, (m - 2) // 2) + 1)}
    row = table.poly(20)
    # the row solved only the entries kl_coeff had not, and kl_coeff then
    # reads the row's entries without solving any
    assert len(solved) == len(set(solved)) == sum((m - 2) // 2 for m in range(4, 21))
    assert [kl_coeff(20, i, table) for i in range(10)] == list(row.coeffs)
    assert len(solved) == len(set(solved))


def test_interleaved_coefficients_and_rows_read_no_stale_products():
    # the memo is now the Z memo: it holds [t^k]Z_r only for the k that
    # earlier calls read, and a later call that needs more of the same rows
    # (the two kl_coeff(60, .) calls) must add entries for its larger k
    table = KLTable()
    kl_coeff(40, 3, table)
    table.poly(25)
    kl_coeff(59, 10, table)
    kl_coeff(60, 8, table)
    kl_coeff(60, 10, table)
    table.poly(45)
    kl_coeff(30, 12, table)
    fresh = KLTable()
    for n in range(1, 61):
        assert [kl_coeff(n, i, table) for i in range(n // 2 + 1)] == [
            fresh.poly(n).coeff(i) for i in range(n // 2 + 1)], n


def test_rows_and_coefficients_fill_one_table_concurrently():
    table = KLTable()
    out = {}

    def row(n):
        out[n] = table.poly(n)

    def coefficients(n):
        out[n] = [kl_coeff(n, i, table) for i in range(n // 2 + 1)]

    threads = [threading.Thread(target=row, args=(n,)) for n in (18, 24, 30)]
    threads += [threading.Thread(target=coefficients, args=(n,)) for n in (21, 27, 33)]
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
    fresh = KLTable()
    for n in (18, 24, 30):
        assert out[n] == fresh.poly(n), n
    for n in (21, 27, 33):
        assert out[n] == [fresh.poly(n).coeff(i) for i in range(n // 2 + 1)], n


def test_row_fill_reads_each_stirling_product_once(monkeypatch):
    # a cold row fill to 30 reads 16,093 Stirling numbers, each [t^k]Z_r
    # formed once per table; one read of s(m, l+j) * S(l+j, l) per entry k
    # instead reads 57,582.  Every entry read goes through a row's
    # __getitem__, counted here in a cache already grown to 30.
    reads = [0]

    class CountedRow(list):
        def __getitem__(self, k):
            reads[0] += 1
            return super().__getitem__(k)

    cache = _fresh_stirling_cache(monkeypatch)
    for triangle in cache.rows(30):
        triangle[:] = [CountedRow(row) for row in triangle]
    KLTable().poly(30)
    assert reads[0] == 16_093


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
    assert kl_recursion._DEFAULT_TABLE._polys == [None, IntPoly.one()]


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
    with pytest.raises(InternalConsistencyError, match=r"defining identity at n=\d+, i=1"):
        kl_braid_poly(9, KLTable())


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


# --- which check refuses which fault ----------------------------------------

# the fill runs to FAULT_TOP with every check; a fault is one entry raised by 1
FAULT_TOP = 50


def _first_refusal(fill):
    """(row, checks) for the first refusal ``fill()`` raises, or None.  A
    diagonal refusal prints c, low and high, so its checks are read from the
    values: "low" when c != low, "high" when c != high."""
    try:
        fill()
    except InternalConsistencyError as err:
        text = str(err)
    else:
        return None
    row = int(re.search(r"at n=(\d+)", text)[1])
    if "defining identity at" in text:
        c, low, high = map(int, text.rsplit(": ", 1)[1].split(", "))
        return row, tuple(name for name, value in (("low", low), ("high", high)) if value != c)
    if "negative" in text:
        return row, ("sign",)
    assert "failed to close" in text, text
    return row, ("close",)


# Keyed by the entry raised: S(n, k), s(n, k), C(n, k) right after row n is
# filled (so P_n carries it too), [t^k]Z_n right after it is formed, B_{n,l}
# right after row n closes, or chi_b.  The close refuses P_12 itself; above
# its reach, row 31's coefficient-k check is the first to read C(30, 5) and
# [t^5]Z_30.  The close of row n + 1 reads B_{n,l}, and no close reads row
# PARTITION_CHECK_MAX_N of B.  No fill reads chi_b: only
# verify_defining_identity does, and it fails at b.
FAULT_MATRIX = {
    ("S", 9, 2): (9, ("low",)),
    ("S", 12, 6): (12, ("low",)),
    ("S", 30, 25): (30, ("high",)),
    ("S", 40, 3): (40, ("low",)),
    ("s", 9, 4): (9, ("low",)),
    ("s", 25, 7): (25, ("low",)),
    ("s", 33, 30): (33, ("low",)),
    ("s", 45, 2): (45, ("low",)),
    ("C", 12, 3): (12, ("close",)),
    ("C", 30, 5): (31, ("low",)),
    ("Z", 30, 5): (31, ("low",)),
    ("B", 12, 3): (13, ("close",)),
    ("B", kl_recursion.PARTITION_CHECK_MAX_N, 3): None,
    ("chi", 5): None,
    ("chi", 25): None,
}


@pytest.mark.parametrize("fault", list(FAULT_MATRIX), ids=lambda f: "-".join(map(str, f)))
def test_fault_matrix(monkeypatch, fault):
    # one wrong entry of S, s, a row of C, the Z memo, the kept row of B or
    # chi_b as kl_recursion reads it, below and above the partition close's
    # reach; both Stirling triangles are grown to FAULT_TOP before an entry
    # is raised, so no row grows from it
    cache = _fresh_stirling_cache(monkeypatch)
    cache.first(FAULT_TOP, 0)
    cache.second(FAULT_TOP, 0)
    table = KLTable()
    kind, row, *col = fault
    if kind == "S":
        cache._second[row][col[0]] += 1
    elif kind == "s":
        cache._first[row][col[0]] += 1
    elif kind == "C":
        real = KLTable._fill

        def fill_then_corrupt(self, n, top):
            real(self, n, top)
            if n == row:
                self._rows[row][col[0]] += 1

        monkeypatch.setattr(KLTable, "_fill", fill_then_corrupt)
    elif kind == "Z":
        class RaisedAtRow(list):
            def append(self, value):
                super().append(value + (len(self) == row))

        # the memo's lists up to k = col, zero at r <= k, as the fill sets them
        table._z = [[0] * (k + 1) for k in range(col[0])] + [RaisedAtRow([0] * (col[0] + 1))]
    elif kind == "B":
        real = KLTable._solve

        def solve_then_corrupt(self, m):
            p = real(self, m)
            if m == row:
                self._block_row[col[0]] += IntPoly.one()
            return p

        monkeypatch.setattr(KLTable, "_solve", solve_then_corrupt)
    else:
        real = kl_recursion.partition_char_poly

        def raised_chi(b):
            return real(b) + IntPoly.one() if b == row else real(b)

        monkeypatch.setattr(kl_recursion, "partition_char_poly", raised_chi)
    assert _first_refusal(lambda: table.poly(FAULT_TOP)) == FAULT_MATRIX[fault]
    if kind == "chi":
        assert not verify_defining_identity(row, table).equal


# Keyed by the input raised or dropped: ("S", n, k) and ("s", n, k) raise a
# Stirling entry as test_fault_matrix does, ("B", n, l) the close's kept row
# of B, ("edge", m, l, d) the chain pass's E_{m,l,d} right after its step to
# row m, and ("drop", n, i, l, xi) drops chain_sum(n, i)'s term at (l, xi).
# The value is the recursion's first refusal in a fill to CHAIN_FAULT_TOP,
# then the first cell (n, i) of the rows it filled where chain = recursion
# fails, then the first cell with n <= CHAIN_FAULT_TOP where the chain method
# differs from the true value.  The chain method reads no Stirling number, no
# row of B and no chain_sum, so only the recursion refuses those faults and
# the chain method still answers every cell; a fault in its own pass reaches
# no check but chain = recursion.
CHAIN_FAULT_TOP = 30
CHAIN_FAULT_MATRIX = {
    ("S", 9, 2): ((9, ("low",)), None, None),
    ("S", 30, 25): ((30, ("high",)), None, None),
    ("s", 25, 7): ((25, ("low",)), None, None),
    ("B", 12, 3): ((13, ("close",)), None, None),
    ("edge", 9, 2, 1): (None, (9, 2), (9, 2)),
    ("edge", 25, 4, 2): (None, (25, 4), (25, 4)),
    ("drop", 9, 3, 4, 1): ((9, ("high",)), None, None),
    ("drop", 25, 4, 1, 0): ((25, ("high",)), None, None),
}


@pytest.mark.parametrize("fault", list(CHAIN_FAULT_MATRIX),
                         ids=lambda f: "-".join(map(str, f)))
def test_chain_fault_matrix(monkeypatch, fault):
    truth = KLTable()
    truth.poly(CHAIN_FAULT_TOP)
    kind, row, col, *rest = fault
    if kind in ("S", "s"):
        cache = _fresh_stirling_cache(monkeypatch)
        cache.first(CHAIN_FAULT_TOP, 0)
        cache.second(CHAIN_FAULT_TOP, 0)
        (cache._second if kind == "S" else cache._first)[row][col] += 1
    elif kind == "B":
        real_solve = KLTable._solve

        def solve_then_corrupt(self, m):
            p = real_solve(self, m)
            if m == row:
                self._block_row[col] += IntPoly.one()
            return p

        monkeypatch.setattr(KLTable, "_solve", solve_then_corrupt)
    elif kind == "edge":
        real_step = chain_formula._edge_step

        def step_then_corrupt(edge, m):
            real_step(edge, m)
            # a call whose band holds no E_{row,col,d} carries no fault
            if m == row and col < len(edge) and rest[0] < len(edge[col]):
                edge[col][rest[0]] += 1

        monkeypatch.setattr(chain_formula, "_edge_step", step_then_corrupt)
    else:
        real_sum = kl_recursion.chain_sum

        def dropping(n, i, rows):
            if (n, i) != (row, col):
                return real_sum(n, i, rows)
            l, xi = rest
            dropped = [list(r) for r in rows]
            dropped[l][xi] = 0
            return real_sum(n, i, dropped)

        monkeypatch.setattr(kl_recursion, "chain_sum", dropping)
    table = KLTable()
    refusal = _first_refusal(lambda: table.poly(CHAIN_FAULT_TOP))
    disagreement = next(((n, i) for n in range(2, len(table._polys))
                         for i in range((n - 2) // 2 + 1)
                         if chain_formula.kl_coeff_via_chains(n, i) != table.poly(n).coeff(i)),
                        None)
    chain_wrong = next(((n, i) for n in range(2, CHAIN_FAULT_TOP + 1)
                        for i in range((n - 2) // 2 + 1)
                        if chain_formula.kl_coeff_via_chains(n, i) != truth.poly(n).coeff(i)),
                       None)
    assert (refusal, disagreement, chain_wrong) == CHAIN_FAULT_MATRIX[fault]
