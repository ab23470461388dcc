from __future__ import annotations

import math

import pytest

from klbraid import stirling
from klbraid.polynomial import IntPoly
from klbraid.stirling import (
    StirlingCache,
    bell_number,
    falling_factorial_poly,
    partition_char_poly,
    stirling_first,
    stirling_first_nonrecursive,
    stirling_rows,
    stirling_second,
)

# (n, k) -> signed first kind, unsigned second kind
FIRST_KNOWN = {
    (0, 0): 1,
    (1, 1): 1,
    (2, 1): -1,
    (2, 2): 1,
    (3, 1): 2,
    (3, 2): -3,
    (3, 3): 1,
    (4, 2): 11,
    (5, 3): 35,
    (6, 4): 85,
    (7, 5): 175,
}

SECOND_KNOWN = {
    (0, 0): 1,
    (3, 2): 3,
    (4, 2): 7,
    (5, 2): 15,
    (5, 3): 25,
    (6, 2): 31,
    (6, 5): 15,
    (7, 3): 301,
}


@pytest.mark.parametrize("nk,want", sorted(FIRST_KNOWN.items()))
def test_first_kind_known_values(nk, want):
    assert stirling_first(*nk) == want


@pytest.mark.parametrize("nk,want", sorted(SECOND_KNOWN.items()))
def test_second_kind_known_values(nk, want):
    assert stirling_second(*nk) == want


def test_out_of_triangle_is_zero():
    for fn in (stirling_first, stirling_second):
        assert fn(3, 4) == 0
        assert fn(3, 0) == 0
        assert fn(0, 1) == 0
        assert fn(2, -1) == 0
    with pytest.raises(ValueError):
        stirling_first(-1, 0)
    with pytest.raises(ValueError):
        stirling_second(-1, 0)


def test_out_of_triangle_reads_grow_nothing():
    # one bounds rule for both kinds: outside 0 <= k <= n reads 0 without
    # growing either triangle past row 0; a negative n raises
    cache = StirlingCache()
    for read in (cache.first, cache.second):
        assert read(5, 9) == 0
        assert read(5, -1) == 0
    assert len(cache._first) == len(cache._second) == 1
    for call in (lambda: cache.first(-1, 0), lambda: cache.second(-1, 0), lambda: cache.rows(-1)):
        with pytest.raises(ValueError):
            call()


def test_first_kind_row_sums():
    # sum_k s(n,k) x^k at x = 1 is the falling factorial 1*0*... = 0 for n >= 2
    for n in range(2, 12):
        assert sum(stirling_first(n, k) for k in range(n + 1)) == 0
    # absolute values sum to n!
    for n in range(0, 12):
        assert sum(abs(stirling_first(n, k)) for k in range(n + 1)) == math.factorial(n)


def test_second_kind_row_sums_are_bell():
    for n in range(0, 15):
        assert sum(stirling_second(n, k) for k in range(n + 1)) == bell_number(n)


def test_bell_known_prefix():
    got = [bell_number(n) for n in range(9)]
    assert got == [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_falling_factorial_poly_matches_table():
    # the product form is computed without the recurrence cache on purpose
    for n in range(0, 13):
        p = falling_factorial_poly(n)
        assert p == IntPoly([stirling_first(n, k) for k in range(n + 1)])


def test_falling_factorial_evaluates():
    p = falling_factorial_poly(4)
    for t in range(-2, 7):
        assert p(t) == t * (t - 1) * (t - 2) * (t - 3)


def test_partition_char_poly_small():
    assert partition_char_poly(1) == IntPoly([1])
    assert partition_char_poly(2) == IntPoly([-1, 1])
    assert partition_char_poly(3) == IntPoly([2, -3, 1])
    with pytest.raises(ValueError):
        partition_char_poly(0)


def test_nonrecursive_first_kind_agrees():
    for n in range(1, 13):
        for m in range(1, n + 1):
            assert stirling_first_nonrecursive(n, m) == stirling_first(n, m)


def test_nonrecursive_rejects_out_of_range():
    with pytest.raises(ValueError):
        stirling_first_nonrecursive(3, 0)
    with pytest.raises(ValueError):
        stirling_first_nonrecursive(3, 4)


def test_second_kind_inverts_first_kind():
    # the two matrices are inverse lower-triangular ones
    for n in range(0, 10):
        for m in range(0, n + 1):
            tot = sum(
                stirling_first(n, k) * stirling_second(k, m) for k in range(m, n + 1)
            )
            assert tot == (1 if n == m else 0)


def test_private_cache_instance_is_independent(monkeypatch):
    cache = StirlingCache()
    cache.first(8, 3)
    cache.second(8, 3)
    cache._first[7][3] += 1
    cache._second[7][3] += 1
    assert cache.first(7, 3) != stirling_first(7, 3)
    # the entry functions read the module's default cache at call time
    with monkeypatch.context() as m:
        m.setattr(stirling, "_DEFAULT_CACHE", cache)
        assert stirling_first(7, 3) == cache.first(7, 3)
        assert stirling_second(7, 3) == cache.second(7, 3)
    assert stirling_second(7, 3) == 301
    # the shared default cache is untouched
    assert stirling_first(7, 3) == falling_factorial_poly(7).coeff(3)


def test_rows_are_the_live_triangles(monkeypatch):
    first, second = stirling_rows(12)
    for n in range(13):
        assert first[n] == [stirling_first(n, k) for k in range(n + 1)]
        assert second[n] == [stirling_second(n, k) for k in range(n + 1)]
    with pytest.raises(ValueError):
        stirling_rows(-1)
    # the accessor reads the module's default cache at call time, and hands
    # out its live lists, not copies
    cache = StirlingCache()
    with monkeypatch.context() as m:
        m.setattr(stirling, "_DEFAULT_CACHE", cache)
        rows = stirling_rows(5)
    assert rows[0] is cache._first and rows[1] is cache._second
    assert len(cache._first) == len(cache._second) == 6
    # growing further extends the same lists
    assert cache.rows(9)[0] is rows[0] and len(rows[0]) == len(rows[1]) == 10


def test_rows_read_while_the_cache_grows():
    import sys
    import threading

    top = 90
    serial_first, serial_second = StirlingCache().rows(top)
    cache = StirlingCache()
    seen = []

    def reader(start):
        # each row is copied as soon as it is handed out, while growers may
        # still be appending later rows to the same triangles
        for n in range(start, top + 1, 3):
            first, second = cache.rows(n)
            seen.append((n, list(first[n]), list(second[n])))

    def grower(step):
        for n in range(step, top + 1, step):
            cache.first(n, n // 2)
            cache.second(n, n // 2)

    threads = [threading.Thread(target=reader, args=(s,)) for s in (0, 1, 2, 2)]
    threads += [threading.Thread(target=grower, args=(s,)) for s in (7, 11, 13, 17)]
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
    assert len(seen) == 31 + 30 + 2 * 30
    for n, first, second in seen:
        assert first == serial_first[n], n
        assert second == serial_second[n], n
    # no row was appended twice or out of order
    assert cache._first == serial_first and cache._second == serial_second


def test_concurrent_growth_is_consistent():
    import threading

    cache = StirlingCache()
    results = []

    def worker(n):
        results.append((n, cache.first(n, n // 2), cache.second(n, n // 2)))

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(30, 60)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for n, first, second in results:
        assert first == stirling_first(n, n // 2)
        assert second == stirling_second(n, n // 2)
