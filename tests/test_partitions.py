from __future__ import annotations

import hashlib
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from klbraid.errors import OracleBoundError
from klbraid.partitions import (
    DEFAULT_SET_PARTITION_BOUND,
    IntPartition,
    _set_partitions_unchecked,
    bounded_compositions,
    chi_block_row,
    multiplicity,
    partitions_of,
    set_partitions_of,
    shape_of,
)
from klbraid.polynomial import IntPoly
from klbraid.stirling import bell_number, partition_char_poly

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30, 10: 42}


def test_partition_validation():
    assert IntPartition([3, 1, 1]).blocks == (3, 1, 1)
    # any ordering is accepted and normalized to weakly decreasing
    assert IntPartition([1, 3]).blocks == (3, 1)
    with pytest.raises(ValueError):
        IntPartition([2, 0])
    with pytest.raises(ValueError):
        IntPartition([])


def test_partition_blocks_must_be_ints():
    # bool is an int subclass, and would print as "2+True"
    with pytest.raises(ValueError):
        IntPartition([True, 2])
    with pytest.raises(ValueError):
        IntPartition([2.0])


def test_partition_parse_and_str():
    assert str(IntPartition([3, 1, 1])) == "3+1+1"


def test_size_and_length():
    lam = IntPartition([4, 2, 2, 1])
    assert lam.size == 9
    assert lam.length == 4


@pytest.mark.parametrize("n,count", sorted(PARTITION_COUNTS.items()))
def test_partition_counts(n, count):
    assert len(list(partitions_of(n))) == count


def test_partitions_order_is_reverse_lex():
    got = [lam.blocks for lam in partitions_of(5)]
    assert got == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert got == sorted(got, key=lambda b: tuple(-x for x in b))


def test_partition_order_is_pinned_through_25():
    # the exact sequences for n = 1..25, digested
    digest = hashlib.sha256()
    for n in range(1, 26):
        digest.update((repr([lam.blocks for lam in partitions_of(n)]) + "\n").encode())
    assert digest.hexdigest() == "5bbb34ed635047748dc4e88f7e45d2c5336540a2f9e8ca3ceb648a8c3d3f027d"


def test_generated_partitions_are_canonical():
    # each partition partitions_of yields is the one the constructor would
    # build from its blocks, and no partition comes twice
    counts = [1] + [0] * 16
    for b in range(1, 17):
        for n in range(b, 17):
            counts[n] += counts[n - b]
    for n in range(1, 17):
        got = list(partitions_of(n))
        assert len(got) == len(set(got)) == counts[n]
        keys = [tuple(-b for b in lam.blocks) for lam in got]
        assert keys == sorted(keys)
        for lam in got:
            built = IntPartition(lam.blocks)
            assert lam == built and hash(lam) == hash(built)
            assert type(lam.blocks) is tuple and sum(lam.blocks) == n
            assert all(type(b) is int and b >= 1 for b in lam.blocks)
            assert all(a >= b for a, b in zip(lam.blocks, lam.blocks[1:]))


def test_multiplicity_small_values():
    assert multiplicity(IntPartition([2])) == 1
    assert multiplicity(IntPartition([2, 1])) == 3
    assert multiplicity(IntPartition([1, 1, 1])) == 1
    assert multiplicity(IntPartition([2, 2])) == 3
    assert multiplicity(IntPartition([3, 1])) == 4
    assert multiplicity(IntPartition([2, 2, 1, 1])) == 45


def test_multiplicity_sums_to_bell():
    for n in range(1, 31):
        assert sum(multiplicity(lam) for lam in partitions_of(n)) == bell_number(n)


def test_multiplicity_matches_census():
    for n in range(1, 9):
        census: dict[tuple[int, ...], int] = {}
        for sp in set_partitions_of(n):
            key = shape_of(sp).blocks
            census[key] = census.get(key, 0) + 1
        for lam in partitions_of(n):
            assert census[lam.blocks] == multiplicity(lam)


def test_set_partitions_are_canonical_and_complete():
    seen = set()
    for sp in set_partitions_of(4):
        # blocks sorted internally, blocks ordered by minimum, all elements covered
        flat = [x for block in sp for x in block]
        assert sorted(flat) == [1, 2, 3, 4]
        assert all(list(b) == sorted(b) for b in sp)
        assert [b[0] for b in sp] == sorted(b[0] for b in sp)
        seen.add(sp)
    assert len(seen) == bell_number(4)


def test_set_partition_bound_enforced():
    with pytest.raises(OracleBoundError):
        next(set_partitions_of(DEFAULT_SET_PARTITION_BOUND + 1))
    # the generator behind the cap still counts Bell(10)
    count = sum(1 for _ in _set_partitions_unchecked(10))
    assert count == bell_number(10)


def test_shape_of():
    assert shape_of(((1, 3), (2,), (4, 5, 6))).blocks == (3, 2, 1)


def _chi_block_rows(top):
    rows = [[IntPoly.one()]]
    while len(rows) <= top:
        rows.append(chi_block_row(rows[-1]))
    return rows


def test_chi_block_rows_match_brute_force():
    rows = _chi_block_rows(8)
    for n in range(1, 9):
        want = [IntPoly()] * (n + 1)
        for sp in set_partitions_of(n):
            term = IntPoly.one()
            for block in sp:
                term = term * partition_char_poly(len(block))
            want[len(sp)] = want[len(sp)] + term
        assert rows[n] == want


def test_set_partition_rows_sum_the_shapes():
    # B_{n,l} = sum over lam |- n of length l of m(lam) * chi_lam
    chi = [partition_char_poly(b) for b in range(1, 21)]
    rows = _chi_block_rows(20)
    for n in range(1, 21):
        want = [IntPoly()] * (n + 1)
        for lam in partitions_of(n):
            term = IntPoly.one() * multiplicity(lam)
            for b in lam.blocks:
                term = term * chi[b - 1]
            want[lam.length] = want[lam.length] + term
        assert rows[n] == want


def test_bounded_compositions_exhaustive():
    lam = IntPartition([3, 2, 2])
    for total in range(1, 9):
        got = set(bounded_compositions(lam, total))
        want = {
            c
            for c in product(range(1, 4), range(1, 3), range(1, 3))
            if sum(c) == total and all(x <= b for x, b in zip(c, lam.blocks))
        }
        assert got == want


def test_bounded_compositions_order_and_edges():
    lam = IntPartition([2, 2])
    assert list(bounded_compositions(lam, 3)) == [(1, 2), (2, 1)]
    assert list(bounded_compositions(lam, 4)) == [(2, 2)]
    assert list(bounded_compositions(IntPartition([4]), 3)) == [(3,)]
    # infeasible totals (below the length or above the size) yield nothing
    assert list(bounded_compositions(lam, 5)) == []
    assert list(bounded_compositions(lam, 1)) == []
    assert list(bounded_compositions(lam, 0)) == []


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.sampled_from(list(partitions_of(n))),
                        st.integers(min_value=0, max_value=n + 1))))
def test_bounded_compositions_match_brute_force(case):
    lam, total = case
    want = [
        c
        for c in product(*(range(1, b + 1) for b in lam.blocks))
        if sum(c) == total
    ]
    # same tuples in the same (ascending lexicographic) order
    assert list(bounded_compositions(lam, total)) == want
