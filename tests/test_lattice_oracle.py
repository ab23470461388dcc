from __future__ import annotations

import math
import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbraid import lattice_oracle
from klbraid.errors import InternalConsistencyError, OracleBoundError
from klbraid.kl_recursion import kl_braid_poly
from klbraid.lattice_oracle import (
    DEFAULT_LATTICE_BOUND,
    RankedLattice,
    _iter_bits,
    build_partition_lattice,
    char_poly,
    flag_whitney_bruteforce,
    kl_polynomial_generic,
    mobius,
)
from klbraid.partitions import _set_partitions_unchecked, shape_of
from klbraid.polynomial import IntPoly
from klbraid.stirling import partition_char_poly, stirling_second
from klbraid.whitney2 import flag_whitney_product


def from_relation(elements, ranks, leq) -> RankedLattice:
    """Build from a binary predicate; elements are re-sorted by rank."""
    order = sorted(range(len(elements)), key=lambda i: (ranks[i], i))
    elems = [elements[i] for i in order]
    rks = [ranks[i] for i in order]
    ups = []
    for i in range(len(elems)):
        mask = 0
        for j in range(len(elems)):
            if leq(elems[i], elems[j]):
                mask |= 1 << j
        ups.append(mask)
    return RankedLattice(elems, rks, ups)


def index_of(L: RankedLattice, element) -> int:
    return L.elements.index(element)


def rank_sizes(L: RankedLattice) -> list[int]:
    out = [0] * (L.rank + 1)
    for r in L.ranks:
        out[r] += 1
    return out


def interval(L: RankedLattice, x: int, y: int) -> RankedLattice:
    """The sublattice [x, y] as a fresh RankedLattice, ranks rebased to 0."""
    if not L.leq(x, y):
        raise ValueError("empty interval: x is not below y")
    members = [a for a in _iter_bits(L.up[x]) if L.leq(a, y)]
    pos = {a: p for p, a in enumerate(members)}
    member_mask = 0
    for a in members:
        member_mask |= 1 << a
    ups = []
    for a in members:
        sub = 0
        for b in _iter_bits(L.up[a] & member_mask):
            sub |= 1 << pos[b]
        ups.append(sub)
    return RankedLattice(
        [L.elements[a] for a in members],
        [L.ranks[a] - L.ranks[x] for a in members],
        ups,
    )


def lower_interval(L: RankedLattice, f: int) -> RankedLattice:
    return interval(L, L.bottom, f)


def upper_interval(L: RankedLattice, f: int) -> RankedLattice:
    return interval(L, f, L.top)


def boolean_lattice(n: int) -> RankedLattice:
    subsets = [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]
    return from_relation(
        subsets, [len(s) for s in subsets], lambda a, b: a <= b
    )


def uniform_corank_one_lattice(d: int) -> RankedLattice:
    """Flats of U_{d,d+1}, the cycle matroid of the (d+1)-cycle: every subset
    of {0..d} of size below d, plus the ground set, as bitmasks of the set."""
    ground = (1 << (d + 1)) - 1
    elements = [sum(1 << e for e in c) for k in range(d) for c in combinations(range(d + 1), k)]
    elements.append(ground)
    index = {x: i for i, x in enumerate(elements)}
    ups = [0] * len(elements)
    ups[-1] = 1 << (len(elements) - 1)
    # elements are listed by size, so each covering flat's up mask is ready
    for i in range(len(elements) - 2, -1, -1):
        x = elements[i]
        mask = 1 << i
        if x.bit_count() == d - 1:
            mask |= ups[-1]
        else:
            for e in range(d + 1):
                if not x >> e & 1:
                    mask |= ups[index[x | 1 << e]]
        ups[i] = mask
    return RankedLattice(elements, [min(x.bit_count(), d) for x in elements], ups)


def merges_partition_lattice(n: int) -> RankedLattice:
    # reference builder: the up-set of a partition is every merge pattern of
    # its blocks, one set partition of the blocks at a time
    elements = sorted(_set_partitions_unchecked(n), key=lambda p: (n - len(p), p))
    index = {p: i for i, p in enumerate(elements)}
    ups = []
    for part in elements:
        mask = 0
        for pattern in _set_partitions_unchecked(len(part)):
            merged = tuple(
                sorted(tuple(sorted(x for c in cls for x in part[c - 1])) for cls in pattern)
            )
            mask |= 1 << index[merged]
        ups.append(mask)
    return RankedLattice(elements, [n - len(p) for p in elements], ups)


def cover_closure_partition_lattice(n: int) -> RankedLattice:
    # reference builder: the partitions above x are x itself and everything
    # above a merge of two of its blocks; covers sit at higher indices, and
    # merging blocks a < b keeps a's position
    elements = sorted(_set_partitions_unchecked(n), key=lambda p: (n - len(p), p))
    index = {p: i for i, p in enumerate(elements)}
    ups = [0] * len(elements)
    for i in range(len(elements) - 1, -1, -1):
        part = elements[i]
        mask = 1 << i
        for b in range(1, len(part)):
            for a in range(b):
                merged = tuple(sorted(part[a] + part[b]))
                mask |= ups[index[part[:a] + (merged,) + part[a + 1 : b] + part[b + 1 :]]]
        ups[i] = mask
    return RankedLattice(elements, [n - len(p) for p in elements], ups)


def chi_form_kl(L: RankedLattice) -> IntPoly:
    # reference solve: Q_e = sum_{f > e} chi([e, f]) * P_f, each interval's
    # characteristic polynomial read off the Moebius row of e
    cache = L._kl_upper
    for e in sorted(range(len(L)), key=lambda e: -L.ranks[e]):
        if e in cache:
            continue
        rk_e = L.rank - L.ranks[e]
        if rk_e == 0:
            cache[e] = IntPoly.one()
            continue
        row = L._mobius_row(e)
        q = IntPoly()
        for f in _iter_bits(L.up[e]):
            if f == e:
                continue
            chi = [0] * (L.ranks[f] - L.ranks[e] + 1)
            for a in _iter_bits(L.up[e]):
                if L.leq(a, f):
                    chi[L.ranks[f] - L.ranks[a]] += row[a]
            q = q + IntPoly(chi) * cache[f]
        p = IntPoly([-q.coeff(j) for j in range((rk_e + 1) // 2)])
        if p.reverse(rk_e) - p != q:
            raise InternalConsistencyError(
                f"degree-constrained solve inconsistent at element {e}; "
                "input is not a geometric lattice"
            )
        cache[e] = p
    return cache[L.bottom]


def test_partition_lattice_shape():
    L = build_partition_lattice(3)
    assert len(L) == 5
    assert L.rank == 2
    assert rank_sizes(L) == [1, 3, 1]
    assert L.ranks[L.bottom] == 0
    assert L.ranks[L.top] == 2


@pytest.mark.parametrize("n", range(2, 8))
def test_rank_sizes_are_stirling_numbers(n):
    L = build_partition_lattice(n)
    assert rank_sizes(L) == [stirling_second(n, n - r) for r in range(n)]


def test_leq_is_refinement_order():
    L = build_partition_lattice(4)
    b, t = L.bottom, L.top
    for e in range(len(L)):
        assert L.leq(b, e) and L.leq(e, t) and L.leq(e, e)
    # antisymmetry
    for x in range(len(L)):
        for y in range(len(L)):
            if x != y:
                assert not (L.leq(x, y) and L.leq(y, x))


def test_index_of_round_trips():
    L = build_partition_lattice(4)
    for e, part in enumerate(L.elements):
        assert index_of(L, part) == e


def test_lattice_bound_enforced():
    with pytest.raises(OracleBoundError):
        build_partition_lattice(DEFAULT_LATTICE_BOUND + 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_mobius_bottom_to_top(n):
    L = build_partition_lattice(n)
    assert mobius(L, L.bottom, L.top) == (-1) ** (n - 1) * math.factorial(n - 1)


def test_mobius_defining_sums():
    L = build_partition_lattice(4)
    for x in range(len(L)):
        for y in range(len(L)):
            if not L.leq(x, y):
                assert mobius(L, x, y) == 0
                continue
            total = sum(
                mobius(L, x, z) for z in range(len(L)) if L.leq(x, z) and L.leq(z, y)
            )
            assert total == (1 if x == y else 0)


@pytest.mark.parametrize("n", range(2, 8))
def test_char_poly_matches_closed_form(n):
    assert char_poly(build_partition_lattice(n)) == partition_char_poly(n)


def test_lower_intervals_factor_into_block_lattices():
    # the interval below a partition is the product of the partition lattices
    # of its blocks, so characteristic polynomials multiply
    for n in range(2, 7):
        L = build_partition_lattice(n)
        for e in range(len(L)):
            if e == L.bottom:
                continue
            shape = shape_of(L.elements[e])
            want = IntPoly.one()
            for b in shape.blocks:
                want = want * partition_char_poly(b)
            assert char_poly(lower_interval(L, e)) == want


def test_upper_intervals_look_like_smaller_partition_lattices():
    for n in range(2, 7):
        L = build_partition_lattice(n)
        for e in range(len(L)):
            k = len(L.elements[e])
            U = upper_interval(L, e)
            assert rank_sizes(U) == [stirling_second(k, k - r) for r in range(k)]
            assert char_poly(U) == partition_char_poly(k)


def test_interval_extremes():
    L = build_partition_lattice(4)
    whole = interval(L, L.bottom, L.top)
    assert rank_sizes(whole) == rank_sizes(L)
    point = interval(L, L.top, L.top)
    assert len(point) == 1
    with pytest.raises(ValueError):
        interval(L, L.top, L.bottom)


@pytest.mark.parametrize("n", range(2, 8))
def test_cover_closure_matches_all_merges(n):
    L, ref = build_partition_lattice(n), merges_partition_lattice(n)
    assert L.elements == ref.elements
    assert L.ranks == ref.ranks
    assert L.up == ref.up


@pytest.mark.parametrize("n", range(2, 9))
def test_same_block_masks_match_cover_closure(n):
    L, ref = build_partition_lattice(n), cover_closure_partition_lattice(n)
    assert L.elements == ref.elements
    assert L.ranks == ref.ranks
    assert L.up == ref.up


@pytest.mark.parametrize(
    "make, n",
    [(build_partition_lattice, n) for n in range(2, 7)] + [(boolean_lattice, n) for n in range(1, 6)],
)
def test_generic_kl_matches_chi_form(make, n):
    L, ref = make(n), make(n)
    assert kl_polynomial_generic(L) == chi_form_kl(ref)
    assert L._kl_upper == ref._kl_upper


def relabeled(L: RankedLattice, perm: list[int]) -> RankedLattice:
    """The same lattice with element i moved to index perm[i]."""
    size = len(L)
    elements, ranks, ups = [None] * size, [0] * size, [0] * size
    for i, mask in enumerate(L.up):
        elements[perm[i]] = L.elements[i]
        ranks[perm[i]] = L.ranks[i]
        ups[perm[i]] = sum(1 << perm[j] for j in _iter_bits(mask))
    return RankedLattice(elements, ranks, ups)


def relabelings(size: int, seed: int) -> list[list[int]]:
    # index order reversed, which lists every lattice built here top rank
    # first, then two seeded shuffles
    rng = random.Random(seed)
    perms = [list(range(size - 1, -1, -1))]
    for _ in range(2):
        perm = list(range(size))
        rng.shuffle(perm)
        perms.append(perm)
    return perms


@pytest.mark.parametrize(
    "make, n",
    [(build_partition_lattice, n) for n in range(3, 7)]
    + [(boolean_lattice, n) for n in range(1, 6)]
    + [(uniform_corank_one_lattice, d) for d in range(1, 7)],
)
def test_generic_kl_is_invariant_under_relabeling(make, n):
    # the solve goes rank by rank and reads masks from the lowest index
    # solved, and the Moebius rows sum rank by rank, so no index order may
    # change the answer, any entry or the characteristic polynomial
    L = make(n)
    want, chi = kl_polynomial_generic(L), char_poly(L)
    for perm in relabelings(len(L), seed=n):
        M = relabeled(L, perm)
        assert kl_polynomial_generic(M) == want
        assert M._kl_upper == {perm[e]: p for e, p in L._kl_upper.items()}
        assert char_poly(M) == chi


def test_generic_kl_is_invariant_under_relabeling_with_prefilled_entries():
    # the pre-filled table of test_generic_kl_groups_by_w_as_well_as_t
    L = build_partition_lattice(4)
    for e in range(1, len(L)):
        L._kl_upper[e] = IntPoly.one()
    for shape, p in (([2, 2], IntPoly([3])), ([1, 3], IntPoly())):
        f = next(f for f in L.elements_of_rank(2) if sorted(map(len, L.elements[f])) == shape)
        L._kl_upper[f] = p
    prefilled = dict(L._kl_upper)
    assert kl_polynomial_generic(L) == IntPoly([1, 2])
    for perm in relabelings(len(L), seed=4):
        M = relabeled(build_partition_lattice(4), perm)
        M._kl_upper.update((perm[e], p) for e, p in prefilled.items())
        assert kl_polynomial_generic(M) == IntPoly([1, 2])
        assert M._kl_upper == {perm[e]: p for e, p in L._kl_upper.items()}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 5),
    poison=st.dictionaries(
        st.integers(0, 51),
        st.lists(st.integers(-3, 3), max_size=5),
        max_size=3,
    ),
)
def test_generic_kl_matches_chi_form_on_poisoned_tables(n, poison):
    outcomes = []
    for solve in (kl_polynomial_generic, chi_form_kl):
        L = build_partition_lattice(n)
        for e, coeffs in poison.items():
            L._kl_upper[e % len(L)] = IntPoly(coeffs)
        try:
            outcomes.append(solve(L))
        except InternalConsistencyError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_generic_kl_when_every_value_is_distinct():
    # the grouping's worst case, one value class per element: on the
    # partition lattice of a 3-set, atoms holding 0, 1, 2 and the top holding
    # 1 close the identity at the bottom (sum over atoms = 3 * top) with P = 1
    outcomes = []
    for solve in (kl_polynomial_generic, chi_form_kl):
        L = build_partition_lattice(3)
        for e, c in zip(L.elements_of_rank(1), (0, 1, 2)):
            L._kl_upper[e] = IntPoly([c])
        L._kl_upper[L.top] = IntPoly.one()
        outcomes.append(solve(L))
    assert outcomes == [IntPoly.one(), IntPoly.one()]


@pytest.mark.parametrize("n", range(3, 6))
def test_generic_kl_matches_chi_form_when_every_value_is_distinct(n):
    outcomes = []
    for solve in (kl_polynomial_generic, chi_form_kl):
        L = build_partition_lattice(n)
        for e in range(len(L)):
            if e != L.bottom:
                L._kl_upper[e] = IntPoly([e, 1 - e])
        try:
            outcomes.append(solve(L))
        except InternalConsistencyError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_generic_kl_groups_by_w_as_well_as_t():
    # every entry but the bottom pre-filled with P = 1, except P = 3 on one
    # 2+2 partition and P = 0 on one 3+1 partition: those shifts, weighted by
    # chi = (t-1)^2 and (t-1)(t-2), cancel in the bottom's closing conditions,
    # and they give atoms that share T = t different values of W
    outcomes = []
    for solve in (kl_polynomial_generic, chi_form_kl):
        L = build_partition_lattice(4)
        for e in range(1, len(L)):
            L._kl_upper[e] = IntPoly.one()
        for shape, p in (([2, 2], IntPoly([3])), ([1, 3], IntPoly())):
            f = next(f for f in L.elements_of_rank(2) if sorted(map(len, L.elements[f])) == shape)
            L._kl_upper[f] = p
        outcomes.append(solve(L))
    assert outcomes == [IntPoly([1, 2]), IntPoly([1, 2])]


def test_generic_kl_keys_by_rank():
    # bottom < a < top and bottom < b < top, a at rank 1 and b at rank 2: the
    # two have the same elements above them, so only the rank tells their Q apart
    for solve in (kl_polynomial_generic, chi_form_kl):
        L = from_relation(["bottom", "a", "b", "top"], [0, 1, 2, 3],
                          lambda x, y: x == y or x == "bottom" or y == "top")
        assert solve(L) == IntPoly.one()


def test_generic_kl_keys_by_w_as_well_as_t():
    # f1 sees g1, a, b' and the top above it; f2 sees g2, a', b and the top.
    # g1 and g2 are pre-filled with P = 1, a and a' with P = 2, so each pair
    # shares T, and f1 and f2 count the same T classes.  But g1 sits below a
    # and g2 below b, so their W differ, and with them Q_f1 and Q_f2: the
    # solve closes at f1 and not at f2
    covers = {"bottom": ["f1", "f2"], "f1": ["g1", "b'"], "f2": ["g2", "a'"],
              "g1": ["a"], "g2": ["b"], "a": ["top"], "a'": ["top"], "b": ["top"],
              "b'": ["top"], "top": []}
    ranks = {"bottom": 0, "f1": 1, "f2": 1, "g1": 2, "g2": 2,
             "a": 3, "a'": 3, "b": 3, "b'": 3, "top": 4}

    def leq(x, y):
        return x == y or any(leq(z, y) for z in covers[x])

    for solve in (kl_polynomial_generic, chi_form_kl):
        L = from_relation(list(ranks), list(ranks.values()), leq)
        for name, p in (("a", 2), ("a'", 2), ("g1", 1), ("g2", 1)):
            L._kl_upper[index_of(L, name)] = IntPoly([p])
        with pytest.raises(InternalConsistencyError, match=f"at element {index_of(L, 'f2')};"):
            solve(L)


@pytest.mark.parametrize("n", range(2, 9))
def test_generic_kl_solves_once_per_key(n, monkeypatch):
    # on the partition lattice the key is the rank: n solves, not Bell(n)
    calls = []
    solve = lattice_oracle._solve_upper

    def counting(q, rk):
        calls.append(rk)
        return solve(q, rk)

    monkeypatch.setattr(lattice_oracle, "_solve_upper", counting)
    assert kl_polynomial_generic(build_partition_lattice(n)) == kl_braid_poly(n)
    assert sorted(calls) == list(range(n))


@pytest.mark.parametrize("n", range(2, 10))
def test_generic_kl_matches_fast_recursion(n):
    assert kl_polynomial_generic(build_partition_lattice(n)) == kl_braid_poly(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_generic_kl_boolean_lattice_is_one(n):
    assert kl_polynomial_generic(boolean_lattice(n)) == IntPoly.one()


def test_generic_kl_detects_corrupted_table():
    # The identity closes automatically when every cached entry is consistent
    # with the interval Mobius data, so the guard can only fire on a poisoned
    # cache; corrupt one atom's entry by a constant (degree-shaped corruptions
    # can stay inside the anti-palindromic completion and go unseen).
    L = build_partition_lattice(4)
    atom = L.elements_of_rank(1)[0]
    L._kl_upper[atom] = IntPoly([1000])
    with pytest.raises(InternalConsistencyError):
        kl_polynomial_generic(L)


def test_from_relation_validation():
    with pytest.raises(ValueError):
        # two maximal elements
        from_relation([0, 1, 2], [0, 1, 1], lambda a, b: a == b or a == 0)
    with pytest.raises(ValueError):
        # comparable pair with equal rank
        from_relation([0, 1], [0, 0], lambda a, b: a <= b)
    with pytest.raises(ValueError):
        from_relation([], [], lambda a, b: True)


@pytest.mark.parametrize("elements, ranks, ups, message", [
    ([0, 1], [0, 1], [0b11], "must align"),
    ([], [], [], "must be nonempty"),
    ([0, 1], [0, 1], [0b10, 0b10], "must be reflexive"),
    ([0, 1], [0, 0], [0b11, 0b10], "rank must strictly increase"),
    ([0, 1], [1, 0], [0b11, 0b10], "rank must strictly increase"),
    ([0, 1], [0, 1], [0b111, 0b10], "outside the lattice"),
    ([0, 1], [0, 1], [0b11, 0b110], "outside the lattice"),
    ([0, 1, 2], [0, 1, 1], [0b111, 0b10, 0b100], "unique bottom and top"),
    ([0, 1, 2], [0, 0, 1], [0b101, 0b110, 0b100], "unique bottom and top"),
    ([0, 1], [1, 2], [0b11, 0b10], "bottom must have rank 0"),
    ([0, 1], [0, 2], [0b11, 0b10], "not graded: no element has rank 1"),
    ([0, 1], [0, 1], [0b110, 0b10], "must be reflexive"),
    ([0, 1], [0, 0], [0b111, 0b10], "rank must strictly increase"),
])
def test_lattice_validation_messages(elements, ranks, ups, message):
    with pytest.raises(ValueError, match=message):
        RankedLattice(elements, ranks, ups)


def test_lattice_listed_top_first_is_valid():
    L = RankedLattice([0, 1], [1, 0], [0b01, 0b11])
    assert (L.bottom, L.top) == (1, 0)
    assert kl_polynomial_generic(L) == IntPoly.one()


def test_diamond_listed_top_first_has_its_moebius_function():
    # index order is the reverse of every linear extension, so a Moebius sum
    # in index order would read mu(bottom, a) before it is set
    L = RankedLattice(["top", "a", "b", "bottom"], [2, 1, 1, 0],
                      [0b0001, 0b0011, 0b0101, 0b1111])
    assert (L.bottom, L.top) == (3, 0)
    assert char_poly(L) == IntPoly([1, -2, 1])
    assert mobius(L, L.bottom, L.top) == 1
    assert [mobius(L, L.bottom, x) for x in (1, 2)] == [-1, -1]
    assert kl_polynomial_generic(L) == IntPoly.one()


def mobius_by_intervals(L: RankedLattice) -> dict[tuple[int, int], int]:
    # reference: mu(x, y) = -sum of mu(x, z) over x <= z < y, by memoized
    # recursion over intervals, reading the order through leq alone
    memo: dict[tuple[int, int], int] = {}

    def mu(x: int, y: int) -> int:
        if (x, y) not in memo:
            if not L.leq(x, y):
                memo[x, y] = 0
            elif x == y:
                memo[x, y] = 1
            else:
                memo[x, y] = -sum(mu(x, z) for z in range(len(L))
                                  if z != y and L.leq(x, z) and L.leq(z, y))
        return memo[x, y]

    return {(x, y): mu(x, y) for x in range(len(L)) for y in range(len(L))}


@pytest.mark.parametrize("L", [
    *(build_partition_lattice(n) for n in range(2, 6)),
    relabeled(build_partition_lattice(4), list(range(15))[::-1]),  # Bell(4) = 15
    RankedLattice(["top", "a", "b", "bottom"], [2, 1, 1, 0], [0b0001, 0b0011, 0b0101, 0b1111]),
    boolean_lattice(3),
], ids=["pi2", "pi3", "pi4", "pi5", "pi4-reversed", "diamond-top-first", "boolean3"])
def test_mobius_matches_interval_recursion_entry_by_entry(L):
    want = mobius_by_intervals(L)
    assert {(x, y): mobius(L, x, y) for x in range(len(L)) for y in range(len(L))} == want


@pytest.mark.parametrize("n", range(2, 7))
def test_elements_of_rank_matches_scan_on_any_index_order(n):
    L = build_partition_lattice(n)
    for M in [L] + [relabeled(L, perm) for perm in relabelings(len(L), seed=n)]:
        for r in range(-1, M.rank + 2):
            assert M.elements_of_rank(r) == [i for i, k in enumerate(M.ranks) if k == r]


@pytest.mark.parametrize("n", [4, 5])
def test_flag_whitney_bruteforce_on_any_index_order(n):
    # criterion 07 compares the two on the builder's index order only
    L = build_partition_lattice(n)
    for perm in relabelings(len(L), seed=n):
        M = relabeled(L, perm)
        for length in range(M.rank + 2):
            for I in combinations_with_replacement(range(M.rank + 1), length):
                assert flag_whitney_bruteforce(M, I) == flag_whitney_product(n, I), (perm, I)


def test_flag_whitney_bruteforce_edges():
    L = build_partition_lattice(4)
    assert flag_whitney_bruteforce(L, ()) == 1
    assert flag_whitney_bruteforce(L, (0,)) == 1
    assert flag_whitney_bruteforce(L, (L.rank,)) == 1
    assert flag_whitney_bruteforce(L, (1,)) == stirling_second(4, 3)
    assert flag_whitney_bruteforce(L, (1, 1)) == stirling_second(4, 3)
    with pytest.raises(ValueError):
        flag_whitney_bruteforce(L, (2, 1))
    with pytest.raises(ValueError):
        flag_whitney_bruteforce(L, (4,))


def test_flag_whitney_chain_count_spot():
    # maximal chains of the partition lattice of a 4-set: 4!*3!/2^3 = 18
    L = build_partition_lattice(4)
    assert flag_whitney_bruteforce(L, (1, 2, 3)) == 18


@pytest.mark.parametrize("d", range(1, 11))
def test_generic_kl_uniform_corank_one(d):
    # Elias-Proudfoot-Wakefield: the coefficient of t^i in the KL polynomial
    # of U_{d,d+1} is C(d-i-1, i) C(d+1, i) / (i+1), an exact division
    L = uniform_corank_one_lattice(d)
    assert len(L) == 2 ** (d + 1) - d - 1
    want = []
    for i in range((d + 1) // 2):
        num = math.comb(d - i - 1, i) * math.comb(d + 1, i)
        assert num % (i + 1) == 0, (d, i)
        want.append(num // (i + 1))
    assert kl_polynomial_generic(L) == IntPoly(want)


def test_non_graded_rank_function_is_rejected():
    # a draft of U_{3,4} that gave the ground set rank 4 over its rank-2
    # coatoms: rank still increases along the order, and the generic solve
    # used to return 1 - 4t for it
    L = uniform_corank_one_lattice(3)
    ranks = list(L.ranks)
    ranks[L.top] = 4
    with pytest.raises(ValueError, match="not graded: no element has rank 3"):
        RankedLattice(L.elements, ranks, L.up)
