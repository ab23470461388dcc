"""Brute force on explicit finite lattices; the package's independent oracle.

Everything here works from an explicit order relation, with no knowledge of
the Stirling/partition identities used by the fast paths, which is what
makes the cross-checks meaningful.  The order is stored once, as one bitmask
per element (bit j of ``up[i]`` set iff element i <= element j), next to one
mask per rank.  Rank strictly increases along the order, so reading an
up-set rank by rank follows a linear extension whatever the index order:
the Moebius function pushes each value up the up masks that way, and the
flag counts step from one rank to the next.  The partition lattice's order
is built from block containment: up[e] is the AND, over e's blocks, of the
mask of partitions with a block containing that block.

The Kazhdan-Lusztig recursion is solved directly on the lattice:

    t^rk * P(1/t) = sum over elements F of chi([bottom, F], t) * P([F, top], t)

The F = bottom term is P itself, so the remaining sum Q determines the low
coefficients (degree < rk/2) as C_j = -[t^j] Q, and the high half of the
identity is then verified exactly; any mismatch raises, since it means the
input was not the lattice of flats of a matroid.  Q is regrouped by Moebius
inversion, and the elements above are summed by value class.  Ranks are
solved one at a time from the top down, so each element costs one mask AND
and popcount per class of higher rank.  Q depends only on the rank and the
count in each class, so the solve and its check run once per distinct key:
elements x classes mask operations plus rank + 1 solves on a partition
lattice, elements^2 mask operations and a solve per element when every
value is distinct.

Scale: partition lattices up to ``DEFAULT_LATTICE_BOUND`` (Bell(9) = 21147
elements); the generic recursion is capped lower by the CLI's default,
``cli.DEFAULT_GENERIC_KL_BOUND``.  The module keeps no state between calls:
a lattice memoizes its own Moebius rows and solved polynomials, and
``braid_kl_generic`` drops its lattice once P_n is solved.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, repeat, zip_longest
from operator import or_

from .errors import InternalConsistencyError, OracleBoundError
from .partitions import set_partitions_of
from .polynomial import IntPoly

DEFAULT_LATTICE_BOUND = 9
# elements per batch of the generic solve's counts: a batch holds each of its
# elements' up masks, so a whole rank of the partition lattice of a 9-set
# at once would hold thousands of 21147-bit masks
_SLICE = 512


def _iter_bits(mask: int) -> Iterator[int]:
    # shifting each found bit out keeps the operands as short as what is left
    i = -1
    while mask:
        step = (mask & -mask).bit_length()
        i += step
        yield i
        mask >>= step


def _mask(indices: Sequence[int]) -> int:
    # the bitmask of the given indices, spelled out in binary digits
    digits = bytearray(b"0") * (max(indices) + 1)
    for i in indices:
        digits[i] = ord("1")
    return int(digits[::-1], 2)


class RankedLattice:
    """A finite bounded lattice with an explicit rank function.

    ``elements`` are opaque labels (set partitions, for the builder below).
    Construction validates that the order is reflexive, that rank strictly
    increases along it, that there is a unique bottom and top, that the
    bottom has rank 0, and that every rank up to the top's is held by some
    element.  Index order need not be rank order.  Reflexivity and strict
    rank increase are checked together, by one AND per element with the mask
    of every element of rank at most its own, which must leave the element
    alone.  The per-rank masks built for that check are kept as the rank
    index that everything else reads.

    Gradedness is checked only that far: a rank function need not be the
    height, and the generic solve keys Q by rank as well as by what lies
    above, so that such a lattice still gets its own polynomial.
    """

    def __init__(self, elements: Sequence, ranks: Sequence[int], up_masks: Sequence[int]):
        if not (len(elements) == len(ranks) == len(up_masks)):
            raise ValueError("elements, ranks and up masks must align")
        if not elements:
            raise ValueError("lattice must be nonempty")
        n = len(elements)
        full = (1 << n) - 1
        self.elements = list(elements)
        self.ranks = list(ranks)
        self.up = list(up_masks)
        of_rank: dict[int, list[int]] = {}
        for i, r in enumerate(self.ranks):
            of_rank.setdefault(r, []).append(i)
        # rank -> mask of the elements of that rank, in increasing rank
        self._rank_mask = {r: _mask(of_rank[r]) for r in sorted(of_rank)}
        at_most = dict(zip(self._rank_mask, accumulate(self._rank_mask.values(), or_)))
        top_mask = full
        for i, mask in enumerate(self.up):
            # of the elements of rank at most rank(i), i's up-set holds i alone
            bit = 1 << i
            if (mask & at_most[self.ranks[i]]) != bit:
                if not mask & bit:
                    raise ValueError("order must be reflexive")
                raise ValueError("rank must strictly increase along the order")
            if mask.bit_length() > n:
                raise ValueError(f"up mask of element {i} names an element outside the lattice")
            top_mask &= mask
        bottoms = [i for i in range(n) if self.up[i] == full]
        if len(bottoms) != 1 or not top_mask or top_mask & (top_mask - 1):
            raise ValueError("not a bounded lattice: need unique bottom and top")
        self.bottom = bottoms[0]
        self.top = top_mask.bit_length() - 1
        if self.ranks[self.bottom] != 0:
            raise ValueError("bottom must have rank 0")
        # every rank lies in 0..rank(top), so a graded lattice holds each one
        missing = set(range(self.ranks[self.top])) - self._rank_mask.keys()
        if missing:
            raise ValueError(f"not graded: no element has rank {min(missing)}")
        self._mobius_rows: dict[int, dict[int, int]] = {}
        self._kl_upper: dict[int, IntPoly] = {}

    def __len__(self):
        return len(self.elements)

    @property
    def rank(self) -> int:
        return self.ranks[self.top]

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def elements_of_rank(self, r: int) -> list[int]:
        return list(_iter_bits(self._rank_mask.get(r, 0)))

    def _mobius_row(self, x: int) -> dict[int, int]:
        # each z above x, rank by rank, takes mu(x, z) = -(the sum pushed into
        # it) and pushes that value into every element strictly above it; all
        # of those have higher rank, so each sum is whole when it is read
        row = self._mobius_rows.get(x)
        if row is None:
            row = {}
            pushed = [0] * len(self.up)
            pushed[x] = -1  # so that mu(x, x) = 1
            for r in range(self.ranks[x], self.rank + 1):
                for z in _iter_bits(self.up[x] & self._rank_mask[r]):
                    mu = row[z] = -pushed[z]
                    for y in _iter_bits(self.up[z] ^ (1 << z)):
                        pushed[y] += mu
            self._mobius_rows[x] = row
        return row


def build_partition_lattice(n: int) -> RankedLattice:
    """The lattice of set partitions of {1..n}, ordered by refinement.

    The all-singletons partition is the bottom (rank 0); rank is n minus the
    number of blocks, and elements are listed by rank, then as tuples.  f
    lies above e exactly when each block of e lies inside a block of f.  So
    the order is built from block containment: ``has[B]`` holds the elements
    with a block whose points are the set B, ``inside[b]``, the OR of
    ``has[B]`` over every B containing b, holds those with a block containing
    b, and up[e] is the AND of ``inside[b]`` over e's blocks.  Cost: one bit
    set per element and block of two or more points, n * 2^(n-1) mask ORs
    for the superset sums over the point sets, then one mask AND per element
    and block of two or more points.
    """
    if n < 2:
        raise ValueError("partition lattice needs n >= 2")
    if n > DEFAULT_LATTICE_BOUND:
        raise OracleBoundError(f"partition lattice capped at n <= {DEFAULT_LATTICE_BOUND}, got {n}")
    by_blocks: list[list[tuple[tuple[int, ...], ...]]] = [[] for _ in range(n + 1)]
    for part in set_partitions_of(n):
        by_blocks[len(part)].append(part)
    elements: list[tuple[tuple[int, ...], ...]] = []
    ranks: list[int] = []
    for k in range(n, 0, -1):
        by_blocks[k].sort()
        elements += by_blocks[k]
        ranks += [n - k] * len(by_blocks[k])
    width = (len(elements) + 7) >> 3
    has: dict[tuple[int, ...], bytearray] = {}
    for i, part in enumerate(elements):
        byte, bit = i >> 3, 1 << (i & 7)
        for block in part:
            if len(block) > 1:
                buf = has.get(block)
                if buf is None:
                    buf = has[block] = bytearray(width)
                buf[byte] |= bit
    inside = [0] * (1 << n)  # indexed by a set of points, bit x - 1 for point x
    points = {block: sum(1 << (x - 1) for x in block) for block in has}
    for block, buf in has.items():
        inside[points[block]] = int.from_bytes(buf, "little")
    del has
    for j in range(n):
        bit = 1 << j
        for s in range(1 << n):
            if not s & bit:
                inside[s] |= inside[s | bit]
    inside_of = {block: inside[b] for block, b in points.items()}
    full = (1 << len(elements)) - 1
    ups = []
    for part in elements:
        mask = full
        for block in part:
            if len(block) > 1:
                mask &= inside_of[block]
        ups.append(mask)
    return RankedLattice(elements, ranks, ups)


def mobius(L: RankedLattice, x: int, y: int) -> int:
    """Moebius function mu(x, y); zero when x is not below y.  Memoized per row."""
    if not L.leq(x, y):
        return 0
    return L._mobius_row(x)[y]


def char_poly(L: RankedLattice) -> IntPoly:
    """Characteristic polynomial sum_x mu(bottom, x) t^(rk - rank(x))."""
    row = L._mobius_row(L.bottom)
    coeffs = [0] * (L.rank + 1)
    for x, mu_x in row.items():
        coeffs[L.rank - L.ranks[x]] += mu_x
    return IntPoly(coeffs)


def _add_scaled(acc: list[int], k: int, vec: Sequence[int]) -> None:
    if len(acc) < len(vec):
        acc.extend([0] * (len(vec) - len(acc)))
    for j, c in enumerate(vec):
        acc[j] += k * c


def _solve_upper(q: IntPoly, rk: int) -> tuple[IntPoly, bool]:
    # degree-constrained solve of t^rk P(1/t) - P(t) = Q: the low half of P
    # is -Q's, and the flag says whether the high half then closes
    p = IntPoly([-c for c in q.coeffs[: (rk + 1) // 2]]) if rk else IntPoly.one()
    return p, p.reverse(rk) - p == q


def _class_counts(L: RankedLattice, at_rank: list[int], masks: list[int], lo: int):
    # each element of one rank with its count in each class mask, every mask
    # shifted right by lo, counted a class at a time over _SLICE elements
    if not masks:
        yield from zip(at_rank, repeat(()))
        return
    shifted = [mask >> lo for mask in masks]
    for start in range(0, len(at_rank), _SLICE):
        part = at_rank[start:start + _SLICE]
        ups = [L.up[e] >> lo for e in part]
        yield from zip(part, zip(*[[(up & mask).bit_count() for up in ups] for mask in shifted]))


def kl_polynomial_generic(L: RankedLattice) -> IntPoly:
    """Kazhdan-Lusztig polynomial of a lattice, by the defining recursion.

    Solves P_e of each upper interval [e, top] from the intervals above it.
    By Moebius inversion (the Z-polynomial regrouping of Proudfoot-Xu-Young),
    Q_e = t^(-rank(e)) sum_{f > e} t^rank(f) P_f - sum_{f > e} (Q_f + P_f) for
    whatever the table holds, pre-filled entries included, so two coefficient
    vectors per element replace every interval.  Solved elements are grouped
    by their value (T_f, W_f) = (t^rank(f) P_f, Q_f + P_f), one bitmask per
    distinct value, so each sum over f > e is sum_v v * |up(e) & mask_v|.
    Q_e is therefore fixed by rank(e) and the counts per value class, and the
    solve and its identity check run once per distinct such key; a pre-filled
    entry takes Q from its key and its value from its own P.

    Ranks are solved one at a time from the top down, each in index order.
    Rank strictly increases along the order, so two elements of one rank are
    never comparable: everything above an element has a higher rank and is
    already solved, and a rank joins the class masks only once all of it is.
    Index order need not be rank order; the masks are read shifted right by
    the lowest index solved so far, which no class mask lies below.

    Cost: one mask AND and popcount per element and class of higher rank,
    plus one solve per distinct key.  On a partition lattice there are
    rank + 1 classes and rank + 1 keys; in the worst case, every value
    distinct, it is elements^2 mask operations and a solve per element.
    Raises InternalConsistencyError at the first element whose
    degree-constrained solve fails the full identity, which means the input
    is not the lattice of flats of a matroid.
    """
    cache = L._kl_upper
    classes: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    values: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    masks: list[int] = []
    lo = len(L)  # lowest index solved so far
    for r in range(L.rank, -1, -1):
        at_rank = L.elements_of_rank(r)
        members: dict[int, list[int]] = {}  # class -> this rank's elements in it
        # counts per class of higher rank -> (Q, solved P, identity closes, value)
        solved: dict[tuple[int, ...], tuple] = {}
        for e, counts in _class_counts(L, at_rank, masks, lo):
            entry = solved.get(counts)
            if entry is None:
                t_sum: list[int] = []  # sum of t^rank(f) * P_f, by absolute degree
                w_sum: list[int] = []  # sum of Q_f + P_f
                for c, k in enumerate(counts):
                    if k:
                        t_f, w_f = values[c]
                        _add_scaled(t_sum, k, t_f)
                        _add_scaled(w_sum, k, w_f)
                q = IntPoly(a - b for a, b in zip_longest(t_sum[r:], w_sum, fillvalue=0))
                p, closes = _solve_upper(q, L.rank - r)
                entry = solved[counts] = (q, p, closes, ((0,) * r + p.coeffs, (q + p).coeffs))
            q, p, closes, value = entry
            filled = cache.get(e)
            if filled is not None:
                value = ((0,) * r + filled.coeffs, (q + filled).coeffs)
            elif closes:
                cache[e] = p
            else:
                raise InternalConsistencyError(
                    f"degree-constrained solve inconsistent at element {e}; "
                    "input is not a geometric lattice"
                )
            c = classes.get(value)
            if c is None:
                c = classes[value] = len(values)
                values.append(value)
                masks.append(0)
            members.setdefault(c, []).append(e)
        for c, in_class in members.items():
            masks[c] |= _mask(in_class)
        lo = min(lo, at_rank[0])
    return cache[L.bottom]


def braid_kl_generic(n: int) -> IntPoly:
    """P_n by the generic recursion on the whole partition lattice of {1..n}.

    Builds and solves the lattice on every call and keeps nothing, so the
    lattice is freed once the polynomial is returned; a caller that needs
    P_n twice keeps it.  The lattice is built under
    ``build_partition_lattice``'s cap, ``DEFAULT_LATTICE_BOUND``.
    """
    return kl_polynomial_generic(build_partition_lattice(n))


def flag_whitney_bruteforce(L: RankedLattice, ranks: Sequence[int]) -> int:
    """Count weakly increasing element chains hitting the given ranks.

    ``ranks`` must be weakly increasing, each within [0, rk(L)].  The empty
    index counts the empty chain, once.
    """
    rk = L.rank
    prev = None
    for r in ranks:
        if r < 0 or r > rk:
            raise ValueError(f"rank {r} outside [0, {rk}]")
        if prev is not None and r < prev:
            raise ValueError("rank multi-index must be weakly increasing")
        prev = r
    if not ranks:
        return 1
    counts = {x: 1 for x in L.elements_of_rank(ranks[0])}
    for r in ranks[1:]:
        nxt: dict[int, int] = {}
        for x, c in counts.items():
            for y in _iter_bits(L.up[x] & L._rank_mask[r]):
                nxt[y] = nxt.get(y, 0) + c
        counts = nxt
    return sum(counts.values())
