"""Brute force on explicit finite lattices; the package's independent oracle.

Everything here works from an explicit order relation, with no knowledge of
the Stirling/partition identities used by the fast paths, which is what
makes the cross-checks meaningful.  The order is stored as one bitmask per
element (bit j of ``up[i]`` set iff element i <= element j), elements are
indexed in rank-ascending order so that index order is a linear extension,
and the Moebius function is computed by straight summation over intervals.

The Kazhdan-Lusztig recursion is solved directly on the lattice:

    t^rk * P(1/t) = sum over elements F of chi([bottom, F], t) * P([F, top], t)

The F = bottom term is P itself, so the remaining sum Q determines the low
coefficients (degree < rk/2) as C_j = -[t^j] Q, and the high half of the
identity is then verified exactly; any mismatch raises, since it means the
input was not the lattice of flats of a matroid.

Scale: partition lattices up to the configured bound (Bell(9) = 21147
elements is the default ceiling; the generic recursion is capped lower).
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, Sequence

from .errors import InternalConsistencyError, OracleBoundError
from .partitions import _set_partitions_unchecked
from .polynomial import IntPoly

DEFAULT_LATTICE_BOUND = 9
DEFAULT_GENERIC_KL_BOUND = 7


def _iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RankedLattice:
    """A finite bounded lattice with an explicit rank function.

    ``elements`` are opaque labels (set partitions, for the builder below).
    Construction validates that there is a unique bottom and top, that the
    bottom has rank 0, and that rank strictly increases along the order.
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
        self.down = [0] * n
        for i, mask in enumerate(self.up):
            if not (mask >> i) & 1:
                raise ValueError("order must be reflexive")
            bit = 1 << i
            for j in _iter_bits(mask):
                self.down[j] |= bit
                if j != i and self.ranks[j] <= self.ranks[i]:
                    raise ValueError("rank must strictly increase along the order")
        bottoms = [i for i in range(n) if self.up[i] == full]
        tops = [i for i in range(n) if self.down[i] == full]
        if len(bottoms) != 1 or len(tops) != 1:
            raise ValueError("not a bounded lattice: need unique bottom and top")
        self.bottom = bottoms[0]
        self.top = tops[0]
        if self.ranks[self.bottom] != 0:
            raise ValueError("bottom must have rank 0")
        self._index = None
        self._mobius_rows: dict[int, dict[int, int]] = {}
        self._kl_upper: dict[int, IntPoly] = {}

    @classmethod
    def from_relation(cls, elements: Sequence, ranks: Sequence[int], leq) -> "RankedLattice":
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
        return cls(elems, rks, ups)

    def __len__(self):
        return len(self.elements)

    @property
    def rank(self) -> int:
        return self.ranks[self.top]

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def index_of(self, element) -> int:
        if self._index is None:
            self._index = {e: i for i, e in enumerate(self.elements)}
        return self._index[element]

    def rank_sizes(self) -> list[int]:
        out = [0] * (self.rank + 1)
        for r in self.ranks:
            out[r] += 1
        return out

    def elements_of_rank(self, r: int) -> list[int]:
        return [i for i, rk in enumerate(self.ranks) if rk == r]

    def interval(self, x: int, y: int) -> "RankedLattice":
        """The sublattice [x, y] as a fresh RankedLattice, ranks rebased to 0."""
        if not self.leq(x, y):
            raise ValueError("empty interval: x is not below y")
        members = [a for a in _iter_bits(self.up[x]) if self.leq(a, y)]
        pos = {a: p for p, a in enumerate(members)}
        member_mask = 0
        for a in members:
            member_mask |= 1 << a
        ups = []
        for a in members:
            sub = 0
            for b in _iter_bits(self.up[a] & member_mask):
                sub |= 1 << pos[b]
            ups.append(sub)
        return RankedLattice(
            [self.elements[a] for a in members],
            [self.ranks[a] - self.ranks[x] for a in members],
            ups,
        )

    def lower_interval(self, f: int) -> "RankedLattice":
        return self.interval(self.bottom, f)

    def upper_interval(self, f: int) -> "RankedLattice":
        return self.interval(f, self.top)

    def _mobius_row(self, x: int) -> dict[int, int]:
        row = self._mobius_rows.get(x)
        if row is None:
            row = {x: 1}
            for y in _iter_bits(self.up[x]):
                if y == x:
                    continue
                s = 0
                for a in _iter_bits(self.up[x] & self.down[y]):
                    if a != y:
                        s += row[a]
                row[y] = -s
            self._mobius_rows[x] = row
        return row


def build_partition_lattice(n: int, bound: int = DEFAULT_LATTICE_BOUND) -> RankedLattice:
    """The lattice of set partitions of {1..n}, ordered by refinement.

    The all-singletons partition is the bottom (rank 0); rank is n minus the
    number of blocks.  Order relations are generated constructively: the
    partitions above x are exactly the merges of x's blocks, so only the
    comparable pairs are ever touched.
    """
    if n < 2:
        raise ValueError("partition lattice needs n >= 2")
    if n > bound:
        raise OracleBoundError(f"partition lattice capped at n <= {bound}, got {n}")
    elements = sorted(_set_partitions_unchecked(n), key=lambda p: (n - len(p), p))
    index = {p: i for i, p in enumerate(elements)}
    ranks = [n - len(p) for p in elements]
    ups = []
    for part in elements:
        k = len(part)
        mask = 0
        for pattern in _set_partitions_unchecked(k):
            merged = tuple(
                sorted(
                    tuple(sorted(x for c in cls for x in part[c - 1]))
                    for cls in pattern
                )
            )
            mask |= 1 << index[merged]
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


def _interval_char_coeffs(L: RankedLattice, row: dict[int, int], x: int, f: int) -> IntPoly:
    # chi of [x, f] read straight off the Moebius row of x
    top_rank = L.ranks[f]
    coeffs = [0] * (top_rank - L.ranks[x] + 1)
    for a in _iter_bits(L.up[x] & L.down[f]):
        coeffs[top_rank - L.ranks[a]] += row[a]
    return IntPoly(coeffs)


def kl_polynomial_generic(L: RankedLattice) -> IntPoly:
    """Kazhdan-Lusztig polynomial of a lattice, by the defining recursion.

    Works upward from the top: the polynomial of each upper interval [F, top]
    is solved from the intervals above it.  (The upper interval of G inside
    [F, top] is again [G, top], so one table covers every recursive call.)
    Raises InternalConsistencyError if the degree-constrained solve fails to
    satisfy the full identity, which means the input is not the lattice of
    flats of a matroid.
    """
    cache = L._kl_upper
    order = sorted(range(len(L)), key=lambda e: -L.ranks[e])
    for e in order:
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
            q = q + _interval_char_coeffs(L, row, e, f) * cache[f]
        low = [-q.coeff(j) for j in range((rk_e + 1) // 2)]
        p = IntPoly(low)
        if p.reverse(rk_e) - p != q:
            raise InternalConsistencyError(
                f"degree-constrained solve inconsistent at element {e}; "
                "input is not a geometric lattice"
            )
        cache[e] = p
    return cache[L.bottom]


_braid_kl: dict[int, IntPoly] = {}
_braid_kl_lock = threading.Lock()


def braid_kl_generic(n: int, bound: int = DEFAULT_LATTICE_BOUND) -> IntPoly:
    """P_n by the generic recursion on the whole partition lattice of {1..n}.

    Solved once per n per process.  Only the polynomial is kept, so the
    lattice and its Moebius rows are freed after the solve.  ``bound`` caps
    the lattice that a first call for n builds.  The lock keeps two threads
    from building the same lattice at once, which would double peak memory.
    """
    with _braid_kl_lock:
        p = _braid_kl.get(n)
        if p is None:
            p = _braid_kl[n] = kl_polynomial_generic(build_partition_lattice(n, bound))
        return p


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
        nxt = {}
        for y in L.elements_of_rank(r):
            s = 0
            for x, c in counts.items():
                if L.leq(x, y):
                    s += c
            if s:
                nxt[y] = s
        counts = nxt
    return sum(counts.values())
