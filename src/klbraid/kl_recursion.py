"""The defining recursion for braid Kazhdan-Lusztig polynomials.

The flats of the braid matroid on n strands with l blocks number S(n, l),
and each contracts to the braid matroid on l strands, so the Z-polynomial

    Z_n(t) = sum over l of S(n, l) * t^(n-l) * P_l(t)

is palindromic of degree n - 1 (Proudfoot-Xu-Young, "The Z-polynomial of a
matroid", 2018).  The l = n term is P_n itself, and its coefficients of t^k
and t^(n-1-k), for 0 < k < (n-1)/2, give C_{n,k} along one diagonal:

    C_{n,k} = sum_{l=k+1}^{2k} S(n, l) * C_{l,l-1-k}
              - sum_{d=1}^{k} S(n, n-d) * C_{n-d,k-d}.

A ``KLTable`` keeps row m of C as one list, C_{m,0}, C_{m,1}, ..., as far
as it is filled.  ``kl_coeff(n, i)`` extends every row m <= n through k = i
and builds no P; ``KLTable._solve`` fills the rest of row m and returns P_m.
Palindromicity gives exactly as many equations as unknowns, so it checks
nothing by itself.  Each new value must therefore also satisfy coefficients
k and n-1-k of the defining identity, grouped by block count.  The flats
with l blocks sum to B_{n,l}(t), the sum of prod_b chi_{|b|} over the set
partitions of an n-set into l blocks b, with chi_m the characteristic
polynomial of the rank-(m-1) partition lattice (the falling factorial over
t).  By the exponential formula B_{n,l}(t) = sum_j s(n, l+j) * S(l+j, l)
* t^j, and the terms with l+j = r sum to s(n, r) * Z_r(t), so

    0 = C_{n,k} + R_{n,k} + sum_{r=k+1}^{n-1} s(n, r) * [t^k]Z_r,
    C_{n,k} = sum_{l<n} sum_xi s(n, a+l) * S(a+l, l) * C_{l,xi},  a = n-1-k-xi,

where R_{n,k} is the diagonal's second sum above (Z_r has degree r-1, so
r <= k adds nothing), and be nonnegative, as every coefficient of a
matroid's Kazhdan-Lusztig polynomial is (Braden-Huh-Matherne-Proudfoot-Wang).
None of these checks is optional.  The first reads a per-table memo of
[t^k]Z_r = sum_{d<=k} S(r, r-d) * C_{r-d,k-d}, one list over r per k, each
entry formed once from that definition, so the memo fills bottom-up in n
and an entry costs O(n) multiplications, with no partition or polynomial
product.  The second is the chain sum, ``chain_sum``, O(k^2) Stirling
products per entry and so O(n^4) per table, most of a fill's time: a cold
fill to row 130 took 1.1-2.2 s of CPU in-process on a 2-core host (5 fresh
processes).  The chain method steps the same weights as coefficients of B
near its top, from no Stirling number (``chain_formula``).

Those checks read the Stirling cache that the diagonal reads, a row at a
time: each entry fetches the triangles once (``stirling_rows``) and indexes
them, so a term costs its products and no call per Stirling number.  Rows
n <= PARTITION_CHECK_MAX_N are also closed against the same identity,
t^(n-1) * P_n(1/t) = sum_l B_{n,l}(t) * P_l(t), with row n of B built from
row n-1 alone by ``partitions.chi_block_row``, which reads no chi and no
Stirling number.  The l = n term is P_n itself, and the others cost one
product by P_l each.  ``verify_defining_identity`` sums the identity over
integer partitions instead, term by term, at any n, with chi_lam from a
memo that lives for the call:

    t^(n-1) * P_n(1/t) = sum_{lam |- n} m(lam) * chi_lam(t) * P_{l(lam)}(t),

where m(lam) counts set partitions of shape lam.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import NamedTuple

from .errors import InternalConsistencyError
from .partitions import IntPartition, chi_block_row, multiplicity, partitions_of
from .polynomial import IntPoly
from .stirling import partition_char_poly, stirling_rows

# Rows up to here are also closed by block count: row n of B is about n^2/2
# coefficient operations on row n-1, plus n-1 products by P_l, and closing
# rows 2..20 took about 2 ms of CPU on a 2-core host.  The products grow with
# n: a fill to row 100 took 1.24 s of CPU with every row closed, 0.78 s with
# the close capped here.
PARTITION_CHECK_MAX_N = 20


class KLTable:
    """Bottom-up table of braid Kazhdan-Lusztig polynomials P_1, P_2, ...
    and of their coefficients C_{m,k}.

    Shareable across threads: the fill happens under a lock, and the rows
    and memo lists only grow, so no entry changes once published.
    """

    def __init__(self):
        self._polys: list[IntPoly | None] = [None, IntPoly.one()]
        # _rows[m] = [C_{m,0}, C_{m,1}, ...] as far as row m is filled
        self._rows: list[list[int]] = [[], [1]]
        # _z[k][r] = [t^k]Z_r, 0 at r <= k, as far as the coefficient-k check read
        self._z: list[list[int]] = []
        # B_{m,l} as _block_row[l] for the last row m <= PARTITION_CHECK_MAX_N
        # that closed, the only row the next one is built from
        self._block_row: list[IntPoly] = [IntPoly(), IntPoly.one()]
        self._lock = threading.RLock()

    def poly(self, n: int) -> IntPoly:
        if n < 1:
            raise ValueError("n must be positive")
        if n < len(self._polys):
            return self._polys[n]
        with self._lock:
            while len(self._polys) <= n:
                self._polys.append(self._solve(len(self._polys)))
            return self._polys[n]

    def _solve(self, m: int) -> IntPoly:
        # every row below m is in the table, so only row m is filled here
        self._fill(m, (m - 2) // 2)
        p = IntPoly(self._rows[m])
        if m <= PARTITION_CHECK_MAX_N:
            row = chi_block_row(self._block_row)
            # the l = m term, all singletons, is P_m itself
            q = IntPoly()
            for l in range(1, m):
                q = q + row[l] * self._polys[l]
            if p.reverse(m - 1) - p != q:
                raise InternalConsistencyError(f"defining identity failed to close at n={m}")
            # only a row that closed is kept, so a refused row is built again
            self._block_row = row
        return p

    def _coeff(self, m: int, k: int) -> int:
        """C_{m,k} from its row: 1 at k = 0, 0 from the degree bound on."""
        if k == 0:
            return 1
        if 2 * k >= m - 1:
            return 0
        return self._rows[m][k]

    def _fill(self, n: int, top: int) -> None:
        """Extend rows m <= n through C_{m,top}, or to their degree bound,
        bottom-up; a row already filled that far costs one length check."""
        with self._lock:
            self._rows += [[1] for _ in range(len(self._rows), n + 1)]
            self._z += [[0] * (k + 1) for k in range(len(self._z), top + 1)]
            for m, row in enumerate(self._rows[4:n + 1], 4):
                for k in range(len(row), min(top, (m - 2) // 2) + 1):
                    row.append(self._solve_diagonal(m, k))

    def _solve_diagonal(self, m: int, k: int) -> int:
        """C_{m,k} from the Z-polynomial, checked against both coefficients
        of the grouped defining identity and for sign; the coefficient-k
        check reads s(m, r) and the memo's [t^k]Z_r for k < r < m."""
        coeff = self._coeff
        # 0 < k < (m-1)/2, so every index below lies in 0..m and in its row
        s, S = stirling_rows(m)
        row = S[m]
        rest = sum(row[m - d] * coeff(m - d, k - d) for d in range(1, k + 1))
        c = sum(row[l] * coeff(l, l - 1 - k) for l in range(k + 1, 2 * k + 1)) - rest
        z = self._z[k]
        for r in range(len(z), m):
            row = S[r]
            z.append(sum(row[r - d] * coeff(r - d, k - d) for d in range(k + 1)))
        row = s[m]
        low = -rest - sum(row[r] * z[r] for r in range(k + 1, m))
        high = chain_sum(m, k, coeff)
        if not c == low == high:
            raise InternalConsistencyError(
                f"Z-polynomial diagonal failed the defining identity at n={m}, i={k}: "
                f"{c}, {low}, {high}"
            )
        if c < 0:
            raise InternalConsistencyError(f"coefficient of t^{k} negative at n={m}: {c}")
        return c


def chain_sum(n: int, i: int, coeff: Callable[[int, int], int]) -> int:
    """C_{n,i} = sum_{l,xi} s(n, a+l) * S(a+l, l) * coeff(l, xi), a = n-1-i-xi,
    for 0 <= i < (n-1)/2; coeff(l, xi) reads C_{l,xi} and is 1 at xi = 0.
    A term needs a <= n-l, so xi >= l-1-i, and for l >= 2, C_{l,xi} = 0 past
    xi = (l-2)/2, so l <= 2i: O(i^2) Stirling products.  At larger i a term
    with a < 0 has S(a+l, l) = 0 and is skipped, so xi < n-i."""
    s, S = stirling_rows(n)
    first = s[n]
    value = 0
    for l in range(1, max(1, 2 * i) + 1):
        for xi in range(max(0, l - 1 - i), min(max(1, l // 2), n - i)):
            total = n - 1 - i - xi + l
            value += first[total] * S[total][l] * coeff(l, xi)
    return value


_DEFAULT_TABLE = KLTable()


def kl_braid_poly(n: int, table: KLTable | None = None) -> IntPoly:
    """P_n(t), the Kazhdan-Lusztig polynomial of the braid matroid on n strands."""
    return (table or _DEFAULT_TABLE).poly(n)


def kl_coeff(n: int, i: int, table: KLTable | None = None) -> int:
    """C_{n,i} = [t^i] P_n(t); zero at and beyond the degree bound (n-1)/2.

    Extends the rows of C through k = i, bottom-up in m, and builds no P."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    tab = table or _DEFAULT_TABLE
    if i and 2 * i < n - 1:
        tab._fill(n, i)
    return tab._coeff(n, i)


class IdentityReport(NamedTuple):
    """Outcome of re-deriving the defining identity for one n."""

    n: int
    lhs: IntPoly
    rhs: IntPoly
    summands: list[tuple[IntPartition, IntPoly]]

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    @property
    def mismatches(self) -> list[tuple[int, int, int]]:
        top = max(self.lhs.degree, self.rhs.degree)
        return [
            (k, self.lhs.coeff(k), self.rhs.coeff(k))
            for k in range(top + 1)
            if self.lhs.coeff(k) != self.rhs.coeff(k)
        ]

    def __bool__(self):
        return self.equal


def verify_defining_identity(n: int, table: KLTable | None = None) -> IdentityReport:
    """Recompute both sides of the defining identity at n, coefficient by
    coefficient, and report.  The right side here includes every partition,
    the all-singletons term along with the rest."""
    tab = table or _DEFAULT_TABLE
    lhs = tab.poly(n).reverse(n - 1)  # fills the table through n
    # chi_lam keyed by lam's blocks > 1, in decreasing order
    chi: dict[tuple[int, ...], IntPoly] = {(): IntPoly.one()}

    def chi_product(key: tuple[int, ...]) -> IntPoly:
        prod = chi.get(key)
        if prod is None:
            if len(key) == 1:
                prod = partition_char_poly(key[0])
            else:
                # splitting off the smallest block makes the cheapest product
                prod = chi_product(key[:-1]) * chi_product(key[-1:])
            chi[key] = prod
        return prod

    rhs = IntPoly()
    summands = []
    with tab._lock:
        for lam in partitions_of(n):
            blocks = lam.blocks
            chi_lam = chi_product(blocks[:len(blocks) - blocks.count(1)])
            term = multiplicity(lam) * chi_lam * tab._polys[lam.length]
            rhs = rhs + term
            summands.append((lam, term))
    return IdentityReport(n=n, lhs=lhs, rhs=rhs, summands=summands)
