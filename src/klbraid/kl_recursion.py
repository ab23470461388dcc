"""The defining recursion for braid Kazhdan-Lusztig polynomials, fast path.

For the matroid of the complete graph on n vertices the lattice of flats is
the partition lattice, and the defining identity collapses to partition data:

    t^(n-1) * P_n(1/t) = sum over lam |- n of
        m(lam) * prod_k chi_{b_k}(t) * P_{l(lam)}(t)

where chi_m is the characteristic polynomial of the rank-(m-1) partition
lattice (the falling factorial over t) and m(lam) counts set partitions of
shape lam.  The all-singletons partition contributes P_n itself, so moving
it across determines the low coefficients of P_n from smaller cases:

    C_{n,i} = -[t^i] Q   for i < (n-1)/2,   Q = the sum over lam != 1^n.

The solve always re-verifies the full identity (both coefficient halves)
and, since the coefficients of every matroid's Kazhdan-Lusztig polynomial
are nonnegative (Braden-Huh-Matherne-Proudfoot-Wang), that each one is,
before accepting a polynomial; neither check is optional.  ``poly``,
``kl_braid_poly`` and ``verify_defining_identity`` read this fill.

A single coefficient needs no row.  The flats of the braid matroid on n
strands with l blocks number S(n, l), and each contracts to the braid
matroid on l strands, so the Z-polynomial

    Z_n(t) = sum over l of S(n, l) * t^(n-l) * P_l(t)

is palindromic of degree n - 1 (Proudfoot-Xu-Young, "The Z-polynomial of a
matroid", 2018).  Its coefficients of t^k and t^(n-1-k), for 0 < k < (n-1)/2,
give C_{n,k} along one diagonal:

    C_{n,k} = sum_{l=k+1}^{2k} S(n, l) * C_{l,l-1-k}
              - sum_{d=1}^{k} S(n, n-d) * C_{n-d,k-d}.

``kl_coeff`` reads row n when the table holds it and this diagonal
otherwise, memoized per (n, k).  Palindromicity gives exactly as many
equations as unknowns, so it checks nothing by itself.  Each new value must
therefore also satisfy coefficients k and n-1-k of the defining identity,
grouped by block count: by the exponential formula the flats with l blocks
sum to B_{n,l}(t) = sum_j s(n, l+j) * S(l+j, l) * t^j, so

    0 = C_{n,k} + sum_{l<n} sum_{j<=k} s(n, l+j) * S(l+j, l) * C_{l,k-j},
    C_{n,k} = sum_{l<n} sum_xi s(n, a+l) * S(a+l, l) * C_{l,xi},  a = n-1-k-xi,

and be nonnegative.  The first check reads every C_{l,j} with l < n and
j <= k, so the memo fills bottom-up in n: O(n*k) entries of O(n*k) Stirling
products each, with no partition, no polynomial product and no recursion.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from .errors import InternalConsistencyError
from .partitions import IntPartition, multiplicity, partitions_of
from .polynomial import IntPoly
from .stirling import partition_char_poly, stirling_first, stirling_second


class KLTable:
    """Bottom-up table of braid Kazhdan-Lusztig polynomials P_1, P_2, ...

    Shareable across threads: the fill happens under a lock and rows are
    never mutated once published.
    """

    def __init__(self):
        self._polys: list[IntPoly | None] = [None, IntPoly.one()]
        self._chi: list[IntPoly] = [IntPoly.one()]  # slot 0 is a placeholder
        self._lock = threading.RLock()

    def _chi_poly(self, b: int) -> IntPoly:
        while len(self._chi) <= b:
            self._chi.append(partition_char_poly(len(self._chi)))
        return self._chi[b]

    def poly(self, n: int) -> IntPoly:
        if n < 1:
            raise ValueError("n must be positive")
        if n < len(self._polys):
            p = self._polys[n]
            if p is not None:
                return p
        with self._lock:
            while len(self._polys) <= n:
                self._polys.append(self._solve(len(self._polys)))
            return self._polys[n]

    def _solve(self, m: int) -> IntPoly:
        # sum over every partition except all-singletons; those are the
        # known quantities once P_1 .. P_{m-1} are in the table
        q = IntPoly()
        for lam, term in self._summands(m, include_trivial=False):
            q = q + term
        rk = m - 1
        low = [-q.coeff(i) for i in range((rk + 1) // 2)]
        p = IntPoly(low)
        if p.reverse(rk) - p != q:
            raise InternalConsistencyError(f"defining identity failed to close at n={m}")
        for i, c in enumerate(p.coeffs):
            if c < 0:
                raise InternalConsistencyError(f"coefficient of t^{i} negative at n={m}: {c}")
        return p

    def _summands(self, n: int, include_trivial: bool):
        for lam in partitions_of(n):
            if lam.length == n and not include_trivial:
                continue
            prod = IntPoly.one()
            for b in lam.blocks:
                if b > 1:
                    prod = prod * self._chi_poly(b)
            yield lam, multiplicity(lam) * prod * self._polys[lam.length]


_DEFAULT_TABLE = KLTable()


def default_table() -> KLTable:
    return _DEFAULT_TABLE


def kl_braid_poly(n: int, table: KLTable | None = None) -> IntPoly:
    """P_n(t), the Kazhdan-Lusztig polynomial of the braid matroid on n strands."""
    return (table or _DEFAULT_TABLE).poly(n)


# C_{m,k} for 0 < k < (m-1)/2, read off the Z-polynomial's diagonal.
# The memo takes no lock: two threads racing on one key store equal values.
_diagonal: dict[tuple[int, int], int] = {}


def _memo_coeff(m: int, k: int) -> int:
    """C_{m,k} from the diagonal memo: 1 at k = 0, 0 at and beyond the
    degree bound."""
    if k == 0:
        return 1
    if 2 * k >= m - 1:
        return 0
    return _diagonal[m, k]


def _solve_diagonal(m: int, k: int) -> int:
    """C_{m,k} from the Z-polynomial, checked against both coefficients of
    the grouped defining identity; needs every C_{l,j}, l < m, j <= k."""
    c = (sum(stirling_second(m, l) * _memo_coeff(l, l - 1 - k) for l in range(k + 1, 2 * k + 1))
         - sum(stirling_second(m, m - d) * _memo_coeff(m - d, k - d) for d in range(1, k + 1)))
    low = -sum(stirling_first(m, l + j) * stirling_second(l + j, l) * _memo_coeff(l, k - j)
               for l in range(1, m) for j in range(min(k, m - l) + 1))
    # the chain form; C_{l,xi} = 0 for l > 2k, where xi >= l-1-k > (l-2)/2
    high = 0
    for l in range(1, 2 * k + 1):
        for xi in range(max(0, l - 1 - k), max(1, l // 2)):
            total = m - 1 - k - xi + l
            high += stirling_first(m, total) * stirling_second(total, l) * _memo_coeff(l, xi)
    if not c == low == high:
        raise InternalConsistencyError(
            f"Z-polynomial diagonal failed the defining identity at n={m}, i={k}: "
            f"{c}, {low}, {high}"
        )
    if c < 0:
        raise InternalConsistencyError(f"coefficient of t^{k} negative at n={m}: {c}")
    return c


def kl_coeff(n: int, i: int, table: KLTable | None = None) -> int:
    """C_{n,i} = [t^i] P_n(t); zero at and beyond the degree bound (n-1)/2.

    Read from row n when the table already holds it, and otherwise from the
    Z-polynomial's diagonal, which fills no row (see the module docstring).
    """
    if i < 0:
        raise ValueError("i must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    polys = (table or _DEFAULT_TABLE)._polys
    if n < len(polys):
        return polys[n].coeff(i)
    if i and 2 * i < n - 1 and (n, i) not in _diagonal:
        # bottom-up in m, so no call recurses
        for m in range(4, n + 1):
            for k in range(1, min(i, (m - 2) // 2) + 1):
                if (m, k) not in _diagonal:
                    _diagonal[m, k] = _solve_diagonal(m, k)
    return _memo_coeff(n, i)


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
    tab.poly(n)  # ensure the table is filled through n
    lhs = tab.poly(n).reverse(n - 1)
    rhs = IntPoly()
    summands = []
    with tab._lock:
        for lam, term in tab._summands(n, include_trivial=True):
            rhs = rhs + term
            summands.append((lam, term))
    return IdentityReport(n=n, lhs=lhs, rhs=rhs, summands=summands)
