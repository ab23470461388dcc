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
before accepting a polynomial; neither check is optional.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .errors import InternalConsistencyError
from .partitions import IntPartition, multiplicity, partitions_of
from .polynomial import IntPoly
from .stirling import partition_char_poly


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


def kl_coeff(n: int, i: int, table: KLTable | None = None) -> int:
    """C_{n,i} = [t^i] P_n(t); zero at and beyond the degree bound (n-1)/2."""
    if i < 0:
        raise ValueError("i must be nonnegative")
    return kl_braid_poly(n, table).coeff(i)


@dataclass
class IdentityReport:
    """Outcome of re-deriving the defining identity for one n."""

    n: int
    lhs: IntPoly
    rhs: IntPoly
    summands: list[tuple[IntPartition, IntPoly]] = field(repr=False, default_factory=list)

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
