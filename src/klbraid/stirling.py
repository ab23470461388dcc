"""Stirling numbers of both kinds, exactly, plus the polynomials built from them.

Conventions
-----------
``stirling_first(n, k)`` is the *signed* number s(n, k): the coefficient of
t^k in the falling factorial t(t-1)...(t-n+1), so its sign is (-1)^(n-k).
``stirling_second(n, k)`` counts set partitions of an n-set into k blocks.
Both satisfy one triangular recurrence, T(m, k) = T(m-1, k-1) + w*T(m-1, k),
with weight w = -(m-1) for s and w = k for S, and both are cached in a
grow-only table (``StirlingCache``), guarded by a lock so that concurrent
readers can share one instance.  ``stirling_rows(n)`` hands out the live
triangles, grown through row n, to callers that read many entries.  A row
is never mutated once appended, and callers must not mutate it either; they
index only rows 0..n and entries 0..r of row r, since entries outside the
triangle are not stored and a negative index wraps silently.

``falling_factorial_poly`` deliberately does *not* consult the cache: it
expands the product (t)(t-1)...(t-n+1) directly.  Its coefficients equaling
``stirling_first`` is therefore a genuine cross-check between two
independent computations, and the self-test relies on that.

``stirling_first_nonrecursive`` evaluates the closed form

    |s(n, m)| = (n-1)! * e_{m-1}(1, 1/2, ..., 1/(n-1))

where e_j is the elementary symmetric polynomial, using exact rationals.
A tempting nested-sum variant of this identity carries one summation
index too many and a spurious m!/(m-1)! factor and already fails at
(n, m) = (3, 2); the elementary-symmetric form above is the one that
holds, and the equality with the recurrence table is enforced by tests
over 1 <= m <= n <= 12.
"""

from __future__ import annotations

import threading
from itertools import repeat
from math import factorial

from .errors import InternalConsistencyError
from .polynomial import IntPoly


class StirlingCache:
    """Grow-only triangles of s (``_first``) and S (``_second``), row n holding
    entries k = 0..n, grown by T(m, k) = T(m-1, k-1) + w*T(m-1, k) from
    T(0, 0) = 1, with w = -(m-1) for s and w = k for S.  Rows are appended
    under a lock and never mutated, so lock-free reads of grown rows are safe.
    """

    def __init__(self):
        self._first = [[1]]
        self._second = [[1]]
        self._lock = threading.Lock()

    def first(self, n: int, k: int) -> int:
        return self._read(self._first, _first_weights, n, k)

    def second(self, n: int, k: int) -> int:
        return self._read(self._second, _second_weights, n, k)

    def rows(self, n: int) -> tuple[list[list[int]], list[list[int]]]:
        """Both live triangles (first kind, second kind), grown through row n."""
        return (self._read(self._first, _first_weights, n),
                self._read(self._second, _second_weights, n))

    def _read(self, table, weights, n, k=None):
        """Entry (n, k) of ``table``, or with no k the table itself, grown
        through row n.  An entry outside 0 <= k <= n reads 0 and grows nothing."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if k is not None and not 0 <= k <= n:
            return 0
        if n >= len(table):
            self._grow(table, weights, n)
        return table if k is None else table[n][k]

    def _grow(self, table, weights, n):
        """Append rows to ``table`` through row n by the recurrence (class
        docstring), taking w from ``weights(m)`` for k = 1..m of row m."""
        with self._lock:
            while len(table) <= n:
                m = len(table)
                prev = table[-1] + [0]  # T(m-1, m) = 0
                table.append([0] + [prev[k - 1] + w * prev[k] for k, w in enumerate(weights(m), 1)])


# each kind's weights w for k = 1..m of row m
def _first_weights(m):
    return repeat(1 - m, m)


def _second_weights(m):
    return range(1, m + 1)


_DEFAULT_CACHE = StirlingCache()


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    return _DEFAULT_CACHE.first(n, k)


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    return _DEFAULT_CACHE.second(n, k)


def stirling_rows(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The default cache's triangles (s, S), grown through row n; read only
    entries 0..r of rows r <= n."""
    return _DEFAULT_CACHE.rows(n)


def stirling_first_nonrecursive(n: int, m: int) -> int:
    """s(n, m) by the corrected closed form, with exact rational arithmetic.

    Valid for 1 <= m <= n.  Intermediate values are Fractions (reduced at
    every step); the final value must be an integer or something is badly
    wrong.
    """
    # only the self-test and the tests call this, so no other command
    # loads fractions (and with it decimal)
    from fractions import Fraction

    if m < 1 or m > n:
        raise ValueError("need 1 <= m <= n")
    # e[j] accumulates e_j(1, 1/2, ..., 1/i) as i sweeps 1..n-1
    e = [Fraction(1)] + [Fraction(0)] * (m - 1)
    for i in range(1, n):
        x = Fraction(1, i)
        for j in range(min(i, m - 1), 0, -1):
            e[j] += x * e[j - 1]
    val = e[m - 1] * factorial(n - 1)
    if val.denominator != 1:
        raise InternalConsistencyError(f"nonintegral Stirling value at ({n}, {m}): {val}")
    sign = -1 if (n - m) % 2 else 1
    return sign * int(val)


def falling_factorial_poly(n: int) -> IntPoly:
    """The falling factorial t(t-1)...(t-n+1) as a polynomial, n >= 0.

    Expanded as a literal product, independently of the cached recurrences.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    p = IntPoly.one()
    for j in range(n):
        p = p * IntPoly((-j, 1))
    return p


def partition_char_poly(n: int) -> IntPoly:
    """Characteristic polynomial of the lattice of set partitions of an n-set.

    Equals the falling factorial on n letters divided by t, so its t^(k-1)
    coefficient is s(n, k).  Defined for n >= 1; n = 1 gives the constant 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return falling_factorial_poly(n).shift_down()


def bell_number(n: int) -> int:
    """Number of set partitions of an n-set (row sum of the second kind)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum(stirling_second(n, k) for k in range(n + 1))
