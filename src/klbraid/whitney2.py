"""Second-kind routes: flag Whitney products and the alternating triple sum.

Flag Whitney numbers of the partition lattice factor into second-kind
Stirling numbers: the number of weakly increasing flats hitting ranks
i_1 <= ... <= i_k is

    W_I = prod_{j=0}^{k-1} S(n - i_j, n - i_{j+1})     (i_0 = 0)

because refining step by step from the full n-set is a sequence of
independent block-merging choices.  ``flag_whitney_product`` is that
product; the lattice oracle counts the same chains by brute force.

``kl_c1`` is the degree-one coefficient in closed form, computed two ways
(S(n,2) - S(n,n-1), and the signed-Stirling-plus-two-block-multiplicities
form) with the agreement asserted on every call.

``kl_coeffs_via_pxy`` is the alternating triple sum expressing C_{n,i}
through flag Whitney numbers, per cell.  For 1 <= i < (n-1)/2, with N = n - 1,

    C_{n,i} = sum_{r=1}^{i} sum_{D subset of {1..r}} (-1)^|D|
              sum over 0 = a_0 < a_1 < ... < a_r = i < a_{r+1} = N - i
              of W_I, I = (N - (a[t_j(D)] + a[j-1]) : j = r, ..., 1)

with the skip function t_j(D) = min{k >= j : k not in D}.
``pxy_grid_report`` scores the sum against the recursion.

The sum is a chain.  Flag entry j leaves e_j = 1 + a[t_j] + a[j-1] blocks,
and W_I = S(n, e_r) * prod_{j=2}^{r} S(e_j, e_{j-1}).  Scan j downward with
the state (x, y) = (a[t_j], a[j-1]): step r starts at x = i, or at x = N - i
with sign - (r in D); step j - 1 moves y to y' = a[j-2] < y and x to x' = y,
or keeps x' = x with sign - (j - 1 in D); the scan stops at y = a_0 = 0.  So

    f(x, 0) = 1
    f(x, y) = sum_{y'<y} [S(1+x+y, 1+y+y') f(y, y') - S(1+x+y, 1+x+y') f(x, y')]
    C_{n,i} = sum_{y<i} [S(n, 1+i+y) f(i, y) - S(n, n-i+y) f(N-i, y)]

where f(x, y), the signed sum over the steps below state (x, y), depends on
neither n nor i.  C_{n,i} reads O(i^2) states, each O(i) products.  The
cells of one call share a memo of f, which the call drops on return.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .errors import InternalConsistencyError
from .partitions import IntPartition, multiplicity
from .stirling import stirling_first, stirling_second


def flag_whitney_product(n: int, ranks: Sequence[int]) -> int:
    """W_I for the partition lattice of an n-set, as a Stirling product.

    ``ranks`` must be weakly increasing with entries in [0, n-1].  The empty
    index gives 1 (the empty flag).
    """
    if n < 1:
        raise ValueError("n must be positive")
    prev = 0
    for r in ranks:
        if r < 0 or r > n - 1:
            raise ValueError(f"rank {r} outside [0, {n - 1}]")
        if r < prev:
            raise ValueError("rank multi-index must be weakly increasing")
        prev = r
    out = 1
    prev = 0
    for r in ranks:
        out *= stirling_second(n - prev, n - r)
        prev = r
    return out


def kl_c1(n: int) -> int:
    """The degree-one coefficient C_{n,1} in closed form, n >= 2.

    Computed as S(n,2) - S(n,n-1) and cross-checked against
    s(n,n-1) + sum of m(lam) over the two-block partitions of n.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    via_second = stirling_second(n, 2) - stirling_second(n, n - 1)
    via_first = stirling_first(n, n - 1) + sum(
        multiplicity(IntPartition([n - a, a])) for a in range(1, n // 2 + 1)
    )
    if via_second != via_first:
        raise InternalConsistencyError(
            f"degree-one closed forms disagree at n={n}: {via_second} vs {via_first}"
        )
    return via_second


# --- the alternating triple sum ----------------------------------------------


def kl_coeffs_via_pxy(cells: Sequence[tuple[int, int]]) -> list[int]:
    """C_{n,i} through the alternating flag-Whitney sum for each (n, i) in
    ``cells``, 0 < i < (n-1)/2, as the chain recurrence (module docstring)
    filled bottom-up in y, after checking every cell."""
    for n, i in cells:
        if n < 2:
            raise ValueError("need n >= 2")
        if i < 1 or 2 * i >= n - 1:
            raise ValueError(f"coefficient index {i} outside (0, (n-1)/2) for n={n}")
    f: dict[tuple[int, int], int] = {}
    out = []
    for n, i in cells:
        for y in range(i):
            for x in (*range(y + 1, i), i, n - 1 - i):
                if (x, y) not in f:
                    f[x, y] = sum(stirling_second(1 + x + y, 1 + y + z) * f[y, z]
                                  - stirling_second(1 + x + y, 1 + x + z) * f[x, z]
                                  for z in range(y)) if y else 1
        out.append(sum(stirling_second(n, 1 + i + y) * f[i, y]
                       - stirling_second(n, n - i + y) * f[n - 1 - i, y] for y in range(i)))
    return out


def kl_coeff_via_pxy(n: int, i: int) -> int:
    """C_{n,i} through the alternating flag-Whitney sum, for 0 < i < (n-1)/2:
    ``kl_coeffs_via_pxy``'s one-cell case."""
    return kl_coeffs_via_pxy([(n, i)])[0]


class GridResult(NamedTuple):
    name: str
    mismatches: list[tuple[int, int, int, int]]  # (n, i, got, want)

    @property
    def matches(self) -> bool:
        return not self.mismatches


def pxy_grid_report(max_n: int = 10, max_i: int = 2) -> dict[str, GridResult]:
    """Score the pxy sum against the recursion on a grid, keyed by its
    reading's name."""
    from .kl_recursion import kl_coeff

    name = "w-rank-prev"
    cells = [(n, i) for n in range(2, max_n + 1) for i in range(1, min(max_i, (n - 2) // 2) + 1)]
    wants = [kl_coeff(n, i) for n, i in cells]
    mism = [(n, i, got, want)
            for (n, i), got, want in zip(cells, kl_coeffs_via_pxy(cells), wants) if got != want]
    return {name: GridResult(name=name, mismatches=mism)}
