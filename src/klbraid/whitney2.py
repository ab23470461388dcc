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

The alternating triple sum expressing a general C_{n,i} through flag
Whitney numbers admits several index pairings, and the obvious candidates
disagree.  Two readings are kept in a registry under a name, the pairing
that survives the validation grid (``w-rank-prev``, the default) and the
same pairing expanded directly into Stirling products
(``product-shifted``); ``pxy_grid_report`` scores both against the
recursion.  The shared skeleton: for 1 <= i < (n-1)/2, with N = n - 1,

    C_{n,i} = sum_{r=1}^{i} sum_{D subset of {1..r}} (-1)^|D|
              sum over 0 = a_0 < a_1 < ... < a_r = i < a_{r+1} = N - i
              of a flag Whitney value built from a and the skip function
              t_j(D) = min{k >= j : k not in D}.

Readings differ in which a-entries pair up inside the flag index.  Three
other readings were scored on the grid n <= 10, i <= 2 and dropped; each
is recorded with its first miss, as (n, i): got vs want:

    w-rank-prev-proper  as w-rank-prev, D over proper subsets only:
                        (4, 1): 7 vs 1
    w-rank-next         flag entries N - (a[t_j(D)] + a[j+1]), paired
                        with the following index: (5, 1): 1 vs 5
    product-literal     bare product over j = 0..r-1 of second-kind
                        factors S(a[t_j] + a[j+1], a[t_{j+1}] + a[j+1]),
                        no rank complement: (4, 1): 0 vs 1
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations

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

@dataclass(frozen=True)
class PXYIndexData:
    """One cell of the triple sum: chain length r, skip set D, pinned a-vector."""

    r: int
    D: frozenset[int]
    a: tuple[int, ...]

    def t(self, j: int) -> int:
        k = j
        while k in self.D:
            k += 1
        return k


def _cells(n: int, i: int) -> Iterator[PXYIndexData]:
    N = n - 1
    for r in range(1, i + 1):
        subsets = []
        for size in range(0, r + 1):
            subsets.extend(combinations(range(1, r + 1), size))
        for D in subsets:
            for middle in combinations(range(1, i), r - 1):
                a = (0,) + middle + (i, N - i)
                yield PXYIndexData(r=r, D=frozenset(D), a=a)


def _w_tolerant(n: int, ranks: Sequence[int]) -> int:
    # out-of-range or non-monotone index vectors count no flags at all
    prev = 0
    for r in ranks:
        if r < 0 or r > n - 1 or r < prev:
            return 0
        prev = r
    return flag_whitney_product(n, ranks)


def _read_w_rank_prev(n: int, i: int) -> int:
    # flag index entry for link j pairs a_{t_j(D)} with the *previous*
    # a_{j-1}; listed from j = r down to 1 the entries increase
    N = n - 1
    total = 0
    for cell in _cells(n, i):
        idx = tuple(
            N - (cell.a[cell.t(j)] + cell.a[j - 1]) for j in range(cell.r, 0, -1)
        )
        total += (-1) ** len(cell.D) * _w_tolerant(n, idx)
    return total


def _read_product_shifted(n: int, i: int) -> int:
    # the "prev" flag index expanded into its Stirling product directly;
    # independent arithmetic for the same reading, useful as a cross-check
    total = 0
    for cell in _cells(n, i):
        prod = 1
        for j in range(1, cell.r + 1):
            prod *= stirling_second(
                1 + cell.a[cell.t(j + 1)] + cell.a[j],
                1 + cell.a[cell.t(j)] + cell.a[j - 1],
            )
        total += (-1) ** len(cell.D) * prod
    return total


@dataclass(frozen=True)
class Interpretation:
    name: str
    func: object
    summary: str


INTERPRETATIONS: dict[str, Interpretation] = {
    it.name: it
    for it in (
        Interpretation(
            "w-rank-prev",
            _read_w_rank_prev,
            "flag entries N - (a[t_j(D)] + a[j-1]), j = r..1; D over all subsets",
        ),
        Interpretation(
            "product-shifted",
            _read_product_shifted,
            "same pairing expanded into second-kind Stirling products directly",
        ),
    )
}

DEFAULT_PXY_INTERPRETATION = "w-rank-prev"


def kl_coeff_via_pxy(n: int, i: int, interpretation: str = DEFAULT_PXY_INTERPRETATION) -> int:
    """C_{n,i} through the alternating flag-Whitney sum, under a named reading.

    Defined for 0 < i < (n-1)/2.  The default reading is the one promoted by
    the validation grid; see ``pxy_grid_report``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if i < 1 or 2 * i >= n - 1:
        raise ValueError(f"coefficient index {i} outside (0, (n-1)/2) for n={n}")
    try:
        reading = INTERPRETATIONS[interpretation]
    except KeyError:
        raise ValueError(f"unknown interpretation {interpretation!r}") from None
    return reading.func(n, i)


@dataclass
class GridResult:
    name: str
    checked: int
    mismatches: list[tuple[int, int, int, int]]  # (n, i, got, want)

    @property
    def matches(self) -> bool:
        return not self.mismatches


def pxy_grid_report(max_n: int = 10, max_i: int = 2) -> dict[str, GridResult]:
    """Score every registered reading against the recursion on a grid."""
    from .kl_recursion import kl_coeff

    cells = [
        (n, i)
        for n in range(2, max_n + 1)
        for i in range(1, (n - 2) // 2 + 1)
        if i <= max_i
    ]
    out = {}
    for name, reading in INTERPRETATIONS.items():
        mism = []
        for n, i in cells:
            got = reading.func(n, i)
            want = kl_coeff(n, i)
            if got != want:
                mism.append((n, i, got, want))
        out[name] = GridResult(name=name, checked=len(cells), mismatches=mism)
    return out

