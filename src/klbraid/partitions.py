"""Integer partitions, set partitions, and the combinatorics the rest builds on.

An ``IntPartition`` is a weakly decreasing tuple of positive block sizes.
``multiplicity`` counts the set partitions of an n-set whose block-size
multiset is a given partition of n, via the factorial formula

    m(lam) = n! / (prod_i b_i! * prod_b r_b!)

where r_b is the number of blocks of size exactly b: the length of a run of
equal blocks in the sorted tuple.  ``set_partitions_of`` enumerates actual
set partitions so that formula can be checked against a census, and
``chi_block_row`` sums the products of their blocks' characteristic
polynomials by block count, one row from the last, without enumerating
them.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product
from math import factorial

from .errors import InternalConsistencyError, OracleBoundError
from .polynomial import IntPoly

DEFAULT_SET_PARTITION_BOUND = 9


class IntPartition:
    """A partition of a positive integer into weakly decreasing positive parts."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        bs = sorted(blocks, reverse=True)
        if not bs:
            raise ValueError("partition must have at least one block")
        if any(type(b) is not int or b < 1 for b in bs):
            raise ValueError(f"blocks must be positive ints: {blocks!r}")
        self.blocks = tuple(bs)

    @property
    def size(self) -> int:
        return sum(self.blocks)

    @property
    def length(self) -> int:
        return len(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, IntPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __str__(self):
        return "+".join(str(b) for b in self.blocks)

    def __repr__(self):
        return f"IntPartition({list(self.blocks)!r})"

    def to_json_obj(self) -> list[int]:
        return list(self.blocks)


def partitions_of(n: int) -> Iterator[IntPartition]:
    """All partitions of n, in reverse lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    for blocks in _partitions_within(n, n):
        yield IntPartition(blocks)


def _partitions_within(n: int, top: int) -> Iterator[tuple[int, ...]]:
    # partitions of n with no block above top, the largest leading block first
    if n == 0:
        yield ()
        return
    for b in range(min(n, top), 0, -1):
        for rest in _partitions_within(n - b, b):
            yield (b,) + rest


def multiplicity(lam: IntPartition) -> int:
    """Number of set partitions of a |lam|-set with block sizes lam."""
    blocks = lam.blocks
    denom = 1
    k = 0
    while k < len(blocks):
        b = blocks[k]
        run = blocks.count(b)
        denom *= factorial(b) ** run * factorial(run)
        k += run
    q, r = divmod(factorial(lam.size), denom)
    if r:
        raise InternalConsistencyError(f"inexact multiplicity division for {lam}")
    return q


def chi_block_row(prev: list[IntPoly]) -> list[IntPoly]:
    """Row m = len(prev) of B_{m,l}(t), the sum over the set partitions of
    an m-set into l blocks b of prod_b chi_{|b|}(t), from ``prev``, row
    m - 1 (``prev[l]`` is B_{m-1,l} for 0 <= l < m, and row 0 is [1]).

    chi_k is the falling factorial (t-1)(t-2)...(t-k+1), so point m either
    opens a new block, or joins one of the l blocks b of a partition of the
    other m - 1 points and turns chi_|b| into chi_|b| * (t - |b|).  Over the
    l blocks those factors sum to l*t - (m-1), so

        B_{m,l} = (l*t - (m-1)) * B_{m-1,l} + B_{m-1,l-1},

    and a row costs about m^2/2 coefficient operations, reads no chi and
    walks no partition.  Entry l = 0 of the result is zero.
    """
    m = len(prev)
    row = [IntPoly()]
    for l in range(1, m + 1):
        same = prev[l].coeffs if l < m else ()
        out = list(prev[l - 1].coeffs)
        out += [0] * (len(same) + 1 - len(out))
        for k, c in enumerate(same):
            out[k] -= (m - 1) * c
            out[k + 1] += l * c
        row.append(IntPoly(out))
    return row


def bounded_compositions(lam: IntPartition, total: int) -> Iterator[tuple[int, ...]]:
    """Tuples (d_1, ..., d_l) with 1 <= d_k <= b_k and sum(d) == total.

    Emitted in ascending lexicographic order.  The feasible totals are
    exactly length(lam) <= total <= size(lam); anything else yields nothing.
    Every one of the prod(b_k) tuples is tried: at most 162 for a partition
    of 14, the largest that ``expand`` renders.
    """
    for comp in product(*(range(1, b + 1) for b in lam.blocks)):
        if sum(comp) == total:
            yield comp


def _set_partitions_unchecked(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    # blocks are ascending tuples, ordered by least element; inserting the
    # new maximum keeps both properties, so every yielded form is canonical
    if n == 0:
        yield ()
        return
    for p in _set_partitions_unchecked(n - 1):
        for idx in range(len(p)):
            yield p[:idx] + (p[idx] + (n,),) + p[idx + 1 :]
        yield p + ((n,),)


def set_partitions_of(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1, ..., n} in a fixed deterministic order.

    Brute-force enumeration (Bell(n) items), so n is capped by
    ``DEFAULT_SET_PARTITION_BOUND``.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_SET_PARTITION_BOUND:
        raise OracleBoundError("set partition enumeration capped at "
                               f"n <= {DEFAULT_SET_PARTITION_BOUND}, got {n}")
    return _set_partitions_unchecked(n)


def shape_of(set_partition: tuple[tuple[int, ...], ...]) -> IntPartition:
    """Block-size partition of a set partition."""
    return IntPartition(len(b) for b in set_partition)
