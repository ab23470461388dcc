"""Integer partitions, set partitions, and the combinatorics the rest builds on.

An ``IntPartition`` is a weakly decreasing tuple of positive block sizes.
``multiplicity`` counts the set partitions of an n-set whose block-size
multiset is a given partition of n, via the factorial formula

    m(lam) = n! / (prod_i b_i! * prod_b r_b!)

where r_b is the number of blocks of size exactly b: the length of a run of
equal blocks in the sorted tuple.  ``set_partitions_of`` enumerates actual
set partitions so that formula can be checked against a census, and
``set_partition_row`` sums weights over set partitions by block count
without enumerating them.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import product
from math import comb, factorial

from .errors import InternalConsistencyError, OracleBoundError

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


def set_partition_row(rows: list, weights):
    """Row m = len(rows) of B_{m,l}, the sum over the set partitions of an
    m-set into l blocks of the product of their blocks' weights.

    ``rows[k][l]`` is B_{k,l} for 0 < l <= k < m; ``weights[b-1]`` weighs a
    block of size b, for b <= m.  Splitting on the size b of the block that
    holds one fixed point (Stanley, Enumerative Combinatorics 2, section 5.1),

        B_{m,l} = sum_b C(m-1, b-1) * w_b * B_{m-b,l-1},

    so a row costs one product per (l, b) and walks no partition.  Entry
    l = 0 of the result is zero; rows[0] is never read.
    """
    m = len(rows)
    zero = 0 * weights[0]
    heads = [zero] + [comb(m - 1, b - 1) * weights[b - 1] for b in range(1, m + 1)]
    row = [zero, heads[m]]
    for l in range(2, m + 1):
        row.append(sum((heads[b] * rows[m - b][l - 1] for b in range(1, m - l + 2)), zero))
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
