"""The index set of partition chains behind the closed coefficient formula.

A chain triple for (n, i) is (Lambda, A, Xi) with Lambda = (lam_1, ..., lam_q)
a chain of integer partitions, A and Xi integer vectors of the same length,
subject to eight conditions (labelled i..viii in validation reports):

    (i)    lam_1 is a partition of n
    (ii)   lam_j is a partition of length(lam_{j-1}) for j > 1
    (iii)  alpha_1 + xi_1 = n - 1 - i
    (iv)   alpha_j + xi_j = length(lam_{j-1}) - 1 - xi_{j-1} for j > 1
    (v)    0 <= alpha_j <= size(lam_j) - length(lam_j) for all j
    (vi)   xi_j = 0 whenever length(lam_j) = 1
    (vii)  0 <= xi_j < (length(lam_j) - 1) / 2 whenever length(lam_j) >= 2
    (viii) xi_j = 0 exactly at the last position j = q

Conditions (iii)/(iv) make each xi_j the coefficient index of a smaller
coefficient C_{length(lam_j), xi_j}, and (vii) is that coefficient's degree
bound; a chain keeps going while xi stays positive and stops the moment it
hits zero.  Note (v) forces every lam_j to have at least one block of size
2 or more whenever alpha demands headroom; in particular the chain for
(2, 0) is unique and the all-singletons start is impossible.

The index set is recursive: a triple for (n, i) is a head (lam_1, alpha_1,
xi_1) allowed by (i), (iii), (v), (vi) and (vii), followed, when xi_1 > 0,
by a triple for (length(lam_1), xi_1).  ``chain_heads`` walks the heads.
Those conditions see lam_1 only through its length, so the chain sum in
``chain_formula`` applies them per length instead, reading (vi) and (vii)
through ``xi_upper_bound``, and builds no partition or triple.  Triples are
materialized only for listing (``enumerate_K``, behind the ``chains`` and
``expand`` commands): each head is joined to the memoized index set for its
tail, so shared tails are built once.  Output is
sorted into a canonical order: by chain length q, then by the partition
chain in reverse lexicographic order, then by A.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from typing import NamedTuple

from .partitions import IntPartition, partitions_of


class KLChainTriple(NamedTuple):
    """One chain triple (Lambda, A, Xi)."""

    Lambda: tuple[IntPartition, ...]
    A: tuple[int, ...]
    Xi: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.Lambda)

    def __str__(self):
        lams = ", ".join(str(lam) for lam in self.Lambda)
        a = ", ".join(str(x) for x in self.A)
        xi = ", ".join(str(x) for x in self.Xi)
        return f"(Lambda=[{lams}], A=[{a}], Xi=[{xi}])"

    def to_json_obj(self) -> dict:
        return {
            "lambda": [lam.to_json_obj() for lam in self.Lambda],
            "alpha": list(self.A),
            "xi": list(self.Xi),
        }


AXIOM_IDS = ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")


class AxiomReport(NamedTuple):
    """Per-condition validation outcome for one candidate triple."""

    n: int
    i: int
    results: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    @property
    def failed(self) -> list[str]:
        return [k for k, ok in self.results.items() if not ok]

    def __bool__(self):
        return self.passed


def xi_upper_bound(length: int) -> int:
    """Largest xi allowed by (vi)/(vii) for a partition of this length."""
    if length < 2:
        return 0
    return (length - 2) // 2


def validate_triple(triple: KLChainTriple, n: int, i: int) -> AxiomReport:
    """Check all eight conditions; shape mismatches fail every dependent check."""
    lams, alphas, xis = triple.Lambda, triple.A, triple.Xi
    q = len(lams)
    shapes_ok = q >= 1 and len(alphas) == q and len(xis) == q
    res = {}
    if not shapes_ok:
        res = {key: False for key in AXIOM_IDS}
        return AxiomReport(n=n, i=i, results=res)
    res["i"] = lams[0].size == n
    res["ii"] = all(lams[j].size == lams[j - 1].length for j in range(1, q))
    res["iii"] = alphas[0] + xis[0] == n - 1 - i
    res["iv"] = all(
        alphas[j] + xis[j] == lams[j - 1].length - 1 - xis[j - 1] for j in range(1, q)
    )
    res["v"] = all(0 <= alphas[j] <= lams[j].size - lams[j].length for j in range(q))
    res["vi"] = all(xis[j] == 0 for j in range(q) if lams[j].length == 1)
    res["vii"] = all(
        0 <= xis[j] and 2 * xis[j] < lams[j].length - 1
        for j in range(q)
        if lams[j].length >= 2
    )
    res["viii"] = all((xis[j] == 0) == (j == q - 1) for j in range(q))
    return AxiomReport(n=n, i=i, results=res)


def canonical_key(triple: KLChainTriple):
    return (
        triple.q,
        tuple(tuple(-b for b in lam.blocks) for lam in triple.Lambda),
        triple.A,
    )


def _check_index(n: int, i: int) -> None:
    """Reject (n, i) outside the index set's domain n >= 2, 0 <= i < (n - 1)/2."""
    if n < 2:
        raise ValueError("need n >= 2")
    if i < 0 or 2 * i >= n - 1:
        raise ValueError(f"coefficient index {i} outside [0, (n-1)/2) for n={n}")


def chain_heads(n: int, i: int) -> Iterator[tuple[IntPartition, int, int]]:
    """Each head (lam_1, alpha_1, xi_1) of a chain triple for (n, i).

    Yields every split allowed by (i), (iii), (v), (vi) and (vii), partitions
    in reverse lexicographic order and xi_1 ascending.  A head with xi_1 > 0
    continues with a triple for (length(lam_1), xi_1), which (vii) keeps in
    range; xi_1 = 0 ends the chain.
    """
    target = n - 1 - i
    for lam1 in partitions_of(n):
        headroom = lam1.size - lam1.length
        for xi1 in range(xi_upper_bound(lam1.length) + 1):
            alpha1 = target - xi1
            if 0 <= alpha1 <= headroom:
                yield lam1, alpha1, xi1


_memo: dict[tuple[int, int], tuple[KLChainTriple, ...]] = {}
_memo_lock = threading.RLock()


def _k_list(n: int, i: int) -> tuple[KLChainTriple, ...]:
    key = (n, i)
    got = _memo.get(key)
    if got is not None:
        return got
    with _memo_lock:
        got = _memo.get(key)
        if got is not None:
            return got
        out = []
        for lam1, alpha1, xi1 in chain_heads(n, i):
            if xi1 == 0:
                out.append(KLChainTriple((lam1,), (alpha1,), (0,)))
            else:
                for tail in _k_list(lam1.length, xi1):
                    out.append(
                        KLChainTriple(
                            (lam1,) + tail.Lambda,
                            (alpha1,) + tail.A,
                            (xi1,) + tail.Xi,
                        )
                    )
        out.sort(key=canonical_key)
        result = tuple(out)
        _memo[key] = result
        return result


def enumerate_K(n: int, i: int) -> Iterator[KLChainTriple]:
    """All chain triples for (n, i), in canonical order.

    Defined for n >= 2 and 0 <= i < (n - 1)/2 (the coefficient's degree
    window); other arguments are rejected.
    """
    _check_index(n, i)
    return iter(_k_list(n, i))
