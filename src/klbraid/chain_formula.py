"""The closed chain-sum formula for braid Kazhdan-Lusztig coefficients.

Each chain triple (Lambda, A, Xi) contributes the product over its links

    m(lam_j) * sum over (d_1..d_l) of prod_k s(b_k, d_k)

where the inner sum runs over compositions with 1 <= d_k <= b_k summing to
alpha_j + length(lam_j), m is the set-partition multiplicity and s is the
signed Stirling number of the first kind.  Summing term values over the
whole index set gives C_{n,i} without ever touching the recursion; the two
routes agreeing is one of the package's core cross-checks.

The sum is computed through the index set's own recursion, grouped.  A
triple is a head (lam_1, alpha_1, xi_1) followed by a triple for
(length(lam_1), xi_1), and the conditions on a head see lam_1 only through
l = length(lam_1).  By the exponential formula (Stanley, EC2 section 5.1)
the links of the partitions of n with l blocks at total T sum to
s(n, T) * S(T, l) = [t^(T-l)]B_{n,l}, where B_{n,l}(t) sums prod_b chi_{|b|}
over the set partitions of an n-set into l blocks.  So C_{n,i} sums
E_{n,l,d} * C_{l,xi_1} (C_{l,0} = 1) over l <= max(1, 2i) and xi_1, where
E_{m,l,d} = [t^(m-l-d)]B_{m,l} and 0 <= d = i + xi_1 + 1 - l <= i: B is read
only near its top, where the recurrence of ``partitions.chi_block_row`` reads

    E_{m,l,d} = l * E_{m-1,l,d} - (m-1) * E_{m-1,l,d-1} + E_{m-1,l-1,d}.

So ``kl_chain_rows(n, top)`` is one pass over rows m = 2..n from E_{1,1,0} = 1
that reads no Stirling number: O(n * top^2) operations on O(top^2) integers,
plus O(top^4) for the rows C_{l,.} that the sum reads at l <= 2*top and the
pass returns, with row n.  The recursion checks each coefficient against
this sum in Stirling numbers and shares no code with the pass.

Triples are built only to list the sum (``enumerate_K``) and to render it
term by term.  ``symbolic_expansion`` groups the terms by the top partition
lam_1, in the shape of a worked table: ``m(3+1)s(3,3)s(1,1)`` style tokens,
with parenthesized multi-composition sums, plus exact per-group subtotals.
A term's value and text are the product and the concatenation of its links,
and ``_link`` computes a link's value and its text in one pass over its
bounded compositions, so the number printed is the sum shown.
"""

from __future__ import annotations

from typing import NamedTuple

from .chains import KLChainTriple, check_index, enumerate_K
from .errors import InternalConsistencyError
from .partitions import IntPartition, bounded_compositions, multiplicity
from .stirling import stirling_first


def _edge_step(edge: list[list[int]], m: int) -> None:
    """E_{m-1,l,d} to E_{m,l,d}, l descending so that edge[l - 1] is row m-1's."""
    for l in range(min(m, len(edge) - 1), 0, -1):
        row = edge[l]
        edge[l] = [l * e - (m - 1) * lower + below
                   for e, lower, below in zip(row, [0, *row], edge[l - 1])]


def kl_chain_rows(n: int, top: int) -> dict[int, list[int]]:
    """P_m's coefficients up to t^top, keyed by m, for m = n and every
    m <= min(n, 2*top + 3), whose whole index range lies within top: one pass
    over the top edge of B (module docstring), with no Stirling number,
    partition or triple, on the enumeration's domain 0 <= top < (n-1)/2."""
    check_index(n, top)
    # edge[l][d] = E_{m,l,d} for d <= top - l//2, all the sum and step read; edge[0] = B_{m,0} = 0
    edge = [[0] * (top + 1 - l // 2) for l in range(max(2, 2 * top + 1))]
    edge[1][0] = 1
    rows = {1: [1]}

    def chain(m: int, k: int) -> int:
        # C_{m,k} from row m of the edge, over chain_sum's ranges of l and xi
        return sum(edge[l][k + xi + 1 - l] * rows[l][xi]
                   for l in range(1, max(1, 2 * k) + 1)
                   for xi in range(max(0, l - 1 - k), max(1, l // 2)))

    for m in range(2, n + 1):
        _edge_step(edge, m)
        if m <= 2 * top + 3 or m == n:
            rows[m] = [chain(m, k) for k in range(min(top, (m - 2) // 2) + 1)]
    return rows


def kl_coeff_via_chains(n: int, i: int) -> int:
    """C_{n,i}, one cell of ``kl_chain_rows(n, i)``."""
    return kl_chain_rows(n, i)[n][i]


# --- worked-table rendering -------------------------------------------------

def _link(lam: IntPartition, total: int) -> tuple[int, str]:
    """The link of lam at ``total`` and its text: m(lam) times the sum, over
    the bounded compositions (d_1..d_l) of ``total``, of prod s(b_k, d_k).

    A total outside [length(lam), size(lam)] has no composition: that is a
    degenerate (invalid) link and raises on every call.
    """
    if not lam.length <= total <= lam.size:
        raise InternalConsistencyError(
            f"degenerate link {lam} with total {total}: no compositions"
        )
    value = 0
    products = []
    for comp in bounded_compositions(lam, total):
        prod = 1
        for b, d in zip(lam.blocks, comp):
            prod *= stirling_first(b, d)
        value += prod
        products.append("".join(f"s({b},{d})" for b, d in zip(lam.blocks, comp)))
    text = products[0] if len(products) == 1 else "(" + " + ".join(products) + ")"
    return multiplicity(lam) * value, f"m({lam}){text}"


class ExpansionTerm(NamedTuple):
    """One chain triple's term: the product of its links, rendered and evaluated."""

    triple: KLChainTriple
    text: str
    value: int


class ExpansionGroup(NamedTuple):
    """One top partition's terms and their subtotal."""

    lambda1: IntPartition
    terms: tuple[ExpansionTerm, ...]
    value: int


class SymbolicExpansion(NamedTuple):
    n: int
    i: int
    groups: list[ExpansionGroup]
    total: int

    def to_json_obj(self) -> list[dict]:
        out = []
        for g in self.groups:
            terms = []
            for t in g.terms:
                obj = t.triple.to_json_obj()
                obj["text"] = t.text
                obj["value"] = str(t.value)
                terms.append(obj)
            out.append(
                {
                    "lambda1": g.lambda1.to_json_obj(),
                    "terms": terms,
                    "value": str(g.value),
                }
            )
        return out

    def render_text(self) -> str:
        lines = [f"C({self.n},{self.i}) grouped by the top partition:"]
        width = max(len(str(g.lambda1)) for g in self.groups)
        for g in self.groups:
            first = True
            for t in g.terms:
                label = str(g.lambda1) if first else ""
                lines.append(f"  {label:<{width}}  {t.text} = {t.value}")
                first = False
            if len(g.terms) > 1:
                lines.append(f"  {'':<{width}}  group value = {g.value}")
        lines.append(f"total = {self.total}")
        return "\n".join(lines)


def symbolic_expansion(n: int, i: int) -> SymbolicExpansion:
    """The full audited sum for (n, i), grouped by lam_1 in canonical order."""
    # most links recur across triples (702 distinct of 35,244 at (14, 6)), so
    # each (blocks, total) is evaluated and rendered once per call
    links: dict[tuple[tuple[int, ...], int], tuple[int, str]] = {}
    # enumeration is sorted by (q, Lambda, A), so one lam_1 may recur after
    # others; the dict keeps each group at its first appearance
    terms: dict[IntPartition, list[ExpansionTerm]] = {}
    for triple in enumerate_K(n, i):
        value, text = 1, ""
        for lam, alpha in zip(triple.Lambda, triple.A):
            key = (lam.blocks, alpha + lam.length)
            link = links.get(key)
            if link is None:
                link = links[key] = _link(lam, key[1])
            value *= link[0]
            text += link[1]
        terms.setdefault(triple.Lambda[0], []).append(ExpansionTerm(triple, text, value))
    groups = [ExpansionGroup(lam1, tuple(ts), sum(t.value for t in ts))
              for lam1, ts in terms.items()]
    return SymbolicExpansion(n=n, i=i, groups=groups, total=sum(g.value for g in groups))


def group_values(n: int, i: int) -> dict[tuple[int, ...], int]:
    """Per-lam_1 subtotals, keyed by block tuple; handy for table checks."""
    return {g.lambda1.blocks: g.value for g in symbolic_expansion(n, i).groups}
