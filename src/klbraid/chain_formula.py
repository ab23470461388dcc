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
l = length(lam_1).  Grouping the heads by l, the exponential formula
(Stanley, EC2 section 5.1, applied to the falling factorials
sum_{d=1..b} s(b, d) x^d) sums the links of every partition of n with l
blocks at total T to one product of Stirling numbers of both kinds:

    sum over lam |- n, length(lam) = l of link(lam, T) = s(n, T) * S(T, l).

So C_{n,i} = sum over l and xi_1 of s(n, alpha_1 + l) * S(alpha_1 + l, l)
times C_{l,xi_1}, or times 1 when xi_1 = 0, with alpha_1 = n - 1 - i - xi_1
and 0 <= alpha_1 <= n - l: O(i^2) Stirling products, since l <= max(1, 2i).
That sum is ``kl_recursion.chain_sum``, which also checks each coefficient
the recursion fills; here it reads C_{l,xi_1} from a memo of its own, per
(n, i), and builds no partition and no triple.

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
from .kl_recursion import chain_sum
from .partitions import IntPartition, bounded_compositions, multiplicity
from .stirling import stirling_first


# The memo takes no lock: two threads racing on one key store equal values.
_grouped_sums: dict[tuple[int, int], int] = {}


def _grouped_sum(n: int, i: int) -> int:
    """C_{n,i} as the chain sum over the chain memo, memoized."""
    value = _grouped_sums.get((n, i))
    if value is None:
        value = _grouped_sums[n, i] = chain_sum(n, i, lambda l, x: _grouped_sum(l, x) if x else 1)
    return value


def kl_coeff_via_chains(n: int, i: int) -> int:
    """C_{n,i} as the chain sum collapsed to Stirling numbers of both kinds
    (module docstring): ``kl_recursion.chain_sum`` with each C_{l,xi_1} from
    the chain memo, O(i^2) Stirling products and no partition.

    Same domain as the enumeration, n >= 2 and 0 <= i < (n-1)/2; outside it
    use the recursion, which just reads off a zero coefficient.
    """
    check_index(n, i)
    return _grouped_sum(n, i)


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
