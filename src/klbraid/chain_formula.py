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
and 0 <= alpha_1 <= n - l.  The sums are memoized per (n, i); each costs
O(n^2) Stirling products and builds no partition and no triple.

Triples and per-partition links are kept to list and audit the sum
(``enumerate_K``, ``term_value``).  A partition's link values for every
total come from one row: the product over blocks b of sum_{d=1..b}
s(b, d) x^d, times m(lam), whose x^total coefficient is the composition
sum above.

``symbolic_expansion`` renders the same sum grouped by the top partition
lam_1, in the shape of a worked table: ``m(3+1)s(3,3)s(1,1)`` style tokens,
with parenthesized multi-composition sums, plus exact per-group subtotals.
"""

from __future__ import annotations

from typing import NamedTuple

from .chains import KLChainTriple, _check_index, enumerate_K, xi_upper_bound
from .errors import InternalConsistencyError
from .partitions import IntPartition, bounded_compositions, multiplicity
from .stirling import stirling_first, stirling_second


class FactorBreakdown(NamedTuple):
    """Audit record for one link of a chain term."""

    lam: IntPartition
    m_value: int
    total: int
    compositions: tuple[tuple[tuple[int, ...], int], ...] | None
    inner_sum: int


class TermBreakdown(NamedTuple):
    """A chain term's value, with optional per-link audit detail."""

    triple: KLChainTriple
    factors: tuple[FactorBreakdown, ...] | None
    value: int


# One row per partition, keyed by blocks: entry `total` is the link value.
# The memos take no lock: two threads racing on one key store equal values.
_link_rows: dict[tuple[int, ...], tuple[int, ...]] = {}
_grouped_sums: dict[tuple[int, int], int] = {}


def _link_compositions(lam: IntPartition, total: int) -> list[tuple[tuple[int, ...], int]]:
    """Each bounded composition of ``total`` with its signed Stirling product."""
    out = []
    for comp in bounded_compositions(lam, total):
        prod = 1
        for b, d in zip(lam.blocks, comp):
            prod *= stirling_first(b, d)
        out.append((comp, prod))
    return out


def _link_row(lam: IntPartition) -> tuple[int, ...]:
    """m(lam) times the product over blocks b of sum_{d=1..b} s(b, d) x^d."""
    row = _link_rows.get(lam.blocks)
    if row is None:
        acc = [1]
        for b in lam.blocks:
            factor = [stirling_first(b, d) for d in range(1, b + 1)]
            nxt = [0] * (len(acc) + b)
            for j, a in enumerate(acc):
                if a:
                    for d, s in enumerate(factor, start=j + 1):
                        nxt[d] += a * s
            acc = nxt
        m = multiplicity(lam)
        row = _link_rows[lam.blocks] = tuple(m * c for c in acc)
    return row


def _link_value(lam: IntPartition, total: int) -> int:
    """m(lam) times the Stirling sum over bounded compositions of ``total``.

    A total outside [length(lam), size(lam)] has no composition: that is a
    degenerate (invalid) link and raises on every call.  The check comes
    before the row is read, since a negative total would index from the end.
    """
    if not lam.length <= total <= lam.size:
        raise InternalConsistencyError(
            f"degenerate link {lam} with total {total}: no compositions"
        )
    return _link_row(lam)[total]


def term_value(triple: KLChainTriple, audit: bool = False) -> TermBreakdown:
    """Evaluate one chain term exactly, as the product of its link values.

    With ``audit=True`` every composition and its signed Stirling product is
    retained as well; the value is the same product of link values.  A link
    with no composition is a degenerate (invalid) triple and raises.
    """
    value = 1
    factors = [] if audit else None
    for lam, alpha in zip(triple.Lambda, triple.A):
        total = alpha + lam.length
        value *= _link_value(lam, total)
        if audit:
            comps = _link_compositions(lam, total)
            factors.append(
                FactorBreakdown(
                    lam=lam,
                    m_value=multiplicity(lam),
                    total=total,
                    compositions=tuple(comps),
                    inner_sum=sum(prod for _, prod in comps),
                )
            )
    return TermBreakdown(
        triple=triple, factors=tuple(factors) if audit else None, value=value
    )


def _grouped_sum(n: int, i: int) -> int:
    """C_{n,i} summed over heads grouped by l = length(lam_1), memoized."""
    key = (n, i)
    value = _grouped_sums.get(key)
    if value is None:
        value = 0
        target = n - 1 - i
        for l in range(1, n + 1):
            for xi in range(xi_upper_bound(l) + 1):
                alpha = target - xi
                if 0 <= alpha <= n - l:
                    total = alpha + l
                    link = stirling_first(n, total) * stirling_second(total, l)
                    value += link * _grouped_sum(l, xi) if xi else link
        _grouped_sums[key] = value
    return value


def kl_coeff_via_chains(n: int, i: int) -> int:
    """C_{n,i} as the chain sum, collapsed to Stirling numbers of both kinds.

    Grouping the chain heads by l = length(lam_1), the exponential formula
    turns the links of every partition of n with l blocks into one product,

        sum over lam |- n, length(lam) = l of link(lam, T) = s(n, T) * S(T, l),

    so C_{n,i} is the sum over l and xi_1 of s(n, alpha_1 + l) *
    S(alpha_1 + l, l) times C_{l,xi_1} (or times 1 when xi_1 = 0), with
    alpha_1 = n - 1 - i - xi_1.  That is O(n^2) Stirling products per
    coefficient and no partition.

    Same domain as the enumeration: n >= 2, 0 <= i < (n-1)/2.  Degree
    positions outside that window are not meaningful here (use the recursion,
    which just reads off a zero coefficient).
    """
    _check_index(n, i)
    return _grouped_sum(n, i)


# --- worked-table rendering -------------------------------------------------

def _stirling_tokens(lam: IntPartition, comp: tuple[int, ...]) -> str:
    return "".join(f"s({b},{d})" for b, d in zip(lam.blocks, comp))


def _factor_text(fb: FactorBreakdown) -> str:
    head = f"m({fb.lam})"
    rendered = [_stirling_tokens(fb.lam, comp) for comp, _ in fb.compositions]
    if len(rendered) == 1:
        return head + rendered[0]
    # collapse repeated products, keeping first-appearance order
    counts: dict[str, int] = {}
    for r in rendered:
        counts[r] = counts.get(r, 0) + 1
    pieces = [(f"{c} {r}" if c > 1 else r) for r, c in counts.items()]
    return head + "(" + " + ".join(pieces) + ")"


def term_text(breakdown: TermBreakdown) -> str:
    """Token rendering of one audited chain term, links concatenated."""
    if breakdown.factors is None:
        raise ValueError("term_text needs an audited breakdown")
    return "".join(_factor_text(fb) for fb in breakdown.factors)


class ExpansionGroup:
    """One top partition's terms and their subtotal; ``symbolic_expansion``
    extends both while it merges runs, so this is not a tuple."""

    __slots__ = ("lambda1", "terms", "value")

    def __init__(self, lambda1: IntPartition, terms: list[tuple[TermBreakdown, str]], value: int):
        self.lambda1 = lambda1
        self.terms = terms
        self.value = value


class SymbolicExpansion(NamedTuple):
    n: int
    i: int
    groups: list[ExpansionGroup]
    total: int

    def to_json_obj(self) -> list[dict]:
        out = []
        for g in self.groups:
            terms = []
            for tb, text in g.terms:
                obj = tb.triple.to_json_obj()
                obj["text"] = text
                obj["value"] = str(tb.value)
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
            for tb, text in g.terms:
                label = str(g.lambda1) if first else ""
                lines.append(f"  {label:<{width}}  {text} = {tb.value}")
                first = False
            if len(g.terms) > 1:
                lines.append(f"  {'':<{width}}  group value = {g.value}")
        lines.append(f"total = {self.total}")
        return "\n".join(lines)


def symbolic_expansion(n: int, i: int) -> SymbolicExpansion:
    """The full audited sum for (n, i), grouped by lam_1 in canonical order."""
    groups: list[ExpansionGroup] = []
    for triple in enumerate_K(n, i):
        tb = term_value(triple, audit=True)
        text = term_text(tb)
        lam1 = triple.Lambda[0]
        if groups and groups[-1].lambda1 == lam1:
            groups[-1].terms.append((tb, text))
            groups[-1].value += tb.value
        else:
            groups.append(ExpansionGroup(lambda1=lam1, terms=[(tb, text)], value=tb.value))
    # enumeration is sorted by (q, Lambda, A), so one lam_1 may appear in
    # several runs; merge runs while keeping first-appearance order
    merged: dict[IntPartition, ExpansionGroup] = {}
    order: list[IntPartition] = []
    for g in groups:
        if g.lambda1 in merged:
            merged[g.lambda1].terms.extend(g.terms)
            merged[g.lambda1].value += g.value
        else:
            merged[g.lambda1] = g
            order.append(g.lambda1)
    final = [merged[lam] for lam in order]
    return SymbolicExpansion(
        n=n, i=i, groups=final, total=sum(g.value for g in final)
    )


def group_values(n: int, i: int) -> dict[tuple[int, ...], int]:
    """Per-lam_1 subtotals, keyed by block tuple; handy for table checks."""
    return {g.lambda1.blocks: g.value for g in symbolic_expansion(n, i).groups}
