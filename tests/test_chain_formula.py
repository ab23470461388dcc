from __future__ import annotations

import json
import sys
from math import prod

import pytest

from klbraid import chain_formula, kl_recursion, stirling
from klbraid.chain_formula import (
    _link,
    group_values,
    kl_chain_rows,
    kl_coeff_via_chains,
    symbolic_expansion,
)
from klbraid.chains import chain_heads, enumerate_K
from klbraid.errors import InternalConsistencyError
from klbraid.kl_recursion import KLTable, kl_coeff
from klbraid.partitions import IntPartition, multiplicity, partitions_of
from klbraid.stirling import stirling_first, stirling_second


_reference_rows: dict[tuple[int, ...], tuple[int, ...]] = {}
_reference_sums: dict[tuple[int, int], int] = {}


def _reference_link_row(lam):
    """Reference: m(lam) times the product over blocks b of
    sum_{d=1..b} s(b, d) x^d, whose x^total coefficient is the link value."""
    row = _reference_rows.get(lam.blocks)
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
        row = _reference_rows[lam.blocks] = tuple(m * c for c in acc)
    return row


def _per_partition_chain_sum(n, i):
    """Reference: the chain sum factored by head over every partition lam_1,
    each head's link value times the chain sum of its tail."""
    key = (n, i)
    if key not in _reference_sums:
        value = 0
        for lam, alpha, xi in chain_heads(n, i):
            link = _reference_link_row(lam)[alpha + lam.length]
            value += link * _per_partition_chain_sum(lam.length, xi) if xi else link
        _reference_sums[key] = value
    return _reference_sums[key]


def test_base_value():
    assert kl_coeff_via_chains(2, 0) == 1


def test_small_spot_values():
    assert kl_coeff_via_chains(4, 1) == 1
    assert kl_coeff_via_chains(5, 1) == 5
    assert kl_coeff_via_chains(6, 2) == 15
    assert kl_coeff_via_chains(7, 2) == 175


@pytest.mark.parametrize("n", range(2, 11))
def test_agreement_with_recursion(n):
    for i in range((n - 2) // 2 + 1):
        assert kl_coeff_via_chains(n, i) == kl_coeff(n, i)


@pytest.mark.parametrize("n", range(13, 21))
def test_agreement_with_recursion_beyond_default_bound(n):
    for i in range((n - 2) // 2 + 1):
        assert kl_coeff_via_chains(n, i) == kl_coeff(n, i)


@pytest.mark.parametrize("n", range(2, 13))
def test_factored_sum_equals_sum_over_triples(n):
    for i in range((n - 2) // 2 + 1):
        assert kl_coeff_via_chains(n, i) == symbolic_expansion(n, i).total


@pytest.mark.parametrize("n", range(1, 15))
def test_grouped_links_are_stirling_products(n):
    # exponential formula: the links of all partitions of n with l blocks
    # sum to s(n, T) * S(T, l) at every total T
    rows: dict[int, list[int]] = {}
    for lam in partitions_of(n):
        acc = rows.setdefault(lam.length, [0] * (n + 1))
        for total in range(lam.length, lam.size + 1):
            acc[total] += _link(lam, total)[0]
    for l in range(1, n + 1):
        for total in range(l, n + 1):
            assert rows[l][total] == stirling_first(n, total) * stirling_second(total, l)


@pytest.mark.parametrize("n", range(2, 21))
def test_grouped_sum_equals_per_partition_reference(n):
    for i in range((n - 2) // 2 + 1):
        assert kl_coeff_via_chains(n, i) == _per_partition_chain_sum(n, i)


def test_chain_rows_make_z_polynomials_palindromic():
    # Proudfoot-Xu-Young: Z_m(t) = sum_l S(m, l) t^(m-l) P_l(t) is palindromic
    # of degree m - 1, a theorem independent of both the chain formula and
    # the recursion's defining identity; one chain pass holds P_1..P_100
    polys = kl_chain_rows(100, 49)
    for m in range(1, 101):
        z = [0] * m
        for l in range(1, m + 1):
            s = stirling_second(m, l)
            for k, c in enumerate(polys[l]):
                z[m - l + k] += s * c
        assert z == z[::-1], m
        assert z[0] == 1


def test_degree_one_chain_values_match_closed_form():
    # C(n, 1) = S(n, 2) - S(n, n - 1)
    for n in range(4, 101):
        assert kl_coeff_via_chains(n, 1) == 2 ** (n - 1) - 1 - n * (n - 1) // 2


# every cell from the degree bound (n-1)/2 to n-2, for n <= 40
VANISHING_CELLS = [(n, i) for n in range(2, 41) for i in range(n // 2, n - 1)]


def test_chain_sum_vanishes_above_the_degree_bound():
    # the paper's identities between Stirling numbers of the first and the
    # second kind: the chain sum is 0 at every i from the degree bound
    # (n-1)/2 to n-2, with each C_{l,xi} read from the recursion
    assert len(VANISHING_CELLS) == 380
    # from one fresh table's rows; the sum reads rows l <= 2i <= 76
    table = KLTable()
    table.poly(76)
    for n, i in VANISHING_CELLS:
        assert kl_recursion.chain_sum(n, i, table._rows) == 0, (n, i)


class _BoundedRow(tuple):
    """A row that refuses every index outside 0..len-1, negative ones too."""

    def __getitem__(self, k):
        if not 0 <= k < len(self):
            raise AssertionError(f"chain_sum read index {k} of a row of {len(self)}")
        return super().__getitem__(k)


def test_chain_sum_reads_only_stored_entries():
    # the sum reads xi = 0 at l = 1 and xi <= (l-2)/2 at l >= 2, inside each
    # row as stored; a plain list would wrap a negative index silently
    table = KLTable()
    table.poly(76)
    rows = [_BoundedRow(row) for row in table._rows]
    for n in range(4, 61):
        for i in range(1, (n - 2) // 2 + 1):
            assert kl_recursion.chain_sum(n, i, rows) == table.poly(n).coeff(i), (n, i)
    for n, i in VANISHING_CELLS:
        assert kl_recursion.chain_sum(n, i, rows) == 0, (n, i)


def _refuse_stirling_and_partitions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the chain method read a Stirling number or walked partitions")

    for name, module in list(sys.modules.items()):
        if name.startswith("klbraid"):
            for attr in ("partitions_of", "multiplicity", "_link",
                         "stirling_first", "stirling_second", "stirling_rows"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    for attr in ("first", "second", "rows", "_grow"):
        monkeypatch.setattr(stirling.StirlingCache, attr, refuse)


def test_chain_sum_walks_no_partition(monkeypatch):
    _refuse_stirling_and_partitions(monkeypatch)
    for n in range(2, 41):
        assert kl_coeff_via_chains(n, 0) == 1
        for i in range(1, (n - 2) // 2 + 1):
            kl_coeff_via_chains(n, i)


def test_chain_method_equals_fresh_whole_rows_without_stirling(monkeypatch):
    # the recursion's rows are filled first, from a fresh table; one chain
    # pass then answers every cell with i <= 12 with no Stirling number
    table = KLTable()
    rows = {n: table.poly(n) for n in range(2, 101)}
    _refuse_stirling_and_partitions(monkeypatch)
    chain_rows = kl_chain_rows(100, 49)
    for n, row in rows.items():
        for i in range(min(12, (n - 2) // 2) + 1):
            assert chain_rows[n][i] == row.coeff(i), (n, i)


@pytest.mark.parametrize("n, top", [*((2 * top + d, top) for top in range(6) for d in (2, 3, 4)),
                                    (150, 74)])
def test_chain_rows_are_the_recursion_rows_cut_at_top(monkeypatch, n, top):
    # one pass returns every row whose whole index range lies within top, and
    # row n, each P_m cut at t^top, and reads no Stirling number
    table = KLTable()
    want = {m: list(table.poly(m).coeffs[:top + 1])
            for m in [*range(1, min(n, 2 * top + 3) + 1), n]}
    _refuse_stirling_and_partitions(monkeypatch)
    assert kl_chain_rows(n, top) == want
    for bad in (-1, n // 2):
        with pytest.raises(ValueError):
            kl_chain_rows(n, bad)


def test_chain_sum_walks_only_heads_that_exist(monkeypatch):
    # a head with l >= 2 needs l <= 2i, so a small i at large n walks a few
    # l, not all n of them; a range shadowed in kl_recursion counts the l and
    # xi ranges that chain_sum opens, one xi range per l walked
    table = KLTable()
    table.poly(6)
    expected = kl_coeff(300, 3)
    calls = []

    def counting(*args):
        calls.append(args)
        return range(*args)

    monkeypatch.setattr(kl_recursion, "range", counting, raising=False)
    assert kl_recursion.chain_sum(300, 3, table._rows) == expected
    assert 0 < len(calls) < 40


def test_chain_method_never_calls_chain_sum(monkeypatch):
    # the recursion checks every entry with chain_sum; the chain method
    # computes the same sum on its own, so the two are compared, not shared
    seen = []
    real = kl_recursion.chain_sum

    def recording(n, i, coeff):
        seen.append((n, i))
        return real(n, i, coeff)

    monkeypatch.setattr(kl_recursion, "chain_sum", recording)
    KLTable().poly(12)
    assert sorted(seen) == [(m, k) for m in range(4, 13) for k in range(1, (m - 2) // 2 + 1)]
    # the recursion's values are read first, since kl_coeff runs chain_sum
    # on whatever entries the default table does not yet hold
    want = {(n, i): kl_coeff(n, i) for n in range(2, 31) for i in range((n - 2) // 2 + 1)}
    seen.clear()
    for (n, i), value in want.items():
        assert kl_coeff_via_chains(n, i) == value
    assert seen == []
    assert not hasattr(chain_formula, "kl_recursion") and not hasattr(chain_formula, "chain_sum")


@pytest.mark.parametrize("n", range(1, 11))
def test_link_row_equals_composition_sum(n):
    # the reference row's convolution against each link's composition sum
    for lam in partitions_of(n):
        row = _reference_link_row(lam)
        assert len(row) == lam.size + 1
        assert not any(row[: lam.length])
        for total in range(lam.length, lam.size + 1):
            assert _link(lam, total)[0] == row[total]


@pytest.mark.parametrize("blocks, total", [
    ((3, 1), 1), ((3, 1), 0), ((3, 1), -1), ((3, 1), -4), ((3, 1), 5),
    ((1,), 0), ((1,), 2), ((2, 2, 1), 2), ((2, 2, 1), 6), ((2, 2, 1), -6),
])
def test_infeasible_totals_raise_degenerate_link(blocks, total):
    # a total outside [length, size] has no composition, negative ones included
    lam = IntPartition(blocks)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="degenerate link"):
            _link(lam, total)


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        kl_coeff_via_chains(6, 3)
    with pytest.raises(ValueError):
        kl_coeff_via_chains(1, 0)
    with pytest.raises(ValueError):
        kl_chain_rows(1, 0)


def test_term_values_sum_to_coefficient():
    assert symbolic_expansion(8, 3).total == kl_coeff(8, 3)


def test_term_breakdown_audit():
    # each term is the product of its links' values and the concatenation of
    # their texts; a link's composition target is alpha_j plus its block count
    terms = [t for g in symbolic_expansion(6, 2).groups for t in g.terms]
    triples = list(enumerate_K(6, 2))
    assert len(terms) == len(triples) and {t.triple for t in terms} == set(triples)
    for t in terms:
        links = [_link(lam, alpha + lam.length) for lam, alpha in zip(t.triple.Lambda, t.triple.A)]
        assert len(links) == t.triple.q
        assert t.value == prod(value for value, _ in links)
        assert t.text == "".join(text for _, text in links)


@pytest.mark.parametrize("n", range(2, 11))
def test_audit_and_memoized_values_agree(n):
    # each term of the expansion, built from its per-call link memo, must be
    # the product of its links' reference-row entries
    for i in range((n - 2) // 2 + 1):
        for g in symbolic_expansion(n, i).groups:
            for t in g.terms:
                ref = 1
                for lam, alpha in zip(t.triple.Lambda, t.triple.A):
                    ref *= _reference_link_row(lam)[alpha + lam.length]
                assert t.value == ref


def test_degenerate_link_raises_every_time():
    # total 6 exceeds the size of the partition 2, so no composition exists;
    # the failure must not be memoized as a value
    for _ in range(3):
        with pytest.raises(InternalConsistencyError, match="degenerate link"):
            _link(IntPartition([2]), 6)


def test_group_values_six_two():
    # per-top-partition contributions; they sum to C(6,2) = 15
    got = group_values(6, 2)
    assert got == {
        (6,): 85,
        (5, 1): -60,
        (4, 2): -105,
        (3, 3): -60,
        (4, 1, 1): 15,
        (3, 2, 1): 60,
        (2, 2, 2): 15,
        (3, 1, 1, 1): 20,
        (2, 2, 1, 1): 45,
    }
    assert sum(got.values()) == 15


def test_group_values_seven_two():
    got = group_values(7, 2)
    assert got == {
        (7,): 175,
        (6, 1): -105,
        (5, 2): -231,
        (5, 1, 1): 21,
        (4, 3): -315,
        (4, 2, 1): 105,
        (3, 3, 1): 70,
        (3, 2, 2): 105,
        (4, 1, 1, 1): 35,
        (3, 2, 1, 1): 210,
        (2, 2, 2, 1): 105,
    }
    assert sum(got.values()) == 175


def test_symbolic_expansion_shape():
    exp = symbolic_expansion(6, 2)
    assert exp.n == 6 and exp.i == 2
    assert exp.total == 15
    assert [g.lambda1.blocks for g in exp.groups][0] == (6,)
    assert {g.lambda1.blocks: g.value for g in exp.groups} == group_values(6, 2)
    for g in exp.groups:
        assert g.value == sum(t.value for t in g.terms)
        for t in g.terms:
            assert t.triple.Lambda[0] == g.lambda1
            assert t.text.startswith(f"m({g.lambda1})")


def test_expansion_term_texts():
    exp = symbolic_expansion(4, 1)
    texts = [t.text for g in exp.groups for t in g.terms]
    assert texts == [
        "m(4)s(4,3)",
        "m(3+1)s(3,3)s(1,1)",
        "m(2+2)s(2,2)s(2,2)",
    ]


def test_expansion_merges_composition_sums():
    # a block admitting several bounded compositions renders as one
    # parenthesized sum rather than separate terms
    exp = symbolic_expansion(6, 2)
    by_shape = {g.lambda1.blocks: g for g in exp.groups}
    texts = [t.text for t in by_shape[(4, 2)].terms]
    assert texts == ["m(4+2)(s(4,3)s(2,2) + s(4,4)s(2,1))"]


def test_expansion_render_text():
    out = symbolic_expansion(4, 1).render_text()
    lines = out.splitlines()
    assert lines[0] == "C(4,1) grouped by the top partition:"
    assert lines[-1] == "total = 1"
    assert any("m(2+2)s(2,2)s(2,2) = 3" in line for line in lines)


def test_expansion_json_schema():
    obj = symbolic_expansion(4, 1).to_json_obj()
    blob = json.loads(json.dumps(obj))
    assert [g["lambda1"] for g in blob] == [[4], [3, 1], [2, 2]]
    assert sum(int(g["value"]) for g in blob) == 1
    first = blob[0]["terms"][0]
    assert first["lambda"] == [[4]]
    assert first["text"] == "m(4)s(4,3)"
    assert first["value"] == "-6"
