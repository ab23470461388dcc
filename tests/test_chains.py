from __future__ import annotations

import hashlib
import subprocess
import sys
import threading

import pytest

from klbraid.chains import (
    AXIOM_IDS,
    KLChainTriple,
    canonical_key,
    enumerate_K,
    validate_triple,
    xi_upper_bound,
)
from klbraid.partitions import IntPartition


def triple(lams, alphas, xis):
    return KLChainTriple(
        tuple(IntPartition(int(b) for b in s.split("+")) for s in lams),
        tuple(alphas),
        tuple(xis),
    )


def test_base_index_set_is_a_single_triple():
    got = list(enumerate_K(2, 0))
    assert got == [triple(["2"], [1], [0])]


def test_rejected_two_step_candidate():
    # the would-be refinement chain through 1+1 dies on the index axioms:
    # its first partition is not the one the second step localizes
    bad = triple(["1+1", "2"], [1, 1], [0, 0])
    rep = validate_triple(bad, 2, 0)
    assert not rep.passed
    assert "v" in rep.failed


def test_axiom_report_covers_all_axioms():
    rep = validate_triple(triple(["2"], [1], [0]), 2, 0)
    assert rep.passed
    assert tuple(rep.results) == AXIOM_IDS
    assert all(rep.results.values())


def test_i0_index_sets_are_singletons():
    for n in range(2, 13):
        got = list(enumerate_K(n, 0))
        assert got == [triple([str(n)], [n - 1], [0])]


def test_n4_i1_enumeration():
    got = [t.to_json_obj() for t in enumerate_K(4, 1)]
    assert got == [
        {"lambda": [[4]], "alpha": [2], "xi": [0]},
        {"lambda": [[3, 1]], "alpha": [2], "xi": [0]},
        {"lambda": [[2, 2]], "alpha": [2], "xi": [0]},
    ]


def test_known_index_set_sizes():
    # spot sizes pinned after cross-validating the summation formula they
    # feed against the recursion on the full grid
    sizes = {(6, 2): 13, (8, 2): 25, (8, 3): 65, (10, 4): 344}
    for (n, i), want in sizes.items():
        assert len(list(enumerate_K(n, i))) == want


def test_triples_all_validate_and_are_sorted():
    for n, i in [(6, 2), (7, 2), (8, 3), (9, 2)]:
        triples = list(enumerate_K(n, i))
        assert len(set(triples)) == len(triples)
        assert [canonical_key(t) for t in triples] == sorted(
            canonical_key(t) for t in triples
        )
        for t in triples:
            rep = validate_triple(t, n, i)
            assert rep.passed, f"{t} fails {rep.failed} in K({n},{i})"


def test_validate_rejects_misplaced_valid_triple():
    t = next(iter(enumerate_K(6, 2)))
    assert not validate_triple(t, 6, 1).passed
    assert not validate_triple(t, 7, 2).passed


def test_chain_structure_properties():
    # each partition in the chain partitions the length of its predecessor,
    # the terminal xi is zero and interior xis are positive
    for t in enumerate_K(8, 3):
        q = t.q
        assert len(t.Lambda) == len(t.A) == len(t.Xi) == q
        assert t.Lambda[0].size == 8
        for j in range(1, q):
            assert t.Lambda[j].size == t.Lambda[j - 1].length
        assert t.Xi[q - 1] == 0
        for j in range(q - 1):
            assert t.Xi[j] > 0
            assert 2 * t.Xi[j] < t.Lambda[j].length - 1


def test_xi_upper_bound():
    # single-block partitions are governed by the forced-zero condition,
    # so the bound is 0 there as well
    assert xi_upper_bound(1) == 0
    assert xi_upper_bound(2) == 0
    assert xi_upper_bound(3) == 0
    assert xi_upper_bound(4) == 1
    assert xi_upper_bound(5) == 1
    assert xi_upper_bound(9) == 3


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        list(enumerate_K(1, 0))
    with pytest.raises(ValueError):
        list(enumerate_K(5, 2))
    with pytest.raises(ValueError):
        list(enumerate_K(4, -1))


def test_str_rendering():
    t = triple(["3+1", "2"], [2, 0], [1, 0])
    assert str(t) == "(Lambda=[3+1, 2], A=[2, 0], Xi=[1, 0])"


def xi_closed_form(t, j):
    # Unrolling (iv) from the terminal xi_q = 0 gives, for 1 <= j <= q:
    # xi_j = sum_{d=0}^{q-j-1} (-1)^d length(lam_{j+d})
    #        + sum_{d=1}^{q-j} (-1)^d alpha_{j+d}
    #        - (1 - (-1)^(q-j)) / 2
    q = t.q
    s = 0
    for d in range(q - j):
        s += (-1) ** d * t.Lambda[j - 1 + d].length
    for d in range(1, q - j + 1):
        s += (-1) ** d * t.A[j - 1 + d]
    s -= (1 - (-1) ** (q - j)) // 2
    return s


def test_xi_closed_form_matches_every_position():
    parities = set()
    for n in range(2, 11):
        for i in range(0, (n - 2) // 2 + 1):
            for t in enumerate_K(n, i):
                for j in range(1, t.q + 1):
                    assert xi_closed_form(t, j) == t.Xi[j - 1], (n, i, t, j)
                    parities.add((t.q - j) % 2)
    # both signs of the parity correction are exercised
    assert parities == {0, 1}


def test_every_index_set_is_pinned_through_13():
    # the listing of every (n, i) with n <= 13, digested
    digest = hashlib.sha256()
    count = 0
    for n in range(2, 14):
        for i in range((n - 2) // 2 + 1):
            objs = [t.to_json_obj() for t in enumerate_K(n, i)]
            count += len(objs)
            digest.update((repr(objs) + "\n").encode())
    assert count == 8732
    assert digest.hexdigest() == "0b3d2eeb1f6c211548dcce495050f10beb5cda2c8b856335690f9f107902259e"


def test_listing_keeps_nothing_once_dropped():
    # tails are memoized for one call only: a dropped listing of (13, 5),
    # about 0.9 MB with its tails, leaves nothing behind.  A fresh
    # interpreter, so that no listing made by another test is in memory.
    code = (
        "import gc, tracemalloc\n"
        "from klbraid.chains import enumerate_K\n"
        "list(enumerate_K(12, 4))\n"
        "gc.collect()\n"
        "tracemalloc.start()\n"
        "before = tracemalloc.get_traced_memory()[0]\n"
        "list(enumerate_K(13, 5))\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0] - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64 * 1024


def test_concurrent_listings_match_a_single_thread():
    # each call builds its own memo; listings racing with a short switch
    # interval must still come out whole and in order
    want = {key: list(enumerate_K(*key)) for key in [(13, 5), (12, 4)]}
    got = {}

    def worker(k):
        key = (13, 5) if k % 2 else (12, 4)
        got[k] = (key, list(enumerate_K(*key)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 6
    for key, listing in got.values():
        assert listing == want[key]
