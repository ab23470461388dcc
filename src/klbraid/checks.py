"""The self-test battery behind ``klb selftest``.

Each check plays one route to C(n, i), or one ingredient of a route,
against another: the Z-polynomial recursion, the chain sum, the
second-kind closed forms and the explicit partition lattice.  A
check is ``check_*(args, lattice) -> (ok, detail)``; ``lattice(n)`` builds
the partition lattice of {1..n} once per run for every check that reads it.
``CHECKS`` sets the output order.  Only the ``selftest`` command imports
this module.

Not every pair is independent.  The chain method and the partition close
of rows n <= ``PARTITION_CHECK_MAX_N`` read no Stirling number; the lattice
oracle reads only the lattice.  pxy is independent in code and formula but
reads only S, as the diagonal does, so pxy = recursion cannot catch a
corrupted S entry (the chain method and the coefficient-k check can).  The
close and ``defining_identity`` compute the one identity two ways, from a
two-term recurrence for the rows of B, which reads no chi, and over integer
partitions with a chi memo for the call, so a wrong chi entry fails
``defining_identity`` alone and a wrong row of B fails the close alone.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations_with_replacement
from math import factorial, perm

from . import chain_formula, chains, kl_recursion, lattice_oracle, partitions, stirling, whitney2
from .cli import DEFAULT_GENERIC_KL_BOUND, compare_methods


def check_base_case(args, lattice):
    ((_, _, pairs, _),) = compare_methods([(2, 0)], args)
    return {v for _, v in pairs} == {1}, f"methods {sorted(m for m, _ in pairs)}"


def check_chain_example(args, lattice):
    got = list(chains.enumerate_K(2, 0))
    if len(got) != 1 or got[0].to_json_obj() != {"lambda": [[2]], "alpha": [1], "xi": [0]}:
        return False, f"unexpected index set {got}"
    two, one_one = partitions.IntPartition([2]), partitions.IntPartition([1, 1])
    bad = chains.KLChainTriple((one_one, two), (1, 1), (0, 0))
    rep = chains.validate_triple(bad, 2, 0)
    return (not rep.passed and "v" in rep.failed), f"rejected via {rep.failed}"


def check_stirling_tables(args, lattice):
    for n in range(0, 13):
        p = stirling.falling_factorial_poly(n)
        for k in range(n + 1):
            if p.coeff(k) != stirling.stirling_first(n, k):
                return False, f"first-kind table off at ({n},{k})"
    for n in range(0, 11):
        for t in range(0, n + 1):
            # perm(t, k) is the falling factorial t(t-1)...(t-k+1)
            if sum(stirling.stirling_second(n, k) * perm(t, k) for k in range(n + 1)) != t**n:
                return False, f"second-kind inversion off at n={n}, t={t}"
    return True, "first kind vs product, second kind vs inversion"


def check_stirling_nonrecursive(args, lattice):
    for n in range(1, 13):
        for m in range(1, n + 1):
            if stirling.stirling_first_nonrecursive(n, m) != stirling.stirling_first(n, m):
                return False, f"mismatch at ({n},{m})"
    return True, "1 <= m <= n <= 12"


def check_charpoly(args, lattice):
    top = min(args.oracle_max_n, 8)
    for n in range(2, top + 1):
        if lattice_oracle.char_poly(lattice(n)) != stirling.partition_char_poly(n):
            return False, f"characteristic polynomial off at n={n}"
    return True, f"n <= {top}"


def check_flag_whitney(args, lattice):
    top = min(args.oracle_max_n, 6)
    for n in range(2, top + 1):
        L = lattice(n)
        for length in range(L.rank + 1):
            for I in combinations_with_replacement(range(1, L.rank + 1), length):
                if (lattice_oracle.flag_whitney_bruteforce(L, I)
                        != whitney2.flag_whitney_product(n, I)):
                    return False, f"flag count off at n={n}, I={I}"
    return True, f"n <= {top}, all weakly increasing indices"


def check_mobius(args, lattice):
    top = min(args.oracle_max_n, 7)
    for n in range(2, top + 1):
        L = lattice(n)
        want = (-1) ** (n - 1) * factorial(n - 1)
        if lattice_oracle.mobius(L, L.bottom, L.top) != want:
            return False, f"mu(bottom, top) off at n={n}"
    return True, f"n <= {top}"


def check_multiplicity_census(args, lattice):
    top = min(args.oracle_max_n, 8)
    for n in range(1, top + 1):
        census = Counter(partitions.shape_of(sp).blocks for sp in partitions.set_partitions_of(n))
        if census.total() != stirling.bell_number(n):
            return False, f"Bell count off at n={n}"
        for lam in partitions.partitions_of(n):
            if census[lam.blocks] != partitions.multiplicity(lam):
                return False, f"multiplicity off at {lam}"
    return True, f"n <= {top}, shape census and Bell totals"


def check_method_grid(args, lattice):
    top = min(args.max_n, args.chain_max_n)
    rows = chain_formula.kl_chain_rows(top, (top - 2) // 2)  # rows 1..top, from one pass
    bad = [n for n in range(2, top + 1) if tuple(rows[n]) != kl_recursion.kl_braid_poly(n).coeffs]
    if bad:
        return False, f"chain vs recursion mismatch in rows {bad[:5]}"
    return True, f"chain vs recursion, n <= {top}"


def check_generic_oracle(args, lattice):
    top = min(args.oracle_max_n, DEFAULT_GENERIC_KL_BOUND)
    for n in range(2, top + 1):
        if lattice_oracle.kl_polynomial_generic(lattice(n)) != kl_recursion.kl_braid_poly(n):
            return False, f"lattice recursion off at n={n}"
    return True, f"n <= {top}"


def check_degree_one(args, lattice):
    for n in range(4, 26):
        if whitney2.kl_c1(n) != kl_recursion.kl_braid_poly(n).coeff(1):
            return False, f"degree-one closed form off at n={n}"
    for n, want in {4: 1, 5: 5, 6: 16, 7: 42}.items():
        if whitney2.kl_c1(n) != want:
            return False, f"spot value off at n={n}"
    return True, "4 <= n <= 25 plus frozen spot values"


def check_defining_identity(args, lattice):
    top = kl_recursion.PARTITION_CHECK_MAX_N
    for n in range(2, top + 1):
        if not kl_recursion.verify_defining_identity(n).equal:
            return False, f"identity fails at n={n}"
    return True, f"n <= {top}"


def check_index_set_i0(args, lattice):
    for n in range(2, 13):
        got = [(t.Lambda[0].blocks, t.A, t.Xi) for t in chains.enumerate_K(n, 0)]
        if got != [((n,), (n - 1,), (0,))]:
            return False, f"index set for i=0 wrong at n={n}"
    return True, "n <= 12"


CHECKS = (
    ("base_case", check_base_case),
    ("chain_example_2_0", check_chain_example),
    ("stirling_tables", check_stirling_tables),
    ("stirling_nonrecursive", check_stirling_nonrecursive),
    ("charpoly_oracle", check_charpoly),
    ("flag_whitney_oracle", check_flag_whitney),
    ("mobius_factorial", check_mobius),
    ("multiplicity_census", check_multiplicity_census),
    ("method_grid", check_method_grid),
    ("generic_oracle", check_generic_oracle),
    ("degree_one_closed_form", check_degree_one),
    ("defining_identity", check_defining_identity),
    ("index_set_i0_unique", check_index_set_i0),
)


def run(args) -> int:
    """Print a line per check, the advisory pxy section and a summary line;
    return 1 if any check fails or raises, else 0."""
    lattice = cache(lattice_oracle.build_partition_lattice)
    failures = 0
    for name, check in CHECKS:
        try:
            ok, detail = check(args, lattice)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += not ok
        print(f"check {name:<24} {'PASS' if ok else 'FAIL'}  ({detail})")
    print("pxy reading selection (advisory):")
    (res,) = whitney2.pxy_grid_report(max_n=min(args.max_n, 10), max_i=2).values()
    if res.matches:
        print(f"  {res.name:<24} matches grid")
        print(f"  promoted default: {res.name}")
    else:
        n, i, got, want = res.mismatches[0]
        print(f"  {res.name:<24} mismatch at (n={n}, i={i}): got {got}, want {want}")
        print("  no reading matches; nearest misses above (advisory, not a failure)")
    total = len(CHECKS)
    print(f"selftest: {'PASS' if failures == 0 else 'FAIL'} "
          f"({total - failures}/{total} mandatory checks)")
    return 1 if failures else 0
