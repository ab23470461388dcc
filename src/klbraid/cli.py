"""Command-line interface (installed as ``klb``).

Subcommands: ``coeff``, ``poly``, ``table``, ``chains``, ``expand``,
``pxy-readings``, ``selftest``.  Exit codes: 0 success, 1 cross-method
disagreement or mandatory self-test failure, 2 usage error.

Output is deterministic: identical invocations produce byte-identical
output.

Each command imports the method modules it runs, and no others, when it
runs: building the parser needs only the constants below, so a ``klb``
process that answers from the lattice oracle never loads the chain or
Stirling modules.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import import_module
from itertools import combinations_with_replacement
from math import factorial

from .errors import InternalConsistencyError, OracleBoundError

DEFAULT_CHAIN_MAX_N = 60
# The recursion walks every integer partition of n: a cold fill to n = 40
# took 41 s of CPU on a 2-core host, and each further n costs about 1.3x more.
RECURSION_MAX_N = 40
# The corollary grows both Stirling triangles to row n: n = 500 took 0.47 s
# of CPU and 69 MB on a 2-core host, n = 1000 took 1.7 s and 441 MB.
COROLLARY_MAX_N = 500
# The pxy sum has 2*3^(i-1) cells, so each i costs about 3x the last: C(23, 10)
# took 0.35 s of CPU on a 2-core host and C(25, 11) 1.1 s.  It also grows the
# second-kind Stirling triangle to row n: C(500, 10) took 0.64 s and 42 MB in
# a fresh process, C(1000, 2) 212 MB.
PXY_MAX_I = 10
PXY_MAX_N = 500
# Listing the chain index set holds every triple, and its size grows about 4x
# with each n at the largest i.  Fresh processes on a 2-core host:
# `chains 15 6 --format json` took 0.41 s of CPU and 86 MB, `chains 16 7
# --format json` 1.8 s and 328 MB; `expand 14 6 --format json` took 1.2 s and
# 96 MB, `expand 16 7` 7.4 s and 247 MB.
CHAINS_MAX_N = 15
EXPAND_MAX_N = 14
DEFAULT_SELFTEST_MAX_N = 8
DEFAULT_SELFTEST_ORACLE_MAX_N = 6
# Copies of lattice_oracle.DEFAULT_GENERIC_KL_BOUND and DEFAULT_LATTICE_BOUND
# and of whitney2's reading names and default, so that building the parser
# imports no method module; tests/test_cli.py pins each copy to its source.
DEFAULT_GENERIC_KL_BOUND = 7
DEFAULT_LATTICE_BOUND = 9
PXY_INTERPRETATIONS = ("product-shifted", "w-rank-prev")
DEFAULT_PXY_INTERPRETATION = "w-rank-prev"

METHODS = ("recursion", "chain", "corollary", "pxy", "oracle")

_METHOD_MODULES = ("chain_formula", "chains", "kl_recursion", "lattice_oracle",
                   "partitions", "stirling", "whitney2")


def __getattr__(name):
    # ``cli.kl_recursion`` and the like still name the modules, imported on
    # access; perfbench's tracer test reads ``cli.kl_recursion``
    if name in _METHOD_MODULES:
        return import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    pass


def _warn_once(args, message: str) -> None:
    # one stderr line per invocation, however many cells raise the same bound
    if message in args.warned:
        return
    args.warned.add(message)
    print(f"warning: {message}", file=sys.stderr)


def _coeff_index_count(n: int) -> int:
    # number of meaningful coefficient positions: i with 2i < n - 1, plus i = 0
    return max(1, (n - 2) // 2 + 1) if n >= 2 else 1


def _check_recursion_bound(n: int) -> None:
    if n > RECURSION_MAX_N:
        raise UsageError(f"the recursion is capped at n <= {RECURSION_MAX_N}: "
                         "it walks every integer partition of n")


def _coeff_by_method(method: str, n: int, i: int, args) -> int:
    if method == "recursion":
        _check_recursion_bound(n)
        from . import kl_recursion

        return kl_recursion.kl_coeff(n, i)
    if method == "chain":
        if n < 2 or i < 0 or 2 * i >= n - 1:
            raise UsageError(
                f"chain method needs n >= 2 and 0 <= i < (n-1)/2; got n={n} i={i}"
            )
        bound = args.chain_max_n
        if n > bound:
            raise UsageError(
                f"chain method capped at n <= {bound}; raise with --chain-max-n"
            )
        if bound > DEFAULT_CHAIN_MAX_N:
            _warn_once(args, f"chain sum above n={DEFAULT_CHAIN_MAX_N} may be slow")
        from . import chain_formula

        return chain_formula.kl_coeff_via_chains(n, i)
    if method == "corollary":
        if i != 1:
            raise UsageError("corollary method computes i = 1 only")
        if n < 2:
            raise UsageError("corollary method needs n >= 2")
        if n > COROLLARY_MAX_N:
            raise UsageError(f"corollary method capped at n <= {COROLLARY_MAX_N}: "
                             "it grows both Stirling triangles to row n")
        from . import whitney2

        return whitney2.kl_c1(n)
    if method == "pxy":
        if n < 2 or i < 1 or 2 * i >= n - 1:
            raise UsageError(
                f"pxy method needs 0 < i < (n-1)/2; got n={n} i={i}"
            )
        if i > PXY_MAX_I or n > PXY_MAX_N:
            raise UsageError(f"pxy method capped at i <= {PXY_MAX_I} and n <= {PXY_MAX_N}: "
                             "it sums 2*3^(i-1) cells and grows a Stirling triangle to row n")
        from . import whitney2

        return whitney2.kl_coeff_via_pxy(n, i, args.interpretation)
    if method == "oracle":
        bound = args.oracle_max_n
        if n > bound:
            raise UsageError(
                f"oracle method capped at n <= {bound}; raise with --oracle-max-n"
            )
        if bound > DEFAULT_GENERIC_KL_BOUND:
            _warn_once(args, f"lattice recursion above n={DEFAULT_GENERIC_KL_BOUND} may be slow")
        if n < 2:
            raise UsageError("oracle method needs n >= 2")
        from . import lattice_oracle

        return lattice_oracle.braid_kl_generic(n).coeff(i)
    raise UsageError(f"unknown method {method!r}")


def _check_oracle_bound(args) -> None:
    if args.oracle_max_n > DEFAULT_LATTICE_BOUND:
        raise UsageError(f"--oracle-max-n is capped at {DEFAULT_LATTICE_BOUND}: "
                         "the lattice's up masks take about Bell(n)^2 bits")


def _applicable_methods(n: int, i: int, args):
    out = ["recursion"]
    if n >= 2 and 0 <= i and 2 * i < n - 1 and n <= args.chain_max_n:
        out.append("chain")
    if i == 1 and n >= 2:
        out.append("corollary")
    if 2 <= n <= PXY_MAX_N and 1 <= i <= PXY_MAX_I and 2 * i < n - 1:
        out.append("pxy")
    if 2 <= n <= args.oracle_max_n:
        out.append("oracle")
    return out


def cmd_coeff(args) -> int:
    _check_oracle_bound(args)
    n, i = args.n, args.i
    if n < 1 or i < 0:
        raise UsageError("need n >= 1 and i >= 0")
    if args.all_methods:
        rows = [(m, _coeff_by_method(m, n, i, args)) for m in _applicable_methods(n, i, args)]
        width = max(len(m) for m, _ in rows)
        for m, v in rows:
            print(f"{m:<{width}}  {v}")
        values = {v for _, v in rows}
        if len(values) > 1:
            print(f"disagreement among methods for C({n},{i})", file=sys.stderr)
            return 1
        return 0
    print(_coeff_by_method(args.method, n, i, args))
    return 0


def cmd_poly(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("need n >= 1")
    _check_recursion_bound(n)
    from . import kl_recursion

    p = kl_recursion.kl_braid_poly(n)
    if args.format == "json":
        print(json.dumps({"n": n, "coefficients": p.to_json_obj()}, indent=2))
    else:
        print(p.render(descending=args.descending))
    return 0


def _table_row(n: int, i: int, args):
    if args.all_methods:
        vals = [
            (m, _coeff_by_method(m, n, i, args))
            for m in _applicable_methods(n, i, args)
        ]
        base = vals[0][1]
        bad = [(m, v) for m, v in vals if v != base]
        return (n, i, base, bad)
    from . import kl_recursion

    return (n, i, kl_recursion.kl_coeff(n, i), [])


def _table_rows(args):
    return [
        _table_row(n, i, args)
        for n in range(2, args.max_n + 1)
        for i in range(_coeff_index_count(n))
    ]


def _emit_table(rows, fmt):
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "i", "c"])
        for n, i, c, _ in rows:
            writer.writerow([n, i, c])
    elif fmt == "json":
        print(
            json.dumps(
                [{"n": n, "i": i, "c": str(c)} for n, i, c, _ in rows], indent=2
            )
        )
    elif fmt == "md":
        print("| n | i | c |")
        print("| --- | --- | --- |")
        for n, i, c, _ in rows:
            print(f"| {n} | {i} | {c} |")
    else:
        widths = [
            max(len(str(v)) for v in col)
            for col in zip(*[("n", "i", "c")] + [(n, i, c) for n, i, c, _ in rows])
        ]
        print(f"{'n':>{widths[0]}} {'i':>{widths[1]}} {'c':>{widths[2]}}")
        for n, i, c, _ in rows:
            print(f"{n:>{widths[0]}} {i:>{widths[1]}} {c:>{widths[2]}}")


def cmd_table(args) -> int:
    _check_oracle_bound(args)
    if args.max_n < 2:
        raise UsageError("need --max-n >= 2")
    _check_recursion_bound(args.max_n)
    rows = _table_rows(args)
    _emit_table(rows, args.format)
    disagreements = [(n, i, bad) for n, i, _, bad in rows if bad]
    if disagreements:
        for n, i, bad in disagreements:
            print(f"disagreement at C({n},{i}): {bad}", file=sys.stderr)
        return 1
    return 0


def cmd_chains(args) -> int:
    n, i = args.n, args.i
    if n > CHAINS_MAX_N:
        raise UsageError(f"chains is capped at n <= {CHAINS_MAX_N}: "
                         "it lists every triple of the index set")
    from . import chains

    try:
        triples = list(chains.enumerate_K(n, i))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        print(json.dumps([t.to_json_obj() for t in triples], indent=2))
    else:
        for t in triples:
            print(t)
        print(f"{len(triples)} triples for (n={n}, i={i})")
    return 0


def cmd_expand(args) -> int:
    n, i = args.n, args.i
    if n > EXPAND_MAX_N:
        raise UsageError(f"expand is capped at n <= {EXPAND_MAX_N}: "
                         "it renders every triple of the index set")
    from . import chain_formula

    try:
        exp = chain_formula.symbolic_expansion(n, i)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        print(json.dumps(exp.to_json_obj(), indent=2))
    else:
        print(exp.render_text())
    return 0


def cmd_pxy_readings(args) -> int:
    from . import whitney2

    for name, it in whitney2.INTERPRETATIONS.items():
        marker = " (default)" if name == whitney2.DEFAULT_PXY_INTERPRETATION else ""
        print(f"{name}{marker}")
        print(f"    {it.summary}")
    return 0


def _selftest_checks(args):
    from . import chain_formula, chains, kl_recursion, lattice_oracle, partitions, stirling, whitney2

    oracle_n = args.oracle_max_n
    max_n = args.max_n

    def check_base_case():
        vals = {
            m: _coeff_by_method(m, 2, 0, args) for m in _applicable_methods(2, 0, args)
        }
        return set(vals.values()) == {1}, f"methods {sorted(vals)}"

    def check_chain_example():
        got = list(chains.enumerate_K(2, 0))
        if len(got) != 1 or got[0].to_json_obj() != {"lambda": [[2]], "alpha": [1], "xi": [0]}:
            return False, f"unexpected index set {got}"
        bad = chains.KLChainTriple(
            (partitions.IntPartition([1, 1]), partitions.IntPartition([2])),
            (1, 1),
            (0, 0),
        )
        rep = chains.validate_triple(bad, 2, 0)
        return (not rep.passed and "v" in rep.failed), f"rejected via {rep.failed}"

    def check_stirling_tables():
        for n in range(0, 13):
            p = stirling.falling_factorial_poly(n)
            for k in range(n + 1):
                if p.coeff(k) != stirling.stirling_first(n, k):
                    return False, f"first-kind table off at ({n},{k})"
        for n in range(0, 11):
            for t in range(0, n + 1):
                total = 0
                for k in range(n + 1):
                    ff = 1
                    for j in range(k):
                        ff *= t - j
                    total += stirling.stirling_second(n, k) * ff
                if total != t**n:
                    return False, f"second-kind inversion off at n={n}, t={t}"
        return True, "first kind vs product, second kind vs inversion"

    def check_stirling_nonrecursive():
        for n in range(1, 13):
            for m in range(1, n + 1):
                if stirling.stirling_first_nonrecursive(n, m) != stirling.stirling_first(n, m):
                    return False, f"mismatch at ({n},{m})"
        return True, "1 <= m <= n <= 12"

    def check_charpoly():
        top = min(oracle_n, 8)
        for n in range(2, top + 1):
            L = lattice_oracle.build_partition_lattice(n)
            if lattice_oracle.char_poly(L) != stirling.partition_char_poly(n):
                return False, f"characteristic polynomial off at n={n}"
        return True, f"n <= {top}"

    def check_flag_whitney():
        top = min(oracle_n, 6)
        for n in range(2, top + 1):
            L = lattice_oracle.build_partition_lattice(n)
            rk = L.rank
            idxs = [()]
            for length in range(1, rk + 1):
                idxs.extend(combinations_with_replacement(range(1, rk + 1), length))
            for I in idxs:
                if lattice_oracle.flag_whitney_bruteforce(L, I) != whitney2.flag_whitney_product(n, I):
                    return False, f"flag count off at n={n}, I={I}"
        return True, f"n <= {top}, all weakly increasing indices"

    def check_mobius():
        for n in range(2, min(oracle_n, 7) + 1):
            L = lattice_oracle.build_partition_lattice(n)
            want = (-1) ** (n - 1) * factorial(n - 1)
            if lattice_oracle.mobius(L, L.bottom, L.top) != want:
                return False, f"mu(bottom, top) off at n={n}"
        return True, f"n <= {min(oracle_n, 7)}"

    def check_multiplicity_census():
        top = min(oracle_n, 8)
        for n in range(1, top + 1):
            census: dict[tuple, int] = {}
            count = 0
            for sp in partitions.set_partitions_of(n):
                count += 1
                shape = partitions.shape_of(sp).blocks
                census[shape] = census.get(shape, 0) + 1
            if count != stirling.bell_number(n):
                return False, f"Bell count off at n={n}"
            for lam in partitions.partitions_of(n):
                if census.get(lam.blocks, 0) != partitions.multiplicity(lam):
                    return False, f"multiplicity off at {lam}"
        return True, f"n <= {top}, shape census and Bell totals"

    def check_method_grid():
        bad = [
            (n, i)
            for n in range(2, min(max_n, args.chain_max_n) + 1)
            for i in range(_coeff_index_count(n))
            if chain_formula.kl_coeff_via_chains(n, i) != kl_recursion.kl_coeff(n, i)
        ]
        if bad:
            return False, f"chain vs recursion mismatch at {bad[:5]}"
        return True, f"chain vs recursion, n <= {min(max_n, args.chain_max_n)}"

    def check_generic_oracle():
        top = min(oracle_n, lattice_oracle.DEFAULT_GENERIC_KL_BOUND)
        for n in range(2, top + 1):
            if lattice_oracle.braid_kl_generic(n) != kl_recursion.kl_braid_poly(n):
                return False, f"lattice recursion off at n={n}"
        return True, f"n <= {top}"

    def check_degree_one():
        for n in range(4, 26):
            if whitney2.kl_c1(n) != kl_recursion.kl_coeff(n, 1):
                return False, f"degree-one closed form off at n={n}"
        spots = {4: 1, 5: 5, 6: 16, 7: 42}
        for n, want in spots.items():
            if whitney2.kl_c1(n) != want:
                return False, f"spot value off at n={n}"
        return True, "4 <= n <= 25 plus frozen spot values"

    def check_defining_identity():
        for n in range(2, 21):
            if not kl_recursion.verify_defining_identity(n).equal:
                return False, f"identity fails at n={n}"
        return True, "n <= 20"

    def check_k_n0():
        for n in range(2, 13):
            got = list(chains.enumerate_K(n, 0))
            ok = (
                len(got) == 1
                and got[0].Lambda[0].blocks == (n,)
                and got[0].A == (n - 1,)
                and got[0].Xi == (0,)
            )
            if not ok:
                return False, f"index set for i=0 wrong at n={n}"
        return True, "n <= 12"

    return [
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
        ("index_set_i0_unique", check_k_n0),
    ]


def cmd_selftest(args) -> int:
    from . import stirling, whitney2

    _check_recursion_bound(args.max_n)
    if args.inject_fault == "stirling":
        stirling.default_cache()._inject_fault()
    checks = _selftest_checks(args)
    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"check {name:<24} {status}  ({detail})")
    print("pxy reading selection (advisory):")
    report = whitney2.pxy_grid_report(max_n=min(args.max_n, 10), max_i=2)
    promoted = None
    for name, res in report.items():
        if res.matches:
            mark = "matches grid"
            if promoted is None:
                promoted = name
        else:
            first = res.mismatches[0]
            mark = f"mismatch at (n={first[0]}, i={first[1]}): got {first[2]}, want {first[3]}"
        print(f"  {name:<24} {mark}")
    if promoted:
        print(f"  promoted default: {promoted}")
    else:
        print("  no reading matches; nearest misses above (advisory, not a failure)")
    total = len(checks)
    print(f"selftest: {'PASS' if failures == 0 else 'FAIL'} "
          f"({total - failures}/{total} mandatory checks)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="klb",
        description="Exact Kazhdan-Lusztig coefficients C(n, i) of braid matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_bounds(p):
        p.add_argument("--chain-max-n", type=int, default=DEFAULT_CHAIN_MAX_N,
                       help=f"cap for the chain method (default {DEFAULT_CHAIN_MAX_N})")
        p.add_argument("--oracle-max-n", type=int, default=DEFAULT_GENERIC_KL_BOUND,
                       help=f"cap for the lattice oracle method (default {DEFAULT_GENERIC_KL_BOUND})")
        p.add_argument("--interpretation",
                       default=DEFAULT_PXY_INTERPRETATION,
                       choices=PXY_INTERPRETATIONS,
                       help="named reading for the pxy method")

    p = sub.add_parser("coeff", help="one coefficient C(n, i)")
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--method", choices=METHODS, default="recursion")
    p.add_argument("--all-methods", action="store_true",
                   help="compute via every applicable method and compare")
    add_bounds(p)
    p.set_defaults(fn=cmd_coeff)

    p = sub.add_parser("poly", help="the full polynomial P_n(t)")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--descending", action="store_true",
                   help="render highest degree first")
    p.set_defaults(fn=cmd_poly)

    p = sub.add_parser("table", help="all coefficients up to --max-n")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv", "md"), default="text")
    p.add_argument("--all-methods", action="store_true",
                   help="verify every row across all applicable methods")
    add_bounds(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("chains", help="dump the chain index set for (n, i)")
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_chains)

    p = sub.add_parser("expand", help="worked expansion of C(n, i) grouped by top partition")
    p.add_argument("n", type=int)
    p.add_argument("i", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("pxy-readings", help="list registered readings of the flag-Whitney sum")
    p.set_defaults(fn=cmd_pxy_readings)

    p = sub.add_parser("selftest", help="run the built-in cross-checks")
    p.add_argument("--max-n", type=int, default=DEFAULT_SELFTEST_MAX_N)
    p.add_argument("--oracle-max-n", type=int, default=DEFAULT_SELFTEST_ORACLE_MAX_N)
    p.add_argument("--chain-max-n", type=int, default=DEFAULT_CHAIN_MAX_N)
    p.add_argument("--inject-fault", choices=("stirling",), help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.warned = set()
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


def entry_point():
    raise SystemExit(main())
