"""Command-line interface (installed as ``klb``).

Subcommands: ``coeff``, ``poly``, ``table``, ``chains``, ``expand``,
``selftest``.  Exit codes: 0 success, 1 cross-method
disagreement or mandatory self-test failure, 2 usage error.

Output is deterministic: identical invocations produce byte-identical
output.

This module only parses arguments and dispatches.  ``_refusal`` states
each method's domain and cap once: ``coeff --method`` exits 2 with its
message, and ``--all-methods`` runs exactly the methods it lets through,
each once for all of its cells (``compare_methods``, which the self-test
battery in ``klbraid.checks`` shares).

Each command imports the method modules it runs, and no others, when it
runs: building the parser needs only the constants below, so a ``klb``
process that answers from the lattice oracle never loads the chain or
Stirling modules.  ``csv`` and ``json`` are likewise imported only by the
formats that print them.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .errors import InternalConsistencyError, OracleBoundError

DEFAULT_CHAIN_MAX_N = 60
# --chain-max-n obeys up to this ceiling.  The chain reads no Stirling number
# but costs about n*i^2 + i^4/6 big-integer products, so it warns above the
# default: in fresh processes on a 2-core host `coeff 500 3 --method chain
# --chain-max-n 500` took 0.08-0.15 s of CPU and 15 MB, and i = 60 1.3-2.1 s.
CHAIN_SUM_MAX_N = 500
# The recursion checks each coefficient against the defining identity, which
# grows both Stirling triangles to row n and costs about n^4 products, in the
# chain sum: a cold `poly 100` took 0.31-0.54 s of CPU and 16 MB in 5 fresh
# processes on a 2-core host, `kl_braid_poly(120)` 0.59-0.73 s in 5.
RECURSION_MAX_N = 100
# The corollary grows both Stirling triangles to row n: n = 500 took 0.47 s
# of CPU and 69 MB on a 2-core host, n = 1000 took 1.7 s and 441 MB.
COROLLARY_MAX_N = 500
# The pxy sum grows the second-kind Stirling triangle to row n, and its memo
# holds O(i^2) entries of O(i) products each.  In fresh processes on a 2-core
# host, `coeff 500 10 --method pxy` took 0.07-0.10 s of CPU and 39 MB, `coeff
# 500 249 --method pxy` 13-18 s and 50 MB, and C(1000, 2) 0.26-0.44 s and 210 MB.
PXY_MAX_N = 500
# Listing the chain index set holds every triple, and its size grows about 4x
# with each n at the largest i.  Fresh processes on a 2-core host (Python
# 3.11): `chains 15 6 --format json` took 1.1 s of CPU and 86 MB, `chains 16 7
# --format json` 5.1 s and 328 MB; `expand 14 6 --format json` took 1.2 s and
# 81 MB, `expand 16 7` 2.7 s and 142 MB.
CHAINS_MAX_N = 15
EXPAND_MAX_N = 14
DEFAULT_SELFTEST_MAX_N = 8
DEFAULT_SELFTEST_ORACLE_MAX_N = 6
# DEFAULT_GENERIC_KL_BOUND is the oracle's default bound: `--oracle-max-n`'s
# default, the `coeff` warning threshold and the top of selftest's generic
# check.  DEFAULT_LATTICE_BOUND copies lattice_oracle's cap, so that building
# the parser imports no method module; tests/test_cli.py pins it to its source.
DEFAULT_GENERIC_KL_BOUND = 7
DEFAULT_LATTICE_BOUND = 9

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


def _refusal(method: str, n: int, i: int, args) -> str | None:
    """The usage error that ``coeff n i --method method`` exits 2 with, or
    None when the method answers: each method's domain and cap, stated once."""
    if method == "recursion":
        if n > RECURSION_MAX_N:
            return (f"the recursion is capped at n <= {RECURSION_MAX_N}: its identity check "
                    "grows both Stirling triangles to row n and costs about n^4 products")
    elif method == "chain":
        if n < 2 or i < 0 or 2 * i >= n - 1:
            return f"chain method needs n >= 2 and 0 <= i < (n-1)/2; got n={n} i={i}"
        if n > CHAIN_SUM_MAX_N:
            return (f"chain method capped at n <= {CHAIN_SUM_MAX_N}, whatever --chain-max-n: "
                    "its work grows as n*i^2 + i^4")
        if n > args.chain_max_n:
            return f"chain method capped at n <= {args.chain_max_n}; raise with --chain-max-n"
    elif method == "corollary":
        if i != 1:
            return "corollary method computes i = 1 only"
        if n < 2:
            return "corollary method needs n >= 2"
        if n > COROLLARY_MAX_N:
            return (f"corollary method capped at n <= {COROLLARY_MAX_N}: "
                    "it grows both Stirling triangles to row n")
    elif method == "pxy":
        if n < 2 or i < 1 or 2 * i >= n - 1:
            return f"pxy method needs 0 < i < (n-1)/2; got n={n} i={i}"
        if n > PXY_MAX_N:
            return f"pxy method capped at n <= {PXY_MAX_N}: it grows a Stirling triangle to row n"
    elif method == "oracle":
        if n > args.oracle_max_n:
            return f"oracle method capped at n <= {args.oracle_max_n}; raise with --oracle-max-n"
        if n < 2:
            return "oracle method needs n >= 2"
    else:
        return f"unknown method {method!r}"
    return None


def _require(method: str, n: int, i: int, args) -> None:
    message = _refusal(method, n, i, args)
    if message is not None:
        raise UsageError(message)


def _check_oracle_bound(args) -> None:
    if args.oracle_max_n > DEFAULT_LATTICE_BOUND:
        raise UsageError(f"--oracle-max-n is capped at {DEFAULT_LATTICE_BOUND}: "
                         "the lattice's up masks take about Bell(n)^2 bits")


def _applicable_methods(n: int, i: int, args) -> list[str]:
    return [m for m in METHODS if _refusal(m, n, i, args) is None]


def _warn_slow(reached) -> None:
    # one stderr line per bound that some (method, n) in ``reached`` passes,
    # in the order they first pass it
    warned = set()
    for method, n in reached:
        if method == "chain" and n > DEFAULT_CHAIN_MAX_N:
            message = f"chain sum above n={DEFAULT_CHAIN_MAX_N} may be slow"
        elif method == "oracle" and n > DEFAULT_GENERIC_KL_BOUND:
            message = f"lattice recursion above n={DEFAULT_GENERIC_KL_BOUND} may be slow"
        else:
            continue
        if message not in warned:
            warned.add(message)
            print(f"warning: {message}", file=sys.stderr)


def _answers(method: str, cells: list[tuple[int, int]]) -> list[int]:
    """C(n, i) by ``method`` for each (n, i) in ``cells``, all of which
    ``_refusal`` lets through.  The chain makes one pass at the cells' largest
    n and i, which holds one cell or every row of a table, and answers a cell
    outside that pass's rows from its own pass; the oracle solves each n's
    lattice once; the pxy sum shares one memo across the cells; the recursion
    and the corollary answer cell by cell.  Nothing but the recursion's table
    and the Stirling triangles outlives the call."""
    if method == "chain":
        from . import chain_formula

        rows = chain_formula.kl_chain_rows(max(n for n, _ in cells), max(i for _, i in cells))
        return [rows[n][i] if n in rows else chain_formula.kl_coeff_via_chains(n, i)
                for n, i in cells]
    if method == "oracle":
        from . import lattice_oracle

        polys = {n: lattice_oracle.braid_kl_generic(n) for n in dict.fromkeys(n for n, _ in cells)}
        return [polys[n].coeff(i) for n, i in cells]
    if method == "recursion":
        from . import kl_recursion

        return [kl_recursion.kl_coeff(n, i) for n, i in cells]
    from . import whitney2

    if method == "corollary":
        return [whitney2.kl_c1(n) for n, _ in cells]
    return whitney2.kl_coeffs_via_pxy(cells)


def compare_methods(cells: list[tuple[int, int]], args) -> list:
    """(n, i, [(method, C(n, i))], the pairs that differ from the recursion's)
    per cell, over the methods ``_refusal`` lets through: one ``_answers`` call
    per method, slowness warnings in cell order.  The recursion's cap refuses
    the whole request, since every row is checked against it."""
    _require("recursion", max(n for n, _ in cells), 0, args)
    methods = [_applicable_methods(n, i, args) for n, i in cells]
    _warn_slow((m, n) for (n, _), ms in zip(cells, methods) for m in ms)
    by_method = {m: [c for c, ms in zip(cells, methods) if m in ms] for m in METHODS}
    values = {m: dict(zip(cs, _answers(m, cs))) for m, cs in by_method.items() if cs}
    pairs = [[(m, values[m][c]) for m in ms] for c, ms in zip(cells, methods)]
    return [(n, i, p, [(m, v) for m, v in p if v != p[0][1]]) for (n, i), p in zip(cells, pairs)]


def _print_json(obj) -> None:
    import json

    print(json.dumps(obj, indent=2))


def cmd_coeff(args) -> int:
    _check_oracle_bound(args)
    n, i = args.n, args.i
    if n < 1 or i < 0:
        raise UsageError("need n >= 1 and i >= 0")
    if args.all_methods:
        ((_, _, pairs, bad),) = compare_methods([(n, i)], args)
        width = max(len(m) for m, _ in pairs)
        for m, v in pairs:
            print(f"{m:<{width}}  {v}")
        if bad:
            print(f"disagreement among methods for C({n},{i})", file=sys.stderr)
        return 1 if bad else 0
    _require(args.method, n, i, args)
    _warn_slow([(args.method, n)])
    print(_answers(args.method, [(n, i)])[0])
    return 0


def cmd_poly(args) -> int:
    n = args.n
    if n < 1:
        raise UsageError("need n >= 1")
    _require("recursion", n, 0, args)
    from . import kl_recursion

    p = kl_recursion.kl_braid_poly(n)
    if args.format == "json":
        _print_json({"n": n, "coefficients": p.to_json_obj()})
    else:
        print(p.render(descending=args.descending))
    return 0


def _table_rows(args):
    # (n, i, C(n, i), the (method, value) pairs that disagree with the recursion)
    # for every i with 2i < n - 1, where P_n's coefficients lie
    cells = [(n, i) for n in range(2, args.max_n + 1) for i in range(n // 2)]
    if not args.all_methods:
        return [(n, i, c, []) for (n, i), c in zip(cells, _answers("recursion", cells))]
    return [(n, i, pairs[0][1], bad) for n, i, pairs, bad in compare_methods(cells, args)]


def _emit_table(rows, fmt):
    if fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["n", "i", "c"])
        for n, i, c, _ in rows:
            writer.writerow([n, i, c])
    elif fmt == "json":
        _print_json([{"n": n, "i": i, "c": str(c)} for n, i, c, _ in rows])
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
    _require("recursion", args.max_n, 0, args)
    rows = _table_rows(args)
    _emit_table(rows, args.format)
    disagreements = [(n, i, bad) for n, i, _, bad in rows if bad]
    for n, i, bad in disagreements:
        print(f"disagreement at C({n},{i}): {bad}", file=sys.stderr)
    return 1 if disagreements else 0


def _index_set_listing(args, cap: int, verb: str, build):
    """``build(n, i)`` for ``chains`` and ``expand``: n above ``cap`` and a
    ValueError from ``build`` are usage errors."""
    if args.n > cap:
        raise UsageError(f"{args.command} is capped at n <= {cap}: "
                         f"it {verb} every triple of the index set")
    try:
        return build(args.n, args.i)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_chains(args) -> int:
    from . import chains

    triples = _index_set_listing(args, CHAINS_MAX_N, "lists",
                                 lambda n, i: list(chains.enumerate_K(n, i)))
    if args.format == "json":
        _print_json([t.to_json_obj() for t in triples])
    else:
        for t in triples:
            print(t)
        print(f"{len(triples)} triples for (n={args.n}, i={args.i})")
    return 0


def cmd_expand(args) -> int:
    from . import chain_formula

    exp = _index_set_listing(args, EXPAND_MAX_N, "renders", chain_formula.symbolic_expansion)
    if args.format == "json":
        _print_json(exp.to_json_obj())
    else:
        print(exp.render_text())
    return 0


def cmd_selftest(args) -> int:
    # below 2 every check's range is empty, so a pass would check nothing
    for flag, bound in (("--max-n", args.max_n), ("--oracle-max-n", args.oracle_max_n),
                        ("--chain-max-n", args.chain_max_n)):
        if bound < 2:
            raise UsageError(f"need {flag} >= 2")
    _require("recursion", args.max_n, 0, args)
    from . import checks

    return checks.run(args)


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

    p = sub.add_parser("selftest", help="run the built-in cross-checks")
    p.add_argument("--max-n", type=int, default=DEFAULT_SELFTEST_MAX_N)
    p.add_argument("--oracle-max-n", type=int, default=DEFAULT_SELFTEST_ORACLE_MAX_N)
    p.add_argument("--chain-max-n", type=int, default=DEFAULT_CHAIN_MAX_N)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, OracleBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


def entry_point():
    raise SystemExit(main())
