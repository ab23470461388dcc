"""Child-process side of the benchmark; one request per process.

    child.py fill <cpu_s> <min_n>         fill rows n = 2, 3, ... until the
                                          process has used cpu_s of CPU time,
                                          and at least through row min_n
    child.py fill-upto <n>                fill rows 2..n
    child.py trace <summary> <spans> fill-upto <n> | cli <klb argv...>
                                          the same request under the tracer
    child.py kernels <profile-json>       kernel rows, by direct public calls

Fill modes print one JSON line per row, {"n", "t", "cpu", "rss", "c"}, where
t is the perf_counter time the row completed, cpu the process's CPU time
then, start-up included, and rss its peak resident set then, in KiB.  On
Linux perf_counter reads CLOCK_MONOTONIC, which parent and child share.
The parent scales cpu by the CPU's speed from spawn to t to get the row's
latency, and leaves rows past the budget out of the reach.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
from time import perf_counter, process_time


def fill(stop) -> None:
    from klbraid import kl_braid_poly

    rows = []
    n = 2
    while not stop(n):
        p = kl_braid_poly(n)
        t, cpu = perf_counter(), process_time()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rows.append({"n": n, "t": t, "cpu": cpu, "rss": rss, "c": p.to_json_obj()})
        n += 1
    for row in rows:
        print(json.dumps(row))


def run_request(argv: list[str]) -> int:
    if argv[0] == "fill":
        cpu_s, min_n = float(argv[1]), int(argv[2])
        fill(lambda n: n > min_n and process_time() >= cpu_s)
        return 0
    if argv[0] == "fill-upto":
        top = int(argv[1])
        fill(lambda n: n > top)
        return 0
    if argv[0] == "cli":
        from klbraid import cli

        return cli.main(argv[1:])
    raise SystemExit(f"unknown request {argv[0]!r}")


def traced(summary_path: str, spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer, install

    tr = Tracer()
    install(tr)
    try:
        return run_request(argv)
    finally:
        sys.stdout.flush()
        tr.dump(summary_path, spans_path)


def _per_call(fn, reps: int, batches: int = 7) -> float:
    """Median over batches of the mean CPU time of one call, in seconds."""
    times = []
    for _ in range(batches):
        t0 = process_time()
        for _ in range(reps):
            fn()
        times.append((process_time() - t0) / reps)
    return statistics.median(times)


def _now() -> tuple[float, float]:
    return process_time(), perf_counter()


def _row(start: tuple[float, float], value: float | None = None) -> list[float]:
    """[CPU seconds since start, or value; start time; end time].  The
    parent scales the first by the CPU's speed between the two times."""
    cpu, t = _now()
    return [cpu - start[0] if value is None else value, start[1], t]


def kernels(profile: dict) -> dict:
    """Time each kernel row through the package's public API, in CPU time,
    with the interval it ran in; counts are plain numbers.

    Chain enumeration runs first, while the process-global chain memo is
    still empty."""
    from klbraid import (IntPoly, KLTable, build_partition_lattice, enumerate_K,
                         kl_braid_poly, kl_polynomial_generic)
    from klbraid.lattice_oracle import mobius
    from klbraid.stirling import StirlingCache

    out = {}
    n = profile["chains_n"]
    for i in range((n - 2) // 2 + 1):
        start = _now()
        count = sum(1 for _ in enumerate_K(n, i))
        out[f"chains.enum_s.n{n}.i{i}"] = _row(start)
        out[f"chains.triples.n{n}.i{i}"] = count

    rng = random.Random(1802)
    for digits in profile["mul_digits"]:
        lo, hi = 10 ** (digits - 1), 10 ** digits - 1
        a = IntPoly([rng.randint(lo, hi) for _ in range(profile["mul_len"])])
        b = IntPoly([rng.randint(lo, hi) for _ in range(profile["mul_len"])])
        reps = max(1, 400000 // (digits * profile["mul_len"]))
        start = _now()
        out[f"polynomial.mul_us.d{digits}"] = _row(start, _per_call(lambda: a * b, reps) * 1e6)

    top = profile["stirling_n"]

    def grow():
        cache = StirlingCache()
        cache.first(top, 1)
        cache.second(top, 1)

    start = _now()
    out[f"stirling.grow_s.n{top}"] = _row(start, _per_call(grow, 1))

    n = profile["row_n"]
    table = KLTable()
    table.poly(n - 1)
    start = _now()
    table.poly(n)
    out[f"kl_recursion.row_s.n{n}"] = _row(start)

    n = profile["lattice_n"]
    start = _now()
    L = build_partition_lattice(n)
    out["lattice_oracle.build_s"] = _row(start)
    start = _now()
    for x in range(len(L)):
        mobius(L, x, L.top)
    out["lattice_oracle.mobius_s"] = _row(start)
    start = _now()
    p = kl_polynomial_generic(L)
    out["lattice_oracle.solve_s"] = _row(start)
    out["lattice_oracle.solve_matches_recursion"] = p == kl_braid_poly(n)
    return out


def main(argv: list[str]) -> int:
    if argv[0] == "trace":
        return traced(argv[1], argv[2], argv[3:])
    if argv[0] == "kernels":
        print(json.dumps(kernels(json.loads(argv[1]))))
        return 0
    return run_request(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
