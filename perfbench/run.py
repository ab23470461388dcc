"""The klbraid benchmark: one closed-loop client, one request per fresh process.

    python3 perfbench/run.py --workload {fill,crosscheck,oracle} --seed N \
        --seconds S --trace {0,1} [--quick]

Run from the root of a checkout; the package is imported from its ``src``.
Each request is a fresh ``python -m klbraid ...`` process (a fresh library
process for ``fill``), so the process-global caches start cold, as they do
for a CLI user.  Requests are issued one at a time until the next one would
end past ``--seconds``, with at least three per run.  Every output is
checked against frozen references (``refs.json``) or against theorems; a
request fails on a nonzero exit, a timeout or a failed check.

``--trace 0`` prints the end-to-end metrics: set-up time, request latency,
reach, peak resident set.  Every child runs on one CPU whose speed is
measured meanwhile, and its times are CPU time scaled to a reference speed
(``speed.py``), because a shared host's CPU speed drifts.  ``--trace 1``
alternates untraced and traced requests, reports per-layer counts and self
times from the traced ones, and times the kernel rows in one more fresh
process.  ``--quick`` shrinks
every size so a run takes seconds; its numbers are not comparable.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from speed import Speed, SpeedProbe
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

PROFILES = {
    "full": {
        # row 29 completes at about 2.0 s and row 30 at about 2.55 s, at the
        # reference speed: the budget falls between them
        "fill_budget_s": 2.25,
        "fill_cpu_cap_s": 3.4,
        "fill_ref_n": 30,
        "table_max_n": 14,
        "oracle_n": 8,
        "setup_per_request": 2,
        "kernels": {"chains_n": 14, "mul_digits": [10, 100, 400], "mul_len": 16,
                    "stirling_n": 200, "row_n": 30, "lattice_n": 8},
    },
    "quick": {
        "fill_budget_s": 1.0,
        "fill_cpu_cap_s": 1.5,
        "fill_ref_n": 18,
        "table_max_n": 8,
        "oracle_n": 6,
        "setup_per_request": 1,
        "kernels": {"chains_n": 10, "mul_digits": [10, 100, 400], "mul_len": 16,
                    "stirling_n": 50, "row_n": 18, "lattice_n": 6},
    },
}

WORKLOADS = ("fill", "crosscheck", "oracle")
TABLE_FORMATS = ("text", "csv", "json", "md")
ORACLE_INDICES = (1, 2, 3)
MIN_REQUESTS = 3
MIN_TRACE_PAIRS = 2
REQUEST_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0

# Layers each workload must reach; a traced run that records no call into
# one of them means the tracer missed a binding.
EXPECTED_LAYERS = {
    "fill": ("kl_recursion", "polynomial", "partitions", "stirling"),
    "crosscheck": LAYERS,
    "oracle": ("cli", "polynomial", "lattice_oracle"),
}


class RunAborted(Exception):
    """The program cannot be run at all; no result is printed."""


# --- processes ----------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KLB_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Proc(NamedTuple):
    """One finished child process."""

    t_spawn: float
    wall: float
    cpu_s: float
    speed: Speed
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str

    @property
    def ref_s(self) -> float:
        """CPU time scaled to the reference speed; see speed.py."""
        return self.cpu_s * self.speed.mean


def spawn(args: list[str], timeout: float, out_dir: Path, probe: SpeedProbe) -> Proc:
    """Run ``sys.executable args...`` to completion on one CPU, with the
    probe measuring that CPU's speed meanwhile.

    Output goes to files in out_dir, read after exit; CPU time and the peak
    resident set come from ``os.wait4``.  A watchdog kills the child at the
    timeout."""
    out_path, err_path = out_dir / "stdout", out_dir / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    argv = [sys.executable, *args]
    env = child_env()
    cpu = probe.start()
    try:
        # the child inherits the calling thread's CPU set
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            t0 = perf_counter()
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        finally:
            os.sched_setaffinity(0, allowed)
        killed = threading.Event()

        def kill():
            killed.set()
            os.kill(pid, signal.SIGKILL)

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:  # interrupted: take the child down with us
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = perf_counter() - t0
    finally:
        speed = probe.stop()
    return Proc(t0, wall, usage.ru_utime + usage.ru_stime, speed, usage.ru_maxrss / 1024,
                os.waitstatus_to_exitcode(status), killed.is_set(), out_path.read_text(),
                err_path.read_text())


# --- requests and their checks -------------------------------------------------

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_rows(lines: list[str], refs: dict) -> list[tuple[int, float, float, int]]:
    """Verify fill rows n = 2, 3, ...; return (n, completion time, process
    CPU time at completion, peak resident set in KiB at completion) tuples.

    Checks every row against theorems (constant term 1, degree below
    (n-1)/2, nonnegative coefficients, C(n,1) = S(n,2) - S(n,n-1) in closed
    form), against its frozen digest where one exists, and the README values
    P_10 and C(12,5)."""
    out = []
    for expected_n, line in enumerate(lines, start=2):
        row = json.loads(line)
        n, cs = row["n"], [int(c) for c in row["c"]]
        if n != expected_n:
            raise ValueError(f"row {n} out of order, expected {expected_n}")
        if not cs or cs[0] != 1:
            raise ValueError(f"row {n}: constant term is not 1")
        if 2 * (len(cs) - 1) >= n - 1:
            raise ValueError(f"row {n}: degree {len(cs) - 1} not below (n-1)/2")
        if min(cs) < 0:
            raise ValueError(f"row {n}: negative coefficient")
        c1 = cs[1] if len(cs) > 1 else 0
        if c1 != 2 ** (n - 1) - 1 - n * (n - 1) // 2:
            raise ValueError(f"row {n}: C(n,1) is {c1}")
        want = refs["fill_row_sha256"].get(str(n))
        if want is not None and sha256(",".join(row["c"])) != want:
            raise ValueError(f"row {n}: digest differs from the frozen one")
        if n == 10 and row["c"] != refs["readme"]["poly10"]:
            raise ValueError(f"row 10 is {row['c']}, README says {refs['readme']['poly10']}")
        if n == 12 and row["c"][5] != refs["readme"]["coeff_12_5"]:
            raise ValueError(f"C(12,5) is {row['c'][5]}")
        out.append((n, row["t"], row["cpu"], row["rss"]))
    return out


class Workload:
    """Builds one workload's requests and checks their outputs."""

    def __init__(self, name: str, profile: dict, refs: dict, rng: random.Random,
                 out_dir: Path, probe: SpeedProbe):
        self.name = name
        self.probe = probe
        self.profile = profile
        self.refs = refs
        self.rng = rng
        self.out_dir = out_dir

    def request(self, traced: bool, fixed: bool) -> tuple[list[str], str]:
        """Child arguments and the key naming the expected output.

        A fixed request does the same work every time (fill to a fixed n
        instead of to a CPU time), so traced counts repeat."""
        p = self.profile
        if self.name == "fill":
            n = str(p["fill_ref_n"])
            req = ["fill-upto", n] if fixed else ["fill", str(p["fill_cpu_cap_s"]), n]
            key = ""
        elif self.name == "crosscheck":
            fmt = self.rng.choice(TABLE_FORMATS)
            n = str(p["table_max_n"])
            req = ["cli", "table", "--max-n", n, "--all-methods", "--chain-max-n", n,
                   "--format", fmt]
            key = fmt
        else:
            i = self.rng.choice(ORACLE_INDICES)
            n = str(p["oracle_n"])
            req = ["cli", "coeff", n, str(i), "--method", "oracle", "--oracle-max-n", n]
            key = str(i)
        if traced:
            req = ["trace", str(self.out_dir / "trace.json"), str(self.out_dir / "spans.bin"),
                   *req]
        return req, key

    def argv(self, req: list[str]) -> list[str]:
        # untraced CLI requests go through ``python -m klbraid`` like a user's
        if req[0] == "cli":
            return ["-m", "klbraid", *req[1:]]
        return [str(HERE / "child.py"), *req]

    def run(self, req: list[str], key: str, timeout: float) -> tuple[Proc, float, int, float]:
        """Run and check one request; return (process, latency in reference
        seconds, reach n, peak resident set in MB).

        Raises ValueError naming the first failed check."""
        proc = spawn(self.argv(req), timeout, self.out_dir, self.probe)
        if proc.timed_out:
            raise ValueError(f"timed out after {timeout:.0f} s")
        if proc.code != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise ValueError(f"exit code {proc.code}: {tail[0]}")
        if self.name == "fill":
            # a row's latency is the process's CPU time when it completed,
            # scaled by the CPU's speed from spawn until then
            rows = {n: (cpu * proc.speed.over(proc.t_spawn, t), rss)
                    for n, t, cpu, rss in check_rows(proc.stdout.splitlines(), self.refs)}
            ref_n = self.profile["fill_ref_n"]
            if ref_n not in rows:
                raise ValueError(f"row {ref_n} missing")
            budget = self.profile["fill_budget_s"]
            reach = max((n for n, (t, _) in rows.items() if t <= budget), default=1)
            # latency and memory at a fixed row, defined even past the budget,
            # so that a faster fill, which goes further, does not read as more memory
            t, rss = rows[ref_n]
            return proc, t, reach, rss / 1024
        n = self.profile["table_max_n" if self.name == "crosscheck" else "oracle_n"]
        if self.name == "crosscheck":
            want = self.refs["crosscheck_stdout_sha256"][str(n)][key]
            if sha256(proc.stdout) != want:
                raise ValueError(f"table --format {key} output differs from the frozen digest")
        else:
            want = self.refs["oracle_coeff"][str(n)][key]
            if proc.stdout != want + "\n":
                raise ValueError(f"C({n},{key}) printed {proc.stdout.strip()!r}, want {want}")
        return proc, proc.ref_s, n, proc.rss_mb


# --- runs -----------------------------------------------------------------------

def describe(name: str, xs: list[float], unit: str) -> str:
    """Median, quartiles and count; a tail percentile only where at least
    ten samples lie beyond it."""
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    line = f"  {name:<14} {statistics.median(xs):.4f} {unit}  (q1 {q1:.4f}, q3 {q3:.4f}, n={len(xs)}"
    for p in (99, 90):
        if len(xs) * (100 - p) / 100 >= 10:
            line += f", p{p} {statistics.quantiles(xs, n=100)[p - 1]:.4f}"
            break
    return line + ")"


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, profile: dict, refs: dict):
        self.born = self.start = perf_counter()
        self.seconds = seconds
        self.profile = profile
        # a directory of its own, so runs side by side do not share files
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.probe = SpeedProbe()
        self.wl = Workload(workload, profile, refs, random.Random(seed), self.dir, self.probe)
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (perf_counter() - self.born)

    def attempt(self, traced: bool, fixed: bool):
        """One checked request; returns (proc, latency, reach, rss) or None."""
        self.attempted += 1
        req, key = self.wl.request(traced, fixed)
        try:
            return self.wl.run(req, key, min(REQUEST_TIMEOUT_S, max(1.0, self.remaining())))
        except (ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            print(f"request {' '.join(req)} failed: {exc}", file=sys.stderr)
            return None

    def more(self, done: int, minimum: int, durations: list[float]) -> bool:
        elapsed = perf_counter() - self.start
        if self.remaining() < (max(durations) if durations else 0) + 5:
            return False
        if done < minimum:
            return True
        return elapsed + statistics.median(durations) <= self.seconds

    def setup_time(self) -> float:
        """Fresh interpreter until klbraid is imported and the CLI parser is
        built, with no computation; in reference seconds."""
        proc = spawn(["-c", "import klbraid.cli as c; c.build_parser()"], 60.0, self.dir,
                     self.probe)
        if proc.code != 0:
            raise RunAborted(f"cannot import klbraid: {proc.stderr.strip()}")
        return proc.ref_s

    def measure(self) -> dict:
        self.setup_time()  # untimed: writes the bytecode cache
        self.start = perf_counter()
        setup, latencies, walls, speeds, reaches, rss, durations = [], [], [], [], [], [], []
        while self.more(len(durations), MIN_REQUESTS, durations):
            # set-up samples are spread over the run, like the requests
            setup += [self.setup_time() for _ in range(self.profile["setup_per_request"])]
            t0 = perf_counter()
            got = self.attempt(traced=False, fixed=False)
            durations.append(perf_counter() - t0)
            if got:
                proc, latency, reach, rss_mb = got
                latencies.append(latency)
                walls.append(proc.wall)
                speeds.append(proc.speed.mean)
                reaches.append(reach)
                rss.append(rss_mb)
        print(f"workload {self.wl.name}: {self.attempted} requests, closed loop, one client")
        print(describe("setup_s", setup, "s"))
        if not latencies:
            return {}
        print(describe("latency_ref_s", latencies, "s"))
        print(describe("reach_n", reaches, "n"))
        print(f"  {'peak_rss_mb':<14} {max(rss):.1f} MB")
        print(f"  {'error_rate':<14} {self.failed}/{self.attempted}")
        print("  not gated, they move with the host:")
        print(describe("wall_s", walls, "s"))
        print(describe("cpu_speed", speeds, "x"))
        return {
            "setup_s": (statistics.median(setup), "s"),
            "latency_ref_s": (statistics.median(latencies), "s"),
            "reach_n": (statistics.median(reaches), "n"),
            "peak_rss_mb": (max(rss), "MB"),
        }

    def trace(self) -> dict:
        self.setup_time()
        self.start = perf_counter()
        plain, traced, summaries, durations = [], [], [], []
        while self.more(len(durations), MIN_TRACE_PAIRS, durations):
            t0 = perf_counter()
            # alternate which side of the pair runs first
            for side in ((False, True) if len(durations) % 2 == 0 else (True, False)):
                got = self.attempt(traced=side, fixed=True)
                if got:
                    (traced if side else plain).append(got[0].ref_s)
                    if side:
                        summaries.append(json.loads((self.dir / "trace.json").read_text()))
            durations.append(perf_counter() - t0)
        kernels = self.kernel_rows()
        if not (summaries and plain and kernels):
            return {}
        counts = [{k: v for k, v in s.items() if k != "self_s"} for s in summaries]
        if any(c != counts[0] for c in counts):
            self.failed += 1
            print("traced counts differ between identical requests", file=sys.stderr)
        s = summaries[0]
        layer_calls = dict.fromkeys(LAYERS, 0)
        for fn, c in s["calls"].items():
            layer_calls[fn.split(".")[0]] += c
        for layer in EXPECTED_LAYERS[self.wl.name]:
            if not layer_calls[layer]:
                self.failed += 1
                print(f"traced run recorded no call into {layer}", file=sys.stderr)
        calls = s["calls"]
        yields = s["yields"]
        builds = calls.get("lattice_oracle.build_partition_lattice", 0)
        m = {
            "kl_recursion.rows": (calls.get("kl_recursion.KLTable._solve", 0), "count"),
            "polynomial.mul_calls": (calls.get("polynomial.IntPoly.__mul__", 0)
                                     + calls.get("polynomial.IntPoly.__rmul__", 0), "count"),
            "polynomial.coeff_products": (s["coeff_products"], "count"),
            "polynomial.init_calls": (calls.get("polynomial.IntPoly.__init__", 0), "count"),
            "polynomial.max_coeff_bits": (s["max_coeff_bits"], "bits"),
            "partitions.partitions_yielded": (yields.get("partitions.partitions_of", 0), "count"),
            "partitions.multiplicity_calls": (calls.get("partitions.multiplicity", 0), "count"),
            "partitions.compositions_yielded":
                (yields.get("partitions.bounded_compositions", 0), "count"),
            "stirling.calls": (layer_calls["stirling"], "count"),
            "chains.enumerate_calls": (calls.get("chains.enumerate_K", 0), "count"),
            "chains.triples": (s["triples"], "count"),
            "chain_formula.terms": (calls.get("chain_formula.term_value", 0), "count"),
            "lattice_oracle.builds": (builds, "count"),
            "lattice_oracle.elements": (s["lattice_elements"], "count"),
            # distinct lattices built per build; 1 when nothing was rebuilt
            "lattice_oracle.build_reuse":
                (s["lattice_distinct_n"] / builds if builds else 1.0, "ratio"),
            "whitney2.calls": (layer_calls["whitney2"], "count"),
            "trace.overhead": (statistics.median(traced) / statistics.median(plain) - 1, "ratio"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (statistics.median(x["self_s"][layer] for x in summaries), "s")
        for name, value in kernels.items():
            unit = "count" if ".triples." in name else "us" if ".mul_us." in name else "s"
            m[name] = (value, unit)
        print(f"workload {self.wl.name} traced: {len(traced)} traced and {len(plain)} "
              f"untraced requests, kernel rows in one more process")
        for name in sorted(m):
            value, unit = m[name]
            print(f"  {name:<32} {value:.6g} {unit}")
        print(f"  {'error_rate':<32} {self.failed}/{self.attempted}")
        return m

    def kernel_rows(self) -> dict:
        self.attempted += 1
        proc = spawn([str(HERE / "child.py"), "kernels", json.dumps(self.profile["kernels"])],
                     max(1.0, self.remaining()), self.dir, self.probe)
        try:
            if proc.code != 0:
                raise ValueError(f"exit code {proc.code}")
            rows = json.loads(proc.stdout)
            if not rows.pop("lattice_oracle.solve_matches_recursion"):
                raise ValueError("lattice oracle disagrees with the recursion")
            # times are [CPU time, start, end], scaled to the reference speed
            # by the CPU's speed from start to end; counts are as they are
            return {k: v[0] * proc.speed.over(v[1], v[2]) if isinstance(v, list) else v
                    for k, v in rows.items()}
        except (ValueError, KeyError) as exc:
            self.failed += 1
            print(f"kernel rows failed: {exc}", file=sys.stderr)
            return {}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  profile: dict, refs: dict) -> dict:
    """One run; returns the result object printed as the last line."""
    WORK.mkdir(exist_ok=True)
    run = Run(workload, seed, seconds, profile, refs)
    try:
        metrics = run.trace() if trace else run.measure()
    finally:
        run.probe.close()
        # a traced run keeps its spans and summary
        if trace:
            for name in ("stdout", "stderr"):
                (run.dir / name).unlink(missing_ok=True)
        else:
            shutil.rmtree(run.dir)
    if not metrics:
        run.failed = max(run.failed, 1)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small sizes, for tests")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "klbraid" / "__init__.py").is_file():
        print(f"no klbraid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    profile = PROFILES["quick" if args.quick else "full"]
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               profile, refs)
    except RunAborted as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
