"""Tests of the benchmark itself, in quick mode.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

QUICK = run.PROFILES["quick"]
REFS = json.loads((run.HERE / "refs.json").read_text())
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# metrics that must repeat exactly between traced runs
COUNT_UNITS = {"count", "bits", "ratio"}


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in COUNT_UNITS and k != "trace.overhead"}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_is_correct_and_fast(workload):
    t0 = time.perf_counter()
    result = run.run_benchmark(workload, 3, 1, False, QUICK, REFS)
    assert time.perf_counter() - t0 < 30
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat(workload):
    first = run.run_benchmark(workload, 1, 1, True, QUICK, REFS)
    second = run.run_benchmark(workload, 2, 1, True, QUICK, REFS)
    assert first["correct"] and second["correct"]
    assert counts(first) == counts(second)
    # kernel rows carry their quick sizes in their names
    unsized = {m["name"] for m in SPEC["per_layer"] if not re.search(r"\.[dni]\d+", m["name"])}
    assert unsized <= set(first["metrics"])


def test_runs_side_by_side_do_not_share_files():
    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(
            lambda seed: run.run_benchmark("crosscheck", seed, 1, False, QUICK, REFS), (1, 2)))
    assert all(r["correct"] and r["failed"] == 0 for r in results)


def corrupt(workload: str) -> dict:
    refs = copy.deepcopy(REFS)
    if workload == "fill":
        refs["fill_row_sha256"]["15"] = "0" * 64
    elif workload == "crosscheck":
        for fmt in run.TABLE_FORMATS:
            refs["crosscheck_stdout_sha256"][str(QUICK["table_max_n"])][fmt] = "0" * 64
    else:
        for i in run.ORACLE_INDICES:
            refs["oracle_coeff"][str(QUICK["oracle_n"])][str(i)] = "-1"
    return refs


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrong_reference_counts_as_failure(workload):
    result = run.run_benchmark(workload, 3, 1, False, QUICK, corrupt(workload))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_theorem_checks_reject_a_bad_row():
    good = {"n": 6, "t": 0.0, "cpu": 0.0, "rss": 1, "c": ["1", "16", "15"]}
    lines = [json.dumps({"n": n, "t": 0.0, "cpu": 0.0, "rss": 1, "c": c})
             for n, c in ((2, ["1"]), (3, ["1"]), (4, ["1", "1"]), (5, ["1", "5"]))]
    assert len(run.check_rows(lines + [json.dumps(good)], REFS)) == 5
    for bad in (["1", "16", "-15"], ["2", "16", "15"], ["1", "17", "15"],
                ["1", "16", "15", "1"]):
        with pytest.raises(ValueError):
            run.check_rows(lines + [json.dumps(dict(good, c=bad))], REFS)


def test_child_runs_on_one_cpu_with_its_speed_measured(tmp_path):
    probe = run.SpeedProbe()
    try:
        proc = run.spawn(["-c", "import os; print(sorted(os.sched_getaffinity(0)))"], 30.0,
                         tmp_path, probe)
    finally:
        probe.close()
    assert proc.code == 0
    assert len(json.loads(proc.stdout)) == 1
    # the reference pass time is near this kind of host's; a wild ratio means
    # the probe measured something other than the loop
    assert 0.2 < proc.speed.mean < 5
    assert proc.ref_s == proc.cpu_s * proc.speed.mean > 0
    whole = (proc.speed.marks[0][0], proc.speed.marks[-1][0])
    assert proc.speed.over(*whole) == proc.speed.mean


def test_tracer_rebinds_imported_names():
    code = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install
install(Tracer())
from klbraid import chain_formula, cli, kl_recursion, partitions, stirling, whitney2
wrapped = lambda f: f.__name__ == "wrapper"
assert wrapped(kl_recursion.partitions_of) and wrapped(kl_recursion.multiplicity)
assert wrapped(chain_formula.stirling_first) and wrapped(chain_formula.bounded_compositions)
assert wrapped(whitney2.stirling_second) and wrapped(cli.kl_recursion.kl_coeff)
assert kl_recursion.multiplicity is partitions.multiplicity
assert chain_formula.stirling_first is stirling.stirling_first
"""
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(run.HERE)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "fill",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
