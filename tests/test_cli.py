from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from klbraid import chain_formula, chains, cli, kl_recursion, lattice_oracle, stirling, whitney2
from klbraid.kl_recursion import kl_braid_poly
from klbraid.polynomial import IntPoly


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "klbraid", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def test_coeff_single_method():
    assert run_cli("coeff", "8", "2").stdout == "1225\n"
    assert run_cli("coeff", "9", "1", "--method", "corollary").stdout == "219\n"
    assert run_cli("coeff", "6", "2", "--method", "oracle").stdout == "15\n"
    assert run_cli("coeff", "6", "2", "--method", "chain").stdout == "15\n"
    assert run_cli("coeff", "8", "2", "--method", "pxy").stdout == "1225\n"


def test_coeff_all_methods():
    out = run_cli("coeff", "6", "1", "--all-methods").stdout
    rows = dict(line.split() for line in out.splitlines())
    assert rows == {
        "recursion": "16",
        "chain": "16",
        "corollary": "16",
        "pxy": "16",
        "oracle": "16",
    }


def test_poly_formats():
    assert run_cli("poly", "7").stdout == "1 + 42t + 175t^2\n"
    assert run_cli("poly", "7", "--descending").stdout == "175t^2 + 42t + 1\n"
    blob = json.loads(run_cli("poly", "12", "--format", "json").stdout)
    assert blob["n"] == 12
    assert blob["coefficients"] == kl_braid_poly(12).to_json_obj()


def test_table_csv_bytes():
    out = run_cli("table", "--max-n", "6", "--format", "csv").stdout
    assert out == (
        "n,i,c\n"
        "2,0,1\n"
        "3,0,1\n"
        "4,0,1\n"
        "4,1,1\n"
        "5,0,1\n"
        "5,1,5\n"
        "6,0,1\n"
        "6,1,16\n"
        "6,2,15\n"
    )


def test_table_md_and_json():
    md = run_cli("table", "--max-n", "4", "--format", "md").stdout.splitlines()
    assert md[0] == "| n | i | c |"
    assert md[-1] == "| 4 | 1 | 1 |"
    blob = json.loads(run_cli("table", "--max-n", "5", "--format", "json").stdout)
    assert blob[-1] == {"n": 5, "i": 1, "c": "5"}


def test_table_all_methods_agree():
    proc = run_cli("table", "--max-n", "7", "--all-methods", "--oracle-max-n", "5")
    assert proc.stderr == ""


def test_slowness_warning_once_per_invocation():
    # the oracle runs n = 8 and n = 9 above its default bound: one warning
    plain = run_cli("table", "--max-n", "9", "--all-methods")
    raised = run_cli("table", "--max-n", "9", "--all-methods", "--oracle-max-n", "9")
    assert raised.stdout == plain.stdout
    assert raised.stderr.splitlines() == ["warning: lattice recursion above n=7 may be slow"]
    chain = run_cli("coeff", "61", "1", "--method", "chain", "--chain-max-n", "61")
    assert chain.stderr.splitlines() == ["warning: chain sum above n=60 may be slow"]


@pytest.mark.parametrize("argv", [
    ["table", "--max-n", "8", "--all-methods", "--chain-max-n", "61"],
    ["coeff", "5", "1", "--method", "chain", "--chain-max-n", "61"],
    ["coeff", "2", "0", "--method", "oracle", "--oracle-max-n", "8"],
    ["selftest", "--oracle-max-n", "8"],
])
def test_no_slowness_warning_at_or_below_the_default_n(argv):
    # a raised bound alone warns of nothing: every n here is within the default
    assert run_cli(*argv).stderr == ""


def test_table_solves_each_lattice_once(monkeypatch, capsys):
    built = []
    real_build = lattice_oracle.build_partition_lattice

    def counting_build(n, *rest, **kw):
        built.append(n)
        return real_build(n, *rest, **kw)

    monkeypatch.setattr(lattice_oracle, "build_partition_lattice", counting_build)
    monkeypatch.setattr(lattice_oracle, "_braid_kl", {})
    assert cli.main(["table", "--max-n", "7", "--all-methods"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["7", "2", "175"]
    assert built == [2, 3, 4, 5, 6, 7]


def test_oracle_bound_ceiling_fails_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("lattice built despite the ceiling")

    monkeypatch.setattr(lattice_oracle, "build_partition_lattice", refuse)
    monkeypatch.setattr(lattice_oracle, "_braid_kl", {})
    assert cli.main(["coeff", "10", "1", "--method", "oracle", "--oracle-max-n", "10"]) == 2
    assert cli.main(["table", "--max-n", "10", "--all-methods", "--oracle-max-n", "10"]) == 2
    assert capsys.readouterr().out == ""


def test_recursion_cap_fails_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("recursion ran despite the cap")

    monkeypatch.setattr(kl_recursion.KLTable, "_solve", refuse)
    assert cli.main(["poly", "100000"]) == 2
    assert cli.main(["table", "--max-n", "100000"]) == 2
    assert cli.main(["table", "--max-n", "101", "--all-methods"]) == 2
    assert cli.main(["coeff", "101", "1"]) == 2
    assert cli.main(["coeff", "101", "1", "--all-methods"]) == 2
    assert cli.main(["selftest", "--max-n", "101"]) == 2
    assert capsys.readouterr().out == ""
    # methods that do not run the recursion stay available past the cap
    assert cli.main(["coeff", "101", "1", "--method", "corollary"]) == 0
    assert capsys.readouterr().out == f"{2 ** 100 - 1 - 101 * 100 // 2}\n"


@pytest.mark.parametrize("flag", ["--max-n", "--oracle-max-n", "--chain-max-n"])
def test_selftest_refuses_bounds_below_two(flag, capsys):
    # below 2 every check's range is empty, so a pass would check nothing
    assert cli.main(["selftest", flag, "1"]) == 2
    assert capsys.readouterr() == ("", f"error: need {flag} >= 2\n")


def test_corollary_cap_fails_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("Stirling table grown despite the cap")

    monkeypatch.setattr(stirling.StirlingCache, "_grow_first", refuse)
    monkeypatch.setattr(stirling.StirlingCache, "_grow_second", refuse)
    n = cli.COROLLARY_MAX_N + 1
    assert cli.main(["coeff", str(n), "1", "--method", "corollary"]) == 2
    assert capsys.readouterr().out == ""


def test_corollary_cap_itself_answers():
    n = cli.COROLLARY_MAX_N
    out = run_cli("coeff", str(n), "1", "--method", "corollary").stdout
    # C(n, 1) = S(n, 2) - S(n, n - 1)
    assert out == f"{2 ** (n - 1) - 1 - n * (n - 1) // 2}\n"


@pytest.mark.parametrize("n, i", [
    (cli.PXY_MAX_N + 1, 2),
])
def test_pxy_caps_fail_before_any_work(n, i, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("pxy sum run despite the cap")

    monkeypatch.setattr(whitney2, "kl_coeff_via_pxy", refuse)
    assert cli.main(["coeff", str(n), str(i), "--method", "pxy"]) == 2
    assert capsys.readouterr().out == ""


def test_pxy_caps_themselves_answer():
    n = cli.PXY_MAX_N
    out = run_cli("coeff", str(n), "1", "--method", "pxy").stdout
    assert out == f"{2 ** (n - 1) - 1 - n * (n - 1) // 2}\n"
    # i has no cap of its own
    assert run_cli("coeff", "25", "11", "--method", "pxy").stdout == f"{kl_recursion.kl_coeff(25, 11)}\n"


def test_no_pxy_row_above_the_caps(capsys):
    assert cli.main(["coeff", "25", "11", "--all-methods"]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert set(rows) == {"recursion", "chain", "pxy"}
    assert len(set(rows.values())) == 1
    # above the n cap the recursion refuses first, so ask the method list
    args = cli.build_parser().parse_args(["coeff", "1", "1"])
    assert "pxy" in cli._applicable_methods(cli.PXY_MAX_N, 2, args)
    assert "pxy" not in cli._applicable_methods(cli.PXY_MAX_N + 1, 2, args)


def test_pxy_output_is_frozen(capsys):
    # sha256 of the stdout of `coeff n i --method pxy` over every valid i <= 10
    # for 4 <= n <= 30, then at n = 500
    cells = [(n, i) for n in range(4, 31) for i in range(1, min(10, (n - 2) // 2) + 1)]
    cells += [(500, i) for i in range(1, 11)]
    for n, i in cells:
        assert cli.main(["coeff", str(n), str(i), "--method", "pxy"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "1d3ee81c73ae96588ad72b4b8c6cc6a04ebfe67abef3c4acaa39b6a4e97654ba"


# every cell with n <= 40 and i up to just past the middle, which holds the
# oracle's and the lowered chain cap's edges, plus the edges above 40: the
# corollary and pxy at n = 500 and 501, pxy at i = 10 and 11 and at the
# degree bound there (i = 249 and 250), the chain at its default cap of 60 and
# 61, and the recursion at its cap of 100 and 101
_RULE_CELLS = [
    *((n, i) for n in range(1, 41) for i in range(n // 2 + 2)),
    (500, 1), (501, 1), (500, 2), (501, 2), (500, 10), (500, 11), (500, 249), (500, 250),
    (60, 1), (61, 1), (60, 29), (61, 29), (100, 1), (101, 1),
]


@pytest.mark.parametrize("bounds", [[], ["--chain-max-n", "12", "--oracle-max-n", "5"]],
                         ids=["default-bounds", "lowered-bounds"])
def test_method_list_matches_single_method_answers(bounds, monkeypatch, capsys):
    # stub every method, so that only the rules for refusing a cell run
    monkeypatch.setattr(kl_recursion, "kl_coeff", lambda n, i: 0)
    monkeypatch.setattr(chain_formula, "kl_coeff_via_chains", lambda n, i: 0)
    monkeypatch.setattr(whitney2, "kl_c1", lambda n: 0)
    monkeypatch.setattr(whitney2, "kl_coeff_via_pxy", lambda n, i: 0)
    monkeypatch.setattr(lattice_oracle, "braid_kl_generic", lambda n: IntPoly())
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    for n, i in _RULE_CELLS:
        args = parser.parse_args(["coeff", str(n), str(i), *bounds])
        listed = cli._applicable_methods(n, i, args)
        answers = [m for m in cli.METHODS
                   if cli.main(["coeff", str(n), str(i), "--method", m, *bounds]) == 0]
        assert listed == answers, (n, i)
    capsys.readouterr()


def test_chain_row_past_old_default(capsys):
    assert cli.main(["coeff", "14", "2", "--all-methods"]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert set(rows) == {"recursion", "chain", "pxy"}
    assert len(set(rows.values())) == 1


def test_chains_text_and_json():
    out = run_cli("chains", "4", "1").stdout.splitlines()
    assert out[-1] == "3 triples for (n=4, i=1)"
    blob = json.loads(run_cli("chains", "6", "2", "--format", "json").stdout)
    assert len(blob) == 13
    assert blob[0] == {"lambda": [[6]], "alpha": [3], "xi": [0]}
    assert all(set(t) == {"lambda", "alpha", "xi"} for t in blob)


def test_expand_text_and_json():
    out = run_cli("expand", "6", "2").stdout
    assert out.startswith("C(6,2) grouped by the top partition:")
    assert out.rstrip().endswith("total = 15")
    blob = json.loads(run_cli("expand", "4", "1", "--format", "json").stdout)
    assert sum(int(g["value"]) for g in blob) == 1


# sha256 of each listing's whole stdout, every rendered term included
LISTING_DIGESTS = {
    ("expand", "12", "5"):
        "b8d59769c2621b72c7b562cf09dcc33b3a2831434359937c3193519874496125",
    ("expand", "12", "5", "--format", "json"):
        "5a5f0e99111ac75e641b1864fb81d48bdf0f7055c063ef0df15006c85887a487",
    ("chains", "12", "5"):
        "cb6a8120938c99f81dd07944a74d41068f2420e1314b952cfc03ff164dc46b4c",
}


@pytest.mark.parametrize("argv", list(LISTING_DIGESTS))
def test_listing_output_is_frozen(argv):
    out = run_cli(*argv).stdout
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_DIGESTS[argv]


def test_selftest_passes():
    proc = run_cli("selftest", "--max-n", "6", "--oracle-max-n", "5")
    assert "selftest: PASS" in proc.stdout
    assert "promoted default: w-rank-prev" in proc.stdout


# runs klb with row 7, column 3 of both shared Stirling tables off by one
_CORRUPT_STIRLING = """
import sys
from klbraid import cli, stirling
cache = stirling._DEFAULT_CACHE
cache.first(8, 3)
cache.second(8, 3)
cache._first[7][3] += 1
cache._second[7][3] += 1
sys.exit(cli.main(sys.argv[1:]))
"""


def run_cli_corrupted(*args):
    return subprocess.run([sys.executable, "-c", _CORRUPT_STIRLING, *args],
                          capture_output=True, text=True)


def test_selftest_detects_injected_fault():
    proc = run_cli_corrupted("selftest", "--max-n", "6", "--oracle-max-n", "5")
    assert proc.returncode == 1
    assert "selftest: FAIL" in proc.stdout
    assert "stirling_tables" in proc.stdout


def test_poly_refuses_a_corrupted_stirling_entry():
    proc = run_cli_corrupted("poly", "9")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("internal consistency failure: Z-polynomial diagonal failed")


def test_selftest_output_is_frozen():
    # sha256 of stdout, whose advisory section scores the one pxy reading
    argv = ("selftest", "--max-n", "6", "--oracle-max-n", "5")
    for proc, code, digest in [
        (run_cli(*argv, check=False), 0,
         "cfa18647ef06ac2704893e97d1d72a7f3881d33a389afd30fefc3a08f298bef0"),
        (run_cli_corrupted(*argv), 1,
         "52b2b3529f14ba891f769b7e97ff08e24df05a543c4d1c6bfb995bcf3262433d"),
    ]:
        assert (proc.returncode, proc.stderr) == (code, "")
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_selftest_builds_each_lattice_once(monkeypatch, capsys):
    built = []
    real_build = lattice_oracle.build_partition_lattice

    def counting_build(n, *rest, **kw):
        built.append(n)
        return real_build(n, *rest, **kw)

    monkeypatch.setattr(lattice_oracle, "build_partition_lattice", counting_build)
    monkeypatch.setattr(lattice_oracle, "_braid_kl", {})
    assert cli.main(["selftest", "--max-n", "6", "--oracle-max-n", "6"]) == 0
    assert "selftest: PASS" in capsys.readouterr().out
    # the base case's oracle cell solves n = 2 through braid_kl_generic, as
    # coeff does; the lattice checks then share one build per n
    assert built == [2, 2, 3, 4, 5, 6]


def test_usage_errors_exit_two():
    assert run_cli("coeff", "20", "1", "--method", "oracle", check=False).returncode == 2
    assert run_cli("coeff", "6", "2", "--method", "corollary", check=False).returncode == 2
    assert run_cli("chains", "6", "3", check=False).returncode == 2
    assert run_cli("coeff", "6", "2", "--method", "nope", check=False).returncode == 2


def test_python_dash_m_entry():
    # the module runner and the console script share one entry point
    proc = run_cli("--help")
    assert proc.stdout.startswith("usage: klb")


@pytest.mark.parametrize("argv", [
    ["chains", str(cli.CHAINS_MAX_N + 1), "1"],
    ["chains", "24", "6", "--format", "json"],
    ["expand", str(cli.EXPAND_MAX_N + 1), "1"],
    ["expand", "24", "6", "--format", "json"],
])
def test_chains_and_expand_caps_fail_before_any_work(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("index set listed despite the cap")

    monkeypatch.setattr(chains, "enumerate_K", refuse)
    monkeypatch.setattr(chain_formula, "enumerate_K", refuse)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {argv[0]} is capped at n <= ")


def test_chains_and_expand_caps_themselves_answer():
    # the largest i at each cap is the largest index set the command lists
    n = cli.CHAINS_MAX_N
    out = run_cli("chains", str(n), str((n - 2) // 2)).stdout
    assert out.splitlines()[-1] == f"15437 triples for (n={n}, i={(n - 2) // 2})"
    n = cli.EXPAND_MAX_N
    out = run_cli("expand", str(n), str((n - 2) // 2)).stdout
    assert out.splitlines()[-1] == f"total = {kl_recursion.kl_coeff(n, (n - 2) // 2)}"


@pytest.mark.parametrize("argv", [
    ["coeff", "9", "2", "--method", "pxy", "--interpretation", "w-rank-prev"],
    ["pxy-readings"],
])
def test_removed_reading_choice_is_a_usage_error(argv):
    # pxy has one reading, so neither the option nor the listing exists
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_parser_constants_match_their_sources():
    # the parser reads copies so that building it imports no method module
    assert cli.DEFAULT_LATTICE_BOUND == lattice_oracle.DEFAULT_LATTICE_BOUND


# sha256 of each --help text at 80 columns
HELP_DIGESTS = {
    "": "036d3569a0f2b3a340f4a3948f84b8101843d41dcf5c6e916bddbfb245a6ec87",
    "coeff": "934d3909297a5d3bef8db2d58220595ad3abcc77e60ca4e109f5e575cf88366c",
    "poly": "95f749203b03f8bf3d671eb72c0c946972a7de33fb07d313123e87f8a9723900",
    "table": "5a8c626555dad69e6102bc0fed2a0cfedfa8412caf064df2c4c1eb2e4584f435",
    "chains": "d5721ed91c5407e676c0ecd2f6faef1df8867252368dc103440b672f3f8a1bb3",
    "expand": "7495092138bfb2bf956ba7b21f4b9eef80a84d79a941e2581ff8e2f67bca2174",
    "selftest": "773b503f375b78d2e90a8e928adc1aba8677b6c2bf81f21ff0f6e47dba7306d9",
}


def test_every_subcommand_has_a_help_digest():
    (commands,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert sorted(HELP_DIGESTS) == [""] + sorted(commands.choices)


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_is_frozen(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: klb {command}".rstrip())
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[command]


_FOOTPRINT = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("klbraid"))

preloaded = "dataclasses" in sys.modules
report = {"fractions_preloaded": "fractions" in sys.modules or "decimal" in sys.modules}
import klbraid
report.update(preloaded=preloaded, package=loaded())
from klbraid import cli
cli.build_parser()
report["parser"] = loaded()
report["commands"] = []
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["coeff", "8", "2", "--method", "oracle", "--oracle-max-n", "8"])
    report["oracle"] = loaded()
    for argv in (
        ["poly", "9"],
        ["coeff", "7", "2", "--all-methods"],
        ["table", "--max-n", "7", "--all-methods", "--oracle-max-n", "5"],
        ["chains", "6", "2"],
        ["expand", "6", "2", "--format", "json"],
        ["selftest", "--max-n", "6", "--oracle-max-n", "5"],
    ):
        cli.main(argv)
        report["commands"].append([argv[0], loaded(), sorted(
            m for m in ("fractions", "decimal") if m in sys.modules)])
report["dataclasses"] = "dataclasses" in sys.modules
print(json.dumps(report))
"""


def test_commands_load_only_the_modules_they_run():
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["package"] == ["klbraid"]
    assert report["parser"] == ["klbraid", "klbraid.cli", "klbraid.errors"]
    assert report["oracle"] == [
        "klbraid", "klbraid.cli", "klbraid.errors", "klbraid.lattice_oracle",
        "klbraid.partitions", "klbraid.polynomial",
    ]
    # the battery's module loads with selftest, and with no other command
    *others, (last, modules, _) = report["commands"]
    assert last == "selftest" and "klbraid.checks" in modules
    assert all("klbraid.checks" not in modules for _, modules, _ in others)
    # only the self-test's nonrecursive Stirling check needs exact rationals
    if not report["fractions_preloaded"]:
        assert [name for name, _, numeric in others if numeric] == []
    if report["preloaded"]:
        pytest.skip("the interpreter imports dataclasses at start-up")
    assert not report["dataclasses"]


def test_cli_still_names_the_method_modules():
    assert cli.kl_recursion is kl_recursion
    assert cli.lattice_oracle is lattice_oracle
    with pytest.raises(AttributeError):
        cli.no_such_module  # noqa: B018
