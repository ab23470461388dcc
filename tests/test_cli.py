from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from klbraid import chain_formula, chains, cli, kl_recursion, lattice_oracle, stirling, whitney2
from klbraid.kl_recursion import kl_braid_poly


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
    plain = run_cli("table", "--max-n", "8", "--all-methods")
    raised = run_cli("table", "--max-n", "8", "--all-methods", "--chain-max-n", "61")
    assert raised.stdout == plain.stdout
    assert raised.stderr.splitlines() == ["warning: chain sum above n=60 may be slow"]


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
    assert cli.main(["table", "--max-n", "41", "--all-methods"]) == 2
    assert cli.main(["coeff", "41", "1"]) == 2
    assert cli.main(["coeff", "41", "1", "--all-methods"]) == 2
    assert cli.main(["selftest", "--max-n", "41"]) == 2
    assert capsys.readouterr().out == ""
    # methods that do not run the recursion stay available past the cap
    assert cli.main(["coeff", "60", "1", "--method", "chain"]) == 0
    assert capsys.readouterr().out == f"{2 ** 59 - 1 - 60 * 59 // 2}\n"


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
    (2 * cli.PXY_MAX_I + 5, cli.PXY_MAX_I + 1),
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
    n, i = 2 * cli.PXY_MAX_I + 3, cli.PXY_MAX_I
    assert run_cli("coeff", str(n), str(i), "--method", "pxy").stdout == f"{kl_recursion.kl_coeff(n, i)}\n"


def test_no_pxy_row_above_the_caps(capsys):
    n, i = 2 * cli.PXY_MAX_I + 5, cli.PXY_MAX_I + 1
    assert cli.main(["coeff", str(n), str(i), "--all-methods"]) == 0
    rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert set(rows) == {"recursion", "chain"}
    assert len(set(rows.values())) == 1
    # above the n cap the recursion refuses first, so ask the method list
    args = cli.build_parser().parse_args(["coeff", "1", "1"])
    assert "pxy" in cli._applicable_methods(cli.PXY_MAX_N, 2, args)
    assert "pxy" not in cli._applicable_methods(cli.PXY_MAX_N + 1, 2, args)


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


def test_pxy_readings_listing():
    out = run_cli("pxy-readings").stdout
    names = [line for line in out.splitlines() if not line.startswith(" ")]
    assert names == ["w-rank-prev (default)", "product-shifted"]


def test_selftest_passes():
    proc = run_cli("selftest", "--max-n", "6", "--oracle-max-n", "5")
    assert "selftest: PASS" in proc.stdout
    assert "promoted default: w-rank-prev" in proc.stdout


def test_selftest_detects_injected_fault():
    proc = run_cli(
        "selftest", "--max-n", "6", "--oracle-max-n", "5",
        "--inject-fault", "stirling", check=False,
    )
    assert proc.returncode == 1
    assert "selftest: FAIL" in proc.stdout
    assert "stirling_tables" in proc.stdout


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


def test_bad_interpretation_is_a_usage_error():
    proc = run_cli("coeff", "9", "2", "--method", "pxy", "--interpretation", "bogus",
                   check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert ("klb coeff: error: argument --interpretation: invalid choice: 'bogus' "
            "(choose from 'product-shifted', 'w-rank-prev')") in proc.stderr.splitlines()


def test_interpretation_choices_are_the_registered_readings():
    want = sorted(whitney2.INTERPRETATIONS)
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    for name in ("coeff", "table"):
        (action,) = [a for a in commands.choices[name]._actions if a.dest == "interpretation"]
        assert list(action.choices) == want
        assert action.default == whitney2.DEFAULT_PXY_INTERPRETATION


def test_parser_constants_match_their_sources():
    # the parser reads copies so that building it imports no method module
    assert cli.DEFAULT_GENERIC_KL_BOUND == lattice_oracle.DEFAULT_GENERIC_KL_BOUND
    assert cli.DEFAULT_LATTICE_BOUND == lattice_oracle.DEFAULT_LATTICE_BOUND
    assert cli.PXY_INTERPRETATIONS == tuple(sorted(whitney2.INTERPRETATIONS))
    assert cli.DEFAULT_PXY_INTERPRETATION == whitney2.DEFAULT_PXY_INTERPRETATION


# sha256 of each --help text at 80 columns
HELP_DIGESTS = {
    "": "8252e06252b2cc4dc0d0b38b8bbe7133695c9ded3eb6bfffd360c34586474dfd",
    "coeff": "090996041ae6bd39d38b7073333234e44b2c8b72c99ec6d279cdf847e65ebf9a",
    "poly": "95f749203b03f8bf3d671eb72c0c946972a7de33fb07d313123e87f8a9723900",
    "table": "08cd22f9cd5cfc6b8786174abcd93d2da8b46924cf9a91d3a10e636df096e171",
    "chains": "d5721ed91c5407e676c0ecd2f6faef1df8867252368dc103440b672f3f8a1bb3",
    "expand": "7495092138bfb2bf956ba7b21f4b9eef80a84d79a941e2581ff8e2f67bca2174",
    "pxy-readings": "34d81b894085896a55f5252e4c587c56dd32b224be340c06862b2772c364320e",
    "selftest": "773b503f375b78d2e90a8e928adc1aba8677b6c2bf81f21ff0f6e47dba7306d9",
}


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
import klbraid
report = {"preloaded": preloaded, "package": loaded()}
from klbraid import cli
cli.build_parser()
report["parser"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["coeff", "8", "2", "--method", "oracle", "--oracle-max-n", "8"])
    report["oracle"] = loaded()
    for argv in (
        ["coeff", "7", "2", "--all-methods"],
        ["poly", "9"],
        ["table", "--max-n", "7", "--all-methods", "--oracle-max-n", "5"],
        ["chains", "6", "2"],
        ["expand", "6", "2", "--format", "json"],
        ["pxy-readings"],
        ["selftest", "--max-n", "6", "--oracle-max-n", "5"],
    ):
        cli.main(argv)
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
    if report["preloaded"]:
        pytest.skip("the interpreter imports dataclasses at start-up")
    assert not report["dataclasses"]


def test_cli_still_names_the_method_modules():
    assert cli.kl_recursion is kl_recursion
    assert cli.lattice_oracle is lattice_oracle
    with pytest.raises(AttributeError):
        cli.no_such_module  # noqa: B018
