from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from klbraid import (chain_formula, chains, checks, cli, kl_recursion, lattice_oracle, stirling,
                     whitney2)
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


def test_chain_ceiling_fails_before_any_work(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("chain pass or Stirling table run despite the ceiling")

    monkeypatch.setattr(stirling.StirlingCache, "_grow_first", refuse)
    monkeypatch.setattr(stirling.StirlingCache, "_grow_second", refuse)
    monkeypatch.setattr(chain_formula, "kl_chain_rows", refuse)
    n = cli.CHAIN_SUM_MAX_N + 1
    assert cli.main(["coeff", str(n), "3", "--method", "chain", "--chain-max-n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "its work grows as n*i^2 + i^4" in captured.err


# answers one request in a fresh process, then reports on stderr whether the
# recursion was imported and how many rows each Stirling table holds
_REPORT_IMPORTS = """
import sys
from klbraid import cli
code = cli.main(sys.argv[1:])
from klbraid import stirling
cache = stirling._DEFAULT_CACHE
print("klbraid.kl_recursion" in sys.modules, len(cache._first), len(cache._second), file=sys.stderr)
sys.exit(code)
"""


def test_chain_method_runs_without_the_recursion_or_stirling():
    proc = subprocess.run([sys.executable, "-c", _REPORT_IMPORTS, "coeff", "500", "3",
                           "--method", "chain", "--chain-max-n", "500"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{whitney2.kl_coeff_via_pxy(500, 3)}\n"
    assert proc.stderr.splitlines()[-1] == "False 1 1"


def test_chain_ceiling_itself_answers():
    n = cli.CHAIN_SUM_MAX_N
    out = run_cli("coeff", str(n), "1", "--method", "chain", "--chain-max-n", str(n)).stdout
    assert out == f"{2 ** (n - 1) - 1 - n * (n - 1) // 2}\n"


def test_table_and_method_grid_make_one_chain_pass(monkeypatch, capsys):
    # a pass steps the edge to row 2 once, whatever its top
    passes = []
    real_step = chain_formula._edge_step

    def counting(edge, m):
        passes.append(m == 2)
        real_step(edge, m)

    monkeypatch.setattr(chain_formula, "_edge_step", counting)
    assert cli.main(["table", "--max-n", "40", "--all-methods", "--chain-max-n", "40"]) == 0
    assert sum(passes) == 1
    passes.clear()
    args = cli.build_parser().parse_args(["selftest", "--max-n", "40", "--chain-max-n", "40"])
    assert checks.check_method_grid(args, None) == (True, "chain vs recursion, n <= 40")
    assert sum(passes) == 1
    capsys.readouterr()


def test_table_asks_each_method_once(monkeypatch, capsys):
    # every method answers all of its cells in one call, not one call per cell
    asked = []
    real_answers = cli._answers

    def counting(method, cells):
        asked.append(method)
        return real_answers(method, cells)

    monkeypatch.setattr(cli, "_answers", counting)
    assert cli.main(["table", "--max-n", "40", "--all-methods", "--chain-max-n", "40"]) == 0
    assert asked == list(cli.METHODS)
    capsys.readouterr()


# sha256 of the stdout of plain `table --max-n 100`, whose cells the recursion
# answers one kl_coeff call each, by format
TABLE_100_SHA256 = {
    "text": "a39e787e00238af001caa54d6d9a54fa44e5d7025ff8647fc5b221d557e66d73",
    "csv": "cea7a15560c5cbffee88abc832e3fd2323ae2124782020c9a0dfaedf2cd5d7e4",
}


@pytest.mark.parametrize("fmt", sorted(TABLE_100_SHA256))
def test_table_at_the_recursion_cap_is_frozen(fmt, monkeypatch, capsys):
    # a cold table, so every cell fills its entries through kl_coeff
    monkeypatch.setattr(kl_recursion, "_DEFAULT_TABLE", kl_recursion.KLTable())
    assert cli.main(["table", "--max-n", "100", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_100_SHA256[fmt]
    assert len(kl_recursion._DEFAULT_TABLE._polys) == 2


def test_table_warnings_come_out_in_cell_order():
    # the oracle's warning belongs to row 8 and the chain's to row 61, so the
    # oracle's comes first although the chain is asked before it in each cell
    proc = run_cli("table", "--max-n", "70", "--all-methods", "--chain-max-n", "65",
                   "--oracle-max-n", "8")
    assert proc.stderr == ("warning: lattice recursion above n=7 may be slow\n"
                           "warning: chain sum above n=60 may be slow\n")
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "4b72436c69a357109f8cd3d40c15378c7dabf041d410913cdc9edfe2abae8989"


def test_table_names_the_cells_of_a_raised_edge_entry(monkeypatch, capsys):
    # E_{9,2,1} raised by one in the table's one chain pass reaches C(9,2)
    # first, then the rows above it
    real_step = chain_formula._edge_step

    def step_then_corrupt(edge, m):
        real_step(edge, m)
        if m == 9:
            edge[2][1] += 1

    monkeypatch.setattr(chain_formula, "_edge_step", step_then_corrupt)
    assert cli.main(["table", "--max-n", "14", "--all-methods", "--chain-max-n", "14"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "disagreement at C(9,2): [('chain', 6770)]"
    assert len(err) == 19 and all(line.startswith("disagreement at C(") for line in err)


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
    monkeypatch.setattr(chain_formula, "kl_chain_rows", lambda n, top: {n: [0] * (top + 1)})
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


# sha256 of `expand n i` in text and JSON, for every listing with n <= 12
EXPAND_DIGESTS = {
    (2, 0, "text"): "de65cbbbab015bd52354d891443c89eab625231b2caa7e8601c1637feb7ad605",
    (2, 0, "json"): "5c13ac8c77233fd749f44a3166e485c08533f0ea04b5919ba668e2f526624b42",
    (3, 0, "text"): "d624cf3e12b4c4454250953fb68d42a96545330a7fd44596b1e186cbcd4d4578",
    (3, 0, "json"): "f8524472a264ed33a3e861e8970c0e62f55d7cb024e38925ee2c8b5bf154bd86",
    (4, 0, "text"): "3853f5d8568b2756d622bbaec35b11b7ceafd76efd2a0591df48bf55c560a039",
    (4, 0, "json"): "be5bf6f199498693d4a695ffc7e956d599c0d99f27fe10d6e435a4142e8f97fa",
    (4, 1, "text"): "037f98063757053a264b205286dcf37e7bf91a0cfd82b0ca80b469d9e3dde7d8",
    (4, 1, "json"): "201f164fbff9704f2a70f15286fcfd8db55e01780b3db6c0566420478c570c06",
    (5, 0, "text"): "955e6bfc57b9cd2b4ad2fbbdb46edd4a1a25c1677f0b15d3abc6bf4049871e70",
    (5, 0, "json"): "eadfd610a987ca675df6d531af759de2aa79d773a744303ff91f24b0b4bfde23",
    (5, 1, "text"): "0e032363681a021c0a71e1b1f64abc281ab4c52ee43b930e8ac83120d5bbd6a1",
    (5, 1, "json"): "139e62da70d1940b23db7283a335d78106880d9dfdb34d8e0774654a219cb2aa",
    (6, 0, "text"): "fcbd3fb84e06b70366d02060d0866ddbe92b5400b8221b13e47b5420c9ab2e11",
    (6, 0, "json"): "226716729fd92fd26edb2ae3ed2d5af61f4ed3dc1d5fa5c15c81b9effaf55ce7",
    (6, 1, "text"): "ece38b99062b79c6a5963e3517eec6d105098317644f8e7508115f43eb34acbc",
    (6, 1, "json"): "1e585346146c35ea72fe086e47cf0828ddc22bbf1c32fc7c3656c56bfc64d027",
    (6, 2, "text"): "1c293960ab437eb949364793fb3aa4807d518a37b3b0eebc3f7500b4154da193",
    (6, 2, "json"): "b01a7c103abc99fffa7f9e20a695201fcc86443423ddc681de7687793daddf10",
    (7, 0, "text"): "5e848e9d01a7dfc6da6883fb2e40c442faadcfe33585537cee3a6f49b716a40c",
    (7, 0, "json"): "2799ca6c39189612c6272e72c93c615c91f376bcc8debecf606b43211797a4bc",
    (7, 1, "text"): "fe270c3c2218c58a7fdc1cc9b983779637bb1e5189ba2f15498f7698fba26fc5",
    (7, 1, "json"): "67fdbba6caf873fd42aba01da3fc9e377ad2daed8ed9cd49f076327918369209",
    (7, 2, "text"): "50fa7b486d58cec88625fcc39e73ad6b73b22ea7cf662135a502ea33cc2da931",
    (7, 2, "json"): "a4355b8492adb634e8dfc552b5d75078afa279d0b11998bc05267bd786364270",
    (8, 0, "text"): "2df55587c99b94a8d050bd99551d71f99ee9751b655b1ac6e4fb777f0f4d015d",
    (8, 0, "json"): "f609cb6577895573d8ce20a2dd26d814720fa25de75562384006f512766ee875",
    (8, 1, "text"): "19e812e012aa2ea104f36f8e257e17cba55d15e96a7d520dfa9ad629c1342a36",
    (8, 1, "json"): "98ebcb3700bb63c7dac3888383a4d817e3ec845a114613a11132508a3ac4afef",
    (8, 2, "text"): "33c3a81d341e7a07630432682ec177ee1136f1274c40e3202b262605268ce21b",
    (8, 2, "json"): "fb0c830274ec4535d7847474878b22385c4206cc2b7af6811b217e1f87a6a1b5",
    (8, 3, "text"): "661b038064f0301ffe5390e93125c0210623bd15b9e5924eb95eed04bf666961",
    (8, 3, "json"): "41925c3ecac2f1b0d1226f7d3459d8fe74a178d620792040172404912a16721b",
    (9, 0, "text"): "bf078b1e9a438b0f0f85a13aa8bdc2262433a5529cc38ce83b32720f636d959d",
    (9, 0, "json"): "f08d6a877ed2e702bb016ea0ab98cd7f640f9dfc2f4dd8d1e5a31d3975cebfad",
    (9, 1, "text"): "46cdbfd8bf28481f6d2ecd749d231bbd477ea7754659bb5b4451925c9ee9246e",
    (9, 1, "json"): "e6adc61472633d8fdaf11629e8b7f5de92989047a4a12b515c71b7e3c272baea",
    (9, 2, "text"): "fdd4ad021482623935031ac92a545fad286663770afe2f4d3ec8a11a425e5f71",
    (9, 2, "json"): "37aac6ffcdabb5a96a938c90cda47775b616d29ddd2190e230faa81cd4c803c8",
    (9, 3, "text"): "dd1dea0cd0a19db6b15d139ccc803db90af9fd91c15e4feb4fa1ceab790ea970",
    (9, 3, "json"): "5e8c7cef1f1f7286bc0b7a1e05f3fc7086cf42d34efe58e2cb40038bae781888",
    (10, 0, "text"): "486bb64a2fe2e1e34a2ecb1925a489c56f46000ea80f5d9b3b5dd755db9bd83f",
    (10, 0, "json"): "a70e1355aeb8b407770c5a2c160df37180c453f3a93c90f8a7a940c60e5016ff",
    (10, 1, "text"): "660751d9d940064920a3dfed6e7b70b96649ec23541066a3dc1e21b5e7ffcc0d",
    (10, 1, "json"): "a6807bc97513fce6e8d6dd4fbd5a9c98321dd9a1c82fc1c20d7f0474507528d1",
    (10, 2, "text"): "1e451e57fe8015ff424e4726ae65df5ec6b028a0e8641f455d5e01262e71fd40",
    (10, 2, "json"): "953f6cc02308f0e6170a34105ec7133a25ecca223ed363b1c9101e84eaf107b8",
    (10, 3, "text"): "dd000b012499f576e6d90aae8e78f1f2d9115adb3ca673653d9b6982c689b423",
    (10, 3, "json"): "6ca526b0c25d9c29c43484f22769abd037ef0746184767968cb45eabb2fda040",
    (10, 4, "text"): "3ed380ea7a37e0dbd00e063275169a61648177981f0470a8a00cd7e80123d639",
    (10, 4, "json"): "d889279dd0675d97731305e26029e15977ea66e37b5c7482303ae380ada39b7a",
    (11, 0, "text"): "0d4c184800a4b5e4a0f119239f86b772194dc8109485018ab88460a6f47d6681",
    (11, 0, "json"): "c6239b97dd7519cc7a9713a4e25157e5d4d75224fbd2bdc719a7eb04a1bee0f2",
    (11, 1, "text"): "c58fb7b7f4cd1981b40b5eca25308dd7fbd2dc00d3a7fa5bb507c138bc3095dd",
    (11, 1, "json"): "6250a9c936cb110a39b668b1c454e4d9c550989c9dc9fe10a63b95a9cf6facd4",
    (11, 2, "text"): "3855e39ca0404a0b62cd7a0845bf6e475679705c4767c7e74de32888e496839e",
    (11, 2, "json"): "1d664d3a59f34efb78ef6ac7ea6be506dcda09dfd0b6ac79f934644bec932aa4",
    (11, 3, "text"): "fcc48bdfbbbbb0c9b99afec5b4e54d2f882683e678575bced9089fda0fe74e00",
    (11, 3, "json"): "04da48ad751a8a7d9c1eccae8128d4c3b3383a29248c9443464456af3c44ccdb",
    (11, 4, "text"): "3eff8bd974513c06334a72c8ced8e75d11bcdf966eb225feeab0c26cbf162f6b",
    (11, 4, "json"): "8ea0fb518141d66b933336418061d066eb7818e4105d55cbdc9ba4b86ffcf730",
    (12, 0, "text"): "26c8aa3e54ae3e0d4e00b2d4b88f58bf318c537d79c5fdd2f2888188a62f8b85",
    (12, 0, "json"): "9140685d784535fe1b91ab49c8e7c3c53448ea14db7c3fe32e2c785e8a101ca7",
    (12, 1, "text"): "961c339c71cf38e517eda7fab8d3a41fe98c14762ff36feffc8d0a9db786c716",
    (12, 1, "json"): "b9f84a73e45481369d49875a082e27f192ad97d3d3616b8bfeb5e52f15c613ee",
    (12, 2, "text"): "cfd6fe23ea7af5558a0d055392692a44a84bd4017162e8cf94df582f5fa58ee2",
    (12, 2, "json"): "7a4eee0c66b55cef762d5f109fe16d646ef26202f06653fdbcd2c0db9ce6ff77",
    (12, 3, "text"): "f3e7e2f2cef406c35f079ee653b79b52f19d607f4b9449e1c0629e80ff4a6dc3",
    (12, 3, "json"): "fd96c5f6e290a1e8d4be5843c04c931ea56d11974b8d6f0c3a1928dec2058498",
    (12, 4, "text"): "51a8db962688ec98e9d86670fc4375a655ad2aa2547616cb818a29f0a1d79136",
    (12, 4, "json"): "cf8c98d119645fba497f8a2a6b50fd242e7f6c7510518397b7104e61ec2a9010",
    (12, 5, "text"): "b8d59769c2621b72c7b562cf09dcc33b3a2831434359937c3193519874496125",
    (12, 5, "json"): "5a5f0e99111ac75e641b1864fb81d48bdf0f7055c063ef0df15006c85887a487",
}


def test_every_expansion_is_pinned_through_12(capsys):
    got = {}
    for n in range(2, 13):
        for i in range((n - 2) // 2 + 1):
            for fmt in ("text", "json"):
                assert cli.main(["expand", str(n), str(i), "--format", fmt]) == 0
                got[n, i, fmt] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert len(got) == 72
    assert got == EXPAND_DIGESTS


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
