from __future__ import annotations

import subprocess
import sys

import pytest

import klbraid

PUBLIC_NAMES = [
    "IntPartition", "IntPoly", "InternalConsistencyError", "KLChainTriple", "KLTable",
    "OracleBoundError", "RankedLattice", "bell_number", "braid_kl_generic",
    "build_partition_lattice", "char_poly", "enumerate_K", "falling_factorial_poly",
    "flag_whitney_product", "kl_braid_poly", "kl_c1", "kl_coeff", "kl_coeff_via_chains",
    "kl_coeff_via_pxy", "kl_polynomial_generic", "multiplicity", "partition_char_poly",
    "partitions_of", "set_partitions_of", "stirling_first", "stirling_second",
    "symbolic_expansion", "validate_triple", "verify_defining_identity",
]


def test_public_names_are_unchanged():
    assert klbraid.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_submodules_object(name):
    obj = getattr(klbraid, name)
    assert obj.__module__.startswith("klbraid.")
    assert obj is getattr(sys.modules[obj.__module__], name)


def test_dir_lists_every_public_name():
    listed = dir(klbraid)
    assert set(PUBLIC_NAMES) <= set(listed)
    assert "__version__" in listed


def test_star_import_binds_every_name():
    ns: dict = {}
    exec("from klbraid import *", ns)
    for name in PUBLIC_NAMES:
        assert ns[name] is getattr(klbraid, name)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        klbraid.no_such_name  # noqa: B018
    assert not hasattr(klbraid, "no_such_name")


def test_fresh_import_resolves_names_on_first_use():
    # a fresh interpreter: the package alone, then one name pulls in its module
    code = (
        "import sys, klbraid\n"
        "print(sorted(m for m in sys.modules if m.startswith('klbraid')))\n"
        "from klbraid import kl_braid_poly\n"
        "print(kl_braid_poly(7).render(), kl_braid_poly is klbraid.kl_recursion.kl_braid_poly)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['klbraid']", "1 + 42t + 175t^2 True"]
