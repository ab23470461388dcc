"""Exact Kazhdan-Lusztig coefficients of braid matroids.

The coefficient C(n, i) is computed by four independent routes that the
test suite and the ``klb selftest`` command play against each other:

* a fast bottom-up recursion over integer partitions (`kl_coeff`,
  `kl_braid_poly`), the default everywhere;
* a closed summation over an index set of partition chains, grouped by
  the exponential formula into sums of products of Stirling numbers of
  both kinds, with the triples enumerated only to list and audit it
  (`kl_coeff_via_chains`, `enumerate_K`);
* closed forms in Stirling numbers of the second kind: a two-term
  expression for i = 1 (`kl_c1`) and an alternating sum over flag
  Whitney numbers (`kl_coeff_via_pxy`);
* a brute-force oracle that builds the whole partition lattice and runs
  the generic defining recursion on it (`kl_polynomial_generic`,
  `braid_kl_generic`).

All arithmetic is exact; there are no floats anywhere.

Importing the package loads none of its submodules.  Each public name
below is looked up in its submodule on first access (PEP 562), so a
``klb`` process pays only for the modules its command runs.  Submodules
are imported by name as usual: ``from klbraid import cli``.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "chain_formula": ("kl_coeff_via_chains", "symbolic_expansion"),
    "chains": ("KLChainTriple", "enumerate_K", "validate_triple"),
    "errors": ("InternalConsistencyError", "OracleBoundError"),
    "kl_recursion": ("KLTable", "kl_braid_poly", "kl_coeff", "verify_defining_identity"),
    "lattice_oracle": (
        "RankedLattice",
        "braid_kl_generic",
        "build_partition_lattice",
        "char_poly",
        "kl_polynomial_generic",
    ),
    "partitions": ("IntPartition", "multiplicity", "partitions_of", "set_partitions_of"),
    "polynomial": ("IntPoly",),
    "stirling": (
        "bell_number",
        "falling_factorial_poly",
        "partition_char_poly",
        "stirling_first",
        "stirling_second",
    ),
    "whitney2": ("flag_whitney_product", "kl_c1", "kl_coeff_via_pxy"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
