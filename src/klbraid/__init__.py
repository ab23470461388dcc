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
"""

from .chain_formula import kl_coeff_via_chains, symbolic_expansion
from .chains import KLChainTriple, enumerate_K, validate_triple
from .errors import InternalConsistencyError, OracleBoundError
from .kl_recursion import (
    KLTable,
    kl_braid_poly,
    kl_coeff,
    verify_defining_identity,
)
from .lattice_oracle import (
    RankedLattice,
    braid_kl_generic,
    build_partition_lattice,
    char_poly,
    kl_polynomial_generic,
)
from .partitions import IntPartition, multiplicity, partitions_of, set_partitions_of
from .polynomial import IntPoly
from .stirling import (
    bell_number,
    falling_factorial_poly,
    partition_char_poly,
    stirling_first,
    stirling_second,
)
from .whitney2 import flag_whitney_product, kl_c1, kl_coeff_via_pxy

__version__ = "0.1.0"

__all__ = [
    "IntPartition",
    "IntPoly",
    "InternalConsistencyError",
    "KLChainTriple",
    "KLTable",
    "OracleBoundError",
    "RankedLattice",
    "bell_number",
    "braid_kl_generic",
    "build_partition_lattice",
    "char_poly",
    "enumerate_K",
    "falling_factorial_poly",
    "flag_whitney_product",
    "kl_braid_poly",
    "kl_c1",
    "kl_coeff",
    "kl_coeff_via_chains",
    "kl_coeff_via_pxy",
    "kl_polynomial_generic",
    "multiplicity",
    "partition_char_poly",
    "partitions_of",
    "set_partitions_of",
    "stirling_first",
    "stirling_second",
    "symbolic_expansion",
    "validate_triple",
    "verify_defining_identity",
]
