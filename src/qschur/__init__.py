"""Exact arithmetic for q-Schur algebras over the integral Laurent ring,
structured multiplication formulas with a double-coset oracle to check
them against, a truncated realization of the quantum group they
assemble into, and root-of-unity specialization.

The verification surface lives in `qschur.suites`; the command line
driver in `qschur.cli` exposes it as `qschur verify SUITE`.
"""

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    DomainError,
    ExactDivisionError,
    ParseError,
    QschurError,
    ResourceLimit,
)
from .laurent import (
    LaurentPoly,
    ONE,
    V,
    balanced_binomial,
    balanced_bracket,
    unbalanced_binomial,
    unbalanced_bracket,
    unbalanced_trinomial,
    v_power,
    vector_binomial,
    vector_trinomial,
)
from .cyclo import CycloScalar, eval_at_root
from .matrices import (
    Matrix,
    co,
    diag_matrix,
    entry_sum,
    ro,
    theta_matrices,
    theta_pm,
    zero_matrix,
)
from .hecke import DEFAULT_ORACLE_CAP, oracle_product
from .schur import (
    SchurElement,
    basis_product,
    diag_sum,
    force_oracle_product,
    general_product,
    multiply_lowering,
    multiply_raising,
)
from .symbolic import (
    SymbolicElement,
    TruncatedElement,
    delta_reduce,
    lowering_mult,
    raising_mult,
    torus_mult,
    triangular_product,
    triangular_word,
)
from .presentation import check_relations, pbw_family, pbw_monomial
from .specialize import bk_independence, bk_products, check_torus_power_trivial, specialize
from .linalg import exact_rank, flatten_family, independence_verdict
from .config import RunConfig
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "QschurError",
    "DomainError",
    "DimensionMismatch",
    "ExactDivisionError",
    "ResourceLimit",
    "ConsistencyError",
    "ParseError",
    "LaurentPoly",
    "ONE",
    "V",
    "v_power",
    "balanced_bracket",
    "unbalanced_bracket",
    "balanced_binomial",
    "unbalanced_binomial",
    "unbalanced_trinomial",
    "vector_binomial",
    "vector_trinomial",
    "CycloScalar",
    "eval_at_root",
    "Matrix",
    "ro",
    "co",
    "entry_sum",
    "diag_matrix",
    "zero_matrix",
    "theta_matrices",
    "theta_pm",
    "DEFAULT_ORACLE_CAP",
    "oracle_product",
    "SchurElement",
    "basis_product",
    "general_product",
    "force_oracle_product",
    "multiply_raising",
    "multiply_lowering",
    "diag_sum",
    "SymbolicElement",
    "TruncatedElement",
    "torus_mult",
    "raising_mult",
    "lowering_mult",
    "delta_reduce",
    "triangular_word",
    "triangular_product",
    "check_relations",
    "pbw_family",
    "pbw_monomial",
    "specialize",
    "check_torus_power_trivial",
    "bk_products",
    "bk_independence",
    "flatten_family",
    "independence_verdict",
    "exact_rank",
    "RunConfig",
    "SUITE_NAMES",
    "run_suite",
]
