"""Primitive idempotents and minimal binary abelian codes over F2.

The package constructs the complete primitive idempotent families of F2[G]
for abelian groups of order p*q, p^m*q^n, and p1*p2*p3 (odd primes under the
standing divisibility conditions), and analyzes the minimal codes they
generate: dimensions, explicit bases, exact minimum weights, and weight
distributions, all by exact integer arithmetic and exhaustive enumeration.
"""

from .group_algebra import (
    AbelianGroup,
    AlgebraElement,
    Subgroup,
    as_cyclic,
    cyclic_exponent,
)
from .number_theory import (
    ConsistencyError,
    HypothesisError,
    PrimePair,
    ResiduePartition,
    crt_inverses,
    joint_order_2,
    minus_one_is_residue,
    multiplicative_order,
    residue_partition,
    validate_hypotheses,
)
from .cyclotomic import (
    CyclotomicClass,
    class_count,
    class_sum,
    cyclotomic_classes,
    verify_class_structure,
)
from .idempotents import (
    IdempotentFamily,
    UVBlock,
    family_pq,
    family_prime_power,
    family_three_primes,
    family_two_factor,
    p_group_idempotents,
    split_pair,
    uv_block,
)
from .codes import (
    BudgetExceededError,
    CodeReport,
    FalsificationError,
    NotMinimalIdealError,
    WeightResult,
    analyze_code,
    analyze_family,
    code_seed_word,
    family_verification,
    generator_matrix,
    ideal_basis,
    ideal_dimension,
    minimum_weight,
    explicit_bases,
    theoretical_expectations,
    verify_primitivity,
    weight_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "AlgebraElement",
    "Subgroup",
    "PrimePair",
    "ResiduePartition",
    "CyclotomicClass",
    "IdempotentFamily",
    "UVBlock",
    "CodeReport",
    "WeightResult",
    "HypothesisError",
    "ConsistencyError",
    "BudgetExceededError",
    "FalsificationError",
    "NotMinimalIdealError",
    "as_cyclic",
    "cyclic_exponent",
    "multiplicative_order",
    "joint_order_2",
    "validate_hypotheses",
    "residue_partition",
    "minus_one_is_residue",
    "crt_inverses",
    "cyclotomic_classes",
    "class_count",
    "class_sum",
    "verify_class_structure",
    "uv_block",
    "split_pair",
    "family_pq",
    "family_prime_power",
    "family_three_primes",
    "family_two_factor",
    "p_group_idempotents",
    "verify_primitivity",
    "ideal_dimension",
    "ideal_basis",
    "minimum_weight",
    "weight_distribution",
    "code_seed_word",
    "explicit_bases",
    "theoretical_expectations",
    "analyze_code",
    "analyze_family",
    "generator_matrix",
    "family_verification",
]
