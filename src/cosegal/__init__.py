"""Exact computations with truncated co-Segal commutative premonoids valued
in bounded chain complexes over a prime field or the rationals."""

from .field_linalg import Field, Matrix, GF2, GF3, GF5, QQ, InvariantError, quotient
from .chain import (
    ChainComplex,
    ChainMap,
    GeneratingCofibration,
    unit_complex,
    single_complex,
    zero_complex,
    homology_dims,
    tensor,
    tensor_map,
    braiding,
    associator,
    direct_sum,
    cone,
    is_quasi_iso,
    cylinder_factorization,
    is_cofibration,
    is_fibration,
    is_trivial_fibration,
    solve_lifting,
    has_rlp,
    generating_cofibrations,
    Colimit,
    colimit,
    pushout,
    wide_pushout,
)
from .phi_epi import (
    Surjection,
    enumerate_surjections,
    compose,
    disjoint_sum,
    unique_to_one,
    block_swap,
    latching_shape,
)
from .premonoid import (
    StrictMonoid,
    LaxDiagram,
    DiagramMorphism,
    Violation,
    validate,
    validate_strict,
    validate_morphism,
    is_cosegal,
    from_strict,
    to_strict,
    is_easy_weq,
    is_easy_fib,
    h_star,
)
from .free_gamma import (
    lax_latching,
    classical_latching,
    delta_map,
    gamma_na,
    universal_extension,
    lan_entry,
)
from .two_constant import (
    TwoConstantPremonoid,
    K2Instruction,
    localizing_set,
    expand_to_premonoid,
    package_two_constant,
    reflect,
    fundamental_factorization,
    pushout_k2,
    wide_pushout_two_constant,
    cosegalify_two_constant,
    is_k_injective,
)
from .charp_lab import SymPower, sym_power, demo_char_p

__version__ = "0.1.0"
