"""Exact differential geometry on finite groups.

Differential calculi, braid operators, linear connections, dual
structures and metrics, invariant tensors, and covariant calculi on
finite group sets, all over exact rational arithmetic.
"""

from .braid import (
    DecompositionReport,
    SigmaOperator,
    TensorField,
    TwoForm,
    antisymmetrize,
    antisymmetrize_k,
    braid_check,
    classify,
    d_one_form,
    project_two_form,
    sigma_build,
    sigma_for,
    symmetrize,
    tensor_product,
    wedge,
)
from .calculus import (
    DifferentialCalculus,
    OneForm,
    StructureConstants,
    differential,
    enumerate_bicovariant,
    enumerate_left_covariant,
    export_dot,
    from_hatG,
    omega_coefficients,
    omega_form,
    rho,
    theta_form,
    trivial,
    universal,
)
from .catalog import small_group_catalog
from .connection import (
    Connection,
    ExtensibilityReport,
    TorsionFreeFamily,
    TwoSidedConnection,
    bimodule_hom_space,
    c_connection,
    canonical_connection,
    extend_on_basis_pairs,
    extend_to_tensor,
    extensibility_analysis,
    flatness_representation_check,
    invariance_constraints,
    nabla_sigma,
    nabla_sigma_inverse,
    sigma_family,
    solve_torsion_free,
    two_sided_space,
)
from .dual import (
    DualConnection,
    Metric,
    VectorField,
    canonical_form_and_torsion,
    metric_compatibility,
    metric_symmetry,
    pair,
    sigma_prime,
    sigma_x,
    sigma_x_apply,
)
from .errors import FiniteGeoError, InternalInconsistency
from .funcs import GroupFunction, delta, ell, left_translate, right_translate
from .groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    from_cayley_table,
    from_permutations,
    symmetric,
)
from .gset import (
    GSet,
    covariant_calculi,
    gset_from_permutations,
    irreducible_calculi,
    left_translation_gset,
    pair_orbits,
)
from .invariants import SolutionSpace, pattern_matrix, solve_bi_invariant, solve_symmetry

__version__ = "0.1.0"
