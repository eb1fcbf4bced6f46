"""Exact engine for the Lie algebras of scalar bilocal fields on truncated
Fock spaces, with sector classification and the gauge-group dictionary."""

from .algebra import (
    E,
    Eminus,
    Eplus,
    GeneratorLabel,
    HamiltonianSpec,
    OperatorExpr,
    X,
    Xstar,
    abstract_commutator,
    apply_generator,
    canonical_hamiltonian,
    charge_terms,
    generator_images,
    hamiltonian_terms,
    verify_structure_constants,
)
from .fock import (
    COMPLEX,
    REAL,
    FockContext,
    FockVector,
    ModeSlot,
    Operator,
    a_slot,
    apply_annihilation,
    apply_creation,
    b_slot,
    basis_monomials,
    inner_product,
    norm_sq,
    vacuum,
)
from .sectors import (
    Weight,
    build_ground_state,
    classify_spectrum,
    determinant_operator,
    determinant_recursion_check,
    norm_recursion_oracle,
    p_polynomial_check,
    verify_hw_conditions,
    weight_from_sector,
)
from .young import (
    GaugeIrrepO,
    GaugeIrrepU,
    SectorLabel,
    YoungDiagram,
    bijection_roundtrip_check,
    complex_sector,
    conjugate_relative,
    irrep_U_to_sector,
    pieri_add_box,
    real_sector,
    sector_to_irrep_O,
    sector_to_irrep_U,
    weyl_dimension_U,
)
from .casimir import (
    casimir_g,
    casimir_k,
    casimir_k_eigenvalue,
    gamma_closed_form,
    gamma_value,
    resolve_cg_closed_form,
    unitarity_bound,
    verify_gamma_identity,
)
from .modes import (
    ModeLabel,
    conformal_spectrum_check,
    enumerate_modes,
    harmonic_count,
    oscillator_normalization,
)

__version__ = "0.1.0"
