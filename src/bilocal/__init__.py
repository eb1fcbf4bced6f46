"""Exact engine for the Lie algebras of scalar bilocal fields on truncated
Fock spaces, with sector classification and the gauge-group dictionary.

Each name below loads its module on first access (PEP 562), so a process
pays only for the modules it uses: ``import bilocal.cli`` loads neither
``sectors``, ``casimir`` nor ``modes``."""

_EXPORTS = {
    "algebra": (
        "E", "Eminus", "Eplus", "GeneratorLabel", "HamiltonianSpec", "OperatorExpr", "X", "Xstar",
        "abstract_commutator", "apply_generator", "canonical_hamiltonian", "charge_terms",
        "generator_images", "hamiltonian_terms", "verify_structure_constants",
    ),
    "fock": (
        "COMPLEX", "REAL", "FockContext", "FockVector", "ModeSlot", "Operator",
        "apply_annihilation", "apply_creation", "basis_monomials", "inner_product", "norm_sq",
        "vacuum",
    ),
    "sectors": (
        "Weight", "build_ground_state", "classify_spectrum", "determinant_operator",
        "determinant_recursion_check", "norm_recursion_oracle", "p_polynomial_check",
        "verify_hw_conditions", "weight_from_sector",
    ),
    "young": (
        "GaugeIrrepO", "GaugeIrrepU", "SectorLabel", "YoungDiagram", "bijection_roundtrip_check",
        "complex_sector", "conjugate_relative", "irrep_U_to_sector", "real_sector",
        "sector_to_irrep_O", "sector_to_irrep_U", "weyl_dimension_U",
    ),
    "casimir": (
        "casimir_g", "casimir_k", "casimir_k_eigenvalue", "gamma_closed_form", "gamma_value",
        "resolve_cg_closed_form", "verify_gamma_identity",
    ),
    "modes": (
        "ModeLabel", "conformal_spectrum_check", "enumerate_modes", "harmonic_count",
        "oscillator_normalization",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name or a submodule, loaded on first access and kept."""
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
