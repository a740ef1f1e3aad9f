"""Exact computer algebra for almost-factorizable real simple Lie bialgebras."""

from .bdtriple import (
    BDTriple,
    DiagramAutomorphism,
    diagram_automorphisms,
    enumerate_bd_triples,
    precedence_pairs,
    stability,
)
from .core import (
    GaussianRational,
    StructureTable,
    Tensor2,
    apply_semilinear_pair,
    cybe,
    cybe_is_zero,
    wedge,
)
from .involution import (
    Involution,
    RealFormBasis,
    canonical_involution,
    fixed_point_basis,
    normalize_involution,
)
from .manin import (
    ManinTriple,
    double_factorizable,
    double_imaginary,
    factorization_maps,
    psi_phi,
)
from .parameter import (
    ContinuousParameter,
    NoBialgebraDatum,
    ParameterSpace,
    apply_reality,
    solve_parameters,
)
from .realform import RealFormReport, cartan_involution, identify
from .rmatrix import (
    BialgebraDatum,
    ExtractionError,
    build_r,
    build_r0,
    classify,
    extend_T,
    extract_data,
    make_datum,
    verify_datum,
)
from .rootsystem import RootSystem, SimpleType, build_root_system

__all__ = [
    "BDTriple",
    "BialgebraDatum",
    "ContinuousParameter",
    "DiagramAutomorphism",
    "ExtractionError",
    "GaussianRational",
    "Involution",
    "ManinTriple",
    "NoBialgebraDatum",
    "ParameterSpace",
    "RealFormBasis",
    "RealFormReport",
    "RootSystem",
    "SimpleType",
    "StructureTable",
    "Tensor2",
    "apply_reality",
    "apply_semilinear_pair",
    "build_r",
    "build_r0",
    "build_root_system",
    "canonical_involution",
    "cartan_involution",
    "classify",
    "cybe",
    "cybe_is_zero",
    "diagram_automorphisms",
    "double_factorizable",
    "double_imaginary",
    "enumerate_bd_triples",
    "extend_T",
    "extract_data",
    "factorization_maps",
    "fixed_point_basis",
    "identify",
    "make_datum",
    "normalize_involution",
    "precedence_pairs",
    "psi_phi",
    "solve_parameters",
    "stability",
    "verify_datum",
    "wedge",
]

__version__ = "0.1.0"
