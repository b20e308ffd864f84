"""Finite-lattice classifying spaces: spectra, topologies, bijections and
subcategory-lattice generation."""

from .lattice import (
    FiniteLattice,
    LatticeHom,
    HomLevel,
    DistributivityVerdict,
    check_hom,
    dualize,
    find_isomorphism,
    is_distributive,
    load_lattice,
)
from .spectra import (
    CompletelyClass,
    ElementClassification,
    SpectrumReport,
    c_circle,
    classify_element,
    is_point,
    oracle_completely,
    spectrum_report,
)
from .classifying import (
    ClassifyingSpace,
    GeneratorClass,
    SpaceKind,
    build_space,
    hat,
    induced_homeomorphism,
    is_T0,
    pointfree_map,
    verify_classification,
)
from .finspace import (
    FiniteSpace,
    KolmogorovQuotient,
    closed_set_lattice,
    closure_of_point,
    homeomorphic,
    kq_vs_K_check,
    load_space,
    t0_quotient,
)
from .catlab import (
    CategoryTable,
    SubcategoryKind,
    close,
    enumerate_subcategory_lattice,
    is_monoform,
    powerset_model,
    validate_table,
)

__version__ = "0.1.0"
