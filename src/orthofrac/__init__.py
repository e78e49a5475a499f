"""Exact enumeration and symmetry classification of orthogonal fractions
of mixed-level factorial designs via indicator polynomials."""

from .designs import (
    Design,
    FactorSpec,
    FullFactorial,
    MarginTable,
    full_design,
    full_factorial,
    from_level_sets,
    has_strength,
    invariant_triple,
    j_statistic,
    load_design_csv,
    margins,
    run_point,
    save_design_csv,
)
from .polynomials import Polynomial, parse_polynomial
from .algebra import (
    NotAnIndicatorError,
    design_from_indicator,
    exponent_lattice,
    indicator_from_design,
    linear_preprocess,
    orthogonality_system,
    reduce_to_standard_form,
    verify_theta,
    verify_theta_report,
)
from .search import (
    CrossCheckError,
    ProblemTooLargeError,
    SearchProblem,
    brute_force_oracle,
    enumerate_orthogonal,
    read_designs,
    write_designs,
)
from .classify import (
    EquivalenceClass,
    GroupElement,
    act,
    act_theta,
    canonical_form,
    classification_report,
    classify,
    generate_group,
    orbit_of,
    stabilizer_size,
    table_report,
)
from .catalog import CATALOG, CatalogEntry, cross_check_classes, flagship_ambient

__version__ = "0.1.0"
