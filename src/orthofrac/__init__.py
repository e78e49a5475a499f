"""Exact enumeration and symmetry classification of orthogonal fractions
of mixed-level factorial designs via indicator polynomials.

The package re-exports the entry points the README lists.  The function
classify stays in its module: import it from orthofrac.classify."""

from .designs import Design, full_factorial, has_strength, invariant_triple
from .algebra import (
    design_from_indicator,
    indicator_from_design,
    linear_preprocess,
    orthogonality_system,
    verify_theta_report,
)
from .search import SearchProblem, enumerate_orthogonal
from .classify import act, act_theta, generate_group, table_report

__version__ = "0.1.0"
