"""Geodesically compatible metrics for companion-form Nijenhuis operators.

The package builds the quadratic first-integral family of a differentially
non-degenerate operator in second companion form, certifies every algebraic
and differential identity behind the construction by exact rational
computation, and integrates the induced hydrodynamic-type systems through
their finite-dimensional reduction to commuting Hamiltonian flows, with an
independent finite-difference solver as a cross-check.
"""

from .exactpoly import (
    ExactPolynomial,
    ParseError,
    PolynomialError,
    base_names,
    format_polynomial,
    parse_expression,
    phase_names,
)
from .flows import (
    AxisSpec,
    CotangentPoint,
    FlowError,
    FlowSettings,
    HamiltonianField,
    SolutionGrid,
    integrate_flow,
    integrate_flow_path,
    orbit_grid,
    polynomial_flow,
)
from .metric import (
    CompatError,
    CovariantMetricAt,
    GramMatrix,
    MetricError,
    PhaseFunction,
    benenti_residual,
    build_h_family,
    check_gram_normal_form,
    coordinate_form_residual_at,
    covariant_at,
    differential_shift_residuals,
    first_integrals,
    gram_matrix,
    pairwise_poisson,
    poisson_bracket,
    symmetry_metric,
)
from .model import CompanionModel
from .operators import (
    OperatorError,
    OperatorField,
    char_coefficients,
    commutator,
    companion_first,
    companion_second,
    guiding_bracket,
    is_symmetry,
    killing_operators,
    nijenhuis_torsion,
    torsion_of_pair,
)
from .pde import (
    PDEError,
    ResidualReport,
    compare_grids,
    direct_solve,
    grid_residual,
)

__all__ = [
    "AxisSpec",
    "CompanionModel",
    "CompatError",
    "CotangentPoint",
    "CovariantMetricAt",
    "ExactPolynomial",
    "FlowError",
    "FlowSettings",
    "GramMatrix",
    "HamiltonianField",
    "MetricError",
    "OperatorError",
    "OperatorField",
    "PDEError",
    "ParseError",
    "PhaseFunction",
    "PolynomialError",
    "ResidualReport",
    "SolutionGrid",
    "base_names",
    "benenti_residual",
    "build_h_family",
    "char_coefficients",
    "check_gram_normal_form",
    "commutator",
    "companion_first",
    "companion_second",
    "compare_grids",
    "coordinate_form_residual_at",
    "covariant_at",
    "differential_shift_residuals",
    "direct_solve",
    "first_integrals",
    "format_polynomial",
    "gram_matrix",
    "grid_residual",
    "guiding_bracket",
    "integrate_flow",
    "integrate_flow_path",
    "is_symmetry",
    "killing_operators",
    "nijenhuis_torsion",
    "orbit_grid",
    "pairwise_poisson",
    "parse_expression",
    "phase_names",
    "poisson_bracket",
    "polynomial_flow",
    "symmetry_metric",
    "torsion_of_pair",
]

__version__ = "0.1.0"
