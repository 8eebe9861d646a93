"""Library refusals that no command reaches with a bad value: each call is
refused with its exception type and its whole message."""

import re

import numpy as np
import pytest

from nijflow.compat import (CompatError, coordinate_form_residual_at,
                            symmetry_metric)
from nijflow.exactpoly import (ExactPolynomial, PolynomialError,
                               evaluate_table_array)
from nijflow.flows import AxisSpec, SolutionGrid
from nijflow.hierarchy import first_integrals
from nijflow.metric import CovariantMetricAt, GramMatrix, MetricError
from nijflow.operators import OperatorError, OperatorField
from nijflow.pde import PDEError, compare_grids, direct_solve

# the Euclidean metric of the plane at its origin, and operators of size 3
G2 = CovariantMetricAt(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
I3 = OperatorField.identity(3)
X = AxisSpec("x", 0.0, 1.0, 3)
T = AxisSpec("t", 0.0, 1.0, 2)

REFUSALS = {
    "symmetry_metric sizes": (
        lambda: symmetry_metric(G2, I3),
        CompatError, "metric and operator sizes differ"),
    "symmetry_metric not self-adjoint": (
        lambda: symmetry_metric(G2, OperatorField([[0, 1], [0, 0]])),
        CompatError, "M is not metric-self-adjoint at the point"),
    "coordinate_form_residual_at sizes": (
        lambda: coordinate_form_residual_at(G2, I3),
        CompatError, "metric and operator sizes differ"),
    "compare_grids axes": (
        lambda: compare_grids(SolutionGrid((X,), np.zeros((3, 2))),
                              SolutionGrid((X, T), np.zeros((3, 2, 2)))),
        PDEError, "lattices have different numbers of axes"),
    "compare_grids components": (
        lambda: compare_grids(SolutionGrid((X,), np.zeros((3, 2))),
                              SolutionGrid((X,), np.zeros((3, 3)))),
        PDEError, "component counts differ"),
    "direct_solve one node": (
        lambda: direct_solve(I3, [0.0], np.zeros((1, 3)), 0.1),
        PDEError, "the spatial lattice needs at least two nodes"),
    "first_integrals sizes": (
        lambda: first_integrals(GramMatrix([[1, 0], [0, 1]]), [I3]),
        MetricError, "hierarchy and metric sizes differ"),
    "power negative": (
        lambda: I3.power(-1),
        OperatorError, "operator powers must be non-negative"),
    "evaluate_table_array point width": (
        lambda: evaluate_table_array(ExactPolynomial.variable(2, 0),
                                     [1.0, 2.0, 3.0]),
        PolynomialError, "point has 3 coordinates, expected 2"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(),
                         ids=REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
