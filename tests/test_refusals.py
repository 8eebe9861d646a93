"""Library refusals that no command reaches with a bad value: each call is
refused with its exception type and its whole message."""

import re

import numpy as np
import pytest

from nijflow.exactpoly import (ExactPolynomial, PolynomialError,
                               evaluate_table_array, format_polynomial)
from nijflow.flows import AxisSpec, SolutionGrid
from nijflow.metric import (CompatError, CovariantMetricAt, GramMatrix,
                            MetricError, PhaseFunction,
                            coordinate_form_residual_at, first_integrals,
                            symmetry_metric)
from nijflow.operators import OperatorError, OperatorField, killing_operators
from nijflow.pde import PDEError, compare_grids, direct_solve

# the Euclidean metric of the plane at its origin, and operators of size 3
G2 = CovariantMetricAt(np.zeros(2), np.eye(2), np.zeros((2, 2, 2)))
I3 = OperatorField.identity(3)
X = AxisSpec("x", 0.0, 1.0, 3)
T = AxisSpec("t", 0.0, 1.0, 2)
U1 = ExactPolynomial.variable(2, 0)
F1 = PhaseFunction(1, U1)

REFUSALS = {
    "symmetry_metric sizes": (
        lambda: symmetry_metric(G2, I3),
        CompatError, "metric and operator sizes differ"),
    "symmetry_metric not self-adjoint": (
        lambda: symmetry_metric(G2, OperatorField([[0, 1], [0, 0]])),
        CompatError, "M is not metric-self-adjoint at the point"),
    "symmetry_metric stack": (
        lambda: symmetry_metric(
            CovariantMetricAt(np.zeros((3, 2)), np.tile(np.eye(2), (3, 1, 1)),
                              np.zeros((3, 2, 2, 2))),
            OperatorField.identity(2)),
        CompatError, "the metric must be taken at a single point"),
    "symmetry_metric not a symmetry": (
        lambda: symmetry_metric(
            G2, OperatorField([[1, 0], [0, 2]]),
            check_against=OperatorField([[0, 1], [0, 0]])),
        CompatError, "M is not a symmetry of the given operator"),
    "symmetry_metric singular": (
        lambda: symmetry_metric(G2, OperatorField([[1, 0], [0, 0]])),
        CompatError, "transformed metric is singular at the point"),
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
    "killing_operators empty": (
        lambda: killing_operators([]),
        OperatorError, "at least one coefficient is required"),
    "killing_operators variable count": (
        lambda: killing_operators([ExactPolynomial.variable(1, 0), 1]),
        OperatorError, "entry has 1 variables, expected 2"),
    "killing_operators float entry": (
        lambda: killing_operators([1.5, 2]),
        OperatorError, "not a polynomial entry: 1.5"),
    "power negative": (
        lambda: I3.power(-1),
        OperatorError, "operator powers must be non-negative"),
    "evaluate_table_array point width": (
        lambda: evaluate_table_array(ExactPolynomial.variable(2, 0),
                                     [1.0, 2.0, 3.0]),
        PolynomialError, "point has 3 coordinates, expected 2"),
    "ExactPolynomial negative variable count": (
        lambda: ExactPolynomial(-1),
        PolynomialError, "variable count must be non-negative"),
    "variable index": (
        lambda: ExactPolynomial.variable(2, 2),
        PolynomialError, "variable index 2 out of range for 2 variables"),
    "constant_value not constant": (
        lambda: U1.constant_value(),
        PolynomialError, "polynomial is not constant"),
    "power negative exponent": (
        lambda: U1 ** -1,
        PolynomialError, "polynomial powers must be non-negative integers"),
    "with_appended_vars negative": (
        lambda: U1.with_appended_vars(-1),
        PolynomialError, "cannot append a negative number of variables"),
    "evaluate_exact point width": (
        lambda: U1.evaluate_exact([1]),
        PolynomialError, "point has 1 coordinates, expected 2"),
    "format_polynomial names": (
        lambda: format_polynomial(U1, ["a"]),
        PolynomialError, "one name per variable is required"),
    "PhaseFunction variable count": (
        lambda: PhaseFunction(2, ExactPolynomial.variable(3, 0)),
        MetricError, "phase polynomial must have 4 variables, got 3"),
    "OperatorField entry type": (
        lambda: OperatorField([["x"]]),
        OperatorError, "not a polynomial entry: 'x'"),
    "polynomial + str": (
        lambda: U1 + "x", TypeError,
        "unsupported operand type(s) for +: 'ExactPolynomial' and 'str'"),
    "polynomial * float": (
        lambda: U1 * 1.5, TypeError,
        "unsupported operand type(s) for *: 'ExactPolynomial' and 'float'"),
    "phase function * float": (
        lambda: F1 * 1.5, TypeError,
        "unsupported operand type(s) for *: 'PhaseFunction' and 'float'"),
    "operator * float": (
        lambda: I3 * 1.5, TypeError,
        "unsupported operand type(s) for *: 'OperatorField' and 'float'"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(),
                         ids=REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_compat_error_is_a_metric_error():
    # so cli.main, which catches MetricError, exits 2 on it
    assert issubclass(CompatError, MetricError)


# statements that no other test runs and that refuse nothing: the reflected
# subtraction, the reprs, the shared 0 of a zero polynomial's power, and the
# NotImplemented branches, which Python turns into False for == (and into
# the TypeError rows of REFUSALS for an arithmetic operator)
VALUES = {
    "rsub": (lambda: str(1 - U1), "-x1 + 1"),
    "polynomial repr": (lambda: repr(U1), "ExactPolynomial(2, x1)"),
    "phase function repr": (lambda: repr(F1), "PhaseFunction(1, u1)"),
    "zero power is the shared 0": (
        lambda: ExactPolynomial.zero(2) ** 2 is ExactPolynomial.zero(2), True),
    "polynomial == str": (lambda: U1 == "x", False),
    "phase function == int": (lambda: F1 == 3, False),
    "operator == int": (lambda: I3 == 3, False),
}


@pytest.mark.parametrize("call, value", VALUES.values(), ids=VALUES)
def test_quiet_statement(call, value):
    assert call() == value
