"""The Killing-operator hierarchy and its commuting first integrals.

For an operator field L with characteristic coefficients sigma_1..sigma_n
the hierarchy is built by the adjugate recursion

    A_0 = Id,   A_i = L A_(i-1) - sigma_i Id,

which is pure linear algebra: the terminating identity

    (lambda^(n-1) A_0 + ... + A_(n-1)) (lambda Id - L)
        = (lambda^n - sigma_1 lambda^(n-1) - ... - sigma_n) Id

holds for every L and is certified coefficient by coefficient.  Combined
with the contravariant metric h1 the hierarchy yields the quadratic phase
functions

    F_i = 1/2 h1^(ab) (A_i)^s_a p_s p_b = 1/2 h_(i+1),

which Poisson-commute pairwise whenever the companion operator is
torsion-free.  A_i h1 is the Gram matrix of h_(i+1) for every sigma, so
``CompanionModel`` takes the family halved; ``first_integrals`` forms the
products A_i h1 and is kept as the oracle the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .exactpoly import ExactPolynomial
from .metric import (
    GramMatrix,
    MetricError,
    PhaseFunction,
    PoissonPairReport,
    pairwise_poisson,
    quadratic_phase,
)
from .operators import OperatorField, char_coefficients, companion_second


def killing_operators(source: Union[OperatorField, Sequence[ExactPolynomial]]
                      ) -> list[OperatorField]:
    """The operators A_0, ..., A_(n-1) of the adjugate recursion.

    ``source`` is either an operator field, whose characteristic
    coefficients come from ``char_coefficients``, or a coefficient list,
    which is interpreted through its second companion operator.
    """
    if isinstance(source, OperatorField):
        L, sigma = source, char_coefficients(source)
    else:
        sigma = list(source)
        L = companion_second(sigma)
    ident = OperatorField.identity(L.n)
    family = [ident]
    for s in sigma[:L.n - 1]:
        family.append(L @ family[-1] - ident * s)
    return family


def generating_identity_residuals(L: OperatorField,
                                  family: Sequence[OperatorField]
                                  ) -> list[OperatorField]:
    """Coefficients, by powers of the spectral parameter, of

        (sum_i lambda^(n-1-i) A_i)(lambda Id - L) - chi(lambda) Id,

    with chi(lambda) = lambda^n - sigma_1 lambda^(n-1) - ... - sigma_n.
    All n+1 returned matrices vanish when the family comes from the
    recursion, regardless of any torsion condition."""
    n = L.n
    if len(family) != n:
        raise ValueError("the hierarchy must contain exactly n operators")
    sigma = char_coefficients(L)
    ident = OperatorField.identity(n)
    residuals = [family[0] - ident]
    for k in range(1, n):
        residuals.append(family[k] - family[k - 1] @ L + ident * sigma[k - 1])
    residuals.append(ident * sigma[n - 1] - family[n - 1] @ L)
    return residuals


def first_integrals(h1: GramMatrix,
                    family: Sequence[OperatorField]) -> list[PhaseFunction]:
    """Quadratic integrals F_i = 1/2 h1^(ab) (A_i)^s_a p_s p_b: the lift of
    the matrix product A_i h1 to the momenta."""
    n = h1.n
    if any(A.n != n for A in family):
        raise MetricError("hierarchy and metric sizes differ")
    H = OperatorField(h1.entries)
    return [quadratic_phase((A @ H).entries) * Fraction(1, 2) for A in family]


def verify_commuting_integrals(
        integrals: Sequence[PhaseFunction]) -> PoissonPairReport:
    """Pairwise Poisson brackets of the integrals; exact."""
    return pairwise_poisson(integrals)
