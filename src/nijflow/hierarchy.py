"""The Killing-operator hierarchy and its commuting first integrals.

For the companion operator L of sigma_1..sigma_n the hierarchy is defined
by the adjugate recursion, read from its index table,

    A_0 = Id,   A_i = L A_(i-1) - sigma_i Id,

which is pure linear algebra: the terminating identity

    (lambda^(n-1) A_0 + ... + A_(n-1)) (lambda Id - L)
        = (lambda^n - sigma_1 lambda^(n-1) - ... - sigma_n) Id

holds for every L (the tests check it coefficient by coefficient).
Combined with the contravariant metric h1 the hierarchy yields the
quadratic phase functions

    F_i = 1/2 h1^(ab) (A_i)^s_a p_s p_b = 1/2 h_(i+1),

which Poisson-commute pairwise whenever the companion operator is
torsion-free.  A_i h1 is the Gram matrix of h_(i+1) for every sigma, so
``CompanionModel`` takes the family halved; ``first_integrals`` forms the
products A_i h1 and is kept as the oracle the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exactpoly import ExactPolynomial
from .metric import (
    GramMatrix,
    MetricError,
    PhaseFunction,
    pairwise_poisson,
    quadratic_phase,
)
from .operators import OperatorField, companion_second


def killing_operators(sigma: Sequence[ExactPolynomial]) -> list[OperatorField]:
    """The operators A_0, ..., A_(n-1) of the adjugate recursion for the
    second companion operator of ``sigma``, read from their index table, of
    one -sigma_j per j (the tests keep the recursion as the oracle): from
    column i, row i < n - k of A_k is -sigma_k, ..., -sigma_1, 1; from column
    r, row n - k + r is sigma_n, ..., sigma_(k+1); every other entry is 0."""
    last = list(companion_second(sigma).entries[-1])  # sigma_n, ..., sigma_1
    n = len(last)
    zero = ExactPolynomial.constant(n, 0)
    band = [-s for s in last[1:]] + [ExactPolynomial.constant(n, 1)]
    return [OperatorField(  # band[n-1-k:] is -sigma_k, ..., -sigma_1, 1
        [[zero] * i + band[n - 1 - k:] + [zero] * (n - k - 1 - i)
         for i in range(n - k)]
        + [[zero] * r + last[:n - k] + [zero] * (k - r) for r in range(k)])
        for k in range(n)]


def first_integrals(h1: GramMatrix,
                    family: Sequence[OperatorField]) -> list[PhaseFunction]:
    """Quadratic integrals F_i = 1/2 h1^(ab) (A_i)^s_a p_s p_b: the lift of
    the matrix product A_i h1 to the momenta."""
    n = h1.n
    if any(A.n != n for A in family):
        raise MetricError("hierarchy and metric sizes differ")
    return [quadratic_phase((A @ h1).entries) * Fraction(1, 2) for A in family]


def verify_commuting_integrals(integrals: Sequence[PhaseFunction]
                               ) -> tuple[tuple[int, int, PhaseFunction], ...]:
    """The exact Poisson bracket of each pair of the integrals, as
    ``pairwise_poisson`` gives them; all vanish when they commute."""
    return pairwise_poisson(integrals)
