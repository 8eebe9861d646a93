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

    F_i = 1/2 h1^(ab) (A_i)^s_a p_s p_b,      F_0 = 1/2 h1,

which Poisson-commute pairwise whenever the companion operator is
torsion-free.
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
)
from .operators import OperatorField, char_coefficients, companion_second


def killing_operators(source: Union[OperatorField, Sequence[ExactPolynomial]]
                      ) -> list[OperatorField]:
    """The operators A_0, ..., A_(n-1) of the adjugate recursion.

    ``source`` is either an operator field, whose characteristic
    coefficients are computed on the fly, or a coefficient list, which is
    interpreted through its second companion operator.
    """
    if isinstance(source, OperatorField):
        L = source
        sigma = char_coefficients(L)
    else:
        sigma = list(source)
        L = companion_second(sigma)
    n = L.n
    ident = OperatorField.identity(n)
    family = [ident]
    for i in range(1, n):
        family.append(L @ family[-1] - ident * sigma[i - 1])
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
    """Quadratic integrals F_i = 1/2 h1^(ab) (A_i)^s_a p_s p_b."""
    n = h1.n
    if any(A.n != n for A in family):
        raise MetricError("hierarchy and metric sizes differ")
    nv = 2 * n
    momenta = [ExactPolynomial.variable(nv, n + k) for k in range(n)]
    out = []
    for A in family:
        acc = ExactPolynomial.zero(nv)
        for s in range(n):
            for b in range(n):
                w = ExactPolynomial.zero(n)
                for a in range(n):
                    w = w + h1.entry(a, b) * A.entry(s, a)
                if w.is_zero():
                    continue
                acc = acc + w.with_appended_vars(n) * momenta[s] * momenta[b]
        out.append(PhaseFunction(n, acc * Fraction(1, 2), 2))
    return out


def verify_commuting_integrals(
        integrals: Sequence[PhaseFunction]) -> PoissonPairReport:
    """Pairwise Poisson brackets of the integrals; exact."""
    from .metric import pairwise_poisson
    return pairwise_poisson(integrals)
