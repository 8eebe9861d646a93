"""One-stop bundle for a companion-form problem.

Given the characteristic coefficients sigma the bundle derives everything
the rest of the package consumes: the companion operator, the quadratic
family h_i and its Gram matrix, the operator hierarchy and the phase-space
integrals F_i = 1/2 h_(i+1).  Construction is eager; all members are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactpoly import (ExactPolynomial, PolynomialError, base_names,
                        parse_expression)
# first_integrals is unused here; bench/spans.py patches it by this name
from .hierarchy import first_integrals, killing_operators  # noqa: F401
from .metric import GramMatrix, PhaseFunction, build_h_family, gram_matrix
from .operators import OperatorField, companion_second

# Largest sigma ``from_expressions`` accepts, in terms times total degree
# summed over its entries: the curved torsion-free sigma of n = 7 has size
# 240.  The work of the exact layers also grows fast with n and with how far
# sigma is from weighted-homogeneous, which this size does not see.
MAX_SIGMA_SIZE = 256


@dataclass(frozen=True)
class CompanionModel:
    """A companion operator with its derived metric and hierarchy."""
    sigma: tuple[ExactPolynomial, ...]
    operator: OperatorField
    family: tuple[PhaseFunction, ...]
    gram: GramMatrix
    killing: tuple[OperatorField, ...]
    integrals: tuple[PhaseFunction, ...]

    @property
    def n(self) -> int:
        return len(self.sigma)

    @classmethod
    def from_sigma(cls, sigma: Sequence[ExactPolynomial]) -> "CompanionModel":
        sigma = tuple(sigma)
        operator = companion_second(sigma)
        family = tuple(build_h_family(sigma))
        gram = gram_matrix(family[0])
        killing = tuple(killing_operators(sigma))
        integrals = tuple(h * Fraction(1, 2) for h in family)
        return cls(sigma, operator, family, gram, killing, integrals)

    @classmethod
    def from_expressions(cls, expressions: Sequence[str]) -> "CompanionModel":
        n = len(expressions)
        names = base_names(n)
        sigma = [parse_expression(e, names) for e in expressions]
        size = sum(len(s) * s.total_degree() for s in sigma)
        if size > MAX_SIGMA_SIZE:
            raise PolynomialError(
                f"sigma has size {size} (terms times degree, summed over its "
                f"entries), more than the limit of {MAX_SIGMA_SIZE}")
        return cls.from_sigma(sigma)
