"""One-stop bundle for a companion-form problem.

The characteristic coefficients sigma are the bundle's one field.  The
companion operator, the quadratic family h_i and its Gram matrix, the
Killing operators A_i and the integrals F_i = 1/2 h_(i+1) are derived from
it, exactly, each on its first read, so a command builds only what it uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exactpoly import (ExactPolynomial, PolynomialError, base_names,
                        parse_expression)
# first_integrals, gram_matrix: unused; bench/spans.py patches these names
from .metric import (GramMatrix, PhaseFunction, build_h_family,  # noqa: F401
                     first_integrals, gram_matrix, reduced_power_coefficients)
from .operators import OperatorField, companion_second, killing_operators

# Largest sigma ``from_expressions`` accepts, in terms times total degree
# summed over its entries: the curved torsion-free sigma of n = 7 has size
# 240.  The work of the exact layers also grows fast with n and with how far
# sigma is from weighted-homogeneous, which this size does not see.
MAX_SIGMA_SIZE = 256
# Most sigma entries ``from_expressions`` accepts: a constant entry has size
# 0, yet the exact layers' work grows fast with n
MAX_N = 16


@dataclass(frozen=True)
class CompanionModel:
    """A companion operator with its derived metric and hierarchy."""
    sigma: tuple[ExactPolynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))

    @property
    def n(self) -> int:
        return len(self.sigma)

    @cached_property
    def operator(self) -> OperatorField:
        return companion_second(self.sigma)

    @cached_property
    def _powers(self) -> list[list[ExactPolynomial]]:
        return reduced_power_coefficients(self.sigma, 2 * self.n - 2)

    @cached_property
    def family(self) -> tuple[PhaseFunction, ...]:
        return tuple(build_h_family(self.sigma, self._powers))

    @cached_property
    def gram(self) -> GramMatrix:  # h_1's, read as build_h_family reads it
        n, powers = self.n, self._powers  # one object per anti-diagonal
        return GramMatrix([[powers[i + j][n - 1] for j in range(n)]
                           for i in range(n)])

    @cached_property
    def killing(self) -> tuple[OperatorField, ...]:
        return tuple(killing_operators(self.sigma))

    @cached_property
    def integrals(self) -> tuple[PhaseFunction, ...]:
        return tuple(h * Fraction(1, 2) for h in self.family)

    @classmethod
    def from_expressions(cls, expressions: Sequence[str]) -> "CompanionModel":
        if len(expressions) > MAX_N:
            raise PolynomialError(f"sigma has {len(expressions)} entries, "
                                  f"more than the limit of {MAX_N}")
        names = base_names(len(expressions))
        sigma = [parse_expression(e, names) for e in expressions]
        size = sum(len(s) * s.total_degree() for s in sigma)
        if size > MAX_SIGMA_SIZE:
            raise PolynomialError(
                f"sigma has size {size} (terms times degree, summed over its "
                f"entries), more than the limit of {MAX_SIGMA_SIZE}")
        return cls(sigma)
