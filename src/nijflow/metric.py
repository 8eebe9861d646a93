"""The quadratic integral family and contravariant metric of a companion
operator field.

Phase-space functions live on the cotangent chart with variable ordering
(u^1, ..., u^n, p_1, ..., p_n).  For an operator L in second companion form
with characteristic coefficients sigma, the family h_1, ..., h_n is read off
the square of the momentum pencil

    S = p_n L^(n-1) + p_(n-1) L^(n-2) + ... + p_1 Id,

namely h_i = (S^2)[first row, column n+1-i].  Each h_i is a quadratic form in
p whose Gram matrix has polynomial entries in u; the Gram matrix of h_1 is
the contravariant metric of the construction.

``build_h_family`` reads the Gram entries off the powers of L expanded in
the basis Id, L, ..., L^(n-1); the tests compare it to the square of the
pencil itself (first row only).  ``first_integrals`` lifts A_i h1, for the
Killing operators A_i, to F_i = 1/2 h_(i+1), the family halved.

The canonical Poisson bracket used throughout is

    {f, g} = sum_k df/dp_k dg/du^k - df/du^k dg/dp_k,

so {p_i, u^j} = delta_i^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .exactpoly import (ExactPolynomial, evaluate_table_array,
                        format_polynomial, phase_names, signed_sum,
                        split_suffixes, suffixed_sum)
from .operators import OperatorField

if TYPE_CHECKING:
    from .model import CompanionModel


class MetricError(ValueError):
    """Raised for invalid metric computations."""


class PhaseFunction:
    """Polynomial on the cotangent chart.

    ``poly`` has 2n variables ordered (u, p).  The integrals of the
    construction are quadratic in p by how they are built; ``gram_matrix``
    checks that where it reads their terms.  ``_flows`` is set on first use
    by ``flows.polynomial_flow`` to the Lie series of its flow, or to None
    when that series does not end by order 2n.
    """

    __slots__ = ("n", "poly", "_flows")

    def __init__(self, n: int, poly: ExactPolynomial):
        if poly.nvars != 2 * n:
            raise MetricError(
                f"phase polynomial must have {2 * n} variables, got {poly.nvars}")
        self.n = n
        self.poly = poly

    @classmethod
    def zero(cls, n: int) -> "PhaseFunction":
        return cls(n, ExactPolynomial.zero(2 * n))

    def du(self, i: int) -> ExactPolynomial:
        """Partial derivative in u^i (0-based), as a raw 2n-variable polynomial."""
        return self.poly.partial(i)

    def dp(self, i: int) -> ExactPolynomial:
        """Partial derivative in p_i (0-based)."""
        return self.poly.partial(self.n + i)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def evaluate(self, u: Sequence[float], p: Sequence[float]) -> float:
        return self.poly.evaluate(list(u) + list(p))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseFunction):
            return NotImplemented
        return self.n == other.n and self.poly == other.poly

    def __mul__(self, scalar) -> "PhaseFunction":
        if isinstance(scalar, (int, Fraction)):
            return PhaseFunction(self.n, self.poly * scalar)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_polynomial(self.poly, phase_names(self.n))

    def __repr__(self) -> str:
        return f"PhaseFunction({self.n}, {self!s})"


def poisson_bracket(f: PhaseFunction, g: PhaseFunction) -> PhaseFunction:
    """{f, g} = sum_k df/dp_k dg/du^k - df/du^k dg/dp_k."""
    n = f.n
    if g.n != n:
        raise MetricError("phase functions live on different charts")
    return PhaseFunction(n, signed_sum(2 * n, [
        part for k in range(n)
        for part in ((1, f.dp(k), g.du(k)), (-1, f.du(k), g.dp(k)))]))


def quadratic_phase(matrix: Sequence[Sequence[ExactPolynomial]]) -> PhaseFunction:
    """The phase function sum_ab M_ab p_a p_b of an n-by-n matrix of base
    polynomials, symmetric or not.

    Each entry M_ab is lifted to the chart times the monomial p_a p_b;
    the terms of (a, b) and (b, a) meet there, and those that cancel are
    dropped.
    """
    n = len(matrix)
    parts = []
    for a, row in enumerate(matrix):
        for b, entry in enumerate(row):
            p_exps = [0] * n
            p_exps[a] += 1
            p_exps[b] += 1
            parts.append((entry, tuple(p_exps)))
    return PhaseFunction(n, suffixed_sum(2 * n, parts))


class GramMatrix(OperatorField):
    """Symmetric operator field: the coefficients of a quadratic form in the
    momenta, h = sum_ab G^ab p_a p_b.  A product with another operator field
    is a plain ``OperatorField``."""

    __slots__ = ()

    def __init__(self, entries: Sequence[Sequence[ExactPolynomial]]):
        super().__init__(entries)
        rows = self.entries
        if any(rows[i][j] != rows[j][i] for i in range(self.n) for j in range(i)):
            raise MetricError("Gram matrix must be symmetric")

    def determinant(self) -> ExactPolynomial:
        """Exact determinant by cofactor expansion."""
        return _det(self.entries)


def _det(rows) -> ExactPolynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return signed_sum(rows[0][0].nvars, [
        (-1 if j % 2 else 1, rows[0][j],
         _det([[row[k] for k in range(n) if k != j] for row in rows[1:]]))
        for j in range(n) if not rows[0][j].is_zero()])


def reduced_power_coefficients(sigma: Sequence[ExactPolynomial],
                               max_power: int) -> list[list[ExactPolynomial]]:
    """Coefficients of L^k, k = 0..max_power, in the basis Id, L, ...,
    L^(n-1), using the characteristic relation
    L^n = sigma_1 L^(n-1) + ... + sigma_n Id."""
    n = len(sigma)
    one = ExactPolynomial.constant(n, 1)
    coeffs = [[one] + [ExactPolynomial.zero(n)] * (n - 1)]
    for _ in range(max_power):
        prev = coeffs[-1]
        top = prev[n - 1]
        nxt = [top * sigma[n - 1]]
        for m in range(1, n):
            nxt.append(signed_sum(n, [(1, prev[m - 1], one),
                                      (1, top, sigma[n - 1 - m])]))
        coeffs.append(nxt)
    return coeffs


def build_h_family(sigma: Sequence[ExactPolynomial],
                   powers=None) -> list[PhaseFunction]:
    """The family h_1, ..., h_n: the Gram entry of h_m at (i, j) is the
    coefficient of L^(n-m) in the expansion of L^(i+j-2), read off
    ``powers = reduced_power_coefficients(sigma, 2n - 2)`` (formed if None).

    Returns quadratic phase functions; the Gram matrix of h_1 is the
    contravariant metric.
    """
    n = len(sigma)
    powers = powers or reduced_power_coefficients(sigma, 2 * n - 2)
    return [quadratic_phase([[powers[i + j][n - m] for j in range(n)]
                             for i in range(n)])
            for m in range(1, n + 1)]


def gram_matrix(h: PhaseFunction) -> GramMatrix:
    """Extract the symmetric coefficient matrix of a momentum-quadratic
    phase function; a term of any other degree in p is refused."""
    n = h.n
    rows = [[0] * n for _ in range(n)]
    for p_exps, coeff in split_suffixes(h.poly, n).items():
        if sum(p_exps) != 2:
            raise MetricError(
                "Gram extraction requires a momentum-quadratic function")
        # the momentum indices of the term, with multiplicity
        a, b = [k for k, e in enumerate(p_exps) for _ in range(e)]
        if a == b:
            rows[a][a] = coeff
        else:
            rows[a][b] = rows[b][a] = coeff * Fraction(1, 2)
    return GramMatrix(rows)


def first_integrals(h1: GramMatrix,
                    family: Sequence[OperatorField]) -> list[PhaseFunction]:
    """Quadratic integrals F_i = 1/2 h1^(ab) (A_i)^s_a p_s p_b: the lift of
    the matrix product A_i h1 to the momenta."""
    n = h1.n
    if any(A.n != n for A in family):
        raise MetricError("hierarchy and metric sizes differ")
    return [quadratic_phase((A @ h1).entries) * Fraction(1, 2) for A in family]


def check_gram_normal_form(gram: GramMatrix) -> tuple[str, ...]:
    """The ways ``gram`` leaves the normal form of a companion metric, none
    when it is there: unit anti-triangular, that is zero above the
    anti-diagonal, ones on it, and determinant +1 or -1."""
    n = gram.n
    failures = []
    one = ExactPolynomial.constant(n, 1)
    for i in range(n):
        for j in range(n):
            e = gram.entry(i, j)
            if i + j < n - 1 and not e.is_zero():
                failures.append(f"entry ({i + 1},{j + 1}) should vanish")
            if i + j == n - 1 and e != one:
                failures.append(f"entry ({i + 1},{j + 1}) should be one")
    det = gram.determinant() if failures else one  # else (-1)^(n(n-1)/2)
    if det != one and det != ExactPolynomial.constant(n, -1):
        failures.append("determinant is not a unit")
    return tuple(failures)


def differential_shift_residuals(model: "CompanionModel"
                                 ) -> tuple[tuple[ExactPolynomial, ...], ...]:
    """Exact residuals, row i and column j, of the u-part of the shift
    identities dh_i o L = sigma_i dh_1 + dh_(i+1) (i = 1..n, h_(n+1) = 0),
    sum_s dh_i/du^s L^s_j - sigma_i dh_1/du^j - dh_(i+1)/du^j; all vanish
    in the torsion-free companion case.  The p-part is not formed: it is
    L G_i = sigma_i G_1 + G_(i+1) for the Gram matrices, whose entry (j, b)
    is c(j+b, n-i), the coefficient of L^(n-i) in L^(j+b), and holds for
    every sigma.  For j < n-1, row j of L is e_(j+1), so entry (j, b) of
    L G_i is c(j+1+b, n-i) = c(j+b, n-i-1) + sigma_i c(j+b, n-1): the step
    L^(t+1) = L L^t of ``reduced_power_coefficients``.  Row n-1 of L is
    (sigma_n, ..., sigma_1), so entry (n-1, b) is the sum over m of
    sigma_m c(n-m+b, n-i), which is c(n+b, n-i) by Cayley-Hamilton,
    L^(n+b) = sum_m sigma_m L^(n-m+b)."""
    n, family = model.n, model.family
    L = model.operator.phase_entries()
    sig = [s.with_appended_vars(n) for s in model.sigma]
    one = ExactPolynomial.constant(2 * n, 1)
    # du[i][s] = dh_(i+1)/du^s, each read once; h_(n+1) = 0
    du = [[*map(h.du, range(n))] for h in family + (PhaseFunction.zero(n),)]
    return tuple(tuple(signed_sum(2 * n, [
        *((1, du[i][s], L[s][j]) for s in range(n)),
        (-1, sig[i], du[0][j]), (-1, du[i + 1][j], one)]) for j in range(n))
        for i in range(n))


def pairwise_poisson(family: Sequence[PhaseFunction]
                     ) -> tuple[tuple[int, int, PhaseFunction], ...]:
    """The bracket {f_i, f_j} of each pair i < j of the family, as
    ``(i, j, bracket)`` with 1-based i and j; all vanish for an involutive
    family."""
    return tuple((i + 1, j + 1, poisson_bracket(family[i], family[j]))
                 for i in range(len(family))
                 for j in range(i + 1, len(family)))


@dataclass(frozen=True)
class CovariantMetricAt:
    """The covariant metric and its first derivatives at a point, or at
    each point of a stack.

    ``g`` is the inverse of the Gram matrix value; ``dg[..., a, :, :]`` is
    the matrix of d g_ij / d u^a obtained from the inverse-derivative rule
    dg = -g (dG) g, where G is the contravariant Gram matrix."""
    point: np.ndarray  # shape (..., n), floats
    g: np.ndarray  # shape (..., n, n)
    dg: np.ndarray  # shape (..., n, n, n), the derivative direction first

    @property
    def n(self) -> int:
        return self.g.shape[-1]


class SingularMetricError(MetricError):
    """Singular metric at a point."""

    def __init__(self, point: Sequence[float]):
        super().__init__(
            f"contravariant metric is singular at {tuple(point)}")


# a metric value with |det| below this is singular
SINGULAR_TOL = 1e-12


def covariant_at(gram: GramMatrix, point: Sequence[float]) -> CovariantMetricAt:
    """Invert the contravariant metric at a point, or at each point of a
    stack (..., n), and push the derivative through the inversion.  Every
    value is bit-identical to the call on its point alone; the first point
    with |det G| < ``SINGULAR_TOL`` raises ``SingularMetricError``."""
    n = gram.n
    points = np.asarray(point, dtype=float)
    G = gram.evaluate_at(points)
    singular = np.flatnonzero(np.abs(np.linalg.det(G)) < SINGULAR_TOL)
    if len(singular):
        raise SingularMetricError(points.reshape(-1, n)[singular[0]].tolist())
    g = np.linalg.inv(G)
    dG = evaluate_table_array([gram.derivative(a) for a in range(n)], points)
    each = g[..., None, :, :]  # one copy of g for each direction a
    return CovariantMetricAt(points, g, -each @ dG @ each)
