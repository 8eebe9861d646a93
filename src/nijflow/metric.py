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

A metric g and an operator field L are geodesically compatible when L maps
g-geodesics to curves that are geodesics up to reparametrization, in two
forms:

* bracket form (symbolic): ``benenti_residual(model)``, read from the model,
  is {H, F} - 2 H {H, tr L} with H = F_0 = h_1/2 and F = h_2 + sigma_1 h_1,
  the quadratic form of h1 L^T: an exact polynomial that vanishes exactly
  when the pair is compatible.  By the Leibniz rule it is 1/2 {h_1, h_2},
  which is how ``verify`` reads it, and ``benenti_residual`` is the tests'
  oracle for that reading;
* coordinate form (pointwise): the first-order system R_ijk = 0 coupling g,
  its first derivatives, dL and d(tr L), evaluated in floating point at a
  point or at each point of a stack, giving the largest |R_ijk| per point.

The test suite cross-checks both against the invariant Lie form on vector
fields and against the metric-self-adjointness of L (``tests/support.py``).

``symmetry_metric`` implements the symmetry transform g -> gM, which carries
a compatible metric to another compatible metric whenever M is a symmetry of
L that is g-self-adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .exactpoly import (ExactPolynomial, evaluate_table_array,
                        format_polynomial, phase_names, signed_sum,
                        split_suffixes, suffixed_sum)
from .operators import OperatorField, is_symmetry

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


class CompatError(MetricError):
    """Raised for invalid compatibility computations."""


def benenti_residual(model: "CompanionModel") -> PhaseFunction:
    """Exact bracket-form residual {H, F} - 2 H {H, tr L}, read from the
    model: H = F_0 = h_1/2, tr L = sigma_1, and F = h_2 + sigma_1 h_1, the
    quadratic form of h1 L^T (for n = 1, sigma_1 h_1)."""
    n, h = model.n, model.family
    trace = PhaseFunction(n, model.sigma[0].with_appended_vars(n))
    # L h1 = (h1 L^T)^T has the quadratic form of h1 L^T, and
    # A_1 h1 = L h1 - sigma_1 h1 is the Gram matrix of h_2 (first_integrals)
    F = h[0].poly * trace.poly
    if n > 1:
        F = F + h[1].poly
    H = model.integrals[0]
    # {H, tr L} = h1^(aq) d(tr L)/du^q p_a
    return PhaseFunction(n, poisson_bracket(H, PhaseFunction(n, F)).poly
                         - 2 * (H.poly * poisson_bracket(H, trace).poly))


def coordinate_form_residual_at(g_at: CovariantMetricAt, L: OperatorField
                                ) -> float | np.ndarray:
    """Max-abs residual of the first-order compatibility system

        R_ijk = [g_ka d_i L^a_j + (d_a g_ik - d_k g_ia) L^a_j + (j <-> k)]
                - [g_ik d_j tr L + (j <-> k)]

    at the point of ``g_at`` (a float), or at each point of its stack (an
    array over the stack's axes)."""
    n = L.n
    if g_at.n != n:
        raise CompatError("metric and operator sizes differ")
    g, dg = g_at.g, g_at.dg  # dg[..., a, i, j] = d g_ij / d u^a
    points = g_at.point
    dgT = np.swapaxes(dg, -3, -2)  # [..., i, k, a] = d g_ia / d u^k
    Lv = L.evaluate_at(points)
    # a companion L's constant entries are exactpoly's shared 0 and 1, whose
    # partials are cached, so this forms n^2 partials, of the last row only
    dL = evaluate_table_array([L.derivative(i) for i in range(n)], points)
    dtr = evaluate_table_array(list(map(L.trace().partial, range(n))), points)
    # on axes (..., i, j, k), dL[..., i, a, b] = d_i L^a_b: each product and
    # sum is one point's scalar loop's in its order (t1, t2 add up from zero
    # over a; no einsum or sum()), summed in place to keep temporaries few
    t1, t2 = np.zeros((2,) + g.shape[:-2] + (n, n, n))
    for a in range(n):
        t1 += g[..., None, None, :, a] * dL[..., :, a, :, None]
        t2 += ((dg[..., a, :, None, :] - dgT[..., :, None, :, a])
               * Lv[..., None, a, :, None])
    half = np.add(t1, t2, out=t1)
    lhs = half + np.swapaxes(half, -1, -2)
    lhs -= (g[..., :, None, :] * dtr[..., None, :, None]
            + g[..., :, :, None] * dtr[..., None, None, :])
    # max propagates nan, so a point whose values left the float range fails
    worst = np.abs(lhs, out=lhs).reshape(g.shape[:-2] + (n**3,)).max(axis=-1)
    return float(worst) if worst.ndim == 0 else worst


# the largest asymmetry of gM at which M still counts as g-self-adjoint
SELF_ADJOINT_TOL = 1e-9


def symmetry_metric(g_at: CovariantMetricAt, M: OperatorField,
                    check_against: OperatorField | None = None
                    ) -> CovariantMetricAt:
    """The transformed covariant metric g~ = gM at a point, with its
    derivative tensor assembled by the product rule (exact dM, numeric dg).

    When ``check_against`` is an operator field, M is first certified as a
    symmetry of it symbolically.  M must be g-self-adjoint at the point, i.e.
    gM symmetric there to within ``SELF_ADJOINT_TOL``, and g~ must be
    invertible (|det| at least ``SINGULAR_TOL``).
    """
    n = M.n
    if g_at.g.ndim != 2:
        raise CompatError("the metric must be taken at a single point")
    if g_at.n != n:
        raise CompatError("metric and operator sizes differ")
    if check_against is not None and not is_symmetry(check_against, M):
        raise CompatError("M is not a symmetry of the given operator")
    point = g_at.point
    Mv = M.evaluate_at(point)
    gt = g_at.g @ Mv
    if np.abs(gt - gt.T).max() > SELF_ADJOINT_TOL:
        raise CompatError("M is not metric-self-adjoint at the point")
    if abs(np.linalg.det(gt)) < SINGULAR_TOL:
        raise CompatError("transformed metric is singular at the point")
    dM = evaluate_table_array([M.derivative(i) for i in range(n)], point)
    dgt = np.array([g_at.dg[a] @ Mv + g_at.g @ dM[a] for a in range(n)])
    # symmetrize away inversion round-off so downstream checks see an exactly
    # symmetric metric value
    gt = 0.5 * (gt + gt.T)
    return CovariantMetricAt(point, gt, dgt)
