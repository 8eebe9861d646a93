"""Geodesic compatibility of the companion metric, in three equivalent forms.

A metric g and an operator field L are geodesically compatible when L maps
g-geodesics to curves that are geodesics up to reparametrization.  The module
checks this in three ways:

* bracket form (symbolic): the phase-space identity
  {H, F} = 2 H * d(tr L)/du^q  h1^(aq) p_a  with H = h1/2 and
  F^(kj) = h1^(ks) L^j_s, certified as an exact polynomial identity;
* coordinate form (pointwise): the first-order system R_ijk = 0 coupling g,
  its first derivatives and dL, evaluated numerically at sample points;
* Lie form (pointwise): the invariant relation on vector fields

    Lie_{L xi} g(eta, xi) - Lie_xi g(eta, L xi) - g(eta, [L xi, xi])
      + g([eta, L xi], xi) - g([eta, xi], L xi) = g(eta, xi) Lie_xi tr L,

  with the fields expanded exactly and the metric supplied numerically.

The module also implements the symmetry transform g -> gM, which carries a
compatible metric to another compatible metric whenever M is a symmetry of L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactpoly import ExactPolynomial, evaluate_table_array, signed_sum
from .metric import (
    CovariantMetricAt,
    GramMatrix,
    PhaseFunction,
    gram_matrix,
    poisson_bracket,
    quadratic_phase,
)
from .operators import (
    OperatorField,
    companion_second,
    is_symmetry,
    lie_bracket_fields,
)


class CompatError(ValueError):
    """Raised for invalid compatibility computations."""


@dataclass(frozen=True)
class CompatReport:
    """Outcome of one compatibility check.

    ``mode`` is "symbolic" or "pointwise".  For symbolic checks the residual
    polynomial is attached and the magnitude is its largest absolute
    coefficient; for pointwise checks the magnitude is the maximum absolute
    residual over the sampled points.
    """
    mode: str
    verdict: bool
    residual: float
    residual_polynomial: PhaseFunction | None = None

    @classmethod
    def symbolic(cls, residual: PhaseFunction) -> "CompatReport":
        return cls("symbolic", residual.is_zero(),
                   float(residual.poly.max_abs_coefficient()), residual)

    @classmethod
    def pointwise(cls, max_abs: float, tol: float) -> "CompatReport":
        return cls("pointwise", max_abs < tol, float(max_abs))


@dataclass(frozen=True)
class SelfAdjointReport:
    """Antisymmetry of h1 L^T, plus the closure h1 L^T = sigma_1 h1 + h2
    when the full family is available."""
    ok: bool
    antisymmetry: tuple[tuple[ExactPolynomial, ...], ...]
    closure: tuple[tuple[ExactPolynomial, ...], ...] | None


def _h1_LT(h1: GramMatrix, L: OperatorField):
    """The entries (h1 L^T)^(kj) = h1^(ks) L^j_s."""
    return (OperatorField(h1.entries) @ L.transpose()).entries


def self_adjoint_residual(h1: GramMatrix, L: OperatorField,
                          family: Sequence[PhaseFunction] | None = None
                          ) -> SelfAdjointReport:
    """L is h1-self-adjoint iff the matrix (h1 L^T)^(kj) is symmetric."""
    if h1.n != L.n:
        raise CompatError("metric and operator sizes differ")
    W = OperatorField(_h1_LT(h1, L))
    antisym = (W - W.transpose()).entries
    closure = None
    if family is not None:
        expected = OperatorField(h1.entries) * L.trace()
        if h1.n >= 2:
            expected = expected + OperatorField(gram_matrix(family[1]).entries)
        closure = (W - expected).entries
    ok = all(e.is_zero() for row in antisym for e in row)
    if closure is not None:
        ok = ok and all(e.is_zero() for row in closure for e in row)
    return SelfAdjointReport(ok, antisym, closure)


def benenti_residual(family: Sequence[PhaseFunction],
                     sigma: Sequence[ExactPolynomial]) -> PhaseFunction:
    """Exact bracket-form residual {H, F} - 2 H G with H = h1/2,
    F = (h1 L^T)^(kj) p_k p_j and G = d(tr L)/du^q h1^(aq) p_a."""
    n = len(sigma)
    if len(family) != n:
        raise CompatError("family length must match the coefficient list")
    L = companion_second(sigma)
    h1 = gram_matrix(family[0])
    nv = 2 * n
    F = quadratic_phase(_h1_LT(h1, L))
    H = family[0] * Fraction(1, 2)
    dtr = [L.trace().partial(q) for q in range(n)]
    G = PhaseFunction(n, signed_sum(nv, [
        (1, ExactPolynomial.variable(nv, n + a),
         signed_sum(n, [(1, dtr[q], h1.entry(a, q)) for q in range(n)])
         .with_appended_vars(n))
        for a in range(n)]), 1)
    return poisson_bracket(H, F) - 2 * (H * G)


def coordinate_form_residual_at(g_at: CovariantMetricAt, L: OperatorField,
                                point: Sequence[float] | None = None
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
    # shaped from g, as an empty stack's point () has lost its (0, n)
    points = np.reshape(np.asarray(g_at.point, dtype=float), g.shape[:-1])
    if point is not None and not np.array_equal(
            np.asarray(point, dtype=float), points):
        raise CompatError("point differs from the one the metric was built at")
    dgT = np.swapaxes(dg, -3, -2)  # [..., i, k, a] = d g_ia / d u^k
    Lv = L.evaluate_at(points)
    dL = evaluate_table_array([[[L.entry(a, b).partial(i) for b in range(n)]
                                for a in range(n)] for i in range(n)], points)
    dtr = evaluate_table_array([L.trace().partial(j) for j in range(n)],
                               points)
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
    # fmax from 0.0 is the loop's max() chain: a nan residual is passed over
    worst = np.fmax.reduce(
        np.abs(lhs, out=lhs).reshape(g.shape[:-2] + (n**3,)), axis=-1,
        initial=0.0)
    return float(worst) if worst.ndim == 0 else worst


def _field_jacobian(fields, point, n):
    return evaluate_table_array([[f.partial(a) for a in range(n)]
                                 for f in fields], point)  # [i, a] = d_a f^i


def lie_form_residual_at(g_at: CovariantMetricAt, L: OperatorField,
                         xi: Sequence[ExactPolynomial],
                         eta: Sequence[ExactPolynomial]) -> float:
    """Absolute residual of the invariant compatibility relation on the two
    polynomial vector fields at the point of ``g_at``; brackets and field
    derivatives are expanded exactly, the metric enters through ``g_at``."""
    n = L.n
    if g_at.g.ndim != 2:
        raise CompatError("the metric must be taken at a single point")
    if len(xi) != n or len(eta) != n:
        raise CompatError("vector fields must have one component per coordinate")
    point = g_at.point
    g = g_at.g
    dg = g_at.dg
    Lxi = L.apply_to_field(xi)
    b_Lxi_xi = lie_bracket_fields(Lxi, xi)
    b_eta_Lxi = lie_bracket_fields(eta, Lxi)
    b_eta_xi = lie_bracket_fields(eta, xi)

    xi_v = evaluate_table_array(xi, point)
    eta_v = evaluate_table_array(eta, point)
    Lxi_v = evaluate_table_array(Lxi, point)
    dxi = _field_jacobian(xi, point, n)
    deta = _field_jacobian(eta, point, n)
    dLxi = _field_jacobian(Lxi, point, n)

    def lie_of_pairing(Z_v, A_v, dA, B_v, dB):
        # directional derivative of g(A, B) along Z
        total = 0.0
        for a in range(n):
            term = (A_v @ dg[a] @ B_v
                    + dA[:, a] @ g @ B_v
                    + A_v @ g @ dB[:, a])
            total += Z_v[a] * term
        return total

    t1 = lie_of_pairing(Lxi_v, eta_v, deta, xi_v, dxi)
    t2 = lie_of_pairing(xi_v, eta_v, deta, Lxi_v, dLxi)
    t3 = eta_v @ g @ evaluate_table_array(b_Lxi_xi, point)
    t4 = evaluate_table_array(b_eta_Lxi, point) @ g @ xi_v
    t5 = evaluate_table_array(b_eta_xi, point) @ g @ Lxi_v
    trace = L.trace()
    lie_tr = sum(xi_v[a] * trace.partial(a).evaluate(point) for a in range(n))
    rhs = (eta_v @ g @ xi_v) * lie_tr
    return float(abs(t1 - t2 - t3 + t4 - t5 - rhs))


def symmetry_metric(g_at: CovariantMetricAt, M: OperatorField,
                    check_against: OperatorField | None = None,
                    self_adjoint_tol: float = 1e-9,
                    singular_tol: float = 1e-12) -> CovariantMetricAt:
    """The transformed covariant metric g~ = gM at a point, with its
    derivative tensor assembled by the product rule (exact dM, numeric dg).

    When ``check_against`` is an operator field, M is first certified as a
    symmetry of it symbolically.  M must be g-self-adjoint at the point, i.e.
    gM symmetric there, and g~ must be invertible.
    """
    n = M.n
    if g_at.g.ndim != 2:
        raise CompatError("the metric must be taken at a single point")
    if g_at.n != n:
        raise CompatError("metric and operator sizes differ")
    if check_against is not None and not is_symmetry(check_against, M).ok:
        raise CompatError("M is not a symmetry of the given operator")
    point = g_at.point
    Mv = M.evaluate_at(point)
    gt = g_at.g @ Mv
    if np.abs(gt - gt.T).max() > self_adjoint_tol:
        raise CompatError("M is not metric-self-adjoint at the point")
    if abs(np.linalg.det(gt)) < singular_tol:
        raise CompatError("transformed metric is singular at the point")
    dM = evaluate_table_array([[[M.entry(a, b).partial(i) for b in range(n)]
                                for a in range(n)] for i in range(n)], point)
    dgt = np.array([g_at.dg[a] @ Mv + g_at.g @ dM[a] for a in range(n)])
    # symmetrize away inversion round-off so downstream checks see an exactly
    # symmetric metric value
    gt = 0.5 * (gt + gt.T)
    return CovariantMetricAt(point, gt, dgt)
