"""Geodesic compatibility of the companion metric.

A metric g and an operator field L are geodesically compatible when L maps
g-geodesics to curves that are geodesics up to reparametrization, in two
forms:

* bracket form (symbolic): ``benenti_residual(model)``, read from the model,
  is {H, F} - 2 H {H, tr L} with H = F_0 = h_1/2 and F = h_2 + sigma_1 h_1,
  the quadratic form of h1 L^T: an exact polynomial that vanishes exactly
  when the pair is compatible.  By the Leibniz rule it is 1/2 {h_1, h_2},
  which is how ``verify`` reads it; this function is the tests' oracle;
* coordinate form (pointwise): the first-order system R_ijk = 0 coupling g,
  its first derivatives, dL and d(tr L), evaluated in floating point at a
  point or at each point of a stack, giving the largest |R_ijk| per point.

The test suite cross-checks both against the invariant Lie form on vector
fields and against the metric-self-adjointness of L (``tests/support.py``).

The module also implements the symmetry transform g -> gM, which carries a
compatible metric to another compatible metric whenever M is a symmetry of L
that is g-self-adjoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .exactpoly import evaluate_table_array
from .metric import (
    SINGULAR_TOL,
    CovariantMetricAt,
    PhaseFunction,
    poisson_bracket,
)
from .operators import OperatorField, is_symmetry

if TYPE_CHECKING:
    from .model import CompanionModel


class CompatError(ValueError):
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
