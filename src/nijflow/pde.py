"""Direct finite-difference solution of the quasilinear systems u_t = A(u) u_x.

The solver uses the method of lines on a shrinking spatial window: fourth
order central differences in x, the classical fourth-order Runge-Kutta
scheme in t.  No boundary condition is imposed; instead every derivative
evaluation gives up two nodes on each side, so one full time step costs
eight nodes per side and the computed solution lives on the interior cone
of the initial interval.  This keeps the comparison with the flow-composed
solution honest: every reported value is determined by the initial data
alone.

The module also measures discrete residuals of solution lattices (by
second-order differences, so the residual of an exact solution shrinks
quadratically with the lattice spacing) and compares lattices node by node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exactpoly import ExactPolynomial
from .flows import AxisSpec, SolutionGrid
from .operators import OperatorField


class PDEError(RuntimeError):
    """Direct solver failure: bad lattice, exhausted window, or blow-up."""


# ---------------------------------------------------------------------------
# vectorized polynomial evaluation


def evaluate_poly_array(poly: ExactPolynomial, U: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial at a batch of points from its float form.

    ``U`` has shape (..., nvars); the result drops the last axis.
    """
    out = np.zeros(U.shape[:-1])
    for coeff, powers in poly.float_form():
        v = np.full(U.shape[:-1], coeff)
        for i, e in powers:
            v = v * U[..., i] ** e
        out += v
    return out


def evaluate_operator_array(A: OperatorField, U: np.ndarray) -> np.ndarray:
    """Operator values at a batch of points, shape (..., n, n)."""
    n = A.n
    out = np.empty(U.shape[:-1] + (n, n))
    for i in range(n):
        for j in range(n):
            out[..., i, j] = evaluate_poly_array(A.entry(i, j), U)
    return out


# ---------------------------------------------------------------------------
# the direct solver


def _check_uniform(x_values: np.ndarray) -> float:
    if x_values.ndim != 1 or len(x_values) < 2:
        raise PDEError("the spatial lattice needs at least two nodes")
    diffs = np.diff(x_values)
    dx = float(diffs[0])
    if dx <= 0:
        raise PDEError("spatial nodes must be strictly increasing")
    if np.abs(diffs - dx).max() > 1e-12 * max(1.0, abs(dx)):
        raise PDEError("spatial lattice must be uniform")
    return dx


def _interior_rhs(y: np.ndarray, A: OperatorField, dx: float) -> np.ndarray:
    """A(u) u_x on the two-node-shrunk interior of the segment ``y``."""
    ux = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dx)
    Aval = evaluate_operator_array(A, y[2:-2])
    return np.einsum("xij,xj->xi", Aval, ux)


def direct_solve(A: OperatorField, x_values: Sequence[float],
                 u0: np.ndarray, t_end: float, *, cfl: float = 0.4,
                 dt: float | None = None, axis_name: str = "t1",
                 min_width: int = 5) -> SolutionGrid:
    """March u_t = A(u) u_x forward from initial data on a uniform lattice.

    ``u0`` holds the initial values, shape (len(x_values), n).  The step is
    ``cfl`` times the lattice spacing unless ``dt`` overrides it; either way
    the step is rounded down so the steps tile [0, t_end] exactly.  Every
    time layer is recorded, trimmed to the final window (eight nodes per
    side per step).  The result carries no momenta (``p`` is None).
    """
    x_values = np.asarray(x_values, dtype=float)
    dx = _check_uniform(x_values)
    u0 = np.asarray(u0, dtype=float)
    n = A.n
    if u0.shape != (len(x_values), n):
        raise PDEError(f"initial data must have shape {(len(x_values), n)}, "
                       f"got {u0.shape}")
    if t_end <= 0:
        raise PDEError("t_end must be positive")
    if dt is None:
        if cfl <= 0:
            raise PDEError("cfl must be positive")
        dt = cfl * dx
    if dt <= 0:
        raise PDEError("dt must be positive")
    steps = max(1, math.ceil(t_end / dt - 1e-9))
    dt = t_end / steps
    m = len(x_values)
    width = m - 16 * steps
    if width < min_width:
        raise PDEError(
            f"window exhausted: {steps} steps strip {16 * steps} of {m} "
            f"nodes, leaving {width} < {min_width}; widen the initial "
            f"interval or refine the lattice")

    layers = [u0]
    y = u0
    # overflow is detected by the finiteness check, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            k1 = _interior_rhs(y, A, dx)
            y2 = y[2:-2] + 0.5 * dt * k1
            k2 = _interior_rhs(y2, A, dx)
            y3 = y[4:-4] + 0.5 * dt * k2
            k3 = _interior_rhs(y3, A, dx)
            y4 = y[6:-6] + dt * k3
            k4 = _interior_rhs(y4, A, dx)
            y = y[8:-8] + (dt / 6.0) * (k1[6:-6] + 2.0 * k2[4:-4]
                                        + 2.0 * k3[2:-2] + k4)
            if not np.isfinite(y).all():
                raise PDEError(f"solution became non-finite during step "
                               f"{step + 1} (t = {(step + 1) * dt:.6g})")
            layers.append(y)

    lo = 8 * steps
    u = np.empty((width, steps + 1, n))
    for j, layer in enumerate(layers):
        crop = lo - 8 * j
        u[:, j] = layer[crop:crop + width] if crop else layer
    x_axis = AxisSpec("x", float(x_values[lo]), float(x_values[lo + width - 1]),
                      width)
    t_axis = AxisSpec(axis_name, 0.0, float(t_end), steps + 1)
    meta = {"generator": "direct", "dx": dx, "dt": dt, "steps": steps}
    return SolutionGrid((x_axis, t_axis), u, None, meta)


# ---------------------------------------------------------------------------
# residuals and lattice comparison


@dataclass(frozen=True)
class ResidualReport:
    """Largest discrete residual of u_t = A(u) u_x per time axis."""
    per_axis: tuple[float, ...]

    @property
    def max_abs(self) -> float:
        return max(self.per_axis)


def _central(u: np.ndarray, axis: int, delta: float) -> np.ndarray:
    upper = [slice(None)] * u.ndim
    lower = [slice(None)] * u.ndim
    upper[axis] = slice(2, None)
    lower[axis] = slice(None, -2)
    return (u[tuple(upper)] - u[tuple(lower)]) / (2.0 * delta)


def grid_residual(grid: SolutionGrid,
                  operators: Sequence[OperatorField]) -> ResidualReport:
    """Second-order discrete residual of the systems u_{t_k} = A_k(u) u_x.

    ``operators[k-1]`` governs time axis ``grid.axes[k]``.  The residual of
    an exact solution is pure finite-difference error, O(spacing^2).
    """
    axes = grid.axes
    if len(operators) != len(axes) - 1:
        raise PDEError(f"need {len(axes) - 1} operators, got {len(operators)}")
    for a in axes:
        if a.count < 3:
            raise PDEError(f"axis {a.name!r} needs at least 3 nodes for "
                           "central differences")
    u = grid.u
    per_axis = []
    for k, A in enumerate(operators, start=1):
        ut = _central(u, k, axes[k].delta)
        ux = _central(u, 0, axes[0].delta)
        # restrict both to the common interior (x and t_k)
        cut_x = [slice(None)] * u.ndim
        cut_x[0] = slice(1, -1)
        cut_t = [slice(None)] * u.ndim
        cut_t[k] = slice(1, -1)
        ut_i = ut[tuple(cut_x)]
        ux_i = ux[tuple(cut_t)]
        inner = [slice(None)] * u.ndim
        inner[0] = slice(1, -1)
        inner[k] = slice(1, -1)
        u_i = u[tuple(inner)]
        Aval = evaluate_operator_array(A, u_i)
        residual = ut_i - np.einsum("...ij,...j->...i", Aval, ux_i)
        per_axis.append(float(np.abs(residual).max()))
    return ResidualReport(tuple(per_axis))


def convergence_orders(values: Sequence[float],
                       factor: float = 2.0) -> list[float]:
    """Observed orders from successive errors at spacings shrinking by
    ``factor``: order_i = log(values[i] / values[i+1]) / log(factor)."""
    if len(values) < 2:
        raise PDEError("need at least two error values")
    if any(v <= 0 for v in values):
        raise PDEError("error values must be positive")
    return [math.log(a / b) / math.log(factor)
            for a, b in zip(values, values[1:])]


def compare_grids(a: SolutionGrid, b: SolutionGrid,
                  axis_tol: float = 1e-9) -> float:
    """Largest nodewise difference of u between two lattices.

    The lattices must agree: same axis names and counts, node values within
    ``axis_tol``.  Momenta are ignored.
    """
    if len(a.axes) != len(b.axes):
        raise PDEError("lattices have different numbers of axes")
    for ax, bx in zip(a.axes, b.axes):
        if ax.name != bx.name or ax.count != bx.count:
            raise PDEError(f"axis mismatch: {ax.name!r}/{ax.count} vs "
                           f"{bx.name!r}/{bx.count}")
        if np.abs(ax.values() - bx.values()).max() > axis_tol:
            raise PDEError(f"axis {ax.name!r} nodes differ beyond {axis_tol}")
    if a.u.shape != b.u.shape:
        raise PDEError("component counts differ")
    return float(np.abs(a.u - b.u).max())
