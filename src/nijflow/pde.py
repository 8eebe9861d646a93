"""Direct finite-difference solution of the quasilinear systems u_t = A(u) u_x.

The solver uses the method of lines on a shrinking spatial window: fourth
order central differences in x, the classical fourth-order Runge-Kutta
scheme in t.  No boundary condition is imposed: each derivative evaluation
gives up two nodes on each side, eight per side a step, so every reported
value is determined by the initial data alone, which keeps the comparison
with the flow-composed solution honest.  A solve allocates its stage
buffers once and forms every stage in them; the n = 2 product A(u) v
writes its rows in place from entries evaluated by ``evaluate_float_form``,
bit for bit the ``np.einsum`` it stands in for.

The module also measures discrete residuals of solution lattices (by
second-order differences, so the residual of an exact solution shrinks
quadratically with the lattice spacing) and compares lattices node by node,
each a block of scratch at a time; values are per node, so the blocks
change none.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exactpoly import evaluate_float_form
from .flows import AxisSpec, SolutionGrid
from .operators import OperatorField


class PDEError(RuntimeError):
    """Direct solver failure: bad lattice, exhausted window, or blow-up."""


# ---------------------------------------------------------------------------
# the direct solver


# the most input x-nodes times time steps one direct solve may take; the
# one result array holds the final window at every step, under 2n floats
# per node-step (320 MB for n = 2)
MAX_NODE_STEPS = 10**7
MIN_WIDTH = 5  # the fewest x-nodes the final window of a direct solve keeps

# how far, as a fraction of max(1, |spacing|), a lattice may stray from
# uniform: in its spacings here, in its node positions when a CSV is read
UNIFORM_RTOL = 1e-12

# u's values (nodes times n) in one block of the n >= 3 operator product,
# and about as many in each x-slab of the residual and the comparison
_BLOCK_VALUES = 2**14


def _check_uniform(x_values: np.ndarray) -> float:
    if x_values.ndim != 1 or len(x_values) < 2:
        raise PDEError("the spatial lattice needs at least two nodes")
    diffs = np.diff(x_values)
    dx = float(diffs[0])
    if dx <= 0:
        raise PDEError("spatial nodes must be strictly increasing")
    # each spacing, and dx, may also carry the rounding of its two nodes
    if (np.abs(diffs - dx).max() > UNIFORM_RTOL * max(1.0, abs(dx))
            + 4 * np.spacing(np.abs(x_values).max())):
        raise PDEError("spatial lattice must be uniform")
    return dx


def operator_product(A: OperatorField):
    """(u, v, out) -> A(u) v over stacks (..., n) in ``out`` (C-contiguous,
    apart from u and v): ``np.einsum`` of ``A.evaluate_at(u)`` and v, a block
    of nodes at a time; at n = 2, bit for bit the same, each row summed left
    to right from 0 in ``out``, its two entries evaluated on u's columns by
    ``evaluate_float_form``.  Nothing is kept between calls."""
    if A.n != 2:
        def blocked(u: np.ndarray, v: np.ndarray, out: np.ndarray):
            step = _BLOCK_VALUES // A.n
            us, vs, outs = (w.reshape(-1, A.n) for w in (u, v, out))
            for b in range(0, len(outs), step):
                np.einsum("...ij,...j->...i", A.evaluate_at(us[b:b + step]),
                          vs[b:b + step], out=outs[b:b + step])
            return out
        return blocked
    forms = [[e.float_form() for e in row] for row in A.entries]

    def product(u: np.ndarray, v: np.ndarray, out: np.ndarray):
        columns = u[..., 0], u[..., 1]
        for (f0, f1), row in zip(forms, (out[..., 0], out[..., 1])):
            np.add(0.0, evaluate_float_form(f0, columns) * v[..., 0], row)
            np.add(row, evaluate_float_form(f1, columns) * v[..., 1], row)
        return out

    return product


def _interior_rhs(y: np.ndarray, product, dx: float, ux: np.ndarray,
                  k: np.ndarray) -> np.ndarray:
    """A(u) u_x on the two-node-shrunk interior of the segment ``y``, in the
    leading rows of ``k``, which first hold 8 y; u_x in those of ``ux``."""
    ux, eight = ux[:len(y) - 4], np.multiply(8.0, y[1:-1], k[:len(y) - 2])
    # (y[:-4] - 8 y[1:-3] + 8 y[3:-1] - y[4:]) / (12 dx), left to right
    np.subtract(y[:-4], eight[:-2], ux)
    np.add(ux, eight[2:], ux)
    np.subtract(ux, y[4:], ux)
    np.divide(ux, 12.0 * dx, ux)
    return product(y[2:-2], ux, k[:len(ux)])


def direct_solve(A: OperatorField, x_values: Sequence[float],
                 u0: np.ndarray, t_end: float, *, cfl: float = 0.4
                 ) -> SolutionGrid:
    """March u_t = A(u) u_x forward from initial data on a uniform lattice.

    ``u0`` holds the initial values, shape (len(x_values), n).  The step is
    ``cfl`` times the lattice spacing, rounded down so the steps tile
    [0, t_end] exactly.  Every time layer is recorded, trimmed to the final
    window (eight nodes per side per step).  The result carries no momenta
    (``p`` is None).
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
    if cfl <= 0:
        raise PDEError("cfl must be positive")
    m = len(x_values)
    ratio = t_end / (cfl * dx) if cfl * dx else math.inf  # it may underflow
    if not ratio <= MAX_NODE_STEPS:  # nor make an integer of 300 digits
        raise PDEError(f"t_end / (cfl * dx) = {ratio:.6g} steps on {m} nodes "
                       f"exceed the limit of {MAX_NODE_STEPS} node-steps")
    steps = max(1, math.ceil(ratio - 1e-9))
    dt = t_end / steps
    width = m - 16 * steps
    if width < MIN_WIDTH:
        # steps grow as 1/dx, so refining the lattice never helps
        raise PDEError(
            f"window exhausted: {steps} steps need {16 * steps + MIN_WIDTH} "
            f"x-nodes, {m} given; the initial interval must span more than "
            f"16 * t_end / cfl = {16 * t_end / cfl:.6g} in x")
    if m * steps > MAX_NODE_STEPS:
        raise PDEError(
            f"{steps} steps on {m} nodes make {m * steps} node-steps, more "
            f"than the limit of {MAX_NODE_STEPS}; coarsen the lattice or "
            f"shorten t_end")

    lo = 8 * steps
    u = np.empty((width, steps + 1, n))
    u[:, 0] = u0[lo:lo + width]
    y, product = u0, operator_product(A)
    # in leading rows: u_x, the stage state (and next y), y's, the slopes
    ux, stage, spare, *slopes = (np.empty((m, n)) for _ in range(7))
    # overflow is detected by the finiteness check, not by warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            ks = [_interior_rhs(y, product, dx, ux, slopes[0])]
            for j, c in enumerate((0.5 * dt, 0.5 * dt, dt), start=1):
                z = np.multiply(c, ks[-1], stage[:len(ks[-1])])  # y + c k_j
                ks.append(_interior_rhs(np.add(y[2 * j:-2 * j], z, z),
                                        product, dx, ux, slopes[j]))
            # y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), left to right
            s, k2, k3 = ks[0][6:-6], ks[1][4:-4], ks[2][2:-2]
            np.add(s, np.multiply(2.0, k2, k2), s)
            np.add(np.add(s, np.multiply(2.0, k3, k3), s), ks[3], s)
            y = np.add(y[8:-8], np.multiply(dt / 6.0, s, s), stage[:len(s)])
            stage, spare = spare, stage
            if not np.isfinite(y).all():
                raise PDEError(f"solution became non-finite during step "
                               f"{step + 1} (t = {(step + 1) * dt:.6g})")
            crop = lo - 8 * (step + 1)
            u[:, step + 1] = y[crop:crop + width]

    x_axis = AxisSpec("x", float(x_values[lo]), float(x_values[lo + width - 1]),
                      width)
    t_axis = AxisSpec("t1", 0.0, float(t_end), steps + 1)
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
    lead = (slice(None),) * axis
    return (u[lead + (slice(2, None),)] - u[lead + (slice(None, -2),)]) / (
        2.0 * delta)


def grid_residual(grid: SolutionGrid,
                  operators: Sequence[OperatorField]) -> ResidualReport:
    """Second-order discrete residual of the systems u_{t_k} = A_k(u) u_x.

    ``operators[k-1]`` governs time axis ``grid.axes[k]``.  The residual of
    an exact solution is pure finite-difference error, O(spacing^2).
    """
    axes = grid.axes
    if len(operators) != len(axes) - 1:
        raise PDEError(f"need {len(axes) - 1} operators, got {len(operators)}")
    for A in operators:
        if A.n != grid.n:
            raise PDEError(f"the lattice has {grid.n} components, the "
                           f"operators are {A.n} by {A.n}")
    for a in axes:
        if a.count < 3:
            raise PDEError(f"axis {a.name!r} needs at least 3 nodes for "
                           "central differences")
    u, rows = grid.u, max(1, _BLOCK_VALUES // grid.u[0].size)
    products = [operator_product(A) for A in operators]
    worst = []
    # a lattice past the float range reports nan, not warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # the interior x-rows a slab at a time, with one more row either side
        for s in range(1, len(u) - 1, rows):
            w = u[s - 1:s + rows + 1]
            ux = _central(w, 0, axes[0].delta)
            worst.append([])
            for k, product in enumerate(products, start=1):
                # u, u_t and u_x on the common interior (x and t_k)
                t_in = (slice(None),) * k + (slice(1, -1),)
                r = product(w[1:-1][t_in], ux[t_in], np.empty(ux[t_in].shape))
                r = np.subtract(_central(w[1:-1], k, axes[k].delta), r, r)
                worst[-1].append(np.abs(r, r).max())
        per_axis = np.max(worst, axis=0).tolist()
    return ResidualReport(tuple(per_axis))


# how far two lattices' nodes may stray apart for ``compare_grids``
AXIS_TOL = 1e-9


def compare_grids(a: SolutionGrid, b: SolutionGrid) -> np.ndarray:
    """Largest difference of u between two lattices over x and the
    components, at each node of the time axes (an array over them, 0-d when
    there are none); its ``max()`` is the largest nodewise difference.

    The lattices must agree: same axis names and counts, node values within
    ``AXIS_TOL``.  Momenta are ignored.
    """
    if len(a.axes) != len(b.axes):
        raise PDEError("lattices have different numbers of axes")
    for ax, bx in zip(a.axes, b.axes):
        if ax.name != bx.name or ax.count != bx.count:
            raise PDEError(f"axis mismatch: {ax.name!r}/{ax.count} vs "
                           f"{bx.name!r}/{bx.count}")
        if np.abs(ax.values() - bx.values()).max() > AXIS_TOL:
            raise PDEError(f"axis {ax.name!r} nodes differ beyond {AXIS_TOL}")
    if a.u.shape != b.u.shape:
        raise PDEError("component counts differ")
    # x first: numpy reduces the leading axis faster than the two at once;
    # the same infinity in both reads nan, quietly, as in grid_residual
    rows = max(1, _BLOCK_VALUES // a.u[0].size)
    with np.errstate(over="ignore", invalid="ignore"):
        return functools.reduce(np.maximum, (
            np.abs(a.u[s:s + rows] - b.u[s:s + rows]).max(axis=0).max(axis=-1)
            for s in range(0, len(a.u), rows)))
