"""Tests for the direct quasilinear solver and residual measurements."""

from fractions import Fraction

import numpy as np
import pytest

from nijflow.exactpoly import parse_expression
from nijflow.flows import AxisSpec, CotangentPoint, FlowSettings, orbit_grid
from nijflow.hierarchy import first_integrals, killing_operators
from nijflow.metric import build_h_family, gram_matrix
from nijflow.operators import companion_second
from nijflow.pde import (PDEError, compare_grids, convergence_orders,
                         direct_solve, evaluate_operator_array, grid_residual)

from support import sigma_constant

U2 = ["u1", "u2"]


def constant2_setup():
    sigma = sigma_constant(2, [Fraction(1), Fraction(-1, 2)])
    h1 = gram_matrix(build_h_family(sigma)[0])
    return h1, killing_operators(sigma), first_integrals(
        h1, killing_operators(sigma))


def nijenhuis2_setup():
    sigma = [parse_expression("u1", U2),
             parse_expression("u2 - 1/2*u1^2", U2)]
    h1 = gram_matrix(build_h_family(sigma)[0])
    A = killing_operators(sigma)
    return h1, A, first_integrals(h1, A)


# ---------------------------------------------------------------------------
# batch polynomial evaluation


def test_batch_evaluation_matches_pointwise():
    sigma = [parse_expression("u1", U2),
             parse_expression("u2 - 1/2*u1^2", U2)]
    L = companion_second(sigma)
    rng = np.random.default_rng(7)
    U = rng.uniform(-2, 2, size=(4, 3, 2))
    batch = evaluate_operator_array(L, U)
    for i in range(4):
        for j in range(3):
            expected = L.evaluate_at(list(U[i, j]))
            assert np.abs(batch[i, j] - expected).max() < 1e-14


def test_poly_array_constant_and_powers():
    poly = parse_expression("3*u1^2 - 1/2*u2", U2)
    L = companion_second([poly, parse_expression("0", U2)])
    # entry (1,1) of the companion matrix is sigma_1 itself
    U = np.array([[1.0, 2.0], [0.5, -4.0]])
    got = evaluate_operator_array(L, U)[:, 1, 1]
    assert np.allclose(got, [3 - 1.0, 0.75 + 2.0])


# ---------------------------------------------------------------------------
# the constant-coefficient system is solved exactly


def test_constant_coefficient_direct_solve_is_exact():
    h1, A, F = constant2_setup()
    G = h1.evaluate_at([0.0, 0.0])
    p0 = np.array([1.0, 2.0])
    Gp0 = G @ p0
    A1Gp0 = A[1].evaluate_at([0.0, 0.0]) @ Gp0
    xs = np.linspace(-2.0, 2.0, 161)
    grid = direct_solve(A[1], xs, np.outer(xs, Gp0), 0.25, dt=0.0625)
    assert grid.meta["steps"] == 4
    assert grid.p is None
    worst = 0.0
    for ix, x in enumerate(grid.axes[0].values()):
        for it, t in enumerate(grid.axes[1].values()):
            expect = x * Gp0 + t * A1Gp0
            worst = max(worst, np.abs(grid.u[ix, it] - expect).max())
    assert worst < 1e-10
    # the reduction reproduces the same lattice
    orbit = orbit_grid(F, CotangentPoint((0.0, 0.0), tuple(p0)), grid.axes,
                       FlowSettings(method="rk45", horizon=4.0))
    assert compare_grids(grid, orbit) < 1e-10
    # and the discrete residual vanishes on the exact affine solution
    assert grid_residual(grid, [A[1]]).max_abs < 1e-10


def test_constant_initial_curve_stays_constant():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 81)
    u0 = np.tile([0.7, -0.3], (81, 1))
    grid = direct_solve(A[1], xs, u0, 0.02)
    assert np.abs(grid.u - np.array([0.7, -0.3])).max() == 0.0


# ---------------------------------------------------------------------------
# window bookkeeping


def test_window_shrinks_eight_nodes_per_side_per_step():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 101)
    u0 = np.zeros((101, 2))
    grid = direct_solve(A[1], xs, u0, 0.01, dt=0.005)
    steps = grid.meta["steps"]
    assert steps == 2
    assert grid.axes[0].count == 101 - 16 * steps
    assert grid.axes[0].start == pytest.approx(xs[8 * steps])
    assert grid.axes[0].stop == pytest.approx(xs[100 - 8 * steps])
    assert grid.axes[1].name == "t1"
    assert grid.axes[1].count == steps + 1
    assert grid.u.shape == (101 - 16 * steps, steps + 1, 2)


def test_window_exhaustion_is_reported():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 41)
    with pytest.raises(PDEError) as err:
        direct_solve(A[1], xs, np.zeros((41, 2)), 1.0, dt=0.01)
    assert "window exhausted" in str(err.value)


def test_lattice_validation():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 41)
    with pytest.raises(PDEError):
        direct_solve(A[1], np.array([0.0, 0.1, 0.3]), np.zeros((3, 2)), 0.01)
    with pytest.raises(PDEError):
        direct_solve(A[1], xs[::-1], np.zeros((41, 2)), 0.01)
    with pytest.raises(PDEError):
        direct_solve(A[1], xs, np.zeros((41, 3)), 0.01)
    with pytest.raises(PDEError):
        direct_solve(A[1], xs, np.zeros((41, 2)), -0.5)
    with pytest.raises(PDEError):
        direct_solve(A[1], xs, np.zeros((41, 2)), 0.01, cfl=-1.0)
    with pytest.raises(PDEError):
        direct_solve(A[1], xs, np.zeros((41, 2)), 0.01, dt=-1e-3)


def test_blow_up_is_detected():
    L = companion_second([parse_expression("u1", ["u1"])])
    xs = np.linspace(-1.0, 1.0, 81)
    u0 = (1e155 * xs)[:, None]
    with pytest.raises(PDEError) as err:
        direct_solve(L, xs, u0, 0.01)
    assert "non-finite" in str(err.value)


# ---------------------------------------------------------------------------
# residual measurement


def test_residual_validation():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 81)
    grid = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, dt=0.002)
    with pytest.raises(PDEError):
        grid_residual(grid, [])
    with pytest.raises(PDEError):
        grid_residual(grid, [A[1], A[1]])
    short = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, dt=0.004)
    assert short.axes[1].count == 2
    with pytest.raises(PDEError):
        grid_residual(short, [A[1]])


def test_orbit_grid_residual_is_second_order():
    _, A, F = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    residuals = []
    for delta in (4e-2, 2e-2):
        nx = round(1.0 / delta) + 1
        nt = round(0.5 / delta) + 1
        axes = (AxisSpec("x", -0.5, 0.5, nx), AxisSpec("t1", 0.0, 0.5, nt))
        grid = orbit_grid(F, start, axes, FlowSettings(method="rk45"))
        residuals.append(grid_residual(grid, [A[1]]).max_abs)
    assert 5e-5 < residuals[0] < 3e-4
    orders = convergence_orders(residuals)
    assert orders[0] > 1.7


def test_convergence_orders_helper():
    assert convergence_orders([1.0, 0.25]) == pytest.approx([2.0])
    assert convergence_orders([1.0, 0.25, 0.0625]) == pytest.approx([2.0, 2.0])
    with pytest.raises(PDEError):
        convergence_orders([1.0])
    with pytest.raises(PDEError):
        convergence_orders([1.0, 0.0])


# ---------------------------------------------------------------------------
# lattice comparison


def test_compare_grids_checks_axes():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 81)
    a = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, dt=0.002)
    b = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, dt=0.002)
    assert compare_grids(a, b) == 0.0
    c = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, dt=0.004)
    with pytest.raises(PDEError):
        compare_grids(a, c)
    shifted = direct_solve(A[1], xs + 0.5, np.zeros((81, 2)), 0.004, dt=0.002)
    with pytest.raises(PDEError):
        compare_grids(a, shifted)


def test_direct_solution_matches_reduction():
    _, A, F = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 2.5))
    settings = FlowSettings(method="rk45", abs_tol=1e-13, rel_tol=1e-12,
                            horizon=2.0)
    span, dx = 1.5, 0.05
    nx = round(2 * span / dx) + 1
    xs = np.linspace(-span, span, nx)
    curve = orbit_grid([F[0]], start, (AxisSpec("x", -span, span, nx),),
                       settings)
    direct = direct_solve(A[1], xs, curve.u, 0.05)
    orbit = orbit_grid(F, start, direct.axes, settings)
    assert compare_grids(direct, orbit) < 1e-7
