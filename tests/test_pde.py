"""Tests for the direct quasilinear solver and residual measurements."""

import functools
import json
import random
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nijflow import cli, pde
from nijflow.cli import build_model, config_point, load_config, main
from nijflow.exactpoly import (ExactPolynomial, base_names,
                               format_polynomial, parse_expression)
from nijflow.flows import (AxisSpec, CotangentPoint, FlowSettings, SolutionGrid,
                           orbit_grid)
from nijflow.metric import build_h_family, first_integrals, gram_matrix
from nijflow.model import CompanionModel
from nijflow.operators import (OperatorField, companion_first, companion_second,
                               killing_operators)
from nijflow.pde import PDEError, compare_grids, direct_solve, grid_residual

from support import (convergence_orders, random_polynomial,
                     reference_compare_grids, reference_grid_residual,
                     reference_operator_product, same_bits,
                     sigma_constant, sigma_curved, u_from_eigenvalues, upoly)
from test_bench_configs import _cases

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
    batch = L.evaluate_at(U)
    for i in range(4):
        for j in range(3):
            # the scalar evaluator is the oracle; the two are bit-identical
            expected = np.array([[e.evaluate(list(U[i, j])) for e in row]
                                 for row in L.entries])
            assert np.array_equal(batch[i, j], expected)


def test_poly_array_constant_and_powers():
    poly = parse_expression("3*u1^2 - 1/2*u2", U2)
    L = companion_second([poly, parse_expression("0", U2)])
    # entry (1,1) of the companion matrix is sigma_1 itself
    U = np.array([[1.0, 2.0], [0.5, -4.0]])
    got = L.evaluate_at(U)[:, 1, 1]
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
    dx = xs[1] - xs[0]
    grid = direct_solve(A[1], xs, np.outer(xs, Gp0), 0.25, cfl=0.0625 / dx)
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
                       FlowSettings(method="rk45"))
    assert compare_grids(grid, orbit).max() < 1e-10
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
    dx = xs[1] - xs[0]
    u0 = np.zeros((101, 2))
    grid = direct_solve(A[1], xs, u0, 0.01, cfl=0.005 / dx)
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
    dx = xs[1] - xs[0]
    with pytest.raises(PDEError) as err:
        direct_solve(A[1], xs, np.zeros((41, 2)), 1.0, cfl=0.01 / dx)
    assert "window exhausted" in str(err.value)


def test_node_step_cap_is_checked_before_any_layer(monkeypatch):
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 101)
    dx = xs[1] - xs[0]
    u0 = np.zeros((101, 2))
    # 2 steps on 101 nodes: 202 node-steps, allowed exactly at the cap
    monkeypatch.setattr(pde, "MAX_NODE_STEPS", 202)
    assert direct_solve(A[1], xs, u0, 0.01, cfl=0.005 / dx).meta["steps"] == 2

    def no_layer(*args):
        raise AssertionError("a layer was computed")

    monkeypatch.setattr(pde, "_interior_rhs", no_layer)
    monkeypatch.setattr(pde, "MAX_NODE_STEPS", 201)
    with pytest.raises(PDEError) as err:
        direct_solve(A[1], xs, u0, 0.01, cfl=0.005 / dx)
    assert str(err.value) == ("2 steps on 101 nodes make 202 node-steps, "
                              "more than the limit of 201; coarsen the "
                              "lattice or shorten t_end")


def test_lattice_validation():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 41)
    dx = xs[1] - xs[0]
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
        direct_solve(A[1], xs, np.zeros((41, 2)), 0.01, cfl=-1e-3 / dx)


@pytest.mark.parametrize("c", [1e4, 1e6, 1e9])
def test_direct_solve_accepts_uniform_axes_far_from_0(c):
    # linspace rounds each node to its own ulp, so far from 0 the spacings
    # stray by more than UNIFORM_RTOL * max(1, dx) alone allows
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(c, c + 1, 1001)
    assert np.abs(np.diff(xs) - (xs[1] - xs[0])).max() > pde.UNIFORM_RTOL
    u0 = np.tile([0.1, 0.2], (1001, 1))
    grid = direct_solve(A[1], xs, u0, 0.001)
    assert (grid.u == u0[0]).all()


def test_direct_solve_refuses_non_uniform_axes_near_and_far_from_0():
    _, A, _ = nijenhuis2_setup()
    far = np.linspace(1e6, 1e6 + 1, 1001)
    far[500] += 1e-8  # about 86 ulps of 1e6
    for xs in (np.array([0.0, 0.1, 0.3]), far):
        with pytest.raises(PDEError, match="spatial lattice must be uniform"):
            direct_solve(A[1], xs, np.zeros((len(xs), 2)), 0.01)


def test_blow_up_is_detected():
    L = companion_second([parse_expression("u1", ["u1"])])
    xs = np.linspace(-1.0, 1.0, 81)
    u0 = (1e155 * xs)[:, None]
    with pytest.raises(PDEError) as err:
        direct_solve(L, xs, u0, 0.01)
    assert "non-finite" in str(err.value)


# ---------------------------------------------------------------------------
# the compiled operator product


SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, -1e-300]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_operator_product_is_bit_identical_to_evaluate_and_einsum(n):
    # the solver's operator, a companion form with constant entries, and
    # random entries with powers up to 4 (the float-power path)
    rng = random.Random(n)
    nrng = np.random.default_rng(n)
    operators = [CompanionModel(sigma_curved(n)).killing[1],
                 companion_first(sigma_curved(n))]
    operators += [OperatorField([[random_polynomial(rng, n, max_degree=4)
                                  for _ in range(n)] for _ in range(n)])
                  for _ in range(6)]
    block = pde._BLOCK_VALUES // n  # the nodes of one n >= 3 product block
    for i, A in enumerate(operators):
        product = pde.operator_product(A)
        shapes = [(1, n), (37, n), (5, 7, n), (9, 8, 3, n)]
        if i < 3:  # stacks longer than one block, across their last node
            shapes += [(block + 3, n), (2, block // 2 + 1, n)]
        for shape in shapes:
            u, v = nrng.normal(scale=2.0, size=(2,) + shape)
            for w in (u, v):
                mask = nrng.random(shape) < 0.2
                w[mask] = nrng.choice(SPECIAL_VALUES, mask.sum())
            # strided views too, as grid_residual passes them
            stacks = [(u, v), (u[..., ::2, :], v[..., ::2, :])]
            with np.errstate(all="ignore"):
                for a, b in stacks:
                    assert same_bits(product(a, b, np.empty(a.shape)),
                                      reference_operator_product(A, a, b))


def _einsum_product(monkeypatch):
    def product(A, u, v, out):
        out[...] = reference_operator_product(A, u, v)
        return out

    monkeypatch.setattr(pde, "operator_product",
                        lambda A: functools.partial(product, A))


def _random2(seed):
    rng = random.Random(seed)
    return OperatorField([[random_polynomial(rng, 2, max_degree=4)
                           for _ in range(2)] for _ in range(2)])


# the operators the solver is checked on against the einsum product, by
# id: the curved family's A_1 at n = 2, 3 and 4, then n = 2 operators for
# each branch of the in-place n = 2 product: constant entries 0, 1 and 3/7,
# a unit coefficient on one variable, a product of both variables, and
# random entries of degree up to 4 (powers through the float power)
EINSUM_CASES = {
    **{str(n): functools.partial(
        lambda n: CompanionModel(sigma_curved(n)).killing[1], n)
       for n in (2, 3, 4)},
    "constant": lambda: OperatorField([[0, 0], [Fraction(3, 7), 1]]),
    "monomial": lambda: OperatorField([[upoly("u1", 2), Fraction(3, 7)],
                                       [upoly("u1*u2", 2), 0]]),
    **{f"random{s}": functools.partial(_random2, s) for s in range(3)},
}


def _with_special_values(u0, xs):
    """At n = 2, u0 with -x on both components around x = 0, where it is
    -0.0, signed zeros and the least subnormal at two nodes, and a run of
    40 zeros of seeded signs."""
    if u0.shape[1] == 2:
        mid = len(u0) // 2
        assert xs[mid] == 0.0
        u0[mid - 12:mid + 13] = -xs[mid - 12:mid + 13, None]
        u0[mid - 40], u0[mid - 39] = (-0.0, 5e-324), (5e-324, -0.0)
        signs = np.random.default_rng(40).choice([-1.0, 1.0], (40, 2))
        u0[mid + 20:mid + 60] = np.copysign(0.0, signs)
        u0[mid + 40] = (5e-324, -5e-324)
    return u0


# (operator, the value at the middle node, the step the solve fails at)
FAILURES = {
    **{f"{kind}-{n}": (str(n), seed, step) for kind, seed, step in (
        ("nan", np.nan, 1), ("spike", 3.0, 5)) for n in (2, 3, 4)},
    **{f"nan-{case}": (case, np.nan, 1) for case in list(EINSUM_CASES)[3:]},
    **{f"huge-{case}": (case, 1e150, 1)
       for case in ("monomial", "random0", "random1", "random2")},
    "spike-monomial": ("monomial", 3.0, 10),
    "spike-random1": ("random1", 3.0, 2),
}


@pytest.mark.parametrize("case, seed, step", FAILURES.values(),
                         ids=FAILURES.keys())
def test_direct_solve_fails_at_the_einsum_products_step(monkeypatch, case,
                                                       seed, step):
    A = EINSUM_CASES[case]()
    xs = np.linspace(-1.0, 1.0, 801)
    u0 = _with_special_values(np.outer(0.1 * np.sin(7.0 * xs),
                                       np.ones(A.n)), xs)
    u0[400] = seed

    def failure():
        with pytest.raises(PDEError) as err:
            direct_solve(A, xs, u0, 0.03)
        return str(err.value)

    message = failure()
    assert f"non-finite during step {step} " in message
    _einsum_product(monkeypatch)
    assert failure() == message


@pytest.mark.parametrize("case", EINSUM_CASES)
def test_direct_solve_and_residual_match_the_einsum_product(monkeypatch, case):
    A = EINSUM_CASES[case]()
    n = A.n
    xs = np.linspace(-0.5, 0.5, 161)
    u0 = _with_special_values(np.array(u_from_eigenvalues(
        (-0.8, 0.3, 1.2, 1.9)[:n])) + np.outer(0.05 * np.sin(3.0 * xs),
                                               np.arange(1, n + 1)), xs)

    def outputs():
        grid = direct_solve(A, xs, u0, 0.02)
        return grid.u, np.array(grid_residual(grid, [A]).per_axis)

    u, residual = outputs()
    _einsum_product(monkeypatch)
    expected_u, expected_residual = outputs()
    assert same_bits(u, expected_u) and same_bits(residual, expected_residual)


@pytest.mark.parametrize("n", [2, 3])
def test_direct_solve_and_residual_compile_nothing(monkeypatch, n):
    # the float layer compiles only Hamiltonian fields; the solver and the
    # residual run the interpreter (n = 2) or einsum (n >= 3)
    from nijflow import exactpoly, flows

    def refuse(*args):
        raise AssertionError("compile_float_forms called")

    monkeypatch.setattr(exactpoly, "compile_float_forms", refuse)
    monkeypatch.setattr(flows, "compile_float_forms", refuse)
    assert not hasattr(pde, "compile_float_forms")
    A = CompanionModel(sigma_curved(n)).killing[1]
    xs = np.linspace(-0.5, 0.5, 81)
    u0 = np.array(u_from_eigenvalues((-0.8, 0.3, 1.2)[:n])) + np.outer(
        0.05 * np.sin(3.0 * xs), np.arange(1, n + 1))
    grid = direct_solve(A, xs, u0, 0.01)
    assert np.isfinite(grid_residual(grid, [A]).max_abs)


# ---------------------------------------------------------------------------
# residual measurement


def test_residual_validation():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 81)
    dx = xs[1] - xs[0]
    grid = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, cfl=0.002 / dx)
    with pytest.raises(PDEError):
        grid_residual(grid, [])
    with pytest.raises(PDEError):
        grid_residual(grid, [A[1], A[1]])
    short = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, cfl=0.004 / dx)
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


def curved_residual_ladder(name, deltas):
    """Per-axis orbit residuals of a shipped curved config over lattices
    x in [-0.5, 0.5], every t in [0, 0.2], one spacing on all axes."""
    config = Path(__file__).resolve().parent.parent / "configs" / \
        f"{name}.json"
    cfg = json.loads(config.read_text())
    model = build_model(cfg)
    start = config_point(cfg, model.n)
    settings = FlowSettings(method="rk45", abs_tol=1e-12, rel_tol=1e-12)
    residuals = []
    for delta in deltas:
        nx, nt = round(1.0 / delta) + 1, round(0.2 / delta) + 1
        axes = (AxisSpec("x", -0.5, 0.5, nx),) + tuple(
            AxisSpec(f"t{k}", 0.0, 0.2, nt) for k in range(1, model.n))
        grid = orbit_grid(model.integrals, start, axes, settings)
        residuals.append(grid_residual(grid, model.killing[1:]).per_axis)
    return [list(axis) for axis in zip(*residuals)]


def test_curved3_orbit_residual_is_second_order_on_both_time_axes():
    # nijenhuis3: one spacing on all three axes, halved three times
    for axis in curved_residual_ladder("nijenhuis3",
                                       (0.05, 0.025, 0.0125, 0.00625)):
        assert 1e-5 < axis[0] < 1e-3
        assert min(convergence_orders(axis)) > 1.8


def test_curved4_orbit_residual_is_second_order_on_all_time_axes():
    # nijenhuis4: measured orders 1.88-1.99; a fourth rung (0.0125) would
    # take about 4 s
    axes = curved_residual_ladder("nijenhuis4", (0.1, 0.05, 0.025))
    assert len(axes) == 3
    for axis in axes:
        assert 1e-5 < axis[0] < 1e-2
        assert min(convergence_orders(axis)) > 1.8


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
    dx = xs[1] - xs[0]
    a = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, cfl=0.002 / dx)
    b = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, cfl=0.002 / dx)
    assert compare_grids(a, b).max() == 0.0
    c = direct_solve(A[1], xs, np.zeros((81, 2)), 0.004, cfl=0.004 / dx)
    with pytest.raises(PDEError):
        compare_grids(a, c)
    shifted = direct_solve(A[1], xs + 0.5, np.zeros((81, 2)), 0.004,
                           cfl=0.002 / dx)
    with pytest.raises(PDEError):
        compare_grids(a, shifted)


def test_compare_grids_per_time_node():
    _, A, _ = nijenhuis2_setup()
    xs = np.linspace(-1.0, 1.0, 81)
    dx = xs[1] - xs[0]
    u0 = np.column_stack([np.sin(xs), 0.5 * xs])
    a = direct_solve(A[1], xs, u0, 0.008, cfl=0.002 / dx)
    b = direct_solve(A[1], xs, np.zeros((81, 2)), 0.008, cfl=0.002 / dx)
    assert compare_grids(a, b).tolist() == [
        float(np.abs(a.u[:, j] - b.u[:, j]).max())
        for j in range(a.axes[1].count)]
    # two time axes give one value per node of both; no time axis, one value
    u = np.random.default_rng(5).standard_normal((4, 3, 2, 2))
    axes = (AxisSpec("x", 0.0, 1.0, 4), AxisSpec("t1", 0.0, 1.0, 3),
            AxisSpec("t2", 0.0, 1.0, 2))
    zero = np.zeros_like(u)
    per_node = compare_grids(SolutionGrid(axes, u), SolutionGrid(axes, zero))
    assert per_node.tolist() == np.abs(u).max(axis=(0, 3)).tolist()
    line = compare_grids(SolutionGrid(axes[:1], u[:, 0, 0]),
                         SolutionGrid(axes[:1], zero[:, 0, 0]))
    assert line.shape == () and line == np.abs(u[:, 0, 0]).max()


def test_compare_grids_reduces_x_then_the_components():
    # x first, then the components: the values of both at once, nan kept
    u = np.random.default_rng(6).standard_normal((6, 4, 3, 2))
    u[2, 1, 0, 1] = np.nan
    axes = (AxisSpec("x", 0.0, 1.0, 6), AxisSpec("t1", 0.0, 1.0, 4),
            AxisSpec("t2", 0.0, 1.0, 3))
    zero = np.zeros_like(u)
    got = compare_grids(SolutionGrid(axes, u), SolutionGrid(axes, zero))
    want = np.abs(u).max(axis=(0, -1))
    assert np.isnan(got[1, 0]) and got.tobytes() == want.tobytes()


def test_compare_grids_reads_matching_infinities_quietly():
    # +inf in both at one node reads nan, a nan reads nan and an overflowing
    # difference inf, with no RuntimeWarning (made an error by pyproject)
    axes = (AxisSpec("x", 0.0, 1.0, 5), AxisSpec("t", 0.0, 1.0, 3))
    u = np.random.default_rng(8).standard_normal((5, 3, 2))
    v = u.copy()
    u[1, 0, 1] = v[1, 0, 1] = np.inf
    u[3, 1, 0] = np.nan
    u[2, 2, 1], v[2, 2, 1] = 1e308, -1e308
    got = compare_grids(SolutionGrid(axes, u), SolutionGrid(axes, v))
    assert np.isnan(got[0]) and np.isnan(got[1]) and got[2] == np.inf


def test_direct_solution_matches_reduction():
    _, A, F = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 2.5))
    settings = FlowSettings(method="rk45", abs_tol=1e-13, rel_tol=1e-12)
    span, dx = 1.5, 0.05
    nx = round(2 * span / dx) + 1
    xs = np.linspace(-span, span, nx)
    curve = orbit_grid([F[0]], start, (AxisSpec("x", -span, span, nx),),
                       settings)
    direct = direct_solve(A[1], xs, curve.u, 0.05)
    orbit = orbit_grid(F, start, direct.axes, settings)
    assert compare_grids(direct, orbit).max() < 1e-7


def test_direct_matches_reduction_at_second_order_for_curved_n3(tmp_path,
                                                              capsys):
    # a start of the curved family where L has the distinct real
    # eigenvalues (-0.8, 0.3, 1.2); the window is not hyperbolic, since along
    # its initial curve they reach |Im lambda| = 0.70, and the ladder run on
    # to dx = 0.00078125 stops falling (1.75e-14, then 2.29e-14).  The four
    # rungs here stop before that; the coarse one is well above roundoff
    cfg = {"n": 3,
           "sigma": [format_polynomial(s, base_names(3))
                     for s in sigma_curved(3)],
           "initial": {"u": u_from_eigenvalues((-0.8, 0.3, 1.2)),
                       "p": [1.5, -2.0, 3.0]},
           "integrator": {"method": "rk45", "abs_tol": 1e-13,
                          "rel_tol": 1e-12},
           "pde": {"t_end": 0.02}}
    path = tmp_path / "n3.json"
    deviations = []
    for count in (61, 121, 241, 481):
        cfg["grid"] = {"x": {"start": -0.6, "stop": 0.6, "count": count}}
        path.write_text(json.dumps(cfg))
        assert main(["compare", str(path)]) == 0
        deviation = json.loads(capsys.readouterr().out)["max_deviation"]
        assert deviation <= 1.0 * (1.2 / (count - 1)) ** 2
        deviations.append(deviation)
    assert deviations[0] > 1e-11
    assert all(fine <= coarse / 4
               for coarse, fine in zip(deviations, deviations[1:]))


@pytest.mark.parametrize("eigenvalues, p", [
    ((-1.9, 1.8), [0.7, 5.7]),
    ((-1.5, -0.4, 1.8), [2.5, -0.6, -5.0]),
], ids=["n2", "n3"])
def test_direct_matches_reduction_at_second_order_on_hyperbolic_windows(
        eigenvalues, p, tmp_path, capsys):
    # L has distinct real eigenvalues on the whole initial window, so the
    # ladder converges down to dx = 0.00078125.  The stencil differentiates
    # these degree-n x-lines exactly, so the deviation is RK4's in time; the
    # momenta, t_end and cfl keep it well above roundoff on the finest rung
    n = len(eigenvalues)
    cfg = {"n": n,
           "sigma": [format_polynomial(s, base_names(n))
                     for s in sigma_curved(n)],
           "initial": {"u": u_from_eigenvalues(eigenvalues), "p": p},
           "integrator": {"method": "rk45", "abs_tol": 1e-13,
                          "rel_tol": 1e-12},
           "pde": {"t_end": 0.036, "cfl": 0.6}}
    path = tmp_path / f"n{n}.json"
    deviations = []
    for count in (97, 193, 385, 769, 1537):
        cfg["grid"] = {"x": {"start": -0.6, "stop": 0.6, "count": count}}
        path.write_text(json.dumps(cfg))
        assert main(["compare", str(path)]) == 0
        deviation = json.loads(capsys.readouterr().out)["max_deviation"]
        assert deviation <= 1.0 * (1.2 / (count - 1)) ** 2
        deviations.append(deviation)
    assert deviations[0] > 1e-11
    assert all(fine <= coarse / 4
               for coarse, fine in zip(deviations, deviations[1:]))

    loaded = load_config(str(path))
    model = build_model(loaded)
    x_axis = cli.config_axes(loaded, n)[0]
    u0 = cli.config_initial_curve(loaded, model, x_axis,
                                  cli.config_settings(loaded))
    lams = np.linalg.eigvals([model.operator.evaluate_at(u) for u in u0])
    assert not lams.imag.any()
    assert np.diff(np.sort(lams.real), axis=1).min() > 0.5


HYPERBOLIC_LADDER = (97, 193, 385, 769, 1537)


def _hyperbolic_window(eigenvalues, p, count, span=0.6, t_end=0.036):
    """The config of a hyperbolic window above: the curved family on
    x in [-span, span] with ``count`` nodes, through the point where L has
    ``eigenvalues``; cfl 0.6."""
    n = len(eigenvalues)
    return {"n": n,
            "sigma": [format_polynomial(s, base_names(n))
                      for s in sigma_curved(n)],
            "initial": {"u": u_from_eigenvalues(eigenvalues), "p": p},
            "integrator": {"method": "rk45", "abs_tol": 1e-13,
                           "rel_tol": 1e-12},
            "pde": {"t_end": t_end, "cfl": 0.6},
            "grid": {"x": {"start": -span, "stop": span, "count": count}}}


def _initial_curve(cfg):
    model = build_model(cfg)
    x_axis = cli.config_axes(cfg, model.n)[0]
    u0 = cli.config_initial_curve(cfg, model, x_axis,
                                  cli.config_settings(cfg))
    return model, x_axis, u0


@pytest.mark.parametrize("eigenvalues, p", [
    ((-1.9, 1.8), [0.7, 5.7]),
    ((-1.5, -0.4, 1.8), [2.5, -0.6, -5.0]),
], ids=["n2", "n3"])
def test_direct_matches_reduction_at_fourth_order_on_hyperbolic_windows(
        eigenvalues, p, tmp_path, capsys):
    # fourth-order differences in x and RK4 with dt proportional to dx: each
    # halving cuts the deviation 16x (measured 14.1-16.7x).  The n2 x-lines
    # are quadratic, which any central stencil differentiates exactly, so
    # that window checks RK4 alone; at n3 a second-order stencil fails.
    # Below a floor of 1e-14 max|u| roundoff may take over
    path = tmp_path / "window.json"
    deviations = []
    for count in HYPERBOLIC_LADDER:
        cfg = _hyperbolic_window(eigenvalues, p, count)
        path.write_text(json.dumps(cfg))
        assert main(["compare", str(path)]) == 0
        deviations.append(json.loads(capsys.readouterr().out)["max_deviation"])
    floor = 1e-14 * np.abs(_initial_curve(cfg)[2]).max()
    assert deviations[0] > 1e-9
    assert all(fine <= max(coarse / 12, floor)
               for coarse, fine in zip(deviations, deviations[1:]))


def test_direct_matches_reduction_at_fourth_order_for_curved_n5(tmp_path,
                                                              capsys):
    # L's eigenvalues are real and at least 0.4 apart on the whole initial
    # curve of this window, found by a search over n = 4 and 5 windows.
    # Measured 2.68e-10, 1.68e-11, 1.06e-12 and 5.33e-14 (16.0x, 15.9x,
    # 19.8x); the next rung, 2.1e-14 on 3,073 nodes, is below the floor
    path = tmp_path / "window.json"
    eigenvalues = np.linspace(-1.5, 1.5, 5)
    p = [-0.0336, -1.0624, -1.7296, 0.8514, 1.2525]
    deviations = []
    for count in (193, 385, 769, 1537):
        cfg = _hyperbolic_window(eigenvalues, p, count, span=1.2, t_end=0.08)
        path.write_text(json.dumps(cfg))
        assert main(["compare", str(path)]) == 0
        deviations.append(json.loads(capsys.readouterr().out)["max_deviation"])
    model, _, u0 = _initial_curve(cfg)
    floor = 1e-14 * np.abs(u0).max()
    assert deviations[0] > 1e-11
    assert all(fine <= max(coarse / 12, floor)
               for coarse, fine in zip(deviations, deviations[1:]))
    lams = np.linalg.eigvals([model.operator.evaluate_at(u) for u in u0])
    assert not lams.imag.any()
    assert np.diff(np.sort(lams.real), axis=1).min() > 0.4


def test_direct_flows_commute_at_fourth_order_for_curved_n3():
    # u_t1 = A_1(u) u_x and u_t2 = A_2(u) u_x solved directly, in both
    # orders, with no reduction involved: the two results meet up to the
    # scheme's fourth-order error (measured 2.9e-10 down to 1.4e-14, falling
    # 7.3-16.3x per halving).  Both orders take the same steps on the same
    # lattice, so their final windows coincide
    deviations = []
    for count in HYPERBOLIC_LADDER:
        cfg = _hyperbolic_window((-1.5, -0.4, 1.8), [2.5, -0.6, -5.0], count)
        model, x_axis, u0 = _initial_curve(cfg)
        A1, A2 = model.killing[1:3]

        def solve(first, second):
            grid = direct_solve(first, x_axis.values(), u0, 0.012, cfl=0.6)
            return direct_solve(second, grid.axes[0].values(), grid.u[:, -1],
                                0.012, cfl=0.6)
        one_two, two_one = solve(A1, A2), solve(A2, A1)
        assert one_two.axes == two_one.axes
        deviation = np.abs(one_two.u[:, -1] - two_one.u[:, -1]).max()
        assert deviation <= 0.1 * x_axis.delta ** 4
        deviations.append(deviation)
    floor = 1e-14 * np.abs(u0).max()
    assert deviations[0] > 1e-11
    assert all(fine <= max(coarse / 6, floor)
               for coarse, fine in zip(deviations, deviations[1:]))


# ---------------------------------------------------------------------------
# the lattice kernels in slabs


def _crosscheck_rung(count, workdir):
    """The seed-1 ``crosscheck`` rung of ``count`` x-nodes: its direct
    lattice, the orbit lattice ``compare`` sets against it, its operators."""
    _cases.write_configs(_cases.make_workload("crosscheck", 1), workdir)
    cfg = load_config(str(workdir / f"direct{count}.json"))
    model = build_model(cfg)
    direct, settings = cli._direct_grid(cfg, model)
    orbit = orbit_grid(model.integrals[:2], config_point(cfg, 2), direct.axes,
                       settings)
    return direct, orbit, model.killing[1:2]


def _random_lattices(n, counts, seed):
    """Two random lattices on x and ``len(counts) - 1`` time axes, and the
    curved family's operators for those axes."""
    axes = (AxisSpec("x", -0.5, 0.5, counts[0]),) + tuple(
        AxisSpec(f"t{k}", 0.0, 0.2, c) for k, c in enumerate(counts[1:], 1))
    a, b = np.random.default_rng(seed).uniform(-0.5, 0.5, (2,) + counts + (n,))
    operators = CompanionModel(sigma_curved(n)).killing[1:len(counts)]
    return SolutionGrid(axes, a), SolutionGrid(axes, b), operators


def _interior_rows(n, extra, tmp_path):
    """n components and nt time nodes make ``rows`` x-rows per slab; the
    lattice's interior has rows + extra of them.  A spike on the first
    interior row of one lattice and the last of the other sets their
    largest residual and a layer's deviation there."""
    nt = pde._BLOCK_VALUES // (n * 6)
    rows = pde._BLOCK_VALUES // (nt * n)
    a, b, operators = _random_lattices(n, (rows + 2 + extra, nt), n + extra)
    a.u[1, nt // 3, 0] += 1.0
    b.u[-2, 2 * nt // 3, 0] += 1.0
    return a, b, operators


def _special_values(kind, tmp_path):
    a, b, operators = _random_lattices(3, (41, 30, 25), 4)
    if kind == "nan":
        # only t2's stencil reaches x = 0 at t1 = 0: a nan residual on t2
        # alone, and one nan deviation, on the layer (t1, t2) = (0, 1)
        a.u[0, 0, 1, 2] = np.nan
    else:
        a.u[20, 10, 10, 0], a.u[5, 3, 7, 1] = np.inf, -np.inf
        b.u[20, 10, 10, 0], b.u[30, 15, 20, 2] = -np.inf, np.inf
    return a, b, operators


SLAB_CASES = {
    **{f"crosscheck{count}": functools.partial(_crosscheck_rung, count)
       for count in (241, 481, 961, 1921)},
    "n3-two-time-axes": lambda tmp_path: _random_lattices(3, (41, 30, 25), 3),
    **{f"n{n}-interior-{label}": functools.partial(_interior_rows, n, extra)
       for n in (2, 3)
       for extra, label in ((-1, "block-1"), (0, "block"), (1, "block+1"))},
    "nan": functools.partial(_special_values, "nan"),
    "inf": functools.partial(_special_values, "inf")}


@pytest.mark.parametrize("name", SLAB_CASES)
def test_slabs_are_bit_identical_to_the_whole_lattice(tmp_path, name):
    a, b, operators = SLAB_CASES[name](tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nan and inf report quietly
        residuals = [grid_residual(g, operators).per_axis for g in (a, b)]
        deviations = compare_grids(a, b)
    for g, residual in zip((a, b), residuals):
        expected = reference_grid_residual(g, operators)
        assert np.array(residual).tobytes() == np.array(expected).tobytes()
    expected = reference_compare_grids(a, b)
    assert deviations.shape == expected.shape
    assert deviations.tobytes() == expected.tobytes()
    if name == "nan":
        assert np.isfinite(residuals[0][0]) and np.isnan(residuals[0][1])
        assert np.isnan(deviations).sum() == 1 and np.isnan(deviations[0, 1])


def _traced_peak(f, *args):
    """``f(*args)`` and the most bytes it held allocated at once."""
    tracemalloc.start()
    try:
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MB = 1e6


@pytest.mark.parametrize("n, counts, bound", [
    # the lattice's values 0.32, 0.52 and 0.68 MB; scratch at the whole-
    # lattice form 1.6, 4.1 and 6.9 MB; at n = 2 a slab's entries of A and
    # their products are transient, and nothing outlives the call
    (2, (201, 101), 0.65 * MB), (4, (161, 101), 2.0 * MB),
    (7, (121, 101), 2.5 * MB)], ids=["n2", "n4", "n7"])
def test_residual_scratch_is_one_slab(n, counts, bound):
    grid, _, operators = _random_lattices(n, counts, n)
    residual, peak = _traced_peak(grid_residual, grid, operators)
    assert residual.per_axis == reference_grid_residual(grid, operators)
    assert peak < bound


def test_compare_scratch_is_one_slab():
    # 1.2 MB of values in each lattice, and 2.4 MB of scratch in the whole-
    # lattice form; a slab's difference and its magnitude take 0.26 MB
    a, b, _ = _random_lattices(2, (401, 191), 5)
    deviations, peak = _traced_peak(compare_grids, a, b)
    assert deviations.tobytes() == reference_compare_grids(a, b).tobytes()
    assert peak - deviations.nbytes < 0.4 * MB


def test_direct_step_holds_the_stages_and_one_block_of_a():
    # one step on 16,001 nodes, each array over the window as large as u0:
    # seven stage buffers (u_x, the stage state and the next y, the four
    # slopes), and at n = 7 one block of A (with A over the whole window
    # the step took 13.4 MB); at n = 2 two transient arrays of one
    # component, an entry of A and its product with a column of v, and the
    # finiteness mask, an eighth of u0; the product keeps no scratch
    m = 16001
    for n, extra in ((7, 2 * MB), (2, 0.0)):
        A = companion_second([ExactPolynomial.variable(n, i)
                              for i in range(n)])
        xs = np.linspace(-0.5, 0.5, m)
        u0 = 0.1 * np.outer(np.sin(3.0 * xs), np.arange(1, n + 1))
        grid, peak = _traced_peak(direct_solve, A, xs, u0,
                                  0.4 * (xs[1] - xs[0]))
        assert grid.meta["steps"] == 1
        buffers = 7 if n > 2 else 7 + 1 + 0.25
        assert peak - grid.u.nbytes < buffers * u0.nbytes + extra
