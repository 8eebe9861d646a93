"""Tests for the Hamiltonian flow integrators and orbit grids."""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nijflow.flows as flows
from nijflow.cli import (ConfigError, build_model, config_axes, config_point,
                         config_settings, load_config)
from nijflow.exactpoly import (ExactPolynomial, compile_float_forms,
                               evaluate_float_form, parse_expression)
from nijflow.flows import (AxisSpec, CotangentPoint, FlowError, FlowSettings,
                           HamiltonianField, SolutionGrid, integrate_flow,
                           integrate_flow_path, orbit_grid, polynomial_flow)
from nijflow.metric import (PhaseFunction, build_h_family, first_integrals,
                            gram_matrix)
from nijflow.model import CompanionModel
from nijflow.operators import killing_operators
from nijflow.pde import grid_residual

from support import (convergence_orders, geodesic_from,
                     random_phase_function, reference_rk4_segment,
                     reference_rk45_segment, sigma_constant,
                     sigma_coordinates2, sigma_curved, sigma_obstructed,
                     upnames, verify_commutation, verify_conservation)

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIGS_DIR.glob("*.json"))

U2 = ["u1", "u2"]


def nijenhuis2_setup():
    sigma = [parse_expression("u1", U2),
             parse_expression("u2 - 1/2*u1^2", U2)]
    h1 = gram_matrix(build_h_family(sigma)[0])
    return sigma, h1, first_integrals(h1, killing_operators(sigma))


def constant2_setup():
    sigma = sigma_constant(2, [Fraction(1), Fraction(-1, 2)])
    h1 = gram_matrix(build_h_family(sigma)[0])
    return sigma, h1, first_integrals(h1, killing_operators(sigma))


def gap(a, b):
    """The largest coordinate difference of two cotangent points."""
    return max(abs(x - y) for x, y in zip(a.state(), b.state()))


# ---------------------------------------------------------------------------
# points and settings


def test_cotangent_point_round_trip():
    z = CotangentPoint((0.5, -1.0), (2.0, 3.0))
    assert z.n == 2
    assert z.state() == [0.5, -1.0, 2.0, 3.0]
    assert CotangentPoint.from_state(z.state()) == z


def test_cotangent_point_validation():
    with pytest.raises(ValueError):
        CotangentPoint((1.0,), (1.0, 2.0))
    with pytest.raises(ValueError):
        CotangentPoint((float("nan"),), (1.0,))
    with pytest.raises(ValueError):
        CotangentPoint((float("inf"),), (1.0,))


def test_flow_settings_validation():
    with pytest.raises(ValueError):
        FlowSettings(method="euler")
    with pytest.raises(ValueError):
        FlowSettings(step=0.0)
    with pytest.raises(ValueError):
        FlowSettings(abs_tol=0.0)


# ---------------------------------------------------------------------------
# the compiled canonical field


def test_divergence_of_canonical_field_is_zero():
    rng = random.Random(411)
    for n in (1, 2, 3):
        for _ in range(5):
            f = HamiltonianField(random_phase_function(rng, n, p_degree=2))
            divergence = sum((f.du_dt[i].partial(i)
                              + f.dp_dt[i].partial(n + i) for i in range(n)),
                             ExactPolynomial.zero(2 * n))
            assert divergence.is_zero()


def test_compiled_rhs_matches_symbolic_partials():
    rng = random.Random(412)
    for _ in range(10):
        F = random_phase_function(rng, 2, p_degree=2)
        f = HamiltonianField(F)
        state = [rng.uniform(-2, 2) for _ in range(4)]
        got = f(state)
        expected = [F.dp(0).evaluate(state), F.dp(1).evaluate(state),
                    -F.du(0).evaluate(state), -F.du(1).evaluate(state)]
        assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-12


def _interpreted_bits(field, state):
    return [evaluate_float_form(form, state).hex() for form in field._forms]


COMPILED_FAMILIES = {**{f"curved{n}": (sigma_curved, n) for n in range(2, 8)},
                     "obstructed5": (sigma_obstructed, 5),
                     "obstructed7": (sigma_obstructed, 7)}


@pytest.mark.parametrize("name", COMPILED_FAMILIES)
def test_compiled_rhs_is_bit_identical_to_the_interpreter(name):
    make, n = COMPILED_FAMILIES[name]
    rng = random.Random(name)
    for F in CompanionModel(make(n)).integrals:
        field = HamiltonianField(F)
        for _ in range(3):
            state = [rng.uniform(-1.5, 1.5) for _ in range(2 * n)]
            assert [v.hex() for v in field(state)] == _interpreted_bits(
                field, state)


def test_compiled_rhs_of_random_phase_functions_with_powers_up_to_5():
    rng = random.Random(413)
    for _ in range(60):
        n = rng.randint(1, 3)
        F = random_phase_function(rng, n, p_degree=rng.randint(1, 3),
                                  max_terms=8, max_degree=5)
        field = HamiltonianField(F)
        state = [rng.uniform(-3, 3) for _ in range(2 * n)]
        assert [v.hex() for v in field(state)] == _interpreted_bits(
            field, state)


def test_compiled_rhs_overflow_is_a_flow_error():
    # du1/dt = u1^5 overflows in x ** 5 on the first stage
    F = PhaseFunction(1, parse_expression("u1^5*p1", upnames(1)))
    start = CotangentPoint((1e100,), (1.0,))
    with pytest.raises(OverflowError):
        HamiltonianField(F)(start.state())
    for settings in (FlowSettings(method="rk4"), FlowSettings(method="rk45")):
        with pytest.raises(FlowError, match="state blew up") as err:
            integrate_flow(F, start, 0.5, settings)
        assert err.value.last_state == start


def test_rhs_is_compiled_once_per_field_built(monkeypatch):
    compiled = []

    def counted(forms, nvars):
        compiled.append(forms)
        return compile_float_forms(forms, nvars)

    monkeypatch.setattr(flows, "compile_float_forms", counted)
    model = _family_model("curved3")
    start = CotangentPoint((0.1, -0.2, 0.05), (0.8, 0.5, 0.3))
    orbit_grid(model.integrals[:2], start, [AxisSpec("x", 0.0, 0.5, 3),
                                            AxisSpec("t1", 0.0, 0.2, 3)])
    # the x-sweep runs the terminating series and builds no x-field; the
    # t-field is compiled when it is built and kept for every call
    got = list(compiled)
    reference = HamiltonianField(model.integrals[1])
    assert got == [reference._forms]
    assert compiled == [reference._forms] * 2  # the reference's own compile


def test_phase_function_evaluates_at_a_cotangent_point():
    _, _, integrals = constant2_setup()
    z = CotangentPoint((0.0, 0.0), (1.0, 2.0))
    assert integrals[0].evaluate(z.u, z.p) == pytest.approx(
        float(integrals[0].poly.evaluate_exact([0, 0, 1, 2])))


# ---------------------------------------------------------------------------
# exactly solvable flows: constant coefficients give affine motion


def test_constant_coefficient_flow_is_straight_line():
    _, h1, integrals = constant2_setup()
    G = h1.evaluate_at([0.0, 0.0])
    p0 = np.array([1.0, 2.0])
    start = CotangentPoint((0.0, 0.0), tuple(p0))
    for settings in (FlowSettings(method="rk4", step=1e-3),
                     FlowSettings(method="rk45")):
        end = integrate_flow(integrals[0], start, 0.7, settings)
        assert np.abs(np.array(end.u) - 0.7 * G @ p0).max() < 1e-12
        assert end.p == start.p


def test_constant_coefficient_orbit_grid_is_affine():
    _, h1, integrals = constant2_setup()
    G = h1.evaluate_at([0.0, 0.0])
    # second flow moves u by t * A1 G p with A1 = L - (tr L) Id
    A1G = np.array([[1.0, 0.0], [0.0, -0.5]])
    p0 = np.array([1.0, 2.0])
    axes = (AxisSpec("x", -1.0, 1.0, 11), AxisSpec("t1", 0.0, 0.5, 6))
    grid = orbit_grid(integrals, CotangentPoint((0.0, 0.0), tuple(p0)), axes,
                      FlowSettings(method="rk45"))
    assert grid.meta["generator"] == "orbit"
    xs, ts = axes[0].values(), axes[1].values()
    worst = 0.0
    for ix, x in enumerate(xs):
        for it, t in enumerate(ts):
            expect = x * (G @ p0) + t * (A1G @ p0)
            worst = max(worst, np.abs(grid.u[ix, it] - expect).max())
    assert worst < 1e-12
    assert np.abs(grid.p - p0).max() == 0.0


# ---------------------------------------------------------------------------
# structural properties of the flows


def test_flows_commute():
    _, _, integrals = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    mismatch = verify_commutation(integrals, start, 0.3, 0.3,
                                  FlowSettings(method="rk45"))
    assert mismatch < 1e-10


def test_integrals_are_conserved():
    _, _, integrals = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    drift = verify_conservation(integrals, start, 0.5,
                                FlowSettings(method="rk45"))
    assert drift < 1e-11


def test_rk4_and_rk45_agree():
    _, _, integrals = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    a = integrate_flow(integrals[0], start, 0.4, FlowSettings(method="rk4",
                                                              step=1e-3))
    b = integrate_flow(integrals[0], start, 0.4, FlowSettings(method="rk45"))
    assert gap(a, b) < 1e-10


def test_path_matches_single_segments():
    _, _, integrals = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    settings = FlowSettings(method="rk45", abs_tol=1e-13, rel_tol=1e-12)
    times = [0.1, 0.25, 0.4]
    path = integrate_flow_path(integrals[0], start, times, settings)
    assert len(path) == 3
    for t, stop in zip(times, path):
        direct = integrate_flow(integrals[0], start, t, settings)
        assert gap(stop, direct) < 1e-9


def test_backward_flow_inverts_forward_flow():
    _, _, integrals = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    settings = FlowSettings(method="rk45")
    there = integrate_flow(integrals[1], start, 0.4, settings)
    back = integrate_flow(integrals[1], there, -0.4, settings)
    assert gap(back, start) < 1e-10


# ---------------------------------------------------------------------------
# failure modes


def test_blow_up_reports_last_state():
    # du/dt = u^2 blows up at t = 1 from u(0) = 1
    F = PhaseFunction(1, parse_expression("u1^2*p1", upnames(1)))
    start = CotangentPoint((1.0,), (1.0,))
    for settings in (FlowSettings(method="rk4", step=1e-3),
                     FlowSettings(method="rk45")):
        with pytest.raises(FlowError) as err:
            integrate_flow(F, start, 2.0, settings)
        last = err.value.last_state
        assert last is not None
        assert all(math.isfinite(v) for v in last.state())
        assert last.u[0] > 10.0  # deep into the blow-up


def test_blow_up_before_horizon_with_adaptive_steps():
    F = PhaseFunction(1, parse_expression("u1^2*p1", upnames(1)))
    start = CotangentPoint((1.0,), (1.0,))
    with pytest.raises(FlowError):
        integrate_flow(F, start, 1.0, FlowSettings(method="rk45"))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rk45_rejects_a_non_finite_trial(monkeypatch, value):
    # max() dropped the nan error estimate, so each rejected trial grew the
    # step by 5 and the segment ran on to its step budget
    monkeypatch.setattr(flows, "MAX_STEPS", 10_000)
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        return [value] * len(y)

    with pytest.raises(FlowError, match="step size underflow"):
        flows._rk45_segment(rhs, [0.1, 0.2], 0.5, FlowSettings(method="rk45"))
    assert calls <= 300


def test_rk45_step_budget_exhausted(monkeypatch):
    monkeypatch.setattr(flows, "MAX_STEPS", 5)
    with pytest.raises(FlowError, match="step budget exhausted") as err:
        flows._rk45_segment(lambda y: [y[1], -y[0]], [1.0, 0.0], 100.0,
                            FlowSettings(method="rk45"))
    assert err.value.last_state is not None


def _counted(f):
    calls = [0]

    def rhs(y):
        calls[0] += 1
        return f(y)
    return rhs, calls


STEPPERS = {"rk4": (flows._rk4_segment, reference_rk4_segment),
            "rk45": (flows._rk45_segment, reference_rk45_segment)}


@pytest.mark.parametrize("method", STEPPERS)
@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_steppers_match_the_index_loop_oracles(config, method):
    # same bits and the same number of right-hand-side calls
    cfg = json.loads(config.read_text())
    model = build_model(cfg)
    y0 = config_point(cfg, model.n).state()
    settings = FlowSettings(method=method, step=0.01)
    stepper, reference = STEPPERS[method]
    for F in model.integrals:
        field = HamiltonianField(F)
        for t_span in (0.2, -0.15):
            new, new_calls = _counted(field)
            old, old_calls = _counted(field)
            got = stepper(new, y0, t_span, settings)
            expected = reference(old, y0, t_span, settings)
            assert [v.hex() for v in got] == [v.hex() for v in expected]
            assert new_calls == old_calls


@pytest.mark.parametrize("method", STEPPERS)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_steppers_fail_like_the_oracles_on_a_non_finite_field(method, value):
    stepper, reference = STEPPERS[method]
    outcomes = []
    for run in (stepper, reference):
        rhs, calls = _counted(lambda y: [value] * len(y))
        with pytest.raises(FlowError) as err:
            run(rhs, [0.1, 0.2], 0.05, FlowSettings(method=method))
        outcomes.append((str(err.value), err.value.last_state, calls))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# lattice plumbing


def test_axis_spec_values_and_delta():
    a = AxisSpec("x", -1.0, 1.0, 5)
    assert list(a.values()) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert a.delta == pytest.approx(0.5)
    single = AxisSpec("t1", 0.25, 0.25, 1)
    assert single.delta == 0.0
    with pytest.raises(ValueError):
        AxisSpec("x", 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        AxisSpec("x", 0.0, 1.0, 1)
    with pytest.raises(ValueError, match="infinite"):
        AxisSpec("x", -1e308, 1e308, 3)


@pytest.mark.parametrize("start, stop, count", [
    (0.1, 0.1, 3),
    (0.1, 0.1, 2),
    (0.0, 5e-324, 3),               # the step underflows to zero
    (1.0, 1.0 + 2**-52, 3),         # the middle node rounds to 1.0
    (-2.0, -2.0 - 2**-51, 4),
])
def test_axis_nodes_must_be_distinct(start, stop, count):
    nodes = np.linspace(start, stop, count)
    assert (nodes[1:] == nodes[:-1]).any()
    with pytest.raises(ValueError, match="must be distinct"):
        AxisSpec("x", start, stop, count)


def test_axis_nodes_a_few_ulps_apart_are_accepted():
    for start, stop, count in [(0.0, 5e-324, 2), (1.0, 1.0 + 2**-51, 3),
                               (1e16, 1e16 + 16, 9), (-3.0, 3.0, 2)]:
        nodes = AxisSpec("x", start, stop, count).values()
        assert (nodes[1:] != nodes[:-1]).all()
    # a nan endpoint is left to the lattice writer's guard
    assert np.isnan(AxisSpec("t1", 0.0, math.nan, 3).values()[1:]).all()


def test_axis_of_many_wide_spaced_nodes_is_not_computed():
    tracemalloc.start()
    try:
        AxisSpec("x", -0.5, 0.5, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_solution_grid_validation():
    axes = (AxisSpec("x", 0.0, 1.0, 3),)
    grid = SolutionGrid(axes, np.zeros((3, 2)))
    assert grid.n == 2
    with pytest.raises(ValueError):
        SolutionGrid(axes, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        SolutionGrid(axes, np.zeros((3, 2)), p=np.zeros((3, 1)))


def test_orbit_grid_requires_matching_axes():
    _, _, integrals = constant2_setup()
    start = CotangentPoint((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        orbit_grid(integrals, start, [AxisSpec("x", 0.0, 0.5, 3)])


def test_orbit_grid_nodes_match_composed_point_flows():
    _, _, integrals = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    settings = FlowSettings(method="rk45")
    axes = (AxisSpec("x", -0.4, 0.4, 9), AxisSpec("t1", 0.0, 0.3, 4))
    grid = orbit_grid(integrals, start, axes, settings)
    # spot-check one interior node against an independent composition
    ix, it = 7, 3
    x = axes[0].values()[ix]
    t = axes[1].values()[it]
    z = integrate_flow(integrals[1], start, t, settings)
    z = integrate_flow(integrals[0], z, x, settings)
    assert np.abs(grid.u[ix, it] - z.u).max() < 1e-9
    assert np.abs(grid.p[ix, it] - z.p).max() < 1e-9


def test_orbit_grid_x_derivative_matches_metric_times_momenta():
    # along the x-sweep du/dx = G(u) p; check by central differences
    _, h1, integrals = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    axes = (AxisSpec("x", -0.5, 0.5, 51), AxisSpec("t1", 0.0, 0.2, 3))
    grid = orbit_grid(integrals, start, axes, FlowSettings(method="rk45"))
    dx = axes[0].delta
    worst = 0.0
    for it in range(3):
        for ix in range(1, 50):
            du = (grid.u[ix + 1, it] - grid.u[ix - 1, it]) / (2 * dx)
            G = h1.evaluate_at(list(grid.u[ix, it]))
            worst = max(worst, np.abs(du - G @ grid.p[ix, it]).max())
    assert worst < 2e-3  # second-order finite-difference error


def curved3_pair():
    # the second integral's field has the cubic term u1^3*p3, so its Lie
    # series does not terminate and sweeping in x with it integrates
    names = ["u1", "u2", "u3"]
    sigma = [parse_expression(e, names)
             for e in ("u1", "u2 - 1/2*u1^2", "u3 - u1*u2 + 1/6*u1^3")]
    h1 = gram_matrix(build_h_family(sigma)[0])
    integrals = first_integrals(h1, killing_operators(sigma))
    return [integrals[1], integrals[0]]


def line_by_line(integrals, start, axes, settings):
    """The orbit lattice from scalar flows alone, one node at a time: the
    start moved by every time axis's start in axis order, then each time
    axis stepped up to the node's index by integrate_flow, axis after axis;
    the nodes in C order, then one integrate_flow_path per line."""
    origin = start
    for F, a in zip(integrals[1:], axes[1:]):
        if a.start != 0.0:
            origin = integrate_flow(F, origin, a.start, settings)
    nodes = []
    for idx in itertools.product(*(range(a.count) for a in axes[1:])):
        z = origin
        for F, a, i in zip(integrals[1:], axes[1:], idx):
            t = a.values()
            for k in range(1, i + 1):
                z = integrate_flow(F, z, t[k] - t[k - 1], settings)
        nodes.append(z)
    x = list(axes[0].values())
    return [integrate_flow_path(integrals[0], z, x, settings) for z in nodes]


def assert_grid_is_line_by_line(grid, lines):
    n = grid.n
    u = grid.u.reshape(grid.u.shape[0], -1, n)
    p = grid.p.reshape(u.shape)
    assert u.shape[1] == len(lines)
    for it, points in enumerate(lines):
        assert np.array_equal(u[:, it], [z.u for z in points])
        assert np.array_equal(p[:, it], [z.p for z in points])


@pytest.mark.parametrize("settings", [FlowSettings(method="rk4", step=0.01),
                                      FlowSettings(method="rk45")])
def test_orbit_grid_integrates_a_non_terminating_x_flow(settings):
    # curved n = 3: the second integral's series does not end by order 6,
    # so orbit_grid integrates each line, bit for bit as integrate_flow_path
    integrals = curved3_pair()
    start = CotangentPoint((0.4, -0.2, 0.05), (0.8, 0.5, 0.3))
    assert polynomial_flow(integrals[0]) is None
    axes = (AxisSpec("x", -0.3, 0.4, 8), AxisSpec("t1", -0.1, 0.3, 5))
    grid = orbit_grid(integrals, start, axes, settings)
    assert_grid_is_line_by_line(grid, line_by_line(integrals, start, axes,
                                                   settings))


def curved_reordered(n):
    # curved n: the second integral's series does not terminate, so with it
    # first the lattice's x-sweep is chained, and the others span the times
    integrals = CompanionModel(sigma_curved(n)).integrals
    assert polynomial_flow(integrals[1]) is None
    return [integrals[1], integrals[0], *integrals[2:]]


@pytest.mark.parametrize("settings", [FlowSettings(method="rk4", step=0.02),
                                      FlowSettings(method="rk45")])
@pytest.mark.parametrize("n", [3, 4])
def test_orbit_grid_composes_time_axes_in_prefix_order(n, settings):
    # every time axis starts off 0, so the start is moved by each in turn;
    # no shipped config has such an axis, and FLOAT_DIGESTS cannot see it
    integrals = curved_reordered(n)
    start = CotangentPoint((0.1, -0.2, 0.05, 0.02)[:n],
                           (0.8, 0.5, 0.3, 0.2)[:n])
    t_axes = (AxisSpec("t1", -0.1, 0.1, 3), AxisSpec("t2", 0.05, 0.15, 3),
              AxisSpec("t3", -0.08, 0.02, 2))[:n - 1]
    axes = (AxisSpec("x", -0.2, 0.1, 4),) + t_axes
    grid = orbit_grid(integrals, start, axes, settings)
    assert grid.u.shape == (4,) + tuple(a.count for a in t_axes) + (n,)
    assert_grid_is_line_by_line(grid, line_by_line(integrals, start, axes,
                                                   settings))


def test_config_settings_default_is_the_library_default(tmp_path):
    assert config_settings({}) == FlowSettings()
    # so a config without 'method' runs rk45, which never reads 'step'
    path = tmp_path / "step.json"
    path.write_text(json.dumps({"integrator": {"step": 0.01}}))
    with pytest.raises(ConfigError, match="'integrator.step' is never read "
                                          "by method 'rk45'"):
        load_config(str(path))


def test_orbit_grid_builds_no_point_per_node(monkeypatch):
    integrals = CompanionModel(sigma_curved(3)).integrals
    start = CotangentPoint((0.1, -0.2, 0.05), (0.8, 0.5, 0.3))
    settings = FlowSettings(method="rk4", step=0.01)
    built = []
    check = CotangentPoint.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(CotangentPoint, "__post_init__", counting)
    counts = []
    for nx, nt in ((61, 11), (31, 6)):
        built.clear()
        grid = orbit_grid(integrals, start,
                          [AxisSpec("x", -0.5, 0.5, nx),
                           AxisSpec("t1", 0.0, 0.2, nt),
                           AxisSpec("t2", 0.0, 0.2, nt)], settings)
        assert grid.u.shape == (nx, nt, nt, 3)
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("settings", [
    FlowSettings(method="rk4", step=1e-3),
    FlowSettings(method="rk45")])
def test_non_terminating_x_flow_blow_up_raises_the_first_failing_line(
        settings):
    # du1/dx = u1^2 blows up at x = 1/u1(0); the t-flow of p1 shifts u1, so
    # the lines start at u1 = -1/2 ... 2 and only the positive ones blow up
    F = PhaseFunction(1, parse_expression("u1^2*p1", upnames(1)))
    G = PhaseFunction(1, parse_expression("p1", upnames(1)))
    start = CotangentPoint((-0.5,), (1.0,))
    axes = (AxisSpec("x", 0.0, 1.5, 4), AxisSpec("t1", 0.0, 2.5, 6))
    with pytest.raises(FlowError) as err:
        orbit_grid([F, G], start, axes, settings)
    with pytest.raises(FlowError) as scalar:
        line_by_line([F, G], start, axes, settings)
    last = err.value.last_state
    assert last is not None
    assert all(math.isfinite(v) for v in last.state())
    assert str(err.value) == str(scalar.value)
    assert last == scalar.value.last_state


# ---------------------------------------------------------------------------
# the x-flow as a terminating Lie series

# sigma lists whose first integral's series must end within the cap: the
# curved, obstructed and constant families and the coordinate control
SERIES_FAMILIES = {
    **{f"curved{n}": (sigma_curved, n) for n in range(1, 5)},
    **{f"obstructed{n}": (sigma_obstructed, n) for n in range(2, 6)},
    **{f"constant{n}": (sigma_constant, n) for n in range(1, 5)},
    "coordinates2": (lambda n: sigma_coordinates2(), 2),
}


def _family_model(name):
    make, n = SERIES_FAMILIES[name]
    return CompanionModel(make(n))


def _config_model(path):
    return build_model(json.loads(path.read_text()))


@pytest.mark.parametrize("name", SERIES_FAMILIES)
def test_first_integral_series_ends_by_order_n(name):
    model = _family_model(name)
    series = polynomial_flow(model.integrals[0])
    assert series is not None
    assert len(series) == 2 * model.n
    assert max(len(coeffs) for coeffs in series) - 1 <= model.n


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_shipped_first_integrals_have_terminating_series(config):
    model = _config_model(config)
    series = polynomial_flow(model.integrals[0])
    assert series is not None
    assert max(len(coeffs) for coeffs in series) - 1 <= model.n


@pytest.mark.parametrize("name", ["curved2", "curved3", "curved4",
                                  "obstructed3", "constant3"])
def test_series_solves_the_flow_exactly(name):
    # at rational points and times, the exactly evaluated series z(x)
    # satisfies Hamilton's equations dz/dx = {F0, z} at z(x)
    model = _family_model(name)
    F, n = model.integrals[0], model.n
    series = polynomial_flow(F)
    field = [F.dp(i) for i in range(n)] + [-F.du(i) for i in range(n)]
    rng = random.Random(name)
    for _ in range(3):
        z0 = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(2 * n)]
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        coeffs = [[c.evaluate_exact(z0) for c in cs] for cs in series]
        z = [sum(c * x ** k for k, c in enumerate(cs)) for cs in coeffs]
        dz = [sum(k * c * x ** (k - 1) for k, c in enumerate(cs) if k)
              for cs in coeffs]
        assert [cs[0] for cs in coeffs] == z0
        assert dz == [g.evaluate_exact(z) for g in field]


def test_series_is_built_once_per_integral():
    # orbit_grid leaves the series on the integral for the next caller
    F = _family_model("curved3").integrals[0]
    start = CotangentPoint((0.1, -0.2, 0.05), (0.8, 0.5, 0.3))
    orbit_grid([F], start, [AxisSpec("x", 0.0, 0.5, 3)])
    cached = F._flows
    assert cached is not None
    assert polynomial_flow(F) is cached


def test_series_gives_up_past_the_cap():
    # du1/dt = u1^2 has the solution u1/(1 - t u1): no polynomial
    F = PhaseFunction(1, parse_expression("u1^2*p1", upnames(1)))
    assert polynomial_flow(F) is None
    assert F._flows is None and polynomial_flow(F) is None
    # dp1/dt = -2 u1 p1 grows the momentum's series too
    G = PhaseFunction(1, parse_expression("u1*p1^2", upnames(1)))
    assert polynomial_flow(G) is None
    # a quadratic Hamiltonian in p alone moves u linearly
    H = PhaseFunction(1, parse_expression("p1^2", upnames(1)))
    assert polynomial_flow(H) is not None


# Largest deviation of the series sweep from the RK45/RK4 lines it
# replaces, on the lattice each shipped config evolves, relative to the
# largest |u| or |p| there: the series is exact to a few ulps, and the
# lines' roundoff grows with the state.  Measured 1.4e-14 (nijenhuis3_direct,
# |z| up to 10.1).  On the seven configs first held to an absolute 1e-13
# (|z| at most 6.25) the bound is at most 9.4e-14.
SERIES_VS_INTEGRATOR = 1.5e-14


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_series_sweep_matches_the_integrator(config):
    cfg = json.loads(config.read_text())
    model = build_model(cfg)
    n = model.n
    axes = config_axes(cfg, n)
    start = config_point(cfg, n)
    settings = config_settings(cfg)
    integrals = model.integrals[:len(axes)]
    grid = orbit_grid(integrals, start, axes, settings)
    # the line starts: the same lattice at the single node x = 0
    nodes = orbit_grid(integrals, start,
                       (AxisSpec("x", 0.0, 0.0, 1),) + axes[1:], settings)
    starts = np.concatenate([nodes.u, nodes.p], axis=-1).reshape(-1, 2 * n)
    x = list(axes[0].values())
    lines = np.array([[z.state() for z in integrate_flow_path(
        integrals[0], CotangentPoint.from_state(s), x, settings)]
        for s in starts.tolist()])
    lines = lines.swapaxes(0, 1).reshape(grid.u.shape[:-1] + (2 * n,))
    bound = SERIES_VS_INTEGRATOR * np.abs(lines).max()
    assert np.abs(grid.u - lines[..., :n]).max() <= bound
    assert np.abs(grid.p - lines[..., n:]).max() <= bound


@pytest.mark.parametrize("stop", [1e200, 1e308])
def test_series_overflow_raises_flow_error(stop):
    _, _, integrals = nijenhuis2_setup()
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    axes = (AxisSpec("x", -0.5, stop, 11), AxisSpec("t1", 0.0, 0.2, 3))
    with pytest.raises(FlowError, match="overflowed"):
        orbit_grid(integrals, start, axes)


# ---------------------------------------------------------------------------
# curved n = 3 and 4: the integrals of the nijenhuis3/nijenhuis4 fixtures


def commutation_and_drift(name):
    cfg = json.loads(CONFIGS_DIR.joinpath(f"{name}.json").read_text())
    model = build_model(cfg)
    start = config_point(cfg, model.n)
    settings = FlowSettings(method="rk45", abs_tol=1e-12, rel_tol=1e-12)
    return (verify_commutation(model.integrals, start, 0.2, 0.2, settings),
            verify_conservation(model.integrals, start, 0.3, settings))


def test_nijenhuis3_flows_commute_and_conserve_the_integrals():
    commutation, drift = commutation_and_drift("nijenhuis3")
    assert commutation < 1e-11
    assert drift < 1e-11


def test_nijenhuis4_flows_commute_and_conserve_the_integrals():
    # measured 6.6e-14 and 1.3e-13
    commutation, drift = commutation_and_drift("nijenhuis4")
    assert commutation < 1e-11
    assert drift < 1e-11


# curved n = 5: the integrals of sigma_curved(5), the first rung above the
# shipped fixtures; measured 1.0e-13 and 2.2e-13, orders 1.99 and 2.00


def curved5_setup():
    model = CompanionModel(sigma_curved(5))
    start = CotangentPoint((0.1, -0.2, 0.05, 0.02, 0.01),
                           (0.8, 0.5, 0.3, 0.2, 0.1))
    settings = FlowSettings(method="rk45", abs_tol=1e-12, rel_tol=1e-12)
    return model, start, settings


def test_curved5_flows_commute_and_conserve_the_integrals():
    model, start, settings = curved5_setup()
    assert verify_commutation(model.integrals, start, 0.2, 0.2,
                              settings) < 1e-11
    assert verify_conservation(model.integrals, start, 0.3, settings) < 1e-11


def test_curved5_orbit_residual_is_second_order():
    # x in [-0.5, 0.5] on 11, 21 and 41 nodes, t1 in [0, 0.2] at the same
    # spacing
    model, start, settings = curved5_setup()
    residuals = []
    for nx in (11, 21, 41):
        nt = (nx - 1) // 5 + 1
        axes = (AxisSpec("x", -0.5, 0.5, nx), AxisSpec("t1", 0.0, 0.2, nt))
        grid = orbit_grid(model.integrals[:2], start, axes, settings)
        residuals.append(grid_residual(grid, model.killing[1:2]).max_abs)
    assert 1e-5 < residuals[0] < 1e-3
    assert min(convergence_orders(residuals)) >= 1.9


# ---------------------------------------------------------------------------
# geodesic initial data


def test_geodesic_from_solves_for_momenta():
    _, h1, integrals = nijenhuis2_setup()
    u0 = [0.3, -0.2]
    udot0 = [1.0, 0.5]
    z = geodesic_from(u0, udot0, h1)
    assert z.u == (0.3, -0.2)
    # the x-flow velocity at z must reproduce udot0
    rhs = HamiltonianField(integrals[0])(z.state())
    assert max(abs(rhs[i] - udot0[i]) for i in range(2)) < 1e-12


def test_geodesic_from_rejects_singular_metric():
    # gram matrix of the second function degenerates where sigma_2 = 0
    sigma = [parse_expression("u1", U2),
             parse_expression("u2 - 1/2*u1^2", U2)]
    family = build_h_family(sigma)
    g2 = gram_matrix(family[1])  # [[1, 0], [0, sigma_2]]
    with pytest.raises(FlowError):
        geodesic_from([1.0, 0.5], [1.0, 1.0], g2)
