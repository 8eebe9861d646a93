"""Acceptance gate: the seven headline guarantees, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test prints ``[acceptance] criterion k (...): PASS/FAIL`` and then
asserts, so a failure is visible both in the printed line and in the pytest
outcome.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

from nijflow.cli import main
from nijflow.flows import (AxisSpec, CotangentPoint, FlowSettings,
                           integrate_flow_path, orbit_grid)
from nijflow.metric import (benenti_residual, build_h_family,
                            check_gram_normal_form,
                            coordinate_form_residual_at, covariant_at,
                            gram_matrix, pairwise_poisson, symmetry_metric)
from nijflow.model import CompanionModel
from nijflow.operators import OperatorField, companion_second, \
    killing_operators, nijenhuis_torsion
from nijflow.pde import compare_grids, direct_solve, grid_residual

from support import (convergence_orders, generating_identity_residuals,
                     geodesic_from, h_family_from_pencil, lie_form_residual_at,
                     random_polynomial, random_sigma, self_adjoint_residual,
                     shift_parts, verify_commutation, verify_conservation)

REPO = Path(__file__).resolve().parent.parent


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {number} ({label}): " \
           f"{'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def e2():
    return CompanionModel.from_expressions(["u1", "u2 - 1/2*u1^2"])


@pytest.fixture(scope="session")
def e0():
    return CompanionModel.from_expressions(["1/2", "-1", "1/3"])


def identity_suite(model: CompanionModel) -> list[str]:
    """Names of the exact identities that fail on this model."""
    failures = []
    if not all(layer.is_zero() for layer in nijenhuis_torsion(model.operator)):
        failures.append("torsion")
    if check_gram_normal_form(model.gram):
        failures.append("gram_normal_form")
    if not all(r.is_zero() for rows in shift_parts(model)
               for row in rows for r in row):
        failures.append("differential_shift")
    if not all(b.is_zero() for _, _, b in pairwise_poisson(model.family)):
        failures.append("h_poisson_pairs")
    adjoint = self_adjoint_residual(model.gram, model.operator, model.family)
    if not adjoint.ok:
        failures.append("self_adjoint_closure")
    if not benenti_residual(model).poly.is_zero():
        failures.append("benenti")
    if not all(b.is_zero()
               for _, _, b in pairwise_poisson(model.integrals)):
        failures.append("integral_commutation")
    if not all(r.is_zero() for r in generating_identity_residuals(
            model.operator, model.killing)):
        failures.append("generating_identity")
    return failures


def test_criterion_1_exact_identities(e2, e0):
    begin = time.time()
    failures = []
    for name, model in (("constant", e0), ("nijenhuis2", e2)):
        failures += [f"{name}:{f}" for f in identity_suite(model)]
    elapsed = time.time() - begin
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report(1, "exact identities", not failures,
           "; ".join(failures) or f"all zero polynomials in {elapsed:.2f}s")


def test_criterion_2_negative_control(capsys):
    x2 = CompanionModel.from_expressions(["u1", "u2"])
    problems = []
    if all(layer.is_zero() for layer in nijenhuis_torsion(x2.operator)):
        problems.append("torsion unexpectedly zero")
    if all(r.is_zero() for rows in shift_parts(x2)
           for row in rows for r in row):
        problems.append("shift identities unexpectedly hold")
    if benenti_residual(x2).poly.is_zero():
        problems.append("bracket residual unexpectedly zero")
    code = main(["verify", str(REPO / "configs" / "coordinates2.json")])
    out = capsys.readouterr().out
    if code != 1:
        problems.append(f"verify exited {code}, wanted 1")
    else:
        failing = {c["name"] for c in json.loads(out)["checks"]
                   if c["verdict"] == "fail"}
        missing = {"torsion", "differential_shift", "benenti"} - failing
        if missing:
            problems.append(f"verify did not flag {sorted(missing)}")
    with capsys.disabled():
        report(2, "negative control", not problems, "; ".join(problems) or
               "non-Nijenhuis fixture rejected, verify exit 1")


def test_criterion_3_pointwise_equivalence(e2):
    rng = np.random.default_rng(20260825)
    poly_rng = random.Random(20260825)
    worst_coord = 0.0
    worst_lie = 0.0
    for _ in range(50):
        point = [float(v) for v in rng.uniform(-2.0, 2.0, size=e2.n)]
        g_at = covariant_at(e2.gram, point)
        worst_coord = max(worst_coord, coordinate_form_residual_at(
            g_at, e2.operator))
        xi = [random_polynomial(poly_rng, e2.n, max_degree=2)
              for _ in range(e2.n)]
        eta = [random_polynomial(poly_rng, e2.n, max_degree=2)
               for _ in range(e2.n)]
        worst_lie = max(worst_lie, abs(lie_form_residual_at(
            g_at, e2.operator, xi, eta)))
    ok = worst_coord < 1e-8 and worst_lie < 1e-8
    report(3, "pointwise compatibility sweep", ok,
           f"coordinate form {worst_coord:.2e}, invariant form "
           f"{worst_lie:.2e} over 50 points")


def test_criterion_4_transformed_metrics(e2):
    L = e2.operator
    candidates = {
        "Id": OperatorField.identity(2),
        "L": L,
        "L^2": L @ L,
        "L+3Id": L + OperatorField.identity(2) * 3,
    }
    rng = np.random.default_rng(20260825)
    points = [[float(v) for v in rng.uniform(-2.0, 2.0, size=2)]
              for _ in range(50)]
    worst = 0.0
    used = 0
    for name, M in candidates.items():
        for point in points:
            if abs(np.linalg.det(M.evaluate_at(point))) <= 1e-6:
                continue
            used += 1
            g_at = covariant_at(e2.gram, point)
            g_new = symmetry_metric(g_at, M)
            worst = max(worst, coordinate_form_residual_at(g_new, L))
    ok = worst < 1e-8 and used > 150
    report(4, "transformed metrics", ok,
           f"residual {worst:.2e} at {used} admissible point/operator pairs")


@pytest.fixture(scope="session")
def e2_orbit(e2):
    start = CotangentPoint((0.1, -0.2), (0.8, 0.5))
    axes = (AxisSpec("x", 0.0, 1.0, 101), AxisSpec("t1", 0.0, 0.5, 51))
    settings = FlowSettings(method="rk45", abs_tol=1e-12, rel_tol=1e-12)
    grid = orbit_grid(e2.integrals, start, axes, settings)
    return start, axes, settings, grid


def test_criterion_5_flow_suite(e2, e2_orbit):
    begin = time.time()
    start, axes, settings, grid = e2_orbit
    problems = []

    # (a) every fixed-time line is itself a geodesic of the metric
    xs = list(axes[0].values())
    worst_line = 0.0
    for it in range(axes[1].count):
        u0 = grid.u[0, it]
        p0 = grid.p[0, it]
        udot0 = e2.gram.evaluate_at(list(u0)) @ p0
        z0 = geodesic_from(u0, udot0, e2.gram)
        line = integrate_flow_path(e2.integrals[0], z0, xs, settings)
        for ix, pt in enumerate(line):
            worst_line = max(worst_line,
                             float(np.abs(grid.u[ix, it] - pt.u).max()))
    if worst_line >= 1e-7:
        problems.append(f"line re-integration off by {worst_line:.2e}")

    # (b) the flows commute
    tight = FlowSettings(method="rk45", abs_tol=1e-12, rel_tol=1e-12)
    mismatch = verify_commutation(e2.integrals, start, 0.3, 0.3, tight)
    if mismatch >= 1e-8:
        problems.append(f"commutation discrepancy {mismatch:.2e}")

    # (c) every integral is conserved along every flow
    drift = verify_conservation(e2.integrals, start, 0.5, tight)
    if drift >= 1e-8:
        problems.append(f"conservation drift {drift:.2e}")

    # (d) discrete residuals of the quasilinear system converge at order 2
    residuals = []
    for delta in (4e-2, 2e-2, 1e-2):
        nx = round(0.5 / delta) + 1
        nt = round(0.5 / delta) + 1
        ladder_axes = (AxisSpec("x", 0.0, 0.5, nx),
                       AxisSpec("t1", 0.0, 0.5, nt))
        ladder = orbit_grid(e2.integrals, start, ladder_axes, settings)
        residuals.append(grid_residual(ladder, [e2.killing[1]]).max_abs)
    orders = convergence_orders(residuals)
    if min(orders) < 1.8:
        problems.append(f"residual orders {orders}")

    elapsed = time.time() - begin
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.0f}s")
    report(5, "flow suite", not problems, "; ".join(problems) or
           f"line {worst_line:.1e}, commute {mismatch:.1e}, drift "
           f"{drift:.1e}, orders {[round(o, 2) for o in orders]}, "
           f"{elapsed:.1f}s")


def test_criterion_6_direct_vs_reduction(e2):
    problems = []

    # constant coefficients: the direct solution is exact
    c2 = CompanionModel.from_expressions(["1", "-1/2"])
    G = c2.gram.evaluate_at([0.0, 0.0])
    p0 = np.array([1.0, 2.0])
    xs = np.linspace(-2.0, 2.0, 161)
    direct0 = direct_solve(c2.killing[1], xs, np.outer(xs, G @ p0), 0.25,
                           cfl=0.0625 / (xs[1] - xs[0]))
    orbit0 = orbit_grid(c2.integrals, CotangentPoint((0.0, 0.0), tuple(p0)),
                        direct0.axes,
                        FlowSettings(method="rk45"))
    dev0 = compare_grids(direct0, orbit0).max()
    if dev0 >= 1e-10:
        problems.append(f"constant-coefficient deviation {dev0:.2e}")

    # curved fixture: deviation within C*dx^2 and shrinking under refinement
    start = CotangentPoint((0.1, -0.2), (0.8, 2.5))
    settings = FlowSettings(method="rk45", abs_tol=1e-13, rel_tol=1e-12)
    span, t_end, C = 1.5, 0.05, 1.0
    deviations = []
    for dx in (0.05, 0.025, 0.0125):
        nx = round(2 * span / dx) + 1
        lattice = np.linspace(-span, span, nx)
        curve = orbit_grid([e2.integrals[0]], start,
                           (AxisSpec("x", -span, span, nx),), settings)
        direct = direct_solve(e2.killing[1], lattice, curve.u, t_end)
        orbit = orbit_grid(e2.integrals, start, direct.axes, settings)
        dev = compare_grids(direct, orbit).max()
        deviations.append(dev)
        if dev > C * dx * dx:
            problems.append(f"deviation {dev:.2e} above {C}*dx^2 at dx={dx}")
    ratios = [b / a for a, b in zip(deviations, deviations[1:])]
    if max(ratios) > 0.35:
        problems.append(f"refinement ratios {ratios}")

    report(6, "direct vs reduction", not problems, "; ".join(problems) or
           f"constant {dev0:.1e}; curved {[f'{d:.1e}' for d in deviations]}, "
           f"ratios {[round(r, 3) for r in ratios]}")


def test_criterion_7_randomized_algebra():
    rng = random.Random(180451)
    checked = 0
    problems = []
    while checked < 100 and not problems:
        n = checked % 4 + 1
        sigma = random_sigma(rng, n)
        family = build_h_family(sigma)
        oracle = h_family_from_pencil(sigma)
        if [h.poly for h in family] != [h.poly for h in oracle]:
            problems.append(f"family mismatch at case {checked} (n={n})")
            break
        gram = gram_matrix(family[0])
        det = gram.determinant()
        if det.total_degree() != 0 or abs(det.constant_value()) != 1:
            problems.append(f"determinant not a unit at case {checked}")
            break
        L = companion_second(sigma)
        if not all(r.is_zero() for r in generating_identity_residuals(
                L, killing_operators(sigma))):
            problems.append(f"generating identity fails at case {checked}")
            break
        checked += 1
    report(7, "randomized algebra", not problems and checked == 100,
           "; ".join(problems) or "100 random coefficient lists, all exact")
