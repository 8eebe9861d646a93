"""Geodesic compatibility checks in bracket, coordinate and Lie form."""

import random
from fractions import Fraction

import numpy as np
import pytest

from support import (
    lie_form_residual_at,
    lie_form_terms_at,
    momentum_degrees,
    random_polynomial,
    reference_benenti_residual,
    reference_coordinate_form_residual_at,
    reference_covariant_at,
    self_adjoint_residual,
    sigma_cases,
    sigma_constant,
    sigma_coordinates2,
    sigma_curved,
    sigma_obstructed,
    sigma_torsion_free2,
    upnames,
    upoly,
)

from nijflow.exactpoly import ExactPolynomial, parse_expression
from nijflow.metric import (CompatError, benenti_residual, build_h_family,
                            coordinate_form_residual_at, covariant_at,
                            gram_matrix, pairwise_poisson, symmetry_metric)
from nijflow.model import CompanionModel
from nijflow.operators import OperatorField, companion_second


def metric_setup(sigma):
    family = build_h_family(sigma)
    return family, gram_matrix(family[0]), companion_second(sigma)


class TestSelfAdjoint:
    def test_torsion_free_family(self):
        family, h1, L = metric_setup(sigma_torsion_free2())
        report = self_adjoint_residual(h1, L, family)
        assert report.ok
        assert all(e.is_zero() for row in report.antisymmetry for e in row)
        assert all(e.is_zero() for row in report.closure for e in row)

    def test_constant_family(self):
        family, h1, L = metric_setup(sigma_constant(3))
        assert self_adjoint_residual(h1, L, family).ok

    def test_unrelated_operator_fails(self):
        family, h1, _ = metric_setup(sigma_torsion_free2())
        M = OperatorField([[upoly("u2", 2), 0], [0, upoly("u1", 2)]])
        report = self_adjoint_residual(h1, M)
        assert not report.ok

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_curved_family(self, n):
        family, h1, L = metric_setup(sigma_curved(n))
        report = self_adjoint_residual(h1, L, family)
        assert report.ok
        assert all(e.is_zero() for row in report.closure for e in row)

    def test_closure_without_family_not_computed(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        report = self_adjoint_residual(h1, L)
        assert report.closure is None
        assert report.ok


class TestBracketForm:
    def test_torsion_free_residual_vanishes(self):
        sig = sigma_torsion_free2()
        assert benenti_residual(CompanionModel(sig)).is_zero()

    def test_constant_residual_vanishes(self):
        for n in (1, 2, 3):
            sig = sigma_constant(n)
            assert benenti_residual(CompanionModel(sig)).is_zero()

    def test_coordinate_pair_residual(self):
        sig = sigma_coordinates2()
        residual = benenti_residual(CompanionModel(sig))
        assert residual.poly == parse_expression("u1*p2^3", upnames(2))

    def test_coordinate_pair_residual_magnitude(self):
        sig = sigma_coordinates2()
        residual = benenti_residual(CompanionModel(sig))
        assert not residual.is_zero()
        assert residual.poly.max_abs_coefficient() == 1

    @pytest.mark.parametrize("sigma", [
        *(sigma_curved(n) for n in range(1, 6)), sigma_obstructed(5),
        sigma_coordinates2()],
        ids=[*(f"curved{n}" for n in range(1, 6)), "obstructed5",
             "coordinates2"])
    def test_matches_the_product_form(self, sigma):
        # F read from the model as h_2 + sigma_1 h_1, and d(tr L) as
        # d(sigma_1), against the lift of h1 L^T and the trace of L
        got = benenti_residual(CompanionModel(sigma))
        expected = reference_benenti_residual(CompanionModel(sigma))
        assert got == expected

    @pytest.mark.parametrize("sigma", sigma_cases())
    def test_benenti_is_half_the_first_h_bracket(self, sigma):
        # {H, F} - 2 H {H, tr L} with H = h_1/2, F = h_2 + sigma_1 h_1 is
        # 1/2 {h_1, h_2} by the Leibniz rule; verify reads it so
        model = CompanionModel(sigma)
        residual = benenti_residual(model).poly
        pairs = pairwise_poisson(model.family)
        if model.n == 1:
            assert pairs == () and residual.is_zero()
        else:
            assert pairs[0][:2] == (1, 2)
            assert residual == pairs[0][2].poly * Fraction(1, 2)

    @pytest.mark.parametrize("sigma", sigma_cases())
    def test_residual_is_cubic_or_zero(self, sigma):
        residual = benenti_residual(CompanionModel(sigma))
        assert momentum_degrees(residual) == (
            set() if residual.is_zero() else {3})


class TestCoordinateForm:
    def test_torsion_free_points(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        for point in ([0.3, -0.7], [1.2, 0.4], [-1.5, 2.0]):
            cov = covariant_at(h1, point)
            assert coordinate_form_residual_at(cov, L) < 1e-10

    def test_constant_points(self):
        _, h1, L = metric_setup(sigma_constant(2))
        cov = covariant_at(h1, [0.9, -2.4])
        assert coordinate_form_residual_at(cov, L) == 0.0

    def test_coordinate_pair_fails(self):
        _, h1, L = metric_setup(sigma_coordinates2())
        cov = covariant_at(h1, [1.0, 1.0])
        residual = coordinate_form_residual_at(cov, L)
        assert residual > 1e-3
        assert residual == pytest.approx(2.0)

    def test_theorem_zero_sweep(self):
        # zero bracket-form residual implies pointwise compatibility
        sig = sigma_torsion_free2()
        _, h1, L = metric_setup(sig)
        assert benenti_residual(CompanionModel(sig)).is_zero()
        rng = random.Random(2061)
        for _ in range(50):
            point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            cov = covariant_at(h1, point)
            assert coordinate_form_residual_at(cov, L) < 1e-8

    def test_converse_failure_detectable(self):
        sig = sigma_coordinates2()
        _, h1, L = metric_setup(sig)
        assert not benenti_residual(CompanionModel(sig)).is_zero()
        rng = random.Random(99)
        worst = 0.0
        for _ in range(50):
            point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            worst = max(worst,
                        coordinate_form_residual_at(covariant_at(h1, point), L))
        assert worst > 1e-4

    @pytest.mark.parametrize("sigma", [
        sigma_curved(3), sigma_curved(4), sigma_obstructed(5),
        sigma_torsion_free2()],
        ids=["curved3", "curved4", "obstructed5", "nijenhuis2"])
    def test_sweep_is_bit_identical_to_array_form(self, sigma):
        _, h1, L = metric_setup(sigma)
        rng = np.random.default_rng(4417)
        for _ in range(50):
            point = [float(v) for v in rng.uniform(-2.0, 2.0, size=len(sigma))]
            cov = covariant_at(h1, point)
            assert (coordinate_form_residual_at(cov, L)
                    == _coordinate_form_array_reference(cov, L))


def _coordinate_form_array_reference(g_at, L):
    """The numpy-array form of ``coordinate_form_residual_at``: the same
    residual with every product and sum taken on numpy scalars."""
    n = L.n
    point = g_at.point.tolist()
    g = g_at.g
    dg = g_at.dg
    Lv = L.evaluate_at(point)
    dL = np.array([[[L.entry(a, b).partial(i).evaluate(point)
                     for b in range(n)] for a in range(n)] for i in range(n)])
    trace = L.trace()
    dtr = np.array([trace.partial(j).evaluate(point) for j in range(n)])

    def half(i, j, k):
        t1 = sum(g[k, a] * dL[i, a, j] for a in range(n))
        t2 = sum((dg[a, i, k] - dg[k, i, a]) * Lv[a, j] for a in range(n))
        return t1 + t2

    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = half(i, j, k) + half(i, k, j)
                rhs = g[i, k] * dtr[j] + g[i, j] * dtr[k]
                worst = max(worst, abs(lhs - rhs))
    return worst


STACK_CASES = {f"curved{n}": (lambda n=n: sigma_curved(n)) for n in range(2, 7)}
STACK_CASES["obstructed5"] = lambda: sigma_obstructed(5)
STACK_CASES["coordinates2"] = sigma_coordinates2


@pytest.fixture(scope="module", params=sorted(STACK_CASES))
def stacked_case(request):
    """A metric setup with 50 seeded points, drawn as the verify sweep
    draws them."""
    sigma = STACK_CASES[request.param]()
    _, h1, L = metric_setup(sigma)
    points = np.random.default_rng(len(sigma) + 40).uniform(
        -2.0, 2.0, size=(50, len(sigma)))
    return h1, L, points


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestStackedCoordinateForm:
    def test_stacked_metric_is_bit_identical_to_single_points(
            self, stacked_case):
        h1, _, points = stacked_case
        stacked = covariant_at(h1, points)
        assert stacked.g.shape == (50, h1.n, h1.n)
        assert stacked.dg.shape == (50, h1.n, h1.n, h1.n)
        assert stacked.n == h1.n
        for i, point in enumerate(points.tolist()):
            single = covariant_at(h1, point)
            assert _bits(stacked.g[i]) == _bits(single.g)
            assert _bits(stacked.dg[i]) == _bits(single.dg)

    def test_single_point_results_are_unchanged(self, stacked_case):
        h1, L, points = stacked_case
        for point in points[:10].tolist():
            cov = covariant_at(h1, point)
            ref = reference_covariant_at(h1, point)
            assert np.array_equal(cov.point, point)
            assert np.array_equal(ref.point, point)
            assert _bits(cov.g) == _bits(ref.g)
            assert _bits(cov.dg) == _bits(ref.dg)
            residual = coordinate_form_residual_at(cov, L)
            assert type(residual) is float
            assert (residual.hex()
                    == reference_coordinate_form_residual_at(ref, L).hex())

    def test_stacked_residual_matches_the_oracle_point_by_point(
            self, stacked_case):
        h1, L, points = stacked_case
        residuals = coordinate_form_residual_at(covariant_at(h1, points), L)
        assert residuals.shape == (50,)
        expected = [reference_coordinate_form_residual_at(
            reference_covariant_at(h1, point), L) for point in points.tolist()]
        assert [r.hex() for r in residuals.tolist()] == [
            r.hex() for r in expected]

    def test_leading_axes_of_any_shape(self, stacked_case):
        h1, L, points = stacked_case
        grid = points.reshape(5, 10, -1)
        residuals = coordinate_form_residual_at(covariant_at(h1, grid), L)
        assert residuals.shape == (5, 10)
        flat = coordinate_form_residual_at(covariant_at(h1, points), L)
        assert _bits(residuals) == _bits(flat.reshape(5, 10))


class TestLieForm:
    def test_constant_coordinate_fields(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        e1 = (ExactPolynomial.constant(2, 1), ExactPolynomial.zero(2))
        cov = covariant_at(h1, [0.3, -0.7])
        assert lie_form_residual_at(cov, L, e1, e1) < 1e-10

    def test_zero_field_trivial(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        zero = (ExactPolynomial.zero(2), ExactPolynomial.zero(2))
        eta = (ExactPolynomial.constant(2, 1), ExactPolynomial.constant(2, 2))
        cov = covariant_at(h1, [0.5, 0.5])
        assert lie_form_residual_at(cov, L, zero, eta) == 0.0

    def test_random_fields_sweep(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        rng = random.Random(7)
        for _ in range(20):
            xi = tuple(random_polynomial(rng, 2, max_terms=3, max_degree=2)
                       for _ in range(2))
            eta = tuple(random_polynomial(rng, 2, max_terms=3, max_degree=2)
                        for _ in range(2))
            point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            cov = covariant_at(h1, point)
            assert lie_form_residual_at(cov, L, xi, eta) < 1e-8

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_fields_sweep_curved(self, n):
        # measured 2.8e-12, 6.8e-13 and 8.9e-10: absolute roundoff, largest
        # where the fields reach 1e2 at the point (n = 5)
        _, h1, L = metric_setup(sigma_curved(n))
        rng = random.Random(7)
        for _ in range(20):
            xi = tuple(random_polynomial(rng, n, max_terms=3, max_degree=2)
                       for _ in range(n))
            eta = tuple(random_polynomial(rng, n, max_terms=3, max_degree=2)
                        for _ in range(n))
            point = [rng.uniform(-2, 2) for _ in range(n)]
            cov = covariant_at(h1, point)
            assert lie_form_residual_at(cov, L, xi, eta) < 1e-8

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_random_fields_sweep_curved_scaled(self, n):
        # the sweep above with every field 10^3 times larger, where the
        # absolute residual reaches 2.4e-4, 6.1e-4 and 0.45: it is roundoff
        # of the relation's terms, so it is bounded relative to the largest
        # of them; measured 1.6e-15, 7.6e-16 and 9.3e-16
        _, h1, L = metric_setup(sigma_curved(n))
        rng = random.Random(7)
        worst = 0.0
        for _ in range(20):
            xi = tuple(random_polynomial(rng, n, max_terms=3, max_degree=2)
                       * 1000 for _ in range(n))
            eta = tuple(random_polynomial(rng, n, max_terms=3, max_degree=2)
                        * 1000 for _ in range(n))
            point = [rng.uniform(-2, 2) for _ in range(n)]
            cov = covariant_at(h1, point)
            largest = max(abs(t) for t in lie_form_terms_at(cov, L, xi, eta))
            residual = lie_form_residual_at(cov, L, xi, eta)
            assert residual <= 1e-12 * largest
            worst = max(worst, residual / largest if largest else 0.0)
        print(f"n = {n}: largest residual / largest term {worst:.2e}")

    def test_arity_checked(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        cov = covariant_at(h1, [0.0, 0.0])
        with pytest.raises(CompatError):
            lie_form_residual_at(cov, L, (ExactPolynomial.zero(2),),
                                 (ExactPolynomial.zero(2),) * 2)

    def test_stacked_metric_refused(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        cov = covariant_at(h1, [[0.3, -0.7], [0.5, 0.5]])
        e1 = (ExactPolynomial.constant(2, 1), ExactPolynomial.zero(2))
        with pytest.raises(CompatError, match="single point"):
            lie_form_residual_at(cov, L, e1, e1)


class TestSymmetryTransform:
    def test_identity_transform(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        cov = covariant_at(h1, [0.4, 0.9])
        gt = symmetry_metric(cov, OperatorField.identity(2), check_against=L)
        assert np.allclose(gt.g, cov.g)
        assert np.allclose(gt.dg, cov.dg)

    @pytest.mark.parametrize("power", [1, 2])
    def test_transform_by_operator_powers(self, power):
        _, h1, L = metric_setup(sigma_torsion_free2())
        M = L.power(power)
        rng = random.Random(640 + power)
        checked = 0
        while checked < 20:
            point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            if abs(np.linalg.det(M.evaluate_at(point))) <= 1e-6:
                continue
            cov = covariant_at(h1, point)
            gt = symmetry_metric(cov, M, check_against=L)
            assert coordinate_form_residual_at(gt, L) < 1e-8
            checked += 1

    def test_transform_by_shifted_operator(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        M = L + OperatorField.identity(2) * 3
        rng = random.Random(911)
        for _ in range(20):
            point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            if abs(np.linalg.det(M.evaluate_at(point))) <= 1e-6:
                continue
            cov = covariant_at(h1, point)
            gt = symmetry_metric(cov, M, check_against=L)
            assert coordinate_form_residual_at(gt, L) < 1e-8

    def test_non_symmetry_rejected(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        M = OperatorField([[upoly("u2", 2), 0], [0, upoly("u1", 2)]])
        cov = covariant_at(h1, [0.3, 0.6])
        with pytest.raises(CompatError):
            symmetry_metric(cov, M, check_against=L)

    def test_stacked_metric_refused(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        cov = covariant_at(h1, [[0.4, 0.9], [0.1, -0.3]])
        with pytest.raises(CompatError, match="single point"):
            symmetry_metric(cov, OperatorField.identity(2), check_against=L)

    def test_singular_transform_rejected(self):
        _, h1, L = metric_setup(sigma_torsion_free2())
        # det L = -sigma_2 vanishes where u2 = u1^2/2
        point = [1.0, 0.5]
        assert abs(np.linalg.det(L.evaluate_at(point))) < 1e-12
        cov = covariant_at(h1, point)
        with pytest.raises(CompatError):
            symmetry_metric(cov, L, check_against=L)

    def test_self_adjointness_tracks_commutation(self):
        # M = H S with S symmetric is always metric-self-adjoint; the
        # transformed pairing is symmetric for L exactly when M commutes
        # with L at the point
        _, h1, L = metric_setup(sigma_torsion_free2())
        rng = random.Random(321)
        np_rng = np.random.default_rng(321)
        for _ in range(25):
            point = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            cov = covariant_at(h1, point)
            H = h1.evaluate_at(point)
            Lv = L.evaluate_at(point)
            if rng.random() < 0.5:
                # commuting branch: M a constant-coefficient polynomial in L
                c0, c1 = np_rng.uniform(-2, 2, size=2)
                Mv = c0 * np.eye(2) + c1 * Lv
            else:
                S = np_rng.uniform(-2, 2, size=(2, 2))
                S = 0.5 * (S + S.T)
                Mv = H @ S
            gtL = cov.g @ Mv @ Lv
            asym = np.abs(gtL - gtL.T).max()
            comm = np.abs(Mv @ Lv - Lv @ Mv).max()
            assert (asym < 1e-10) == (comm < 1e-10)
