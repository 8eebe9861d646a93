"""The quadratic family, Gram matrices and the covariant metric."""

import random
from fractions import Fraction

import numpy as np
import pytest

from support import (
    h_family_from_pencil,
    momentum_degrees,
    random_phase_function,
    random_polynomial,
    random_sigma,
    reference_format_polynomial,
    reference_gram_matrix,
    reference_quadratic_phase,
    reference_differential_shift_residuals,
    reference_quadratic_phase_by_terms,
    shift_parts,
    sigma_cases,
    sigma_constant,
    sigma_coordinates2,
    sigma_curved,
    sigma_obstructed,
    sigma_torsion_free2,
    upnames,
    upoly,
)

from nijflow.exactpoly import ExactPolynomial, format_polynomial, parse_expression
from nijflow.metric import (
    SINGULAR_TOL,
    CovariantMetricAt,
    GramMatrix,
    MetricError,
    PhaseFunction,
    SingularMetricError,
    build_h_family,
    check_gram_normal_form,
    covariant_at,
    differential_shift_residuals,
    gram_matrix,
    pairwise_poisson,
    poisson_bracket,
    quadratic_phase,
    reduced_power_coefficients,
)
from nijflow.model import CompanionModel
from nijflow.operators import OperatorError, OperatorField, companion_torsion


def phase(text, n):
    return PhaseFunction(n, parse_expression(text, upnames(n)))


NOT_QUADRATIC = r"^Gram extraction requires a momentum-quadratic function$"


class TestPhaseFunction:
    def test_momentum_degree_inferred(self):
        f = phase("2*p1*p2 + u1*p2^2", 2)
        assert momentum_degrees(f) == {2}

    def test_inhomogeneous_rejected(self):
        # a phase function takes any polynomial; the Gram extraction
        # refuses one that is not quadratic in p
        f = PhaseFunction(2, phase("p1", 2).poly + phase("p1*p2", 2).poly)
        assert f == phase("p1 + p1*p2", 2)
        assert momentum_degrees(f) == {1, 2}
        with pytest.raises(MetricError, match=NOT_QUADRATIC):
            gram_matrix(f)

    @pytest.mark.parametrize("text, degree", [
        ("u1 + 3*u2^2 - 1", 0), ("u1*p1 + p2", 1),
        ("2*p1*p2 + u1*p2^2", 2), ("p1^3 + u2*p1*p2^2 - u1^4*p2^3", 3)])
    def test_momentum_degrees_zero_to_three(self, text, degree):
        assert momentum_degrees(phase(text, 2)) == {degree}

    def test_degrees_mixed_across_the_u_p_boundary_rejected(self):
        # u1*p1 and p1*p2 share p1, but their momentum degrees are 1 and 2;
        # a term of degree 2 does not let the others through
        for text in ("u1*p1 + p1*p2", "u2 + u1*p2 + p1^2*p2", "u1*p1 + p2"):
            with pytest.raises(MetricError, match=NOT_QUADRATIC):
                gram_matrix(phase(text, 2))

    def test_evaluate(self):
        f = phase("2*p1*p2 + u1*p2^2", 2)
        assert f.evaluate([3.0, 0.0], [1.0, 2.0]) == pytest.approx(16.0)


class TestPoissonBracket:
    def test_canonical_pairs(self):
        # the sign convention: {p_i, u^j} = delta_i^j
        p1 = phase("p1", 2)
        u1 = phase("u1", 2)
        u2 = phase("u2", 2)
        assert poisson_bracket(p1, u1).poly == ExactPolynomial.constant(4, 1)
        assert poisson_bracket(p1, u2).is_zero()
        assert poisson_bracket(u1, p1).poly == ExactPolynomial.constant(4, -1)

    def test_antisymmetry_and_leibniz(self):
        rng = random.Random(71)
        for _ in range(15):
            f = random_phase_function(rng, 2, rng.randint(0, 2))
            g = random_phase_function(rng, 2, rng.randint(0, 2))
            h = random_phase_function(rng, 2, rng.randint(0, 2))
            assert (poisson_bracket(f, g).poly + poisson_bracket(g, f).poly).is_zero()
            lhs = poisson_bracket(f, PhaseFunction(2, g.poly * h.poly))
            rhs = (poisson_bracket(f, g).poly * h.poly
                   + g.poly * poisson_bracket(f, h).poly)
            assert (lhs.poly - rhs).is_zero()

    def test_charts_must_agree(self):
        with pytest.raises(MetricError, match="different charts"):
            poisson_bracket(phase("p1", 1), phase("p1", 2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_is_the_sum_less_one(self, n):
        # each term of df/dp_k dg/du^k and of df/du^k dg/dp_k has degree
        # d_f + d_g - 1 in p
        rng = random.Random(73 + n)
        for _ in range(30):
            df, dg = rng.randint(0, 3), rng.randint(0, 3)
            f = random_phase_function(rng, n, df)
            g = random_phase_function(rng, n, dg)
            b = poisson_bracket(f, g)
            assert momentum_degrees(f) == {df} and momentum_degrees(g) == {dg}
            assert momentum_degrees(b) == (set() if b.is_zero()
                                           else {df + dg - 1})

    def test_jacobi(self):
        rng = random.Random(72)
        for _ in range(8):
            f = random_phase_function(rng, 2, 1, max_terms=2)
            g = random_phase_function(rng, 2, 1, max_terms=2)
            h = random_phase_function(rng, 2, 2, max_terms=2)
            s = (poisson_bracket(f, poisson_bracket(g, h)).poly
                 + poisson_bracket(g, poisson_bracket(h, f)).poly
                 + poisson_bracket(h, poisson_bracket(f, g)).poly)
            assert s.is_zero()


class TestQuadraticPhase:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_generic_products_on_random_matrices(self, n):
        rng = random.Random(500 + n)
        for _ in range(12):
            M = [[random_polynomial(rng, n) for _ in range(n)]
                 for _ in range(n)]
            F = quadratic_phase(M)
            assert F == reference_quadratic_phase(M)
            assert F == reference_quadratic_phase_by_terms(M)
            assert momentum_degrees(F) == (set() if F.is_zero() else {2})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_generic_products_with_zero_entries(self, n):
        rng = random.Random(600 + n)
        for _ in range(12):
            M = [[random_polynomial(rng, n) if rng.random() < 0.4
                  else ExactPolynomial.zero(n) for _ in range(n)]
                 for _ in range(n)]
            assert quadratic_phase(M) == reference_quadratic_phase(M)
            assert quadratic_phase(M) == reference_quadratic_phase_by_terms(M)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_matrix(self, n):
        zero = [[ExactPolynomial.zero(n)] * n for _ in range(n)]
        F = quadratic_phase(zero)
        assert F.is_zero()
        assert F == reference_quadratic_phase(zero)
        assert gram_matrix(F) == reference_gram_matrix(F)

    def test_only_the_symmetric_part_survives(self):
        rng = random.Random(700)
        n = 3
        M = [[random_polynomial(rng, n) for _ in range(n)] for _ in range(n)]
        # the antisymmetric part cancels term by term across (a, b), (b, a)
        skew = [[M[a][b] - M[b][a] for b in range(n)] for a in range(n)]
        assert quadratic_phase(skew).is_zero()
        half = Fraction(1, 2)
        sym = [[(M[a][b] + M[b][a]) * half for b in range(n)]
               for a in range(n)]
        assert quadratic_phase(M) == quadratic_phase(sym)
        assert gram_matrix(quadratic_phase(M)) == GramMatrix(sym)


class TestHFamily:
    def test_n1(self):
        fam = build_h_family([upoly("u1", 1)])
        assert fam[0] == phase("p1^2", 1)

    def test_n2_closed_form(self):
        fam = build_h_family(sigma_torsion_free2())
        assert fam[0] == phase("2*p1*p2 + u1*p2^2", 2)
        assert fam[1] == phase("p1^2 + u2*p2^2 - 1/2*u1^2*p2^2", 2)

    def test_n2_generic_coefficients(self):
        # h1 = 2 p1 p2 + sigma1 p2^2, h2 = p1^2 + sigma2 p2^2
        sig = sigma_coordinates2()
        fam = build_h_family(sig)
        assert fam[0] == phase("2*p1*p2 + u1*p2^2", 2)
        assert fam[1] == phase("p1^2 + u2*p2^2", 2)

    def test_two_routes_agree(self):
        rng = random.Random(314)
        for n in (1, 2, 3, 4):
            sig = random_sigma(rng, n)
            assert build_h_family(sig) == h_family_from_pencil(sig)

    @pytest.mark.parametrize("sigma", [
        sigma_curved(2), sigma_curved(3), sigma_curved(4),
        sigma_obstructed(5), sigma_obstructed(6)],
        ids=["curved2", "curved3", "curved4", "obstructed5", "obstructed6"])
    def test_pencil_oracle_beyond_small_n(self, sigma):
        assert h_family_from_pencil(sigma) == build_h_family(sigma)

    @pytest.mark.parametrize("sigma", sigma_cases())
    def test_family_and_integrals_are_quadratic(self, sigma):
        model = CompanionModel(sigma)
        for f in (*model.family, *model.integrals):
            assert momentum_degrees(f) == {2}

    def test_power_coefficients_satisfy_char_relation(self):
        # the n-th power must expand as (sigma_n, sigma_(n-1), ..., sigma_1)
        rng = random.Random(55)
        for n in (2, 3):
            sig = random_sigma(rng, n)
            coeffs = reduced_power_coefficients(sig, n)
            assert coeffs[n] == [sig[n - 1 - m] for m in range(n)]


class TestGramMatrix:
    def test_extraction_n2(self):
        g = gram_matrix(build_h_family(sigma_torsion_free2())[0])
        assert g.entry(0, 0).is_zero()
        assert g.entry(0, 1) == ExactPolynomial.constant(2, 1)
        assert g.entry(1, 1) == upoly("u1", 2)

    def test_extraction_n3(self):
        sig3 = [upoly(t, 3) for t in ("u1", "u2", "u3")]
        g = gram_matrix(build_h_family(sig3)[0])
        expected = [
            ["0", "0", "1"],
            ["0", "1", "u1"],
            ["1", "u1", "u1^2 + u2"],
        ]
        for i in range(3):
            for j in range(3):
                assert g.entry(i, j) == upoly(expected[i][j], 3)

    def test_round_trip_with_quadratic_form(self):
        rng = random.Random(88)
        for n in (2, 3):
            entries = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    e = random_polynomial(rng, n, max_terms=2, max_degree=2)
                    entries[i][j] = e
                    entries[j][i] = e
            G = GramMatrix(entries)
            assert gram_matrix(quadratic_phase(G.entries)) == G
            assert reference_gram_matrix(quadratic_phase(G.entries)) == G

    def test_non_quadratic_rejected(self):
        with pytest.raises(MetricError, match=NOT_QUADRATIC):
            gram_matrix(phase("p1^3", 2))

    def test_asymmetric_rejected(self):
        with pytest.raises(MetricError):
            GramMatrix([[upoly("u1", 2), upoly("u2", 2)],
                        [upoly("u1", 2), upoly("u1", 2)]])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gram_is_an_operator_field(self, n):
        model = CompanionModel(sigma_curved(n))
        G, L = model.gram, model.operator
        plain = OperatorField(G.entries)
        assert isinstance(G, OperatorField)
        assert G == plain
        assert G @ L == plain @ L and L @ G == L @ plain
        s = model.sigma[0]
        assert G * s == plain * s and G * 3 == 3 * plain
        # products are plain operator fields, free of the symmetry check
        assert type(G @ L) is OperatorField

    @pytest.mark.parametrize("sigma", sigma_cases())
    def test_model_gram_is_h1s_one_object_per_anti_diagonal(self, sigma):
        # read off the reduced-power table, not extracted from h_1
        model = CompanionModel(sigma)
        G, n = model.gram, model.n
        assert G == gram_matrix(model.family[0])
        assert G == reference_gram_matrix(model.family[0])
        for k in range(2 * n - 1):
            diagonal = {id(G.entry(i, k - i))
                        for i in range(max(0, k - n + 1), min(k, n - 1) + 1)}
            assert len(diagonal) == 1, k

    def test_gram_shape_errors_are_operator_errors(self):
        with pytest.raises(OperatorError):
            GramMatrix([[upoly("u1", 2), upoly("0", 2)]])
        with pytest.raises(OperatorError):
            GramMatrix([[upoly("u1", 3)]])


def assert_matches_fraction_oracles(family):
    """The integer-store lift, extraction and printer against their
    Fraction bodies, on every member of an h family."""
    for h in family:
        G = reference_gram_matrix(h)
        assert gram_matrix(h) == G
        assert quadratic_phase(G.entries) == h
        assert reference_quadratic_phase_by_terms(G.entries) == h
        names = upnames(h.n)
        assert (format_polynomial(h.poly, names)
                == reference_format_polynomial(h.poly, names))


class TestFractionOracles:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_generic_family(self, n):
        assert_matches_fraction_oracles(
            build_h_family([upoly(f"u{k + 1}", n) for k in range(n)]))

    def test_obstructed_n5(self):
        assert_matches_fraction_oracles(build_h_family(sigma_obstructed(5)))

    def test_curved_n5(self):
        # fractional coefficients, so the Gram halving reduces
        assert_matches_fraction_oracles(build_h_family(sigma_curved(5)))

    def test_random_functions(self):
        rng = random.Random(903)
        for n in (1, 2, 3):
            for _ in range(40):
                h = random_phase_function(rng, n, 2)
                assert gram_matrix(h) == reference_gram_matrix(h)


class TestGramNormalForm:
    def test_companion_families(self):
        rng = random.Random(404)
        for n in (1, 2, 3, 4):
            sig = random_sigma(rng, n)
            gram = gram_matrix(build_h_family(sig)[0])
            assert check_gram_normal_form(gram) == ()
            assert gram.determinant() in (ExactPolynomial.constant(n, 1),
                                          ExactPolynomial.constant(n, -1))

    def test_determinant_sign_alternates(self):
        # det = (-1)^floor(n/2) for the unit anti-triangular shape
        for n, sign in ((1, 1), (2, -1), (3, -1), (4, 1)):
            sig = sigma_constant(n)
            det = gram_matrix(build_h_family(sig)[0]).determinant()
            assert det == ExactPolynomial.constant(n, sign)

    def test_perturbed_matrix_fails(self):
        g = gram_matrix(build_h_family(sigma_torsion_free2())[0])
        bad = GramMatrix([[upoly("u2", 2), g.entry(0, 1)],
                          [g.entry(1, 0), g.entry(1, 1)]])
        failures = check_gram_normal_form(bad)
        assert failures
        assert any("(1,1)" in f for f in failures)

    def test_determinant_is_expanded_only_when_an_entry_departs(
            self, monkeypatch):
        expanded = []
        determinant = GramMatrix.determinant
        monkeypatch.setattr(GramMatrix, "determinant", lambda self: (
            expanded.append(self) or determinant(self)))
        g = gram_matrix(build_h_family(sigma_torsion_free2())[0])
        assert check_gram_normal_form(g) == () and not expanded
        g11, zero = g.entry(1, 1), ExactPolynomial.zero(2)
        two, minus = (ExactPolynomial.constant(2, c) for c in (2, -1))
        cases = [
            ([[upoly("u2", 2), g.entry(0, 1)], [g.entry(1, 0), g11]],
             ("entry (1,1) should vanish", "determinant is not a unit")),
            ([[zero, two], [two, g11]],
             ("entry (1,2) should be one", "entry (2,1) should be one",
              "determinant is not a unit")),
            # det = -1: the entries depart, the determinant is a unit
            ([[zero, minus], [minus, g11]],
             ("entry (1,2) should be one", "entry (2,1) should be one"))]
        for rows, failures in cases:
            assert check_gram_normal_form(GramMatrix(rows)) == failures
        assert len(expanded) == len(cases)


class TestDifferentialShift:
    def test_torsion_free_residuals_vanish(self):
        model = CompanionModel(sigma_torsion_free2())
        rows = shift_parts(model)
        assert all(r.is_zero() for part in rows for row in part for r in row)

    def test_constant_coefficients_any_n(self):
        for n in (1, 2, 3, 4):
            model = CompanionModel(sigma_constant(n))
            rows = shift_parts(model)
            assert all(r.is_zero()
                       for part in rows for row in part for r in row)

    def test_coordinate_pair_fails(self):
        model = CompanionModel(sigma_coordinates2())
        rows = shift_parts(model)
        assert not all(r.is_zero()
                       for part in rows for row in part for r in row)
        # the u-part residual for i = 1, j = 1 is -u1 p2^2
        u_rows, _ = rows
        assert u_rows[0][0] == parse_expression(
            "0 - u1*p2^2", upnames(2))

    @pytest.mark.parametrize("sigma", sigma_cases())
    def test_shift_p_rows_vanish_for_every_sigma(self, sigma):
        # the p-part is L G_i = sigma_i G_1 + G_(i+1), true by construction
        # of the h family; the u-part vanishes, on these sigmas, exactly
        # where the torsion does
        u_rows, p_rows = shift_parts(CompanionModel(sigma))
        assert all(r.is_zero() for row in p_rows for r in row)
        torsion_free = all(e.is_zero() for layer in companion_torsion(sigma)
                           for row in layer.entries for e in row)
        assert all(r.is_zero() for row in u_rows for r in row) == torsion_free

    @pytest.mark.parametrize("sigma", sigma_cases())
    def test_u_rows_are_the_oracles(self, sigma):
        model = CompanionModel(sigma)
        u_rows, _ = reference_differential_shift_residuals(model)
        assert differential_shift_residuals(model) == u_rows


class TestPairwisePoisson:
    @pytest.mark.parametrize("sigma", sigma_cases())
    def test_bracket_keeps_its_degree(self, sigma):
        # the bracket of two quadratics is cubic in p, or zero
        for _, _, b in pairwise_poisson(build_h_family(sigma)):
            assert momentum_degrees(b) == (set() if b.is_zero() else {3})

    def test_torsion_free_commutes(self):
        fam = build_h_family(sigma_torsion_free2())
        assert all(b.is_zero() for _, _, b in pairwise_poisson(fam))

    def test_constant_commutes(self):
        fam = build_h_family(sigma_constant(3))
        assert all(b.is_zero() for _, _, b in pairwise_poisson(fam))

    def test_coordinate_pair_bracket(self):
        fam = build_h_family(sigma_coordinates2())
        pairs = pairwise_poisson(fam)
        assert not all(b.is_zero() for _, _, b in pairs)
        i, j, residual = pairs[0]
        assert (i, j) == (1, 2)
        assert residual.poly == parse_expression("2*u1*p2^3", upnames(2))


class TestCovariantMetric:
    def test_inverse_and_derivative_at_origin(self):
        g = gram_matrix(build_h_family(sigma_torsion_free2())[0])
        cov = covariant_at(g, [0.0, 0.0])
        assert np.allclose(cov.g, [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(cov.dg[0], [[-1.0, 0.0], [0.0, 0.0]])
        assert np.allclose(cov.dg[1], 0.0)

    def test_derivative_matches_finite_differences(self):
        g = gram_matrix(build_h_family(sigma_torsion_free2())[0])
        point = [0.3, -0.2]
        cov = covariant_at(g, point)
        eps = 1e-6
        for a in range(2):
            plus = list(point)
            minus = list(point)
            plus[a] += eps
            minus[a] -= eps
            fd = (covariant_at(g, plus).g - covariant_at(g, minus).g) / (2 * eps)
            assert np.allclose(cov.dg[a], fd, atol=1e-8)

    def test_product_is_identity(self):
        rng = random.Random(5150)
        for n in (2, 3):
            sig = random_sigma(rng, n)
            g = gram_matrix(build_h_family(sig)[0])
            point = [rng.uniform(-1, 1) for _ in range(n)]
            cov = covariant_at(g, point)
            assert np.allclose(cov.g @ g.evaluate_at(point), np.eye(n), atol=1e-9)

    def test_singular_input_raises(self):
        G = GramMatrix([[upoly("u1", 2), upoly("0", 2)],
                        [upoly("0", 2), upoly("1", 2)]])
        with pytest.raises(MetricError):
            covariant_at(G, [0.0, 1.0])

    def test_singular_point_mid_stack_names_the_first(self):
        G = GramMatrix([[upoly("u1", 2), upoly("0", 2)],
                        [upoly("0", 2), upoly("1", 2)]])
        points = np.array([[1.0, 1.0], [-0.5, 2.0], [0.0, 1.0],
                           [1.5, -0.3], [0.0, -2.0]])
        with pytest.raises(MetricError) as single:
            covariant_at(G, [0.0, 1.0])
        for stack in (points, points.reshape(1, 5, 2)):
            with pytest.raises(SingularMetricError) as err:
                covariant_at(G, stack)
            assert str(err.value) == str(single.value)
            assert str(err.value) == ("contravariant metric is singular "
                                      "at (0.0, 1.0)")
        before = covariant_at(G, points[:2])
        assert before.g.shape == (2, 2, 2) and before.n == 2
        assert covariant_at(G, points[:0]).g.shape == (0, 2, 2)

    def test_companion_metric_never_singular(self):
        g = gram_matrix(build_h_family(sigma_coordinates2())[0])
        cov = covariant_at(g, [123.0, -55.0])
        assert isinstance(cov, CovariantMetricAt)

    def test_companion_gram_determinant_is_exactly_plus_or_minus_one(self):
        # a companion Gram matrix is unit anti-triangular, so LU takes pivots
        # of exactly 1: det G is +-1 where finite, nan elsewhere, and never
        # below SINGULAR_TOL.  A Gram matrix whose coefficients exceed the
        # float range has no float value (OverflowError) and is not counted
        rng = random.Random(2024)
        nprng = np.random.default_rng(2024)
        finite_dets = 0
        for _ in range(150):
            n = rng.randint(2, 6)
            model = CompanionModel(random_sigma(
                rng, n, max_coeff=10**rng.randint(0, 100)))
            points = nprng.uniform(-1.0, 1.0, (20, n)) \
                * 10.0 ** nprng.uniform(0.0, 30.0, (20, 1))
            try:
                with np.errstate(all="ignore"):
                    det = np.linalg.det(model.gram.evaluate_at(points))
            except OverflowError:
                continue
            finite = np.isfinite(det)
            assert (np.abs(det[finite]) == 1.0).all()
            assert np.isnan(det[~finite]).all()
            assert not (np.abs(det) < SINGULAR_TOL).any()
            finite_dets += int(finite.sum())
        assert finite_dets > 2000
