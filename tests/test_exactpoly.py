"""Exact polynomial arithmetic, calculus, printing and parsing."""

import random
from fractions import Fraction

import numpy as np
import pytest

from nijflow.exactpoly import (
    ExactPolynomial,
    ParseError,
    PolynomialError,
    format_polynomial,
    grlex_key,
    parse_expression,
)
from nijflow.flows import HamiltonianField
from nijflow.metric import PhaseFunction
from nijflow.pde import evaluate_poly_array

from support import random_polynomial

U2 = ["u1", "u2"]
UP2 = ["u1", "u2", "p1", "p2"]


def poly2(text):
    return parse_expression(text, U2)


class TestConstruction:
    def test_zero_is_empty(self):
        assert len(ExactPolynomial.zero(3)) == 0
        assert ExactPolynomial.zero(3).is_zero()

    def test_duplicate_exponents_combine(self):
        p = ExactPolynomial(1, [((1,), 2), ((1,), 3)])
        assert p.coefficient((1,)) == 5

    def test_cancellation_drops_term(self):
        p = ExactPolynomial(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 1)])
        assert p.coefficient((1, 0)) == 0
        assert len(p) == 1

    def test_exponent_arity_checked(self):
        with pytest.raises(PolynomialError):
            ExactPolynomial(2, [((1,), 1)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(PolynomialError):
            ExactPolynomial(1, [((-1,), 1)])

    def test_float_coefficient_rejected(self):
        with pytest.raises(PolynomialError):
            ExactPolynomial.constant(1, 0.5)

    def test_immutability(self):
        p = poly2("u1")
        with pytest.raises(AttributeError):
            p.nvars = 3


class TestRingOperations:
    def test_example_product(self):
        # (u1 + u2) * (u1 - u2) = u1^2 - u2^2
        assert poly2("(u1 + u2)*(u1 - u2)") == poly2("u1^2 - u2^2")

    def test_mixed_scalar_arithmetic(self):
        p = poly2("u1")
        assert 2 * p - p == p
        assert p + Fraction(1, 2) == poly2("u1 + 1/2")

    def test_subtraction_of_self_is_zero(self):
        p = poly2("2*u1^2 - u2 + 7")
        assert (p - p).is_zero()

    def test_power(self):
        assert poly2("(u1 + 1)^3") == poly2("u1^3 + 3*u1^2 + 3*u1 + 1")
        assert poly2("u1") ** 0 == ExactPolynomial.constant(2, 1)

    def test_variable_count_mismatch_rejected(self):
        with pytest.raises(PolynomialError):
            poly2("u1") + ExactPolynomial.variable(3, 0)

    def test_ring_axioms_randomized(self):
        rng = random.Random(1203)
        for _ in range(60):
            a = random_polynomial(rng, 3)
            b = random_polynomial(rng, 3)
            c = random_polynomial(rng, 3)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)

    def test_no_zero_coefficients_after_arithmetic(self):
        rng = random.Random(77)
        for _ in range(40):
            a = random_polynomial(rng, 2)
            b = random_polynomial(rng, 2)
            for p in (a + b, a - b, a * b):
                assert all(c != 0 for _, c in p.terms())


class TestCalculus:
    def test_partial_example(self):
        # d/du1 (u1^2*u2 + u2) = 2*u1*u2
        assert poly2("u1^2*u2 + u2").partial(0) == poly2("2*u1*u2")

    def test_partial_of_constant_is_zero(self):
        assert ExactPolynomial.constant(2, 5).partial(1).is_zero()

    def test_partials_commute(self):
        rng = random.Random(5)
        for _ in range(30):
            p = random_polynomial(rng, 3)
            assert p.partial(0).partial(2) == p.partial(2).partial(0)

    def test_leibniz_rule(self):
        rng = random.Random(6)
        for _ in range(30):
            a = random_polynomial(rng, 2)
            b = random_polynomial(rng, 2)
            assert (a * b).partial(0) == a.partial(0) * b + a * b.partial(0)


class TestEvaluation:
    def test_example_value(self):
        p = poly2("u1^2*u2 - 1/2")
        assert p.evaluate([3.0, 2.0]) == pytest.approx(17.5)

    def test_matches_exact_evaluation(self):
        # every float evaluator: scalar, the pde batch loop over the stacked
        # points, and a Hamiltonian field whose entry du1/dt = dF/dp1 is p
        rng = random.Random(99)
        momentum = ExactPolynomial.variable(6, 3)
        for _ in range(40):
            p = random_polynomial(rng, 3)
            points = [[Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                       for _ in range(3)] for _ in range(4)]
            floats = [[float(x) for x in point] for point in points]
            batch = evaluate_poly_array(p, np.array(floats))
            field = HamiltonianField(
                PhaseFunction(3, p.with_appended_vars(3) * momentum, 1))
            for point, x, in_batch in zip(points, floats, batch):
                exact = float(p.evaluate_exact(point))
                for approx in (p.evaluate(x), in_batch,
                               field(x + [1.0, 0.0, 0.0])[0]):
                    assert approx == pytest.approx(exact, rel=1e-12,
                                                   abs=1e-12)

    def test_evaluation_is_deterministic(self):
        p = poly2("u1^3 - 2*u1*u2 + 7/3")
        values = {p.evaluate([0.1, -0.4]) for _ in range(10)}
        assert len(values) == 1

    def test_wrong_point_arity(self):
        with pytest.raises(PolynomialError):
            poly2("u1").evaluate([1.0])


class TestOrderingAndPrinting:
    def test_grlex_order(self):
        # degree decides first, lexicographic order breaks ties
        assert grlex_key((0, 3)) > grlex_key((2, 0))
        assert grlex_key((2, 0)) > grlex_key((1, 1))

    def test_terms_descending(self):
        p = poly2("u2 + u1^2*u2 + 3")
        keys = [grlex_key(e) for e, _ in p.terms()]
        assert keys == sorted(keys, reverse=True)

    def test_canonical_strings(self):
        assert format_polynomial(poly2("u2 - 1/2*u1*u1"), U2) == "-1/2*u1^2 + u2"
        assert format_polynomial(ExactPolynomial.zero(2), U2) == "0"
        assert format_polynomial(poly2("0 - u1^2"), U2) == "-1*u1^2"
        assert format_polynomial(poly2("u2 - u1^2"), U2) == "-1*u1^2 + u2"

    def test_parse_print_round_trip(self):
        rng = random.Random(2024)
        for _ in range(200):
            p = random_polynomial(rng, 4, max_terms=8)
            text = format_polynomial(p, UP2)
            assert parse_expression(text, UP2) == p

    def test_round_trip_on_negative_unit_leading_power(self):
        p = ExactPolynomial(2, [((3, 0), -1), ((0, 1), 1)])
        text = format_polynomial(p, U2)
        assert parse_expression(text, U2) == p


class TestParser:
    def test_unary_minus_binds_before_power(self):
        # grammar: '-' belongs to base, '^' to factor, so -u1^2 = (-u1)^2
        assert parse_expression("-u1^2", U2) == poly2("u1^2")

    def test_rational_literal_with_slash(self):
        assert parse_expression("3/4", U2) == ExactPolynomial.constant(2, Fraction(3, 4))

    def test_phase_variables(self):
        p = parse_expression("2*p1*p2 + u1*p2^2", UP2)
        assert p.coefficient((0, 0, 1, 1)) == 2
        assert p.coefficient((1, 0, 0, 2)) == 1

    @pytest.mark.parametrize("text", [
        "u1*/u2",        # stray division
        "u3",            # unknown variable
        "u1^(2)",        # exponent must be a bare unsigned integer
        "u1^-2",         # negative exponent
        "u1 +",          # dangling operator
        "(u1",           # unbalanced parenthesis
        "1/0",           # zero denominator
        "u1 u2",         # missing operator
        "2.5",           # no float literals
    ])
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(ParseError):
            parse_expression(text, U2)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("u1 + u7", U2)
        assert err.value.position == 5

    def test_division_of_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("u1/u2", U2)

    def test_whitespace_insensitive(self):
        assert parse_expression("u1+2*u2", U2) == parse_expression(" u1 + 2 * u2 ", U2)


class TestEmbedding:
    def test_appended_variables(self):
        p = poly2("u1*u2")
        q = p.with_appended_vars(2)
        assert q.nvars == 4
        assert q.coefficient((1, 1, 0, 0)) == 1

    def test_embedding_is_ring_morphism(self):
        rng = random.Random(42)
        for _ in range(20):
            a = random_polynomial(rng, 2)
            b = random_polynomial(rng, 2)
            assert (a * b).with_appended_vars(1) == \
                a.with_appended_vars(1) * b.with_appended_vars(1)
