"""Exact polynomial arithmetic, calculus, printing and parsing."""

import math
import random
import time
from fractions import Fraction
from operator import add

import numpy as np
import pytest

from nijflow.exactpoly import (
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    ExactPolynomial,
    ParseError,
    PolynomialError,
    compile_float_forms,
    evaluate_float_form,
    evaluate_table_array,
    format_polynomial,
    grlex_key,
    parse_expression,
    signed_sum,
    split_suffixes,
    suffixed_sum,
)
from nijflow.flows import HamiltonianField
from nijflow.metric import PhaseFunction, quadratic_phase
from nijflow.operators import OperatorField, nijenhuis_torsion

from support import (random_polynomial, reference_format_polynomial,
                     reference_product_terms, same_bits)

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

    def test_exponent_above_the_bound_rejected(self):
        assert len(ExactPolynomial(2, [((0, MAX_EXPONENT), 1)])) == 1
        with pytest.raises(PolynomialError, match="integers from 0 to 2147483647"):
            ExactPolynomial(2, [((0, MAX_EXPONENT + 1), 1)])

    def test_coefficient_checks_the_tuple_length(self):
        # a short tuple used to read as 0; packed, it could name a real term
        p = poly2("u1 + 2*u2")
        for exps in ((1,), (0, 1, 0), ()):
            with pytest.raises(PolynomialError, match="is not 2 integers"):
                p.coefficient(exps)
        assert p.coefficient((0, 1)) == 2

    def test_negation_and_embedding_give_the_shared_constants(self):
        for n in (1, 2, 3):
            zero = ExactPolynomial.zero(n)
            assert -zero is zero
            assert -ExactPolynomial(n) is zero
            for k in (0, 1, 2):
                assert zero.with_appended_vars(k) is ExactPolynomial.zero(n + k)
                assert (ExactPolynomial(n, {(0,) * n: 1}).with_appended_vars(k)
                        is ExactPolynomial.constant(n + k, 1))
        two = ExactPolynomial.constant(2, 2).with_appended_vars(1)
        assert two == ExactPolynomial.constant(3, 2)

    def test_float_coefficient_rejected(self):
        with pytest.raises(PolynomialError):
            ExactPolynomial.constant(1, 0.5)


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

    def test_subtraction_is_adding_the_negation(self):
        rng = random.Random(4242)
        for _ in range(40):
            a = random_polynomial(rng, 3)
            b = random_polynomial(rng, 3)
            assert a - b == a + (-b)
            assert (a - b) + b == a
        with pytest.raises(PolynomialError):
            poly2("u1") - ExactPolynomial.variable(3, 0)

    def test_signed_sum_matches_the_chain(self):
        # oracle outside the kernel: sum of sign * a(x) * b(x) at rational
        # points, evaluated term by term with exact arithmetic
        rng = random.Random(515)
        for _ in range(30):
            parts = [(rng.choice((1, -1)), random_polynomial(rng, 3),
                      random_polynomial(rng, 3))
                     for _ in range(rng.randrange(0, 7))]
            total = signed_sum(3, parts)
            assert all(c != 0 for _, c in total.terms())
            for _ in range(4):
                x = [Fraction(rng.randint(-50, 50), rng.randint(1, 13))
                     for _ in range(3)]
                assert total.evaluate_exact(x) == sum(
                    sign * a.evaluate_exact(x) * b.evaluate_exact(x)
                    for sign, a, b in parts)
        a = random_polynomial(rng, 3)
        b = random_polynomial(rng, 3)
        assert signed_sum(3, [(1, a, b), (-1, b, a)]).is_zero()
        for bad in ([(1, a, poly2("u1"))], [(1, poly2("u1"), a)]):
            with pytest.raises(PolynomialError):
                signed_sum(3, bad)

    def test_no_zero_coefficients_after_arithmetic(self):
        rng = random.Random(77)
        for _ in range(40):
            a = random_polynomial(rng, 2)
            b = random_polynomial(rng, 2)
            # the last two cancel terms on the way: the cross terms of
            # (a + b)(a - b), and ab - ba
            cancelling = signed_sum(2, [(1, a, b), (-1, b, a), (1, a, a)])
            for p in (a + b, a - b, a * b, (a + b) * (a - b), cancelling):
                assert all(c != 0 for _, c in p.terms())


def check_signed_sum(nvars, parts, rng):
    """``signed_sum`` against two oracles outside the kernel: the Fraction
    term products merged by the constructor, and exact evaluation at
    rational points."""
    total = signed_sum(nvars, parts)
    expected = ExactPolynomial(nvars, [
        (tuple(map(add, ea, eb)), sign * ca * cb)
        for sign, a, b in parts for ea, ca in a.terms() for eb, cb in b.terms()])
    assert total == expected
    assert hash(total) == hash(expected)
    for _, c in total.terms():
        assert type(c) is Fraction and c != 0
        assert math.gcd(c.numerator, c.denominator) == 1 and c.denominator > 0
    for _ in range(3):
        x = [Fraction(rng.randint(-40, 40), rng.randint(1, 11))
             for _ in range(nvars)]
        assert total.evaluate_exact(x) == sum(
            (sign * a.evaluate_exact(x) * b.evaluate_exact(x)
             for sign, a, b in parts), Fraction(0))
    return total


def polynomial_over(rng, nvars, denominators, max_terms=5):
    return ExactPolynomial(nvars, [
        (tuple(rng.randrange(3) for _ in range(nvars)),
         Fraction(rng.randint(-10**6, 10**6), rng.choice(denominators)))
        for _ in range(rng.randint(1, max_terms))])


class TestSignedSumIntegerPath:
    def test_mixed_and_large_denominators(self):
        rng = random.Random(2024)
        dens = (1, 7, 5040, 2**64)
        for _ in range(40):
            parts = [(rng.choice((1, -1)), polynomial_over(rng, 3, dens),
                      polynomial_over(rng, 3, dens))
                     for _ in range(rng.randint(1, 5))]
            check_signed_sum(3, parts, rng)

    def test_integer_parts_give_integer_coefficients(self):
        rng = random.Random(7)
        for _ in range(20):
            parts = [(rng.choice((1, -1)), polynomial_over(rng, 2, (1,)),
                      polynomial_over(rng, 2, (1,)))
                     for _ in range(rng.randint(1, 4))]
            total = check_signed_sum(2, parts, rng)
            assert all(c.denominator == 1 for _, c in total.terms())

    def test_cancellation_across_denominators(self):
        rng = random.Random(99)
        for _ in range(20):
            a = polynomial_over(rng, 2, (7, 5040))
            b = polynomial_over(rng, 2, (1, 2**64))
            c = polynomial_over(rng, 2, (3, 11))
            # a * b again, with the factor 7/2^64 moved from b to a
            k = Fraction(7, 2**64)
            a_k = ExactPolynomial(2, [(e, v * k) for e, v in a.terms()])
            b_k = ExactPolynomial(2, [(e, v / k) for e, v in b.terms()])
            assert check_signed_sum(2, [(1, a, b), (-1, a_k, b_k)], rng).is_zero()
            assert check_signed_sum(
                2, [(1, a, b), (1, c, c), (-1, a_k, b_k)], rng) == c * c

    def test_empty_parts(self):
        zero = ExactPolynomial.zero(3)
        assert signed_sum(3, []) == zero
        assert signed_sum(3, iter(())) == zero
        one_seventh = ExactPolynomial.constant(3, Fraction(1, 7))
        assert signed_sum(3, [(1, zero, one_seventh)]) == zero
        assert hash(signed_sum(3, [])) == hash(zero)


class TestCanonicalIntegerForm:
    """Equal polynomials are stored alike, so they compare and hash equal
    whichever operation built them."""

    def assert_same(self, *polys):
        first = polys[0]
        for p in polys[1:]:
            assert p == first and hash(p) == hash(first)

    def test_every_construction_gives_one_form(self):
        x = ExactPolynomial.variable(1, 0)
        half_x = ExactPolynomial(1, {(1,): Fraction(1, 2)})
        self.assert_same(
            x,
            ExactPolynomial(1, {(1,): Fraction(6, 6)}),
            half_x + half_x,  # the denominators cancel
            half_x * 2,
            signed_sum(1, [(1, half_x, ExactPolynomial.constant(1, 2))]),
            ExactPolynomial(1, {(2,): Fraction(1, 2)}).partial(0),
            -(-x),
            x - half_x + half_x,
            parse_expression("2/3*x1*3/2", ["x1"]))
        self.assert_same(half_x, -(-half_x), x - half_x, x * Fraction(1, 2),
                         parse_expression("1/4*x1^2", ["x1"]).partial(0),
                         parse_expression("1/2*x1", ["x1"]))
        half_x2 = half_x.with_appended_vars(1)
        self.assert_same(ExactPolynomial.zero(2), half_x2 - half_x2,
                         -ExactPolynomial.zero(2), poly2("u1").partial(1))

    def test_randomized_routes_agree(self):
        rng = random.Random(3101)
        dens = (1, 2, 3, 6, 5040)
        for _ in range(40):
            a = polynomial_over(rng, 2, dens)
            b = polynomial_over(rng, 2, dens)
            k = Fraction(rng.randint(1, 9), rng.choice(dens))
            self.assert_same(a * b, ExactPolynomial(2, [
                (tuple(map(add, ea, eb)), ca * cb)
                for ea, ca in a.terms() for eb, cb in b.terms()]))
            self.assert_same(a + b, ExactPolynomial(2, [*a.terms(), *b.terms()]))
            self.assert_same(a, (a * k) * (1 / k), (a + b) - b, -(-a))
            # a scalar operand scales the store as the product kernel would
            for s in (k, -k, rng.randint(-9, 9), 0):
                self.assert_same(a * s, s * a, signed_sum(
                    2, [(1, a, ExactPolynomial.constant(2, s))]))
            if a:
                # the size bound reads the reduced coefficients
                assert a._coefficient_bits() == max(
                    abs(c.numerator).bit_length() + c.denominator.bit_length()
                    for _, c in a.terms()) - 2
            self.assert_same(a.partial(0), ExactPolynomial(2, [
                ((e[0] - 1, e[1]), c * e[0]) for e, c in a.terms() if e[0]]))

    def test_coefficients_come_back_reduced(self):
        p = parse_expression("1/2*u1 + 2/6*u2 + 3/3 + 4/8*u1*u2", U2)
        assert p.coefficient((1, 0)) == Fraction(1, 2)
        assert p.coefficient((0, 1)) == Fraction(1, 3)
        assert p.coefficient((2, 2)) == 0
        for _, c in p.terms():
            assert type(c) is Fraction
            assert math.gcd(c.numerator, c.denominator) == 1
        assert [c for _, c in p.terms()] == [
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1)]
        assert type(p.coefficient((0, 0))) is Fraction

    def test_mixed_denominator_power_bound_is_pinned(self):
        # recorded with Fraction coefficients: the size bound reads the
        # reduced coefficients, so the refusals do not depend on the store
        p = parse_expression("1/3*u1 + 2/5*u2 + 1", U2)
        assert len(p ** 28) == 435
        assert (p ** 28).coefficient((0, 28)) == Fraction(2**28, 5**28)
        with pytest.raises(PolynomialError, match="power 29 of a 3-term"):
            p ** 29
        factor = "(1/3*u1 + 2/5*u2 + 1)"
        parse_expression("*".join([factor] * 31), U2)
        with pytest.raises(ParseError, match="at position 681"):
            parse_expression("*".join([factor] * 32), U2)


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


class TestDerivativeCache:
    def test_derivative_is_built_once(self):
        p = poly2("u1^2*u2 + u2")
        d = p.partial(0)
        assert p.partial(0) is d
        assert p.partial(0).float_form() is d.float_form()

    def test_cached_matches_fresh_copy(self):
        rng = random.Random(17)
        for _ in range(40):
            p = random_polynomial(rng, 3)
            first = [p.partial(i) for i in range(p.nvars)]
            fresh = ExactPolynomial(p.nvars, dict(p.terms()))
            for i in range(p.nvars):
                assert p.partial(i) is first[i]
                assert p.partial(i) == fresh.partial(i)

    def test_out_of_range_index_still_rejected(self):
        p = poly2("u1*u2")
        p.partial(0)
        for index in (-1, 2):
            with pytest.raises(PolynomialError):
                p.partial(index)

    def test_raw_polynomial_fills_every_slot(self):
        # _store fills the slots, and each cache is set on first use
        p = ExactPolynomial._raw(2, {1: 3, 1 << 32: -6}, 4)
        assert (p.nvars, p._nums, p._den) == (2, {1: 3, 1 << 32: -6}, 4)
        assert p._float_form is None and p._partials is None
        assert p == poly2("3/4*u1 - 3/2*u2")
        form = p.float_form()
        assert p._float_form is form == ((0.75, ((0, 1),)), (-1.5, ((1, 1),)))
        d = p.partial(0)
        assert p._partials == {0: d}


class TestEvaluation:
    def test_example_value(self):
        p = poly2("u1^2*u2 - 1/2")
        assert p.evaluate([3.0, 2.0]) == pytest.approx(17.5)

    def test_matches_exact_evaluation(self):
        # every float evaluator: scalar, the batch loop over the stacked
        # points, and a Hamiltonian field whose entry du1/dt = dF/dp1 is p
        rng = random.Random(99)
        momentum = ExactPolynomial.variable(6, 3)
        for _ in range(40):
            p = random_polynomial(rng, 3)
            points = [[Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                       for _ in range(3)] for _ in range(4)]
            floats = [[float(x) for x in point] for point in points]
            batch = evaluate_table_array(p, np.array(floats))
            field = HamiltonianField(
                PhaseFunction(3, p.with_appended_vars(3) * momentum))
            for point, x, in_batch in zip(points, floats, batch):
                exact = float(p.evaluate_exact(point))
                for approx in (p.evaluate(x), in_batch,
                               field(x + [1.0, 0.0, 0.0])[0]):
                    assert approx == pytest.approx(exact, rel=1e-12,
                                                   abs=1e-12)

    def test_batch_is_bit_identical_to_scalar(self):
        # powers up to 5 take the float-power path of the batch loop
        rng = random.Random(17)
        points = np.random.default_rng(17).normal(scale=3.0, size=(50, 3))
        for _ in range(40):
            p = random_polynomial(rng, 3, max_degree=5)
            scalar = [p.evaluate(x) for x in points.tolist()]
            assert np.array_equal(evaluate_table_array(p, points), scalar)
        # overflow is inf in the batch (the scalar loop raises)
        big = parse_expression("x1^400 - x1^3", ["x1"])
        with np.errstate(over="ignore", invalid="ignore"):
            values = evaluate_table_array(big, np.array([[-10.0], [2.0]]))
        assert not np.isfinite(values[0]) and values[1] == 2.0 ** 400 - 8.0

    def test_single_point_table_is_bit_identical_to_the_stack(self):
        # a single point runs on plain floats, a stack on its columns
        rng = random.Random(23)
        points = np.random.default_rng(23).normal(scale=3.0, size=(20, 3))
        table = [[random_polynomial(rng, 3, max_degree=5) for _ in range(3)]
                 for _ in range(2)]
        stacked = evaluate_table_array(table, points)
        assert stacked.shape == (20, 2, 3)
        for point, values in zip(points, stacked):
            for single in (point, point.tolist()):
                assert np.array_equal(evaluate_table_array(table, single),
                                      values)

    def test_overflow_raises_at_a_point_and_is_inf_in_a_stack(self):
        big = parse_expression("x1^400 - x1^3", ["x1"])
        with pytest.raises(OverflowError):
            big.evaluate([-10.0])
        for point in ([-10.0], np.array([-10.0])):
            with pytest.raises(OverflowError):
                evaluate_table_array([big], point)
        with np.errstate(over="ignore", invalid="ignore"):
            values = evaluate_table_array([big], [[-10.0], [2.0]])
        assert values.shape == (2, 1) and not np.isfinite(values[0, 0])
        assert values[1, 0] == evaluate_table_array([big], [2.0])[0]
        assert values[1, 0] == 2.0 ** 400 - 8.0

    def test_a_repeated_object_is_evaluated_once(self, monkeypatch):
        # its later columns are copies, bit-identical to the entry alone
        p, q, zero = poly2("u1^3*u2 - 1/3"), poly2("u2^2 + u1"), poly2("0")
        table = [[p, q, p], [zero, q, poly2("u1^3*u2 - 1/3")]]
        points = np.random.default_rng(5).normal(scale=3.0, size=(7, 2))
        forms = []

        def counted(form, coords, _real=evaluate_float_form):
            forms.append(form)
            return _real(form, coords)

        monkeypatch.setattr("nijflow.exactpoly.evaluate_float_form", counted)
        for where in (points, points[0]):
            forms.clear()
            got = evaluate_table_array(table, where)
            # p, q and the second object equal to p
            assert len(forms) == 3
            for i, row in enumerate(table):
                for j, entry in enumerate(row):
                    alone = evaluate_table_array(entry, where)
                    assert got[..., i, j].tobytes() == alone.tobytes()

    def test_zero_entries_are_bit_identical_to_each_entry(self):
        # zero entries are skipped and stay +0.0, never -0.0 or nan, even
        # where the point has inf or nan coordinates; a nan's sign is left
        # open (the one-point and the stacked path differ in it on hosts
        # without AVX2)
        rng = random.Random(41)
        zero = ExactPolynomial.zero(3)
        table = [[random_polynomial(rng, 3, max_degree=4) if rng.random() < 0.4
                  else zero for _ in range(3)] for _ in range(4)]
        table[0][0] = zero
        points = np.random.default_rng(41).normal(scale=3.0, size=(12, 3))
        points[3] = [np.inf, 1.0, -2.0]
        points[5] = [-np.inf, np.nan, 0.5]
        points[7] = [np.nan, -0.0, np.inf]
        points[9] = [-0.0, -0.0, -0.0]

        def each_entry(coords, leading):
            out = np.empty(leading + (4, 3))
            for i, row in enumerate(table):
                for j, entry in enumerate(row):
                    out[..., i, j] = evaluate_float_form(entry.float_form(),
                                                         coords)
            return out

        with np.errstate(over="ignore", invalid="ignore"):
            stacked = evaluate_table_array(table, points)
            want = each_entry([points[:, i] for i in range(3)], (12,))
            assert same_bits(stacked, want)
            for point, values in zip(points, stacked):
                single = evaluate_table_array(table, point)
                assert same_bits(single, values)
                assert same_bits(single, each_entry(point.tolist(), ()))
        assert not np.signbit(stacked[:, 0, 0]).any()
        assert np.isnan(stacked[5]).any() and (stacked[5, 0, 0] == 0.0)

    def test_compiled_forms_are_bit_identical_to_the_interpreter(self):
        # constants, the zero form, powers up to 5 and long forms
        rng = random.Random(31)
        points = np.random.default_rng(31).normal(scale=3.0, size=(20, 3))
        for _ in range(20):
            polys = [random_polynomial(rng, 3, max_terms=30, max_degree=5)
                     for _ in range(4)]
            polys += [ExactPolynomial.zero(3), ExactPolynomial.constant(3, -2)]
            forms = [q.float_form() for q in polys]
            compiled = compile_float_forms(forms, 3)
            for point in points.tolist():
                expected = [evaluate_float_form(f, point) for f in forms]
                assert ([v.hex() for v in compiled(point)]
                        == [v.hex() for v in expected])

    def test_compiled_forms_raise_on_an_overflowing_power(self):
        big = parse_expression("x1^400 - x1^3", ["x1"])
        compiled = compile_float_forms([big.float_form()], 1)
        with pytest.raises(OverflowError):
            compiled([-10.0])
        assert compiled([2.0]) == [big.evaluate([2.0])]

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
        # and the Fraction printer agrees: unit, negative and fractional
        # coefficients, constant terms, the zero polynomial and a leading
        # negative unit term with a power
        rng = random.Random(2024)
        polys = [random_polynomial(rng, 4, max_terms=8) for _ in range(200)]
        polys.append(ExactPolynomial.zero(4))
        units = [1, -1, Fraction(1, 2), Fraction(-1, 3), Fraction(-9, 8), 6]
        for _ in range(200):
            terms = []
            for _ in range(rng.randrange(1, 7)):
                exps = ((0,) * 4 if rng.random() < 0.2 else
                        tuple(rng.randrange(4) for _ in range(4)))
                coeff = (rng.choice(units) if rng.random() < 0.5 else
                         Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
                terms.append((exps, coeff))
            polys.append(ExactPolynomial(4, terms))
        texts = []
        for p in polys:
            text = format_polynomial(p, UP2)
            assert text == reference_format_polynomial(p, UP2)
            assert parse_expression(text, UP2) == p
            texts.append(text)
        assert "0" in texts
        assert any(t.startswith("-1*") for t in texts)
        assert any(p.coefficient((0,) * 4) for p in polys)
        assert any(c.denominator > 1 for p in polys for _, c in p.terms())

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
        # nesting past MAX_NESTING overflowed Python's stack
        pytest.param("(" * 5000 + "u1" + ")" * 5000, id="deep-parens"),
        pytest.param("-" * 5000 + "u1", id="deep-minus"),
    ])
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(ParseError):
            parse_expression(text, U2)

    def test_nesting_limit(self):
        d = MAX_NESTING
        assert parse_expression("(" * d + "u1" + ")" * d, U2) == poly2("u1")
        assert parse_expression("-" * d + "u1", U2) == poly2("u1")
        for text in ("(" * (d + 1) + "u1" + ")" * (d + 1), "-" * (d + 1) + "u1"):
            with pytest.raises(ParseError) as err:
                parse_expression(text, U2)
            assert err.value.position == d

    def test_flat_chains_parse(self):
        # the parser used to build a left-deep tree and convert it
        # recursively: RecursionError on long flat sums and products
        assert parse_expression("+".join(["u1"] * 3000), U2) == poly2("3000*u1")
        assert parse_expression("1*" * 3000 + "u1", U2) == poly2("u1")

    def test_oversized_powers_refused_before_forming(self):
        for text in ("(1 + u1)^300000", "(((1 + u1)^64)^64)^64", "2^99999999"):
            start = time.perf_counter()
            with pytest.raises(PolynomialError):
                parse_expression(text, U2)
            assert time.perf_counter() - start < 1.0
        # one term: the size grows with the exponent alone
        assert parse_expression("u2^999999", U2).coefficient((0, 999999)) == 1
        assert parse_expression("(1 + u1)^40", U2) == poly2("1 + u1") ** 40

    def test_oversized_products_refused_before_forming(self):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_expression("(1 + u1)*" * 1000 + "1", U2)
        assert time.perf_counter() - start < 1.0
        assert parse_expression("(1 + u1)*" * 40 + "1", U2) == \
            poly2("1 + u1") ** 40

    @pytest.mark.parametrize("text, position", [
        ("u1^2147483648", 3),
        ("1^2147483648", 2),
        # past the 4,300 digits int() reads
        pytest.param("u1 + u2^" + "9" * 5000, 8, id="5000-digits"),
    ])
    def test_exponent_above_the_bound_refused_at_its_position(self, text,
                                                              position):
        with pytest.raises(ParseError, match="exponent exceeds") as err:
            parse_expression(text, U2)
        assert err.value.position == position

    @pytest.mark.parametrize("text, position", [
        ("u1 + " + "7" * 4301, 5),
        ("u1 + 1/" + "7" * 4301, 7),
        ("2/" + "0" * 4301 + "7" * 4301 + "*u2", 2),
    ])
    def test_literal_past_the_digit_bound_refused_at_its_position(
            self, text, position):
        # int() refused it with ValueError, past the parser's error types
        with pytest.raises(ParseError, match="integer literal") as err:
            parse_expression(text, U2)
        assert err.value.position == position

    def test_literal_at_the_digit_bound_parses(self):
        big = int("7" * MAX_LITERAL_DIGITS)
        for text in ("7" * MAX_LITERAL_DIGITS + "*u1",
                     "00" + "7" * MAX_LITERAL_DIGITS + "*u1"):
            assert parse_expression(text, U2).coefficient((1, 0)) == big
        assert parse_expression("1/000" + "7" * MAX_LITERAL_DIGITS, U2) \
            .constant_value() == Fraction(1, big)

    def test_exponent_at_the_bound_parses(self):
        for text in ("u2^2147483647", "u2^0002147483647"):
            p = parse_expression(text, U2)
            assert p.coefficient((0, MAX_EXPONENT)) == 1
            assert format_polynomial(p, U2) == "u2^2147483647"

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("u1 + u7", U2)
        assert err.value.position == 5

    def test_division_of_variables_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("u1/u2", U2)

    @pytest.mark.parametrize("text, position", [
        ("u1 +\x1cu2", 4),       # a separator str.isspace() counts
        ("u1\u00a0+ u2", 2),     # no-break space
        ("u1 + 2*\u2003u2", 7),  # em space
    ])
    def test_non_ascii_whitespace_refused_at_its_position(self, text,
                                                          position):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_expression(text, U2)
        assert err.value.position == position

    def test_whitespace_insensitive(self):
        assert parse_expression("u1+2*u2", U2) == parse_expression(" u1 + 2 * u2 ", U2)
        # newline and vertical tab are in string.whitespace
        assert parse_expression("u1\n", U2) == poly2("u1")
        assert parse_expression("1\x0b+ u1", U2) == poly2("1 + u1")

    # one row per raise site of the tokenizer, the grammar's rules and
    # parse_expression: the exception's type, its text and, for a
    # ParseError, its position
    @pytest.mark.parametrize("text, names, kind, message, position", [
        pytest.param("u1 $ u2", U2, ParseError,
                     "unexpected character '$' (at position 3)", 3,
                     id="character"),
        pytest.param("u1 + " + "7" * 4301, U2, ParseError,
                     "integer literal longer than 4300 digits "
                     "(at position 5)", 5, id="literal-digits"),
        pytest.param("(u1", U2, ParseError,
                     "expected ')' (at position 3)", 3, id="close-paren"),
        pytest.param("u1 u2", U2, ParseError,
                     "unexpected trailing input 'u2' (at position 3)", 3,
                     id="trailing"),
        pytest.param("(1 + u1)^150*(1 + u1)^150", U2, ParseError,
                     "product is too large to form (at position 12)", 12,
                     id="product-size"),
        pytest.param("u1^(2)", U2, ParseError,
                     "exponent must be an unsigned integer (at position 3)",
                     3, id="exponent-kind"),
        pytest.param("u1^2147483648", U2, ParseError,
                     "exponent exceeds 2147483647 (at position 3)", 3,
                     id="exponent-bound"),
        pytest.param("(" * 101 + "u1" + ")" * 101, U2, ParseError,
                     "parentheses and unary minus nest deeper than 100 "
                     "(at position 100)", 100, id="nesting"),
        pytest.param("1/u1", U2, ParseError,
                     "expected an integer denominator (at position 2)", 2,
                     id="denominator-kind"),
        pytest.param("1/0", U2, ParseError,
                     "zero denominator (at position 2)", 2,
                     id="zero-denominator"),
        pytest.param("u3", U2, ParseError,
                     "unknown variable 'u3' (at position 0)", 0,
                     id="unknown-variable"),
        pytest.param("u1*/u2", U2, ParseError,
                     "division is only allowed inside rational literals "
                     "(at position 3)", 3, id="division"),
        pytest.param("u1 +", U2, ParseError,
                     "unexpected end of input (at position 4)", 4,
                     id="end"),
        pytest.param("u1 + )", U2, ParseError,
                     "expected a rational, variable or parenthesized "
                     "expression, found ')' (at position 5)", 5,
                     id="base"),
        pytest.param("u1", ["u1", "u1"], PolynomialError,
                     "duplicate variable name 'u1'", None, id="duplicate"),
        pytest.param("(1 + u1)^300000", U2, PolynomialError,
                     "power 300000 of a 2-term polynomial is too large to "
                     "form", None, id="power-size"),
    ])
    def test_error_table(self, text, names, kind, message, position):
        with pytest.raises(PolynomialError) as err:
            parse_expression(text, names)
        assert type(err.value) is kind
        assert str(err.value) == message
        assert getattr(err.value, "position", None) == position


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

    def test_suffixed_sum_and_split_invert_each_other(self):
        rng = random.Random(43)
        for _ in range(20):
            suffixes = [tuple(rng.randrange(3) for _ in range(2))
                        for _ in range(rng.randrange(5))]
            parts = [(random_polynomial(rng, 2), s) for s in suffixes]
            total = suffixed_sum(4, parts)
            # the same sum through the product kernel
            assert total == signed_sum(4, [
                (1, p.with_appended_vars(2),
                 ExactPolynomial(4, {(0, 0) + s: 1})) for p, s in parts])
            pieces = split_suffixes(total, 2)
            assert all(piece for piece in pieces.values())
            assert suffixed_sum(4, [(p, s) for s, p in pieces.items()]) == total

    def test_suffixed_sum_checks_variable_counts(self):
        with pytest.raises(PolynomialError, match="variable counts differ"):
            suffixed_sum(4, [(poly2("u1"), (1,))])

    def test_suffixed_sum_gives_the_shared_zero(self):
        # an empty sum, a cancelling pair over a denominator of 3, and the
        # lift of a zero matrix
        zero = ExactPolynomial.zero(4)
        third = poly2("1/3*u1")
        assert suffixed_sum(4, []) is zero
        assert suffixed_sum(4, [(third, (1, 0)), (-third, (1, 0))]) is zero
        assert quadratic_phase([[ExactPolynomial.zero(2)] * 2] * 2).poly is zero


def wide_polynomial(rng, caps, max_terms=5):
    """Terms whose exponent of variable i is small, up to ``caps[i]``, or
    exactly ``caps[i]``, over denominators up to 2^64; small exponents make
    terms meet in products."""
    def exponent(cap):
        return rng.choice((rng.randint(0, min(cap, 2)), rng.randint(0, cap), cap))

    return ExactPolynomial(len(caps), [
        (tuple(exponent(cap) for cap in caps),
         Fraction(rng.randint(-2**64, 2**64), rng.randint(1, 2**64)))
        for _ in range(rng.randint(0, max_terms))])


def dense_torsion(L):
    """The four-term formula for N^k_{ij}, accumulated term by term."""
    n, A = L.n, L.entries
    N = {}
    for k, i, j in np.ndindex(n, n, n):
        acc = ExactPolynomial.zero(n)
        for s in range(n):
            acc = (acc + A[s][i] * A[k][j].partial(s)
                   - A[s][j] * A[k][i].partial(s)
                   - A[k][s] * A[s][j].partial(i)
                   + A[k][s] * A[s][i].partial(j))
        N[k, i, j] = acc
    return N


class TestPackedStore:
    """The store keys each term by one int packing its exponents; these
    compare every path that works on keys with a tuple-keyed reference, in
    1-8 variables with exponents up to MAX_EXPONENT."""

    def test_signed_sum_matches_the_tuple_reference(self):
        rng = random.Random(2611)
        for _ in range(60):
            nvars = rng.randint(1, 8)
            # a's exponents up to caps, b's up to the rest of the bound, so
            # products reach MAX_EXPONENT but never pass it
            caps = [rng.randint(0, MAX_EXPONENT) for _ in range(nvars)]
            rest = [MAX_EXPONENT - cap for cap in caps]
            parts = [(rng.choice((1, -1)), wide_polynomial(rng, caps),
                      wide_polynomial(rng, rest))
                     for _ in range(rng.randint(0, 4))]
            total = signed_sum(nvars, parts)
            assert dict(total.terms()) == reference_product_terms(parts)
            # zero factors are skipped, not mistaken for the others' terms
            zero = ExactPolynomial.zero(nvars)
            assert signed_sum(nvars, parts + [(1, zero, total),
                                              (-1, total, zero)]) == total

    def test_partial_and_appended_variables_match_the_reference(self):
        rng = random.Random(2612)
        for _ in range(60):
            nvars = rng.randint(1, 8)
            p = wide_polynomial(rng, [MAX_EXPONENT] * nvars)
            terms = dict(p.terms())
            for i in range(nvars):
                assert dict(p.partial(i).terms()) == {
                    e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                    for e, c in terms.items() if e[i]}
            extra = rng.randint(0, 3)
            assert dict(p.with_appended_vars(extra).terms()) == {
                e + (0,) * extra: c for e, c in terms.items()}

    def test_suffixes_match_the_reference(self):
        rng = random.Random(2613)
        for _ in range(60):
            m, extra = rng.randint(0, 5), rng.randint(1, 3)
            parts = [(wide_polynomial(rng, [MAX_EXPONENT] * m),
                      tuple(rng.choice((0, 1, MAX_EXPONENT))
                            for _ in range(extra)))
                     for _ in range(rng.randint(0, 4))]
            expected = {}
            for poly, suffix in parts:
                for e, c in poly.terms():
                    expected[e + suffix] = expected.get(e + suffix, 0) + c
            total = suffixed_sum(m + extra, parts)
            assert dict(total.terms()) == {
                e: c for e, c in expected.items() if c}
            groups = {}
            for e, c in total.terms():
                groups.setdefault(e[m:], {})[e[:m]] = c
            assert {s: dict(piece.terms())
                    for s, piece in split_suffixes(total, extra).items()} \
                == groups

    def test_terms_and_printer_round_trip(self):
        rng = random.Random(2614)
        for _ in range(60):
            nvars = rng.randint(1, 8)
            p = wide_polynomial(rng, [MAX_EXPONENT] * nvars)
            terms = list(p.terms())
            assert ExactPolynomial(nvars, terms) == p
            assert sorted(p.exponents()) == sorted(e for e, _ in terms)
            assert p.total_degree() == max((sum(e) for e, _ in terms),
                                           default=-1)
            assert [dict(powers) for _, powers in p.float_form()] == [
                {i: k for i, k in enumerate(e) if k} for e, _ in terms]
            names = [f"x{i + 1}" for i in range(nvars)]
            text = format_polynomial(p, names)
            assert text == reference_format_polynomial(p, names)
            assert parse_expression(text, names) == p

    def test_a_product_past_the_bound_raises(self):
        def monomial(*exps):
            return ExactPolynomial(len(exps), {exps: 1})

        half = 1 << 30
        assert monomial(0, half, 0) * monomial(0, half - 1, 0) == \
            monomial(0, MAX_EXPONENT, 0)
        # each would carry into the next field, or past the last one
        for a, b in (((0, half, 0), (0, half, 0)),
                     ((1, MAX_EXPONENT, 2), (0, 1, 0)),
                     ((0, 0, MAX_EXPONENT), (5, 0, MAX_EXPONENT))):
            with pytest.raises(PolynomialError, match="exponent above"):
                monomial(*a) * monomial(*b)
        with pytest.raises(PolynomialError, match="exponent above"):
            parse_expression("(u1^65536)^65536", U2)

    @pytest.mark.parametrize("density", ["sparse", "dense"])
    def test_torsion_matches_the_four_term_formula(self, density):
        # random operators, not companion ones: no structure to lean on
        rng = random.Random(2615 if density == "sparse" else 2616)
        for _ in range(6):
            if density == "dense":
                rows = [[random_polynomial(rng, 3, max_terms=4, max_degree=2)
                         for _ in range(3)] for _ in range(3)]
            else:
                rows = [[rng.choice((ExactPolynomial.zero(3),
                                     ExactPolynomial.constant(3, rng.randint(-3, 3)),
                                     random_polynomial(rng, 3, max_terms=1)))
                         for _ in range(3)] for _ in range(3)]
            L = OperatorField(rows)
            N = nijenhuis_torsion(L)
            assert {(k, i, j): N[k].entry(i, j)
                    for k, i, j in np.ndindex(3, 3, 3)} == dense_torsion(L)
