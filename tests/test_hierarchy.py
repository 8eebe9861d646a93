"""Killing operators, the generating identity and commuting integrals."""

import random
from fractions import Fraction

import pytest

from support import (
    random_sigma,
    sigma_constant,
    sigma_coordinates2,
    sigma_torsion_free2,
    upnames,
    upoly,
)

from nijflow.exactpoly import parse_expression
from nijflow.hierarchy import (
    first_integrals,
    generating_identity_residuals,
    killing_operators,
    verify_commuting_integrals,
)
from nijflow.metric import (PhaseFunction, build_h_family, gram_matrix,
                            poisson_bracket)
from nijflow.operators import OperatorField, commutator, companion_second


class TestKillingOperators:
    def test_first_member_is_identity(self):
        family = killing_operators(sigma_torsion_free2())
        assert family[0] == OperatorField.identity(2)

    def test_second_member_closed_form(self):
        # A_1 = L - sigma_1 Id
        family = killing_operators(sigma_torsion_free2())
        assert family[1].entry(0, 0) == upoly("0 - u1", 2)
        assert family[1].entry(0, 1) == upoly("1", 2)
        assert family[1].entry(1, 0) == upoly("u2 - 1/2*u1^2", 2)
        assert family[1].entry(1, 1).is_zero()

    def test_operator_and_sigma_input_agree(self):
        sig = sigma_torsion_free2()
        assert killing_operators(sig) == killing_operators(companion_second(sig))

    def test_members_commute_with_operator(self):
        rng = random.Random(25)
        for n in (2, 3):
            sig = random_sigma(rng, n)
            L = companion_second(sig)
            for A in killing_operators(sig):
                assert commutator(L, A).is_zero()

    def test_constant_family(self):
        family = killing_operators(sigma_constant(3))
        assert family[0] == OperatorField.identity(3)
        assert all(all(e.total_degree() <= 0 for row in A.entries for e in row)
                   for A in family)


class TestGeneratingIdentity:
    def test_holds_for_random_sigma(self):
        # pure algebra: no torsion hypothesis involved
        rng = random.Random(230)
        for n in (1, 2, 3, 4):
            sig = random_sigma(rng, n)
            L = companion_second(sig)
            residuals = generating_identity_residuals(L, killing_operators(sig))
            assert len(residuals) == n + 1
            assert all(r.is_zero() for r in residuals)

    def test_holds_for_non_companion_operator(self):
        rng = random.Random(231)
        from support import random_polynomial
        entries = [[random_polynomial(rng, 2, max_terms=2, max_degree=1)
                    for _ in range(2)] for _ in range(2)]
        L = OperatorField(entries)
        residuals = generating_identity_residuals(L, killing_operators(L))
        assert all(r.is_zero() for r in residuals)

    def test_perturbed_family_fails(self):
        sig = sigma_torsion_free2()
        L = companion_second(sig)
        family = killing_operators(sig)
        broken = [family[0], family[1] + OperatorField.identity(2)]
        residuals = generating_identity_residuals(L, broken)
        assert not all(r.is_zero() for r in residuals)

    def test_wrong_family_length(self):
        sig = sigma_torsion_free2()
        with pytest.raises(ValueError):
            generating_identity_residuals(companion_second(sig),
                                          killing_operators(sig)[:1])


class TestFirstIntegrals:
    def test_first_integral_is_half_h1(self):
        sig = sigma_torsion_free2()
        hfam = build_h_family(sig)
        F = first_integrals(gram_matrix(hfam[0]), killing_operators(sig))
        assert F[0] == hfam[0] * Fraction(1, 2)

    def test_second_integral_is_half_h2(self):
        sig = sigma_torsion_free2()
        hfam = build_h_family(sig)
        F = first_integrals(gram_matrix(hfam[0]), killing_operators(sig))
        assert F[1] == hfam[1] * Fraction(1, 2)

    def test_integrals_commute_torsion_free(self):
        sig = sigma_torsion_free2()
        F = first_integrals(gram_matrix(build_h_family(sig)[0]),
                            killing_operators(sig))
        assert verify_commuting_integrals(F).ok

    def test_integrals_commute_constant(self):
        for n in (2, 3, 4):
            sig = sigma_constant(n)
            F = first_integrals(gram_matrix(build_h_family(sig)[0]),
                                killing_operators(sig))
            assert verify_commuting_integrals(F).ok

    def test_coordinate_pair_fails_to_commute(self):
        sig = sigma_coordinates2()
        F = first_integrals(gram_matrix(build_h_family(sig)[0]),
                            killing_operators(sig))
        report = verify_commuting_integrals(F)
        assert not report.ok
        assert report.residuals[0][2].poly == parse_expression(
            "1/2*u1*p2^3", upnames(2))

    def test_poisson_bracket_of_canonical_pair(self):
        f = PhaseFunction(1, parse_expression("p1", ["u1", "p1"]))
        g = PhaseFunction(1, parse_expression("u1", ["u1", "p1"]))
        assert poisson_bracket(f, g).poly == \
            parse_expression("1", ["u1", "p1"])
