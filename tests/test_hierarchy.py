"""Killing operators, the generating identity and commuting integrals."""

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from support import (
    generating_identity_residuals,
    random_polynomial,
    random_sigma,
    reference_killing_operators,
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
from nijflow.metric import (PhaseFunction, build_h_family, first_integrals,
                            gram_matrix, pairwise_poisson, poisson_bracket)
from nijflow.model import CompanionModel
from nijflow.operators import (OperatorField, char_coefficients, commutator,
                               companion_second, killing_operators)

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs")
                 .glob("*.json"))


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

    @pytest.mark.parametrize("sigma", sigma_cases())
    def test_table_is_the_adjugate_recursion(self, sigma):
        family = killing_operators(sigma)
        assert family == reference_killing_operators(sigma)
        # the shared 0 and 1, sigma_(k+1)..sigma_n and one -sigma_j per j
        n = len(sigma)
        entries = {id(e) for A in family for row in A.entries for e in row}
        assert len(entries) <= 2 * n + 1

    def test_no_fresh_zero(self):
        # sigma_3 = 0, so the band's -sigma_3 is the shared 0 too
        zero = ExactPolynomial.zero(4)
        family = killing_operators(sigma_constant(4))
        assert all(e is zero for A in family for row in A.entries for e in row
                   if not e)


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
        entries = [[random_polynomial(rng, 2, max_terms=2, max_degree=1)
                    for _ in range(2)] for _ in range(2)]
        L = OperatorField(entries)
        # the adjugate recursion on L's own characteristic coefficients
        ident = OperatorField.identity(2)
        family = [ident]
        for s in char_coefficients(L)[:-1]:
            family.append(L @ family[-1] - ident * s)
        residuals = generating_identity_residuals(L, family)
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


GENERIC = [[ExactPolynomial.variable(n, k) for k in range(n)]
           for n in range(1, 9)]
GENERIC_IDS = [f"generic{n}" for n in range(1, 9)]


class TestFirstIntegrals:
    @pytest.mark.parametrize("sig", [*GENERIC, sigma_obstructed(5)],
                             ids=[*GENERIC_IDS, "obstructed5"])
    def test_integrals_are_the_family_halved(self, sig):
        # A_i h1 = h_(i+1) is companion algebra with no derivative in it, so
        # the generic sigma_k = u_k proves it for every sigma of that size
        hfam = build_h_family(sig)
        F = first_integrals(gram_matrix(hfam[0]), killing_operators(sig))
        assert F == [h * Fraction(1, 2) for h in hfam]

    @pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
    def test_model_builds_without_the_oracle(self, monkeypatch, config):
        def refuse(*args):
            raise AssertionError("first_integrals is only the test oracle")
        monkeypatch.setattr("nijflow.model.first_integrals", refuse)
        sig = json.loads(config.read_text())["sigma"]
        model = CompanionModel.from_expressions(sig)
        assert model.integrals == tuple(h * Fraction(1, 2)
                                        for h in model.family)

    def test_integrals_commute_torsion_free(self):
        sig = sigma_torsion_free2()
        F = first_integrals(gram_matrix(build_h_family(sig)[0]),
                            killing_operators(sig))
        assert all(b.is_zero() for _, _, b in pairwise_poisson(F))

    def test_integrals_commute_constant(self):
        for n in (2, 3, 4):
            sig = sigma_constant(n)
            F = first_integrals(gram_matrix(build_h_family(sig)[0]),
                                killing_operators(sig))
            assert all(b.is_zero()
                       for _, _, b in pairwise_poisson(F))

    def test_coordinate_pair_fails_to_commute(self):
        sig = sigma_coordinates2()
        F = first_integrals(gram_matrix(build_h_family(sig)[0]),
                            killing_operators(sig))
        pairs = pairwise_poisson(F)
        assert not all(b.is_zero() for _, _, b in pairs)
        assert pairs[0][2].poly == parse_expression(
            "1/2*u1*p2^3", upnames(2))

    def test_poisson_bracket_of_canonical_pair(self):
        f = PhaseFunction(1, parse_expression("p1", ["u1", "p1"]))
        g = PhaseFunction(1, parse_expression("u1", ["u1", "p1"]))
        assert poisson_bracket(f, g).poly == \
            parse_expression("1", ["u1", "p1"])


class TestCompanionModel:
    def test_sigma_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(CompanionModel)] == [
            "sigma"]

    @pytest.mark.parametrize("sig", [*GENERIC, sigma_obstructed(5)],
                             ids=[*GENERIC_IDS, "obstructed5"])
    def test_members_match_the_eager_construction(self, sig):
        model = CompanionModel(sig)
        family = tuple(build_h_family(sig))
        assert model.sigma == tuple(sig)
        assert model.operator == companion_second(sig)
        assert model.family == family
        assert model.gram == gram_matrix(family[0])
        assert model.killing == tuple(killing_operators(sig))
        assert model.integrals == tuple(h * Fraction(1, 2) for h in family)
        # each member is built on its first read and then kept
        for name in ("operator", "family", "gram", "killing", "integrals"):
            assert getattr(model, name) is getattr(model, name)

    @pytest.mark.parametrize("sig", [sigma_curved(4), sigma_curved(7),
                                     sigma_obstructed(5), sigma_obstructed(7)],
                             ids=["curved4", "curved7", "obstructed5",
                                  "obstructed7"])
    def test_integral_brackets_are_the_h_brackets_quartered(self, sig):
        # verify reports integral_commutation as 1/4 of the h-pair brackets;
        # the brackets of the integrals themselves are the oracle
        model = CompanionModel(sig)
        integral_pairs = pairwise_poisson(model.integrals)
        h_pairs = pairwise_poisson(model.family)
        assert (all(b.is_zero() for _, _, b in integral_pairs)
                == all(b.is_zero() for _, _, b in h_pairs))
        assert [(i, j, b.poly) for i, j, b in integral_pairs] == [
            (i, j, b.poly * Fraction(1, 4)) for i, j, b in h_pairs]
