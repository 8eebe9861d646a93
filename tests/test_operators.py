"""Operator fields: companion forms, torsion, bracket, symmetries."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from support import (apply_to_field, contract, lie_bracket_fields,
                     random_polynomial, random_sigma, sigma_constant,
                     sigma_coordinates2, sigma_curved, sigma_obstructed,
                     sigma_torsion_free2, u_from_eigenvalues)

import nijflow.operators
from nijflow.exactpoly import ExactPolynomial, parse_expression
from nijflow.model import CompanionModel
from nijflow.operators import (
    OperatorError,
    OperatorField,
    char_coefficients,
    commutator,
    companion_first,
    companion_second,
    companion_torsion,
    guiding_bracket,
    is_symmetry,
    nijenhuis_torsion,
    torsion_of_pair,
)


def upoly(text, n):
    return parse_expression(text, [f"u{i + 1}" for i in range(n)])


def random_field(rng, nvars, arity):
    return tuple(random_polynomial(rng, nvars, max_terms=3, max_degree=2)
                 for _ in range(arity))


def perm_sign(perm):
    sign = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def char_poly_by_determinant(L):
    """Oracle: det(lambda*Id - L) by permutation expansion, with lambda
    appended as an extra polynomial variable."""
    n = L.n
    lam = ExactPolynomial.variable(n + 1, n)
    M = [[lam - L.entries[i][j].with_appended_vars(1) if i == j
          else -L.entries[i][j].with_appended_vars(1)
          for j in range(n)] for i in range(n)]
    det = ExactPolynomial.zero(n + 1)
    for perm in itertools.permutations(range(n)):
        prod = ExactPolynomial.constant(n + 1, perm_sign(perm))
        for i in range(n):
            prod = prod * M[i][perm[i]]
        det = det + prod
    return det


def torsion_by_fields(L, xi, eta):
    """Oracle: N(X, Y) = [LX, LY] - L[LX, Y] - L[X, LY] + L^2 [X, Y]."""
    Lxi = apply_to_field(L, xi)
    Leta = apply_to_field(L, eta)
    t1 = lie_bracket_fields(Lxi, Leta)
    t2 = apply_to_field(L, lie_bracket_fields(Lxi, eta))
    t3 = apply_to_field(L, lie_bracket_fields(xi, Leta))
    t4 = apply_to_field(L, apply_to_field(L, lie_bracket_fields(xi, eta)))
    return tuple(a - b - c + d for a, b, c, d in zip(t1, t2, t3, t4))


def bracket_by_fields(L, M, xi, eta):
    """Oracle: <L, M>(X, Y) = M[LX, Y] + L[X, MY] - [LX, MY] - LM[X, Y]."""
    Lxi = apply_to_field(L, xi)
    Meta = apply_to_field(M, eta)
    t1 = apply_to_field(M, lie_bracket_fields(Lxi, eta))
    t2 = apply_to_field(L, lie_bracket_fields(xi, Meta))
    t3 = lie_bracket_fields(Lxi, Meta)
    t4 = apply_to_field(L, apply_to_field(M, lie_bracket_fields(xi, eta)))
    return tuple(a + b - c - d for a, b, c, d in zip(t1, t2, t3, t4))


class TestCompanionForms:
    def test_second_companion_n2(self):
        L = companion_second(sigma_torsion_free2())
        assert L.entry(0, 0).is_zero()
        assert L.entry(0, 1) == ExactPolynomial.constant(2, 1)
        assert L.entry(1, 0) == sigma_torsion_free2()[1]
        assert L.entry(1, 1) == sigma_torsion_free2()[0]

    def test_second_companion_n1(self):
        L = companion_second([upoly("u1", 1)])
        assert L.entry(0, 0) == upoly("u1", 1)

    def test_second_companion_n3(self):
        a, b, c = (upoly(t, 3) for t in ("u1", "u2", "u3"))
        L = companion_second([a, b, c])
        one = ExactPolynomial.constant(3, 1)
        assert L.entry(0, 1) == one and L.entry(1, 2) == one
        assert [L.entry(2, j) for j in range(3)] == [c, b, a]
        assert L.entry(0, 0).is_zero() and L.entry(0, 2).is_zero()

    def test_first_companion_is_antitranspose(self):
        s1, s2 = (upoly(t, 2) for t in ("u1", "u2"))
        L1 = companion_first([s1, s2])
        assert L1.entry(0, 0) == s1
        assert L1.entry(0, 1) == ExactPolynomial.constant(2, 1)
        assert L1.entry(1, 0) == s2
        assert L1.entry(1, 1).is_zero()
        assert companion_second([s1, s2]).antitranspose() == L1

    def test_first_companion_coordinate_pair_torsion_free(self):
        assert all(layer.is_zero() for layer in
                   nijenhuis_torsion(companion_first(sigma_coordinates2())))

    def test_wrong_length_rejected(self):
        with pytest.raises(OperatorError):
            companion_second([upoly("u1", 2)])


class TestTorsion:
    def test_coordinate_pair_torsion(self):
        # second companion of (u1, u2): the only nonzero components are
        # N^2_{12} = -u1 = -N^2_{21}
        N = nijenhuis_torsion(companion_second(sigma_coordinates2()))
        assert N[0].entry(0, 1).is_zero()
        assert N[1].entry(0, 1) == upoly("0 - u1", 2)
        assert N[1].entry(1, 0) == upoly("u1", 2)

    def test_torsion_free_pair(self):
        assert all(layer.is_zero() for layer in
                   nijenhuis_torsion(companion_second(sigma_torsion_free2())))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_curved_generator_reproduces_shipped_sigma(self, n):
        config = Path(__file__).resolve().parent.parent / "configs" / \
            f"nijenhuis{n}.json"
        sigma = json.loads(config.read_text())["sigma"]
        assert sigma_curved(n) == [upoly(text, n) for text in sigma]

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_curved_family_torsion_free(self, n):
        assert all(layer.is_zero() for layer in
                   nijenhuis_torsion(companion_second(sigma_curved(n))))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_curved_coordinates_are_scaled_power_sums(self, n):
        # 1 - sum_k sigma_k t^k = prod_i (1 - lambda_i t) at u_k = p_k/k
        lams = np.sort(np.random.default_rng(n).uniform(-1.5, 1.5, n))
        L = companion_second(sigma_curved(n))
        got = np.linalg.eigvals(L.evaluate_at(u_from_eigenvalues(lams)))
        assert np.max(np.abs(got.imag)) <= 1e-12
        assert np.max(np.abs(np.sort(got.real) - lams)) <= 1e-12

    def test_constant_operator_torsion_free(self):
        sig = [ExactPolynomial.constant(3, Fraction(k, 2)) for k in (1, 2, 3)]
        assert all(layer.is_zero()
                   for layer in nijenhuis_torsion(companion_second(sig)))

    def test_torsion_is_skew(self):
        rng = random.Random(31)
        for n in (2, 3):
            sig = [random_polynomial(rng, n, max_terms=3, max_degree=2)
                   for _ in range(n)]
            assert all((T + T.transpose()).is_zero()
                       for T in nijenhuis_torsion(companion_second(sig)))

    def test_matches_field_formula(self):
        rng = random.Random(8842)
        for n in (2, 3):
            sig = [random_polynomial(rng, n, max_terms=2, max_degree=2)
                   for _ in range(n)]
            L = companion_second(sig)
            N = nijenhuis_torsion(L)
            for _ in range(3):
                xi = random_field(rng, n, n)
                eta = random_field(rng, n, n)
                direct = torsion_by_fields(L, xi, eta)
                contracted = contract(N, xi, eta)
                assert all((a - b).is_zero() for a, b in zip(direct, contracted))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# named sigma lists: the shipped configs', the curved and obstructed
# families, constant ones and n = 1
CLOSED_FORM_CASES = [
    *((path.stem, list(CompanionModel.from_expressions(
        json.loads(path.read_text())["sigma"]).sigma))
      for path in sorted(CONFIGS.glob("*.json"))),
    *((f"curved{n}", sigma_curved(n)) for n in range(2, 8)),
    *((f"obstructed{n}", sigma_obstructed(n)) for n in range(3, 8)),
    *((f"constant{n}", sigma_constant(n)) for n in range(1, 5)),
    ("u1", [upoly("u1", 1)]), ("u1^2 - 3", [upoly("u1^2 - 3", 1)])]


class TestCompanionTorsion:
    """``companion_torsion`` against the generic torsion of the operator."""

    @pytest.mark.parametrize("name, sigma", CLOSED_FORM_CASES,
                             ids=[name for name, _ in CLOSED_FORM_CASES])
    def test_matches_generic_torsion(self, name, sigma):
        got = companion_torsion(sigma)
        want = nijenhuis_torsion(companion_second(sigma))
        assert len(got) == len(want)
        for k in range(len(got)):
            assert got[k] == want[k], f"layer {k}"

    def test_all_nine_shipped_configs_are_covered(self):
        names = {name for name, _ in CLOSED_FORM_CASES}
        assert len({path.stem for path in CONFIGS.glob("*.json")} & names) == 9

    def test_matches_generic_torsion_on_random_sigmas(self):
        rng = random.Random(4471)
        nonzero = 0
        for trial in range(60):
            n = 1 + trial % 6
            sigma = [random_polynomial(rng, n, max_terms=3, max_degree=2)
                     for _ in range(n)]
            got = companion_torsion(sigma)
            want = nijenhuis_torsion(companion_second(sigma))
            assert tuple(got) == tuple(want), (trial, sigma)
            # only the last two layers of a companion torsion can be nonzero
            assert all(layer.is_zero() for layer in got[:n - 2])
            nonzero += not all(layer.is_zero() for layer in got)
        assert nonzero >= 30

    def test_sigma_is_coerced_and_checked(self):
        assert all(layer.is_zero() for layer in companion_torsion([1, Fraction(1, 2)]))
        with pytest.raises(OperatorError):
            companion_torsion([])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_signed_sum_counts(self, n, monkeypatch):
        # a work count that needs no timing: 2 n^2 sums for the closed form
        # (layers n - 2 and n - 1), n^3 for the generic bracket
        sigma = sigma_obstructed(n)
        L = companion_second(sigma)
        calls = []
        original = nijflow.operators.signed_sum

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(nijflow.operators, "signed_sum", counted)
        companion_torsion(sigma)
        assert len(calls) == 2 * n * n
        calls.clear()
        nijenhuis_torsion(L)
        assert len(calls) == n ** 3


class TestGuidingBracket:
    def test_self_bracket_is_minus_torsion(self):
        for sig in (sigma_coordinates2(), sigma_torsion_free2()):
            L = companion_second(sig)
            B = guiding_bracket(L, L)
            N = nijenhuis_torsion(L)
            assert B == tuple(layer * -1 for layer in N)

    def test_identity_partner_vanishes(self):
        L = companion_second(sigma_coordinates2())
        assert all(layer.is_zero()
                   for layer in guiding_bracket(L, OperatorField.identity(2)))

    def test_non_commuting_rejected(self):
        L = companion_second(sigma_coordinates2())
        M = OperatorField([[upoly("u2", 2), 0], [0, upoly("u1", 2)]])
        assert not commutator(L, M).is_zero()
        with pytest.raises(OperatorError):
            guiding_bracket(L, M)

    def test_matches_field_formula_for_powers(self):
        rng = random.Random(515)
        for n in (2, 3):
            sig = [random_polynomial(rng, n, max_terms=2, max_degree=1)
                   for _ in range(n)]
            L = companion_second(sig)
            M = L.power(2)
            B = guiding_bracket(L, M)
            for _ in range(2):
                xi = random_field(rng, n, n)
                eta = random_field(rng, n, n)
                direct = bracket_by_fields(L, M, xi, eta)
                contracted = contract(B, xi, eta)
                assert all((a - b).is_zero() for a, b in zip(direct, contracted))


class TestSymmetries:
    def test_powers_are_strong_symmetries_of_torsion_free(self):
        # a strong symmetry M of L commutes with it and has <L, M> = 0
        L = companion_second(sigma_torsion_free2())
        for M in (OperatorField.identity(2), L, L.power(2)):
            assert all(layer.is_zero() for layer in guiding_bracket(L, M))

    def test_symmetry_weaker_than_strong(self):
        L = companion_second(sigma_torsion_free2())
        assert is_symmetry(L, L.power(2))

    def test_coordinate_pair_not_strong_self_symmetry(self):
        # nonzero torsion means <L, L> != 0
        L = companion_second(sigma_coordinates2())
        assert not all(layer.is_zero() for layer in guiding_bracket(L, L))
        # but <L, L> is skew, so its symmetrized part vanishes
        assert is_symmetry(L, L)


class TestCharCoefficients:
    def test_twice_identity(self):
        two_id = OperatorField.identity(2) * 2
        sig = char_coefficients(two_id)
        assert sig[0] == ExactPolynomial.constant(2, 4)
        assert sig[1] == ExactPolynomial.constant(2, -4)

    def test_companion_round_trip(self):
        rng = random.Random(4096)
        for n in (1, 2, 3, 4):
            sig = [random_polynomial(rng, n, max_terms=2, max_degree=2)
                   for _ in range(n)]
            assert char_coefficients(companion_second(sig)) == sig

    def test_against_determinant_oracle(self):
        rng = random.Random(900)
        for n in (2, 3):
            entries = [[random_polynomial(rng, n, max_terms=2, max_degree=1)
                        for _ in range(n)] for _ in range(n)]
            L = OperatorField(entries)
            sig = char_coefficients(L)
            lam = ExactPolynomial.variable(n + 1, n)
            expected = lam ** n
            for k, s in enumerate(sig, start=1):
                expected = expected - s.with_appended_vars(1) * lam ** (n - k)
            assert char_poly_by_determinant(L) == expected


class TestGlRegularity:
    def test_companion_always_regular(self):
        # the Krylov matrix [e_n, L e_n, ..., L^(n-1) e_n] is unit
        # anti-triangular for every sigma, so L is gl-regular everywhere
        rng = random.Random(4097)
        for sig in [*(sigma_curved(n) for n in range(2, 6)),
                    *(random_sigma(rng, n) for n in range(2, 6))]:
            L = companion_second(sig)
            n = L.n
            krylov = [[L.power(k).entry(i, n - 1) for k in range(n)]
                      for i in range(n)]
            for i, k in itertools.product(range(n), repeat=2):
                if i + k < n - 1:
                    assert krylov[i][k].is_zero()
                elif i + k == n - 1:
                    assert krylov[i][k] == ExactPolynomial.constant(n, 1)


class TestVectorFieldUtilities:
    def test_lie_bracket_antisymmetric(self):
        rng = random.Random(12)
        x = random_field(rng, 3, 3)
        y = random_field(rng, 3, 3)
        b1 = lie_bracket_fields(x, y)
        b2 = lie_bracket_fields(y, x)
        assert all((a + b).is_zero() for a, b in zip(b1, b2))

    def test_jacobi_identity(self):
        rng = random.Random(13)
        x = random_field(rng, 2, 2)
        y = random_field(rng, 2, 2)
        z = random_field(rng, 2, 2)
        j1 = lie_bracket_fields(x, lie_bracket_fields(y, z))
        j2 = lie_bracket_fields(y, lie_bracket_fields(z, x))
        j3 = lie_bracket_fields(z, lie_bracket_fields(x, y))
        assert all((a + b + c).is_zero() for a, b, c in zip(j1, j2, j3))

    def test_coordinate_field_action(self):
        L = companion_second(sigma_coordinates2())
        e2 = (ExactPolynomial.zero(2), ExactPolynomial.constant(2, 1))
        img = apply_to_field(L, e2)
        assert img[0] == ExactPolynomial.constant(2, 1)
        assert img[1] == upoly("u1", 2)


class TestMatrixAlgebra:
    def test_power_and_matmul_agree(self):
        L = companion_second(sigma_torsion_free2())
        assert L.power(3) == L @ L @ L

    def test_trace_of_companion(self):
        L = companion_second(sigma_coordinates2())
        assert L.trace() == upoly("u1", 2)

    def test_cayley_hamilton(self):
        # L^n = sigma_1 L^(n-1) + ... + sigma_n Id for companion input
        for n in (2, 3):
            sig = [upoly(f"u{i + 1}", n) for i in range(n)]
            L = companion_second(sig)
            acc = OperatorField.zero(n)
            for k, s in enumerate(sig, start=1):
                acc = acc + L.power(n - k) * s
            assert L.power(n) == acc

    def test_size_mismatch_rejected(self):
        with pytest.raises(OperatorError):
            OperatorField.identity(2) @ OperatorField.identity(3)

    @pytest.mark.parametrize("sigma", [sigma_curved(n) for n in range(2, 6)]
                             + [sigma_obstructed(5)])
    def test_derivative_is_the_entrywise_partial(self, sigma):
        model = CompanionModel(sigma)
        n = model.n
        for field in (model.operator, model.gram):
            for a in range(n):
                assert field.derivative(a) == tuple(
                    tuple(field.entry(i, j).partial(a) for j in range(n))
                    for i in range(n))
