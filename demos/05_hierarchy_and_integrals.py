"""The Killing hierarchy A_i and its commuting quadratic integrals F_i.

The adjugate recursion A_0 = Id, A_i = L A_(i-1) - sigma_i Id terminates in
the characteristic identity for *any* operator field; combined with the
metric it produces quadratic integrals F_i that Poisson-commute exactly
when the operator is torsion-free.  For a companion operator A_i h1 is the
Gram matrix of h_(i+1), so F_i = 1/2 h_(i+1): the package's models take the
family halved, and ``first_integrals`` is the route they are checked
against.  This demo runs both halves on a three-component example and shows
the torsion-free hypothesis doing real work: the obstructed coefficients
keep the characteristic identity and F_i = 1/2 h_(i+1), but lose the
commutation.
"""

import sys
from fractions import Fraction
from pathlib import Path

from nijflow import (base_names, build_h_family, companion_second,
                     first_integrals, gram_matrix, killing_operators,
                     nijenhuis_torsion, pairwise_poisson, parse_expression)

# the test suite's oracles, imported from the repository's tests/ directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from support import generating_identity_residuals  # noqa: E402

names = base_names(3)
texts = ("u1", "u2 - 1/2*u1^2", "u3 - u1*u2 + 1/6*u1^3")
sigma = [parse_expression(t, names) for t in texts]
L = companion_second(sigma)
print(f"sigma = {texts}")
print(f"torsion-free: {all(layer.is_zero() for layer in nijenhuis_torsion(L))}")

print("\n== the hierarchy ==")
hierarchy = killing_operators(sigma)
for i, A in enumerate(hierarchy):
    print(f"  A_{i} = {A}")

print("\n== characteristic identity, coefficient by coefficient ==")
residuals = generating_identity_residuals(L, hierarchy)
print(f"  all {len(residuals)} lambda-coefficients vanish exactly: "
      f"{all(r.is_zero() for r in residuals)}")

print("\n== quadratic integrals ==")
family = build_h_family(sigma)
gram = gram_matrix(family[0])
integrals = first_integrals(gram, hierarchy)
for i, F in enumerate(integrals):
    print(f"  F_{i} = {F}")
print(f"  F_i = 1/2 h_(i+1) for every i: "
      f"{all(F == h * Fraction(1, 2) for F, h in zip(integrals, family))}")
pairs = pairwise_poisson(integrals)
print(f"  pairwise Poisson brackets vanish exactly: "
      f"{all(b.is_zero() for _, _, b in pairs)}")

print("\n== evolution operators of the quasilinear systems ==")
print("  the flow of F_i transports u along u_t_i = A_i(u) u_x; at a point:")
point = [0.5, -0.25, 1.0]
for i, A in enumerate(hierarchy[1:], start=1):
    rows = [[f"{v:+.4f}" for v in row] for row in A.evaluate_at(point)]
    print(f"  A_{i}({point}) = {rows}")

print("\n== torsion is what buys the commutation ==")
bad_sigma = [parse_expression(t, names) for t in ("u1", "u2", "u3")]
bad_L = companion_second(bad_sigma)
bad_hier = killing_operators(bad_sigma)
bad_res = generating_identity_residuals(bad_L, bad_hier)
print(f"  obstructed (u1, u2, u3): characteristic identity still exact: "
      f"{all(r.is_zero() for r in bad_res)}")
bad_family = build_h_family(bad_sigma)
bad_F = first_integrals(gram_matrix(bad_family[0]), bad_hier)
print(f"  and so is F_i = 1/2 h_(i+1): "
      f"{all(F == h * Fraction(1, 2) for F, h in zip(bad_F, bad_family))}")
first_bad = next((i, j, b) for i, j, b in pairwise_poisson(bad_F)
                 if not b.is_zero())
print(f"  but the integrals stop commuting: "
      f"{{F_{first_bad[0] - 1}, F_{first_bad[1] - 1}}} = {first_bad[2]}")
