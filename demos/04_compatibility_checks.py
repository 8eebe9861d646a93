"""Certifying geodesic compatibility three ways, then transporting it.

The metric built from h_1 and the companion operator are geodesically
compatible.  This demo certifies that claim (a) symbolically through the
bracket-form identity, (b) pointwise through the first-order coordinate
system, and (c) pointwise through the invariant Lie-form relation on vector
fields, the test suite's cross-check -- and then pushes the metric through
symmetries M of the operator, which must preserve compatibility.
"""

import random
import sys
from pathlib import Path

import numpy as np

from nijflow import (CompanionModel, OperatorField, base_names,
                     benenti_residual, coordinate_form_residual_at,
                     covariant_at, is_symmetry, parse_expression,
                     symmetry_metric)

# the test suite's oracles, imported from the repository's tests/ directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from support import lie_form_residual_at, self_adjoint_residual  # noqa: E402

names = base_names(2)
model = CompanionModel([parse_expression(s, names)
                        for s in ("u1", "u2 - 1/2*u1^2")])
family, L, gram = model.family, model.operator, model.gram

print("== symbolic certificates ==")
sa = self_adjoint_residual(gram, L, family)
print(f"  L is metric-self-adjoint and h1 L^T = sigma_1 h1 + h2: {sa.ok}")
bracket = benenti_residual(model)
print(f"  bracket-form residual {{H, F}} - 2 H G is the zero polynomial: "
      f"{bracket.is_zero()}")

bad = benenti_residual(CompanionModel([parse_expression(s, names)
                                      for s in ("u1", "u2")]))
print(f"  same residual for the obstructed coefficients (u1, u2): "
      f"nonzero, e.g. {bad}")

print("\n== pointwise: coordinate form at random points ==")
points = np.random.default_rng(7).uniform(-2.0, 2.0, size=(25, 2))
# one call each over the stack of points: a residual per point
worst = coordinate_form_residual_at(covariant_at(gram, points), L).max()
print(f"  max residual over 25 points: {worst:.3e}")

print("\n== pointwise: Lie form with polynomial vector fields ==")
prng = random.Random(7)


def random_field():
    return [parse_expression(
        f"{prng.randint(-3, 3)} + {prng.randint(-3, 3)}*u1 "
        f"+ {prng.randint(-3, 3)}*u2", names) for _ in range(2)]


point = [0.7, -0.4]
cov = covariant_at(gram, point)
worst = max(lie_form_residual_at(cov, L, random_field(), random_field())
            for _ in range(25))
print(f"  max residual over 25 field pairs at {point}: {worst:.3e}")

print("\n== compatibility survives the symmetry transform g -> gM ==")
candidates = [
    ("Id", OperatorField.identity(2)),
    ("L", L),
    ("L^2", L @ L),
    ("L + 3 Id", L + OperatorField.identity(2) * 3),
]
for label, M in candidates:
    assert is_symmetry(L, M)
    gM = symmetry_metric(cov, M, check_against=L)
    res = coordinate_form_residual_at(gM, L)
    print(f"  M = {label:9s} residual of transformed metric: {res:.3e}")

print("\n== a non-symmetry is rejected ==")
bad_M = OperatorField([[parse_expression("u2", names),
                        parse_expression("0", names)],
                       [parse_expression("0", names),
                        parse_expression("u1", names)]])
print(f"  is_symmetry(L, diag(u2, u1)) = {is_symmetry(L, bad_M)}")
try:
    symmetry_metric(cov, bad_M, check_against=L)
except Exception as exc:
    print(f"  symmetry_metric raises {type(exc).__name__}: {exc}")
