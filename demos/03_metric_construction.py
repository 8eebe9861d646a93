"""From characteristic coefficients to a geodesically compatible metric.

The quadratic integrals h_1..h_n are the first row of the square of the
momentum pencil S = sum_k p_k L^(k-1); the Gram matrix of h_1 is the
contravariant metric.  build_h_family reads them off the reduced power
coefficients of L; squaring the pencil (h_family_from_pencil, the test
suite's oracle) must produce the same family, and the Gram matrix must land
in unit anti-triangular normal form.  Finally the covariant metric and its
derivatives are obtained at a sample point by exact-then-float inversion.
"""

import sys
from pathlib import Path

import numpy as np

from nijflow import (base_names, build_h_family, check_gram_normal_form,
                     covariant_at, format_polynomial, gram_matrix,
                     parse_expression)

# the test suite's oracles, imported from the repository's tests/ directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from support import h_family_from_pencil  # noqa: E402

names = base_names(2)
sigma = [parse_expression(s, names) for s in ("u1", "u2 - 1/2*u1^2")]

print("== the quadratic family ==")
family = build_h_family(sigma)
for i, h in enumerate(family, start=1):
    print(f"  h_{i} = {h}")

print("\n== the independent route agrees exactly ==")
other = h_family_from_pencil(sigma)
print(f"  power-recursion route == pencil-square route: {family == other}")

print("\n== Gram matrix of h_1 (contravariant metric) ==")
gram = gram_matrix(family[0])
for i in range(gram.n):
    row = ", ".join(format_polynomial(gram.entry(i, j), names)
                    for j in range(gram.n))
    print(f"  [{row}]")
failures = check_gram_normal_form(gram)
print(f"  normal form: ok={not failures}, "
      f"det = {format_polynomial(gram.determinant(), names)}")

print("\n== covariant metric at a point ==")
point = [0.4, -0.3]
cov = covariant_at(gram, point)
with np.printoptions(precision=6, suppress=True):
    print(f"  g at {point} =\n{cov.g}")
    print(f"  d g / d u1 =\n{cov.dg[0]}")
reconstructed = cov.g @ gram.evaluate_at(point)
print(f"  g . G == identity to {np.max(np.abs(reconstructed - np.eye(2))):.2e}")

print("\n== later family members define metrics that can degenerate ==")
gram2 = gram_matrix(family[1])
det2 = format_polynomial(gram2.determinant(), names)
print(f"  det gram(h_2) = {det2}; it vanishes at (1, 1/2):")
try:
    covariant_at(gram2, [1.0, 0.5])
except Exception as exc:
    print(f"  {type(exc).__name__}: {exc}")
print("  (the Gram matrix of h_1 is unimodular, so that metric never"
      " degenerates)")
