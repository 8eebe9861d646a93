"""Companion-form operator fields and the torsion obstruction.

A polynomial matrix field in second companion form is determined by its
characteristic coefficients sigma_1..sigma_n.  Whether the coefficients can
serve as flat coordinates for the construction is measured by the Nijenhuis
torsion; this demo evaluates it symbolically on three reference coefficient
lists.  (A companion operator is gl-regular at every point: the Krylov
matrix of the last basis vector is unit anti-triangular.)
"""

from nijflow import (base_names, companion_first, companion_second,
                     char_coefficients, format_polynomial, guiding_bracket,
                     nijenhuis_torsion, parse_expression)

names = base_names(2)


def show_torsion(label, sigma_texts):
    sigma = [parse_expression(s, names) for s in sigma_texts]
    L = companion_second(sigma)
    torsion = nijenhuis_torsion(L)
    print(f"  {label}: sigma = {sigma_texts}")
    print(f"    L = {L}")
    if all(layer.is_zero() for layer in torsion):
        print("    torsion = 0 (all components are the zero polynomial)")
    else:
        comp = torsion[1].entry(0, 1)
        print(f"    torsion != 0, e.g. component (2;1,2) = "
              f"{format_polynomial(comp, names)}")
    return L


print("== second companion form ==")
show_torsion("constant", ["1", "-1/2"])
L_good = show_torsion("torsion-free", ["u1", "u2 - 1/2*u1^2"])
L_bad = show_torsion("obstructed", ["u1", "u2"])

print("\n== characteristic coefficients recover sigma ==")
rec = char_coefficients(L_good)
print("  char_coefficients(L) =",
      [format_polynomial(c, names) for c in rec])

print("\n== torsion-free operators commute with their own powers ==")
bracket = guiding_bracket(L_good, L_good @ L_good)
print(f"  <L, L^2> vanishes: {all(layer.is_zero() for layer in bracket)}")

print("\n== first companion form ==")
Lf = companion_first([parse_expression(s, names) for s in ("u1", "u2")])
print(f"  L_first(sigma=(u1,u2)) = {Lf}")
print("  its torsion vanishes: "
      f"{all(layer.is_zero() for layer in nijenhuis_torsion(Lf))} "
      "(coordinate coefficients are the flat normal form here)")
