"""The seven checks that certify a companion model's defining identities:
six exact over the rationals (residual = largest absolute coefficient of the
offending polynomial), and ``compatibility_sweep``, the coordinate form of
compatibility at 50 seeded random points (tolerance 1e-8)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .compat import benenti_residual, coordinate_form_residual_at
from .metric import (check_gram_normal_form, covariant_at,
                     differential_shift_residuals, pairwise_poisson)
from .model import CompanionModel
from .operators import companion_torsion


def verify_model(model: CompanionModel, seed: int) -> list[dict]:
    """The seven check records ``{"name", "verdict", "residual", "detail"}``
    in report order; ``seed`` draws the sweep's points."""
    n = model.n
    checks = []

    def record(name, ok, residual, detail=None):
        checks.append({"name": name, "verdict": "pass" if ok else "fail",
                       "residual": residual, "detail": detail})

    def record_exact(name, ok, polys):  # residual: the largest |coefficient|
        try:
            peak = float(max((p.max_abs_coefficient() for p in polys if p), default=0))
        except OverflowError:
            raise OverflowError(f"the {name} residual exceeds the float range") from None
        record(name, ok, peak)

    # every model is a companion model, so its torsion is read from sigma
    torsion = companion_torsion(model.sigma)
    record_exact("torsion", torsion.is_zero(),
                 (e for layer in torsion for row in layer.entries for e in row))

    shape = check_gram_normal_form(model.gram)
    record("gram_normal_form", shape.ok, float(len(shape.failures)),
           "; ".join(shape.failures) or None)

    shift = differential_shift_residuals(model.sigma, model.family)
    record_exact("differential_shift", shift.ok,
                 (r for rows in (shift.u_residuals, shift.p_residuals)
                  for row in rows for r in row))

    # formed once: integral_commutation reads the same brackets
    pairs = pairwise_poisson(model.family)
    record_exact("h_poisson_pairs", pairs.ok,
                 (b.poly for _, _, b in pairs.residuals))

    benenti = benenti_residual(model.family, model.sigma)
    record_exact("benenti", benenti.poly.is_zero(), [benenti.poly])

    # 50 points in one batch (the stream of 50 draws of n).  A companion
    # Gram matrix is unit anti-triangular, so det G is exactly +-1 wherever
    # it is finite and ``covariant_at`` never finds a singular point.  Values
    # that leave the float range give an inf or nan residual, which fails
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(50, n))
    with np.errstate(over="ignore", invalid="ignore"):
        g_at = covariant_at(model.gram, points)
        worst = float(coordinate_form_residual_at(g_at, model.operator).max())
    record("compatibility_sweep", worst < 1e-8, worst)

    # F_i = 1/2 h_(i+1), so {F_i, F_j} is a quarter of the h-pair bracket
    record_exact("integral_commutation", pairs.ok,
                 (b.poly * Fraction(1, 4) for _, _, b in pairs.residuals))
    return checks
