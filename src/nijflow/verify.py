"""The seven checks that certify a companion model's defining identities:
six exact over the rationals, and ``compatibility_sweep``, the coordinate
form of compatibility at 50 seeded random points (tolerance 1e-8).

Each exact check returns what it found, and one rule decides: a check of
residual polynomials passes when every one is zero, and its residual is the
largest absolute coefficient among them; ``differential_shift`` takes the
u-part alone, the p-part being the h family's own recurrence (proof in
``metric.differential_shift_residuals``); ``integral_commutation`` reads a
quarter of the ``h_poisson_pairs`` one, as F_i = h_(i+1)/2, and ``benenti``
half of the first bracket {h_1, h_2}, which ``compat.benenti_residual``
equals by the Leibniz rule; ``gram_normal_form`` passes when it finds no
departure from the normal form, and its residual is their count."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .compat import coordinate_form_residual_at
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

    def record_exact(name, polys):  # the one rule for residual polynomials
        peak = max((p.max_abs_coefficient() for p in polys if p), default=0)
        try:
            residual = float(peak)
        except OverflowError:
            raise OverflowError(f"the {name} residual exceeds the float range") from None
        record(name, peak == 0, residual)
        return peak

    # every model is a companion model, so its torsion is read from sigma
    record_exact("torsion", (e for layer in companion_torsion(model.sigma)
                             for row in layer.entries for e in row))

    failures = check_gram_normal_form(model.gram)
    record("gram_normal_form", not failures, float(len(failures)),
           "; ".join(failures) or None)

    record_exact("differential_shift",
                 (r for row in differential_shift_residuals(model) for r in row))

    brackets = [b.poly for _, _, b in pairwise_poisson(model.family)]
    h_peak = record_exact("h_poisson_pairs", brackets)

    record_exact("benenti", [b * Fraction(1, 2) for b in brackets[:1]])

    # 50 points in one batch (the stream of 50 draws of n).  A companion
    # Gram matrix is unit anti-triangular, so det G is exactly +-1 wherever
    # it is finite and ``covariant_at`` never finds a singular point.  Values
    # that leave the float range give an inf or nan residual, which fails
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(50, n))
    with np.errstate(over="ignore", invalid="ignore"):
        g_at = covariant_at(model.gram, points)
        worst = float(coordinate_form_residual_at(g_at, model.operator).max())
    record("compatibility_sweep", worst < 1e-8, worst)

    # F_i = 1/2 h_(i+1), so {F_i, F_j} is a quarter of the h-pair bracket;
    # a quarter of a peak that fits a float fits one too
    record("integral_commutation", h_peak == 0,
           float(h_peak * Fraction(1, 4)))
    return checks
