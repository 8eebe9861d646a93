"""The seven checks that certify a companion model's defining identities:
six exact over the rationals, and ``compatibility_sweep``, the coordinate
form of compatibility at 50 seeded random points (tolerance 1e-8).

Each exact check returns what it found, and one rule decides: a check of
residual polynomials passes when every one is zero, and its residual is the
largest absolute coefficient among them; ``differential_shift`` takes the
u-part alone, the p-part being the h family's own recurrence (proof in
``metric.differential_shift_residuals``); ``integral_commutation`` reads a
quarter of the ``h_poisson_pairs`` one, as F_i = h_(i+1)/2, and ``benenti``
half of the first bracket {h_1, h_2}, which ``metric.benenti_residual``
equals by the Leibniz rule; ``gram_normal_form`` passes when it finds no
departure from the normal form, and its residual is their count."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .metric import (check_gram_normal_form, coordinate_form_residual_at,
                     covariant_at, differential_shift_residuals,
                     pairwise_poisson)
from .model import CompanionModel
from .operators import companion_torsion

_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _sweep_points(seed: int, n: int) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(-2.0, 2.0, (50, n))`` bit for
    bit, without ``numpy.random``: ``SeedSequence`` pool mixing, then PCG64
    (O'Neill 2014) seeded from it, one XSL-RR draw per 128-bit state."""
    h, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(v: int) -> int:  # SeedSequence's hash; h moves per call
        nonlocal h
        v, h = v ^ h, h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(max(len(words), 4)):
        for dst in range(4):
            if dst != src:
                v = hashmix(pool[src] if src < 4 else words[src])
                v = (0xCA01F9DD * pool[dst] - 0x4973F715 * v) & _M32
                pool[dst] = v ^ v >> 16
    h, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, np.uint64)
    state = sum(hashmix(pool[k % 4]) << 32 * k for k in range(8))
    w = [state >> 64 * k & (1 << 64) - 1 for k in range(4)]
    inc = (w[2] << 65 | w[3] << 1 | 1) & _M128
    s = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128
    packed = bytearray()
    for _ in range(50 * n):
        s = (s * _PCG_MULT + inc) & _M128
        packed += s.to_bytes(16, "little")
    lo, hi = np.frombuffer(packed, dtype="<u8").reshape(-1, 2).T
    x, rot = lo ^ hi, hi >> np.uint64(58)
    x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    return (-2.0 + 4.0 * ((x >> np.uint64(11)) * 2.0**-53)).reshape(50, n)


def verify_model(model: CompanionModel, seed: int) -> list[dict]:
    """The seven check records ``{"name", "verdict", "residual", "detail"}``
    in report order; ``seed``, an ``int`` >= 0, draws the sweep's points."""
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
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
    points = _sweep_points(seed, model.n)
    with np.errstate(over="ignore", invalid="ignore"):
        g_at = covariant_at(model.gram, points)
        worst = float(coordinate_form_residual_at(g_at, model.operator).max())
    record("compatibility_sweep", worst < 1e-8, worst)

    # F_i = 1/2 h_(i+1), so {F_i, F_j} is a quarter of the h-pair bracket;
    # a quarter of a peak that fits a float fits one too
    record("integral_commutation", h_peak == 0,
           float(h_peak * Fraction(1, 4)))
    return checks
