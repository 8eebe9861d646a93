"""Shared helpers for the test suite."""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from nijflow.cli import ConfigError
from nijflow.exactpoly import ExactPolynomial, parse_expression, signed_sum
from nijflow.flows import (MAX_STEPS, MIN_STEP, _RK45_A, _RK45_B4, _RK45_B5,
                           AxisSpec, CotangentPoint, FlowError, SolutionGrid)
from nijflow.pde import UNIFORM_RTOL


def unames(n):
    return [f"u{i + 1}" for i in range(n)]


def upnames(n):
    return unames(n) + [f"p{i + 1}" for i in range(n)]


def upoly(text, n):
    return parse_expression(text, unames(n))


def random_polynomial(rng, nvars, max_terms=6, max_degree=3, max_coeff=9):
    """A sparse random polynomial with small rational coefficients."""
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(max_degree + 1) for _ in range(nvars))
        coeff = Fraction(rng.randint(-max_coeff, max_coeff),
                         rng.randint(1, max_coeff))
        terms.append((exps, coeff))
    return ExactPolynomial(nvars, terms)


def random_sigma(rng, n, max_terms=3, max_degree=2, max_coeff=5):
    """Random characteristic-coefficient lists; sparse so the downstream
    exact algebra stays small."""
    sig = []
    for _ in range(n):
        nterms = rng.randint(1, max_terms)
        terms = []
        for _ in range(nterms):
            exps = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                exps[rng.randrange(n)] += 1
            coeff = Fraction(rng.randint(-max_coeff, max_coeff) or 1,
                             rng.randint(1, 3))
            terms.append((tuple(exps), coeff))
        sig.append(ExactPolynomial(n, terms))
    return sig


def random_phase_function(rng, n, p_degree, max_terms=4, max_degree=2):
    """Random momentum-homogeneous polynomial on the cotangent chart."""
    from nijflow.metric import PhaseFunction

    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * (2 * n)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        for _ in range(p_degree):
            exps[n + rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
        terms.append((tuple(exps), coeff))
    return PhaseFunction(n, ExactPolynomial(2 * n, terms), p_degree)


def reference_quadratic_phase(matrix):
    """Oracle for ``metric.quadratic_phase``: the generic construction it
    replaced, each entry lifted to the chart and multiplied by p_a and p_b."""
    from nijflow.metric import PhaseFunction

    n = len(matrix)
    acc = ExactPolynomial.zero(2 * n)
    for a in range(n):
        for b in range(n):
            pa = ExactPolynomial.variable(2 * n, n + a)
            pb = ExactPolynomial.variable(2 * n, n + b)
            acc = acc + matrix[a][b].with_appended_vars(n) * pa * pb
    return PhaseFunction(n, acc, 2)


def reference_product_terms(parts):
    """Oracle for ``exactpoly.signed_sum`` on exponent tuples, with no packed
    keys: the sum of ``sign * a * b`` over ``parts`` as a map from exponent
    tuples to nonzero Fraction coefficients, one term product at a time."""
    acc = {}
    for sign, a, b in parts:
        for ea, ca in a.terms():
            for eb, cb in b.terms():
                exps = tuple(x + y for x, y in zip(ea, eb))
                acc[exps] = acc.get(exps, 0) + sign * ca * cb
    return {exps: c for exps, c in acc.items() if c}


# The momentum lift, the Gram extraction and the printer as they were
# written on Fraction coefficients, through terms() and the constructor,
# before they moved onto the integer store; kept only as oracles.

def reference_quadratic_phase_by_terms(matrix):
    from nijflow.metric import PhaseFunction

    n = len(matrix)
    terms = []
    for a, row in enumerate(matrix):
        for b, entry in enumerate(row):
            p_exps = [0] * n
            p_exps[a] += 1
            p_exps[b] += 1
            p_exps = tuple(p_exps)
            terms += [(u_exps + p_exps, c) for u_exps, c in entry.terms()]
    return PhaseFunction(n, ExactPolynomial(2 * n, terms), 2)


def reference_gram_matrix(h):
    from nijflow.metric import GramMatrix, MetricError

    if h.p_degree != 2 and not h.is_zero():
        raise MetricError("Gram extraction requires a momentum-quadratic function")
    n = h.n
    acc = [[dict() for _ in range(n)] for _ in range(n)]

    def add(i, j, exps, coeff):
        d = acc[i][j]
        d[exps] = d.get(exps, Fraction(0)) + coeff

    for exps, coeff in h.poly.terms():
        u_part = exps[:n]
        p_part = exps[n:]
        support = [k for k, e in enumerate(p_part) if e]
        if len(support) == 1:
            a = support[0]
            add(a, a, u_part, coeff)
        else:
            a, b = support
            add(a, b, u_part, coeff / 2)
            add(b, a, u_part, coeff / 2)
    rows = [[ExactPolynomial(n, acc[i][j]) for j in range(n)] for i in range(n)]
    return GramMatrix(rows)


def reference_format_polynomial(poly, names):
    from nijflow.exactpoly import _monomial_parts

    if poly.is_zero():
        return "0"
    pieces = []
    for i, (exps, coeff) in enumerate(poly.terms()):
        mag = abs(coeff)
        parts = _monomial_parts(exps, names)
        if not parts:
            body = str(mag)
        elif mag == 1:
            if i == 0 and coeff < 0 and "^" in parts[0]:
                body = "1*" + "*".join(parts)
            else:
                body = "*".join(parts)
        else:
            body = f"{mag}*" + "*".join(parts)
        if i == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


# Named coefficient lists used throughout the suite.

def sigma_torsion_free2():
    """n=2 list whose second companion operator has zero torsion."""
    return [upoly("u1", 2), upoly("u2 - 1/2*u1^2", 2)]


def sigma_coordinates2():
    """n=2 list sigma = (u1, u2); its second companion operator has torsion
    component N^2_{12} = -u1, the standard negative control."""
    return [upoly("u1", 2), upoly("u2", 2)]


def sigma_constant(n, values=None):
    """Constant coefficients; every derived identity then holds trivially
    and flows are affine."""
    if values is None:
        values = [Fraction(2 - k, 2) for k in range(n)]
    return [ExactPolynomial.constant(n, v) for v in values]


def sigma_curved(n):
    """The curved torsion-free family: sigma_1..sigma_n are the coefficients
    of t^1..t^n in 1 - exp(-U(t)), U(t) = sum_i u_i t^i (weight of u_i = i,
    so sigma_1..sigma_(n-1) do not depend on n).  With E(t) = exp(-U(t)),
    E' = -U'E gives E_0 = 1 and k E_k = -sum_j j u_j E_(k-j)."""
    # At u_k = (sum_i lambda_i^k)/k (``u_from_eigenvalues``), U(t) is
    # -sum_i log(1 - lambda_i t) mod t^(n+1), so
    #     1 - sum_k sigma_k t^k = prod_i (1 - lambda_i t)
    # and the companion operator has the eigenvalues lambda_i.  This is why
    # the torsion vanishes at every n tested; it is not a proof of that.
    e = [ExactPolynomial.constant(n, 1)]
    for k in range(1, n + 1):
        e.append(signed_sum(n, [(-1, ExactPolynomial.variable(n, j - 1),
                                 e[k - j] * Fraction(j, k))
                                for j in range(1, k + 1)]))
    return [-c for c in e[1:]]


def u_from_eigenvalues(lams):
    """The point u_k = (sum_i lambda_i^k)/k, k = 1..n, at which the
    operator of ``sigma_curved(n)`` has the eigenvalues ``lams``."""
    lams = np.asarray(lams, dtype=float)
    return [float(np.sum(lams ** k)) / k for k in range(1, len(lams) + 1)]


def sigma_obstructed(n):
    """sigma_i = u_i + u1*u_(i-1): an operator with nonzero torsion, so
    the compatibility sweep has a residual to report."""
    return [upoly("u1", n)] + [upoly(f"u{i} + u1*u{i - 1}", n)
                               for i in range(2, n + 1)]


# The covariant metric and the coordinate-form residual as they were computed
# one point at a time, before both took stacks of points; kept only as
# oracles for the tests.

def reference_covariant_at(gram, point):
    from nijflow.metric import CovariantMetricAt

    n = gram.n
    G = np.array([[e.evaluate(point) for e in row] for row in gram.entries])
    g = np.linalg.inv(G)
    dG = np.array([[[e.evaluate(point) for e in row]
                    for row in gram.derivative(a)] for a in range(n)])
    dg = np.array([-g @ dG[a] @ g for a in range(n)])
    return CovariantMetricAt(tuple(float(x) for x in point), g, dg)


def reference_coordinate_form_residual_at(g_at, L):
    """Python floats, every product and sum taken left to right from 0."""
    n = L.n
    point = g_at.point
    g = g_at.g.tolist()
    dg = g_at.dg.tolist()  # dg[a][i][j] = d g_ij / d u^a
    Lv = [[e.evaluate(point) for e in row] for row in L.entries]
    dL = [[[L.entry(a, b).partial(i).evaluate(point)
            for b in range(n)] for a in range(n)] for i in range(n)]
    # dL[i][a][b] = d_i L^a_b
    trace = L.trace()
    dtr = [trace.partial(j).evaluate(point) for j in range(n)]

    half = {}  # (i, j, k) -> the bracketed sum over a with j and k in place
    for i, j, k in product(range(n), repeat=3):
        t1 = t2 = 0
        for a in range(n):
            t1 += g[k][a] * dL[i][a][j]
            t2 += (dg[a][i][k] - dg[k][i][a]) * Lv[a][j]
        half[i, j, k] = t1 + t2

    worst = 0.0
    for i, j, k in product(range(n), repeat=3):
        lhs = half[i, j, k] + half[i, k, j]
        rhs = g[i][k] * dtr[j] + g[i][j] * dtr[k]
        worst = max(worst, abs(lhs - rhs))
    return worst


# The row-by-row CSV reader and writer that ``nijflow.cli`` used before it
# parsed and formatted whole columns; kept only as oracles for the tests.

def reference_write_grid_csv(grid, path):
    n = grid.n
    names = [a.name for a in grid.axes] + [f"u{i + 1}" for i in range(n)]
    index = np.indices(grid.u.shape[:-1]).reshape(len(grid.axes), -1)
    columns = [a.values()[i] for a, i in zip(grid.axes, index)]
    columns += list(grid.u.reshape(-1, n).T)
    if grid.p is not None:
        names += [f"p{i + 1}" for i in range(n)]
        columns += list(grid.p.reshape(-1, n).T)
    row = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        f.writelines(row % tuple(values)
                     for values in np.column_stack(columns).tolist())


def reference_read_grid_csv(path):
    try:
        with open(path) as f:
            header = f.readline().strip()
            rows = [line.split(",") for line in f if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read lattice {path!r}: {exc}") from exc
    names = header.split(",")
    # the writer's header: x, t1..tk, u1..un, then p1..pn or nothing
    n = len([c for c in names if c.startswith("u")])
    axis_names = ["x"] + [f"t{i + 1}" for i in range(
        len([c for c in names if c.startswith("t")]))]
    u_names = [f"u{i + 1}" for i in range(n)]
    p_names = [f"p{i + 1}" for i in range(n)]
    if n == 0 or names not in (axis_names + u_names,
                               axis_names + u_names + p_names):
        raise ConfigError(f"unrecognized lattice header {header!r}")
    if len(names) == len(axis_names) + n:
        p_names = []
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ConfigError(f"bad number in lattice file: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != len(names):
        raise ConfigError("lattice rows do not match the header")
    k = len(axis_names)
    axis_values = []
    for a in range(k):
        seen = []
        for v in data[:, a]:
            if not seen or v != seen[-1]:
                if v in seen:
                    continue
                seen.append(v)
        axis_values.append(seen)
    shape = tuple(len(vals) for vals in axis_values)
    if int(np.prod(shape)) != len(data):
        raise ConfigError("lattice rows do not fill a full rectangle")
    axes = tuple(AxisSpec(name, vals[0], vals[-1], len(vals))
                 for name, vals in zip(axis_names, axis_values))
    for axis, vals in zip(axes, axis_values):
        if (np.abs(axis.values() - vals).max()
                > UNIFORM_RTOL * max(1.0, abs(axis.delta))):
            raise ConfigError(f"lattice axis {axis.name!r} is not uniform")
    # verify lexicographic row order by reconstructing the axis columns
    for a in range(k):
        expected = np.array(axis_values[a])[
            np.array(list(np.ndindex(*shape)))[:, a]]
        if not np.array_equal(expected, data[:, a]):
            raise ConfigError("lattice rows are not in lexicographic order")
    u = data[:, k:k + n].reshape(shape + (n,))
    p = data[:, k + n:].reshape(shape + (n,)) if p_names else None
    return SolutionGrid(axes, u, p, {"generator": "csv", "path": path})


# The index-loop steppers that ``nijflow.flows`` used before its loops were
# written as zip comprehensions; kept only as oracles for the tests.

def reference_rk4_segment(f, y, t_span, settings):
    steps = abs(t_span) / settings.step - 1e-12
    if steps > MAX_STEPS:
        raise FlowError("step budget exhausted", CotangentPoint.from_state(y))
    nsteps = max(1, math.ceil(steps))
    h = t_span / nsteps
    half = 0.5 * h
    sixth = h / 6.0
    m = len(y)
    for _ in range(nsteps):
        try:
            k1 = f(y)
            k2 = f([y[i] + half * k1[i] for i in range(m)])
            k3 = f([y[i] + half * k2[i] for i in range(m)])
            k4 = f([y[i] + h * k3[i] for i in range(m)])
            ynew = [y[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i])
                    for i in range(m)]
        except OverflowError:
            raise FlowError("state blew up during a step",
                            CotangentPoint.from_state(y)) from None
        if not all(math.isfinite(v) for v in ynew):
            raise FlowError("state became non-finite",
                            CotangentPoint.from_state(y))
        y = ynew
    return y


def reference_rk45_segment(f, y, t_span, settings):
    if t_span == 0.0:
        return list(y)
    m = len(y)
    direction = 1.0 if t_span > 0 else -1.0
    remaining = abs(t_span)
    h = min(0.05, remaining)
    atol, rtol = settings.abs_tol, settings.rel_tol
    steps = 0
    while remaining > 0.0:
        steps += 1
        if steps > MAX_STEPS:
            raise FlowError("step budget exhausted",
                            CotangentPoint.from_state(y))
        h = min(h, remaining)
        try:
            ks = []
            for row in _RK45_A:
                z = list(y)
                for a, k in zip(row, ks):
                    if a:
                        ha = direction * h * a
                        for i in range(m):
                            z[i] += ha * k[i]
                ks.append(f(z))
            y5 = [y[i] + direction * h * sum(b * ks[s][i]
                                             for s, b in enumerate(_RK45_B5) if b)
                  for i in range(m)]
        except OverflowError:
            raise FlowError("state blew up during a step",
                            CotangentPoint.from_state(y)) from None
        err = 0.0
        for i in range(m):
            e4 = sum((b5 - b4) * ks[s][i]
                     for s, (b5, b4) in enumerate(zip(_RK45_B5, _RK45_B4)))
            scale = atol + rtol * max(abs(y[i]), abs(y5[i]))
            e = abs(direction * h * e4) / scale
            # max() drops a nan: a non-finite trial is an infinite error,
            # which rejects it and cuts the step to a fifth
            finite = math.isfinite(e) and math.isfinite(y5[i])
            err = max(err, e if finite else math.inf)
        accepted = err <= 1.0
        if accepted:
            y = y5
            remaining -= h
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if h < MIN_STEP and remaining > 0.0:
            raise FlowError("step size underflow",
                            CotangentPoint.from_state(y))
    return y


# The operator product and the plot writer as ``nijflow.pde`` and
# ``nijflow.lattice_io`` computed them before the product was compiled and
# the plot's points were scaled in numpy; kept only as oracles for the tests.

def reference_operator_product(A, u, v):
    """A(u) v over stacks (..., n): the interpreter's entries, then einsum."""
    return np.einsum("...ij,...j->...i", A.evaluate_at(u), v)


def reference_write_svg_plot(grid, slices, path):
    from nijflow.lattice_io import _PALETTE, _svg_line, _svg_text

    width, height = 720, 480
    left, right, top, bottom = 64.0, 700.0, 24.0, 440.0
    xs = grid.axes[0].values()
    if len(grid.axes) == 1:
        if slices:
            raise ConfigError("the lattice has no time axis to slice")
        chosen = [None] if slices is None else []
    else:
        nt = grid.axes[1].count
        if slices is None:
            count = min(6, nt)
            chosen = sorted({round(i * (nt - 1) / max(1, count - 1))
                             for i in range(count)})
        else:
            chosen = list(slices)
            for s in chosen:
                if not isinstance(s, int) or not 0 <= s < nt:
                    raise ConfigError(f"slice index {s} out of range "
                                      f"(time axis has {nt} nodes)")

    curves = []  # (label, color, x array, y array)
    for rank, s in enumerate(chosen):
        for c in range(grid.n):
            if s is None:
                ys = grid.u[(slice(None),) + (0,) * (grid.u.ndim - 2) + (c,)]
                label = f"u{c + 1}"
            else:
                ys = grid.u[(slice(None), s) + (0,) * (grid.u.ndim - 3) + (c,)]
                t_val = grid.axes[1].values()[s]
                label = f"u{c + 1} @ {grid.axes[1].name}={t_val:.4g}"
            color = _PALETTE[(rank * grid.n + c) % len(_PALETTE)]
            curves.append((label, color, xs, ys))

    if curves:
        lo = min(float(np.min(ys)) for _, _, _, ys in curves)
        hi = max(float(np.max(ys)) for _, _, _, ys in curves)
    else:
        lo, hi = -1.0, 1.0
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    x_lo, x_hi = float(xs[0]), float(xs[-1])
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0

    def sx(v):
        return left + (v - x_lo) / (x_hi - x_lo) * (right - left)

    def sy(v):
        return bottom - (v - lo) / (hi - lo) * (bottom - top)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
             _svg_line(left, bottom, right, bottom),
             _svg_line(left, bottom, left, top)]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = lo + frac * (hi - lo)
        parts.append(_svg_text(sx(xv), bottom + 18, f"{xv:.4g}"))
        parts.append(_svg_text(left - 8, sy(yv) + 4, f"{yv:.4g}",
                               anchor="end"))
    parts.append(_svg_text((left + right) / 2, height - 6,
                           grid.axes[0].name))
    for label, color, cx, cy in curves:
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                       for a, b in zip(cx, cy))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
    for i, (label, color, _, _) in enumerate(curves):
        y = top + 14 + 16 * i
        parts.append(_svg_line(right - 150, y - 4, right - 130, y - 4,
                               color, 2))
        parts.append(_svg_text(right - 124, y, label, anchor="start",
                               size=11))
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
