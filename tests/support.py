"""Shared helpers for the test suite."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

import numpy as np
import pytest

from nijflow.cli import ConfigError
from nijflow.exactpoly import (ExactPolynomial, evaluate_table_array,
                               parse_expression, signed_sum)
from nijflow.flows import (MAX_STEPS, MIN_STEP, _RK45_A, _RK45_B4, _RK45_B5,
                           AxisSpec, CotangentPoint, FlowError, FlowSettings,
                           HamiltonianField, SolutionGrid, _advance,
                           integrate_flow)
from nijflow.metric import (CompatError, CovariantMetricAt, GramMatrix,
                            PhaseFunction, differential_shift_residuals,
                            gram_matrix, poisson_bracket, quadratic_phase)
from nijflow.operators import (OperatorError, OperatorField,
                               char_coefficients, companion_second)
from nijflow.pde import UNIFORM_RTOL, PDEError
from nijflow.verify import verify_model


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
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * (2 * n)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        for _ in range(p_degree):
            exps[n + rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4))
        terms.append((tuple(exps), coeff))
    return PhaseFunction(n, ExactPolynomial(2 * n, terms))


def momentum_degrees(f):
    """The degrees in p of the terms of the phase function ``f``, read from
    their exponents: {d} when ``f`` is homogeneous of degree d in the
    momenta, the empty set when it is zero."""
    return {sum(exps[f.n:]) for exps, _ in f.poly.terms()}


def same_bits(a, b):
    """Equal bit for bit, except for the sign of a nan, which IEEE 754 leaves
    open: numpy's own loops, einsum's among them, take it from either
    operand, depending on the array's length and the host's SIMD level."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(np.where(nan, 0.0, a).view(np.int64),
                               np.where(nan, 0.0, b).view(np.int64)))


def reference_quadratic_phase(matrix):
    """Oracle for ``metric.quadratic_phase``: the generic construction it
    replaced, each entry lifted to the chart and multiplied by p_a and p_b."""
    n = len(matrix)
    acc = ExactPolynomial.zero(2 * n)
    for a in range(n):
        for b in range(n):
            pa = ExactPolynomial.variable(2 * n, n + a)
            pb = ExactPolynomial.variable(2 * n, n + b)
            acc = acc + matrix[a][b].with_appended_vars(n) * pa * pb
    return PhaseFunction(n, acc)


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
    n = len(matrix)
    terms = []
    for a, row in enumerate(matrix):
        for b, entry in enumerate(row):
            p_exps = [0] * n
            p_exps[a] += 1
            p_exps[b] += 1
            p_exps = tuple(p_exps)
            terms += [(u_exps + p_exps, c) for u_exps, c in entry.terms()]
    return PhaseFunction(n, ExactPolynomial(2 * n, terms))


def reference_gram_matrix(h):
    from nijflow.metric import MetricError

    if momentum_degrees(h) - {2}:
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


def sigma_cases(draws=25, seed=3):
    """Sigmas for identities that hold for every sigma, as ``pytest.param``
    with ids: curved n = 1..7, obstructed n = 2..6, constant n = 1..4, the
    two n = 2 pairs and ``draws`` seeded ``random_sigma`` draws at n = 2..6."""
    rng = random.Random(seed)
    cases = [*((f"curved{n}", sigma_curved(n)) for n in range(1, 8)),
             *((f"obstructed{n}", sigma_obstructed(n)) for n in range(2, 7)),
             *((f"constant{n}", sigma_constant(n)) for n in range(1, 5)),
             ("coordinates2", sigma_coordinates2()),
             ("torsion_free2", sigma_torsion_free2()),
             *((f"random{k}", random_sigma(rng, 2 + k % 5))
               for k in range(draws))]
    return [pytest.param(sigma, id=name) for name, sigma in cases]


# The covariant metric and the coordinate-form residual as they were computed
# one point at a time, before both took stacks of points; kept only as
# oracles for the tests.

def reference_covariant_at(gram, point):
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


# The whole-file CSV reader that ``nijflow.lattice_io`` used before it read
# in blocks: the file's bytes, every separator and line end, and a bounds
# table of every cell held at once.  Kept only as an oracle for the tests,
# on the package's own cell parser, so any difference is the block reader's.

def whole_file_read_grid_csv(path):
    from nijflow import lattice_io
    from nijflow.lattice_io import _parse_plain, make_axis

    try:
        with open(path, "rb") as f:
            raw = f.read()
        if not raw.isascii() or b"_" in raw:
            # UTF-8 text holds the character the bytes test found
            k, ch = next((k, ch) for k, line in enumerate(
                raw.decode().split("\n"), start=1) for ch in line
                if ch == "_" or not ch.isascii())
            raise ConfigError(f"unexpected character {ch!r} on line {k} "
                              "of the lattice file")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read lattice {path!r}: {exc}") from exc
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n")
        if b"\r" in raw:
            k = raw.count(b"\n", 0, raw.index(b"\r")) + 1
            raise ConfigError(f"unexpected character '\\r' on line {k} of "
                              "the lattice file")
    start = raw.find(b"\n") + 1 or len(raw)
    header = raw[:start].decode().strip()
    names = header.split(",")
    k = 1 + sum(c.startswith("t") for c in names)
    n = sum(c.startswith("u") for c in names)
    columns = ["x"] + [f"t{i}" for i in range(1, k)] + [
        f"{c}{i}" for c in "up" for i in range(1, n + 1)]
    if not n or names not in (columns[:k + n], columns):
        raise ConfigError(f"unrecognized lattice header {header!r}")
    width = len(names)
    body = np.frombuffer(raw, np.uint8)[start:]
    seps = np.flatnonzero(body == ord(",")) + start
    ends = np.append(np.flatnonzero(body == ord("\n")) + start, len(raw))
    starts = np.append(start, ends[:-1] + 1)
    seps_before = np.searchsorted(seps, ends)
    counts = np.diff(seps_before, prepend=0)
    for i in np.flatnonzero((counts != width - 1) & (ends > starts)).tolist():
        if raw[starts[i]:ends[i]].decode().strip():
            raise ConfigError(
                f"lattice rows do not match the header: line {i + 2} has "
                f"{counts[i] + 1} cells, the header has {width}")
    lines = np.flatnonzero(counts == width - 1)
    rows = len(lines)
    if not rows:
        raise ConfigError("lattice rows do not match the header")
    if rows > lattice_io.MAX_LATTICE_NODES:
        raise ConfigError(f"the lattice file has {rows} rows, more than the "
                          f"limit of {lattice_io.MAX_LATTICE_NODES}")
    bounds = np.column_stack([
        starts[lines] - 1,
        seps[seps_before[lines, None] + np.arange(1 - width, 0)], ends[lines]])
    data = np.empty((rows, width))
    bad = None
    step = max(1, 2**13 // width)
    for r0 in range(0, rows, step):
        s = (bounds[r0:r0 + step, :-1] + 1).ravel()
        e = bounds[r0:r0 + step, 1:].ravel()
        values = data[r0:r0 + step].reshape(-1)
        slow = np.flatnonzero(~_parse_plain(raw, s, e, values))
        for i in slow.tolist():
            try:
                values[i] = float(raw[s[i]:e[i]].decode())
            except ValueError as exc:
                fault = (i % width, r0 + i // width, exc)
                bad = min(bad or fault, fault)
    if bad:
        raise ConfigError(f"bad number in lattice file: {bad[2]}") from bad[2]
    finite = np.isfinite(data)
    if not finite.all():
        r, a = divmod(int(np.argmin(finite)), width)
        text = raw[bounds[r, a] + 1:bounds[r, a + 1]].decode().strip()
        raise ConfigError(f"non-finite number {text!r} on line "
                          f"{lines[r] + 2} of the lattice file")
    axis_values = []
    for column in data[:, :k].T:
        first = np.unique(column, return_index=True)[1]
        axis_values.append(column[np.sort(first)].tolist())
    shape = tuple(len(vals) for vals in axis_values)
    if int(np.prod(shape)) != rows:
        raise ConfigError("lattice rows do not fill a full rectangle")
    axes = tuple(make_axis(name, vals[0], vals[-1], len(vals))
                 for name, vals in zip(names, axis_values))
    for axis, vals in zip(axes, axis_values):
        if (np.abs(axis.values() - vals).max()
                > UNIFORM_RTOL * max(1.0, abs(axis.delta))):
            raise ConfigError(f"lattice axis {axis.name!r} is not uniform")
    index = np.indices(shape).reshape(k, -1)
    expected = np.column_stack([np.asarray(vals)[i]
                                for vals, i in zip(axis_values, index)])
    if not np.array_equal(expected, data[:, :k]):
        raise ConfigError("lattice rows are not in lexicographic order")
    u = data[:, k:k + n].reshape(shape + (n,))
    p = data[:, k + n:].reshape(shape + (n,)) if width > k + n else None
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


def left_sum(values) -> float:
    """The floats ``values`` added left to right from 0.0: builtin ``sum()``
    before Python 3.12, which compensates its float sums."""
    total = 0.0
    for v in values:
        total += v
    return total


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
            y5 = [y[i] + direction * h * left_sum(
                      b * ks[s][i] for s, b in enumerate(_RK45_B5) if b)
                  for i in range(m)]
        except OverflowError:
            raise FlowError("state blew up during a step",
                            CotangentPoint.from_state(y)) from None
        err = 0.0
        for i in range(m):
            e4 = left_sum((b5 - b4) * ks[s][i]
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


# ``nijflow.pde``'s residual and lattice comparison as they were before they
# walked x in slabs: every temporary over the whole lattice at once.

def _reference_central(u, axis, delta):
    lead = (slice(None),) * axis
    return (u[lead + (slice(2, None),)] - u[lead + (slice(None, -2),)]) / (
        2.0 * delta)


def reference_grid_residual(grid, operators):
    """The per-axis residuals of ``pde.grid_residual``, each product formed
    by ``reference_operator_product`` over the whole interior."""
    u, axes = grid.u, grid.axes
    per_axis = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k, A in enumerate(operators, start=1):
            t_in = (slice(None),) * k + (slice(1, -1),)
            ut = _reference_central(u, k, axes[k].delta)[1:-1]
            ux = _reference_central(u, 0, axes[0].delta)[t_in]
            residual = ut - reference_operator_product(A, u[1:-1][t_in], ux)
            per_axis.append(float(np.abs(residual).max()))
    return tuple(per_axis)


def reference_compare_grids(a, b):
    """The per-layer deviations of ``pde.compare_grids``."""
    return np.abs(a.u - b.u).max(axis=0).max(axis=-1)


# Checks and routes the command line never runs, kept here as oracles: each
# test compares a result of the package against one of them.

def h_family_from_pencil(sigma: Sequence[ExactPolynomial]) -> list[PhaseFunction]:
    """Oracle for ``build_h_family``: h_i = (S^2)[0, n-i] for the momentum
    pencil S; only the first row of the square is formed."""
    n = len(sigma)
    L = companion_second(sigma)
    nv = 2 * n
    p = [ExactPolynomial.variable(nv, n + k) for k in range(n)]
    lifted = [L.power(k).phase_entries() for k in range(n)]
    pencil = [[signed_sum(nv, [(1, p[k], lifted[k][i][j]) for k in range(n)])
               for j in range(n)] for i in range(n)]
    return [PhaseFunction(n, signed_sum(nv, [(1, pencil[0][s], pencil[s][n - i])
                                             for s in range(n)]))
            for i in range(1, n + 1)]


def reference_killing_operators(sigma: Sequence[ExactPolynomial]
                                ) -> list[OperatorField]:
    """Oracle for ``operators.killing_operators``: the adjugate recursion
    A_0 = Id, A_k = L A_(k-1) - sigma_k Id by operator products."""
    L = companion_second(sigma)
    ident = OperatorField.identity(L.n)
    family = [ident]
    for s in sigma[:L.n - 1]:
        family.append(L @ family[-1] - ident * s)
    return family


def reference_benenti_residual(model) -> PhaseFunction:
    """Oracle for ``metric.benenti_residual``: {H, F} - 2 H G with
    F = (h1 L^T)^(kj) p_k p_j lifted from the product h1 L^T, and G from
    the derivatives of tr L."""
    n, L, h1 = model.n, model.operator, model.gram
    nv = 2 * n
    F = quadratic_phase((h1 @ L.transpose()).entries)
    H = model.family[0] * Fraction(1, 2)
    dtr = [L.trace().partial(q) for q in range(n)]
    G = PhaseFunction(n, signed_sum(nv, [
        (1, ExactPolynomial.variable(nv, n + a),
         signed_sum(n, [(1, dtr[q], h1.entry(a, q)) for q in range(n)])
         .with_appended_vars(n))
        for a in range(n)]))
    return PhaseFunction(n, poisson_bracket(H, F).poly - 2 * (H.poly * G.poly))


def reference_differential_shift_residuals(
        model) -> tuple[tuple[tuple[ExactPolynomial, ...], ...], ...]:
    """Oracle for ``metric.differential_shift_residuals``, which forms the
    u-rows alone: the exact residuals ``(u_rows, p_rows)``, row i and
    column j, of the identities

        sum_s dh_i/du^s L^s_j = sigma_i dh_1/du^j + dh_(i+1)/du^j
        sum_s dh_i/dp_s L^j_s = sigma_i dh_1/dp_j + dh_(i+1)/dp_j

    for i = 1..n, where the i = n case closes with the sigma_n dh_1 term
    alone; all vanish in the torsion-free companion case."""
    n, family = model.n, model.family
    L = model.operator.phase_entries()
    sig = [s.with_appended_vars(n) for s in model.sigma]
    one = ExactPolynomial.constant(2 * n, 1)
    h1 = family[0]
    u_rows = []
    p_rows = []
    for i in range(n):
        hi = family[i]
        nxt = family[i + 1] if i + 1 < n else None
        u_row = []
        p_row = []
        for j in range(n):
            u_parts = [(1, hi.du(s), L[s][j]) for s in range(n)]
            p_parts = [(1, hi.dp(s), L[j][s]) for s in range(n)]
            u_parts.append((-1, sig[i], h1.du(j)))
            p_parts.append((-1, sig[i], h1.dp(j)))
            if nxt is not None:
                u_parts.append((-1, nxt.du(j), one))
                p_parts.append((-1, nxt.dp(j), one))
            u_row.append(signed_sum(2 * n, u_parts))
            p_row.append(signed_sum(2 * n, p_parts))
        u_rows.append(tuple(u_row))
        p_rows.append(tuple(p_row))
    return tuple(u_rows), tuple(p_rows)


def shift_parts(model):
    """``(u_rows, p_rows)`` of the shift identities: the u-rows as
    ``differential_shift_residuals`` forms them, the p-rows from the oracle."""
    return (differential_shift_residuals(model),
            reference_differential_shift_residuals(model)[1])


def check_shift_record(model, seed):
    """``verify_model``'s ``differential_shift`` record is the one rule's
    record over the oracle's u- and p-rows, and the u-rows alone have the
    same exact peak."""
    def peak(polys):
        return max((p.max_abs_coefficient() for p in polys if p), default=0)

    both = peak(r for rows in reference_differential_shift_residuals(model)
                for row in rows for r in row)
    assert peak(r for row in differential_shift_residuals(model)
                for r in row) == both
    (got,) = [c for c in verify_model(model, seed)
              if c["name"] == "differential_shift"]
    assert got == {"name": "differential_shift",
                   "verdict": "pass" if both == 0 else "fail",
                   "residual": float(both), "detail": None}


VectorField = tuple[ExactPolynomial, ...]


def apply_to_field(L: OperatorField,
                   xi: Sequence[ExactPolynomial]) -> VectorField:
    """The vector field with components (L xi)^i = L^i_j xi^j."""
    if len(xi) != L.n:
        raise OperatorError("vector field arity does not match operator size")
    return tuple(signed_sum(L.n, [(1, e, x) for e, x in zip(row, xi)])
                 for row in L.entries)


def contract(T: Sequence[OperatorField], xi: Sequence[ExactPolynomial],
             eta: Sequence[ExactPolynomial]) -> VectorField:
    """The vector field T(xi, eta)^k = T^k_{ij} xi^i eta^j."""
    n = len(T)
    pairs = [(i, j, xi[i] * eta[j]) for i in range(n) for j in range(n)]
    return tuple(signed_sum(xi[0].nvars, [(1, layer.entry(i, j), x)
                                          for i, j, x in pairs])
                 for layer in T)


def lie_bracket_fields(x: Sequence[ExactPolynomial],
                       y: Sequence[ExactPolynomial]) -> VectorField:
    """Lie bracket [X, Y]^i = X^a d_a Y^i - Y^a d_a X^i of polynomial fields."""
    n = len(x)
    if len(y) != n:
        raise OperatorError("vector fields must have equal arity")

    def component(i):
        for a in range(n):
            yield 1, x[a], y[i].partial(a)
            yield -1, y[a], x[i].partial(a)

    return tuple(signed_sum(x[0].nvars, component(i)) for i in range(n))


def _field_jacobian(fields, point, n):
    return evaluate_table_array([[f.partial(a) for a in range(n)]
                                 for f in fields], point)  # [i, a] = d_a f^i


def lie_form_residual_at(g_at: CovariantMetricAt, L: OperatorField,
                         xi: Sequence[ExactPolynomial],
                         eta: Sequence[ExactPolynomial]) -> float:
    """Absolute residual of the invariant compatibility relation

        Lie_{L xi} g(eta, xi) - Lie_xi g(eta, L xi) - g(eta, [L xi, xi])
          + g([eta, L xi], xi) - g([eta, xi], L xi) = g(eta, xi) Lie_xi tr L

    on the two polynomial vector fields at the point of ``g_at``; brackets
    and field derivatives are expanded exactly, the metric enters through
    ``g_at``."""
    t1, t2, t3, t4, t5, rhs = lie_form_terms_at(g_at, L, xi, eta)
    return float(abs(t1 - t2 - t3 + t4 - t5 - rhs))


def lie_form_terms_at(g_at: CovariantMetricAt, L: OperatorField,
                      xi: Sequence[ExactPolynomial],
                      eta: Sequence[ExactPolynomial]) -> tuple[float, ...]:
    """The six terms of the relation of ``lie_form_residual_at``, in its
    order, each without its sign: the five on the left, then the right."""
    n = L.n
    if g_at.g.ndim != 2:
        raise CompatError("the metric must be taken at a single point")
    if len(xi) != n or len(eta) != n:
        raise CompatError("vector fields must have one component per coordinate")
    point = g_at.point.tolist()
    g = g_at.g
    dg = g_at.dg
    Lxi = apply_to_field(L, xi)
    b_Lxi_xi = lie_bracket_fields(Lxi, xi)
    b_eta_Lxi = lie_bracket_fields(eta, Lxi)
    b_eta_xi = lie_bracket_fields(eta, xi)

    xi_v = evaluate_table_array(xi, point)
    eta_v = evaluate_table_array(eta, point)
    Lxi_v = evaluate_table_array(Lxi, point)
    dxi = _field_jacobian(xi, point, n)
    deta = _field_jacobian(eta, point, n)
    dLxi = _field_jacobian(Lxi, point, n)

    def lie_of_pairing(Z_v, A_v, dA, B_v, dB):
        # directional derivative of g(A, B) along Z
        total = 0.0
        for a in range(n):
            term = (A_v @ dg[a] @ B_v
                    + dA[:, a] @ g @ B_v
                    + A_v @ g @ dB[:, a])
            total += Z_v[a] * term
        return total

    t1 = lie_of_pairing(Lxi_v, eta_v, deta, xi_v, dxi)
    t2 = lie_of_pairing(xi_v, eta_v, deta, Lxi_v, dLxi)
    t3 = eta_v @ g @ evaluate_table_array(b_Lxi_xi, point)
    t4 = evaluate_table_array(b_eta_Lxi, point) @ g @ xi_v
    t5 = evaluate_table_array(b_eta_xi, point) @ g @ Lxi_v
    trace = L.trace()
    lie_tr = sum(xi_v[a] * trace.partial(a).evaluate(point) for a in range(n))
    rhs = (eta_v @ g @ xi_v) * lie_tr
    return t1, t2, t3, t4, t5, rhs


@dataclass(frozen=True)
class SelfAdjointReport:
    """Antisymmetry of h1 L^T, plus the closure h1 L^T = sigma_1 h1 + h2
    when the full family is available."""
    ok: bool
    antisymmetry: tuple[tuple[ExactPolynomial, ...], ...]
    closure: tuple[tuple[ExactPolynomial, ...], ...] | None


def self_adjoint_residual(h1: GramMatrix, L: OperatorField,
                          family: Sequence[PhaseFunction] | None = None
                          ) -> SelfAdjointReport:
    """L is h1-self-adjoint iff the matrix (h1 L^T)^(kj) = h1^(ks) L^j_s is
    symmetric."""
    if h1.n != L.n:
        raise CompatError("metric and operator sizes differ")
    W = h1 @ L.transpose()
    antisym = (W - W.transpose()).entries
    closure = None
    if family is not None:
        expected = h1 * L.trace()
        if h1.n >= 2:
            expected = expected + gram_matrix(family[1])
        closure = (W - expected).entries
    ok = all(e.is_zero() for row in antisym for e in row)
    if closure is not None:
        ok = ok and all(e.is_zero() for row in closure for e in row)
    return SelfAdjointReport(ok, antisym, closure)


def generating_identity_residuals(L: OperatorField,
                                  family: Sequence[OperatorField]
                                  ) -> list[OperatorField]:
    """Coefficients, by powers of the spectral parameter, of

        (sum_i lambda^(n-1-i) A_i)(lambda Id - L) - chi(lambda) Id,

    with chi(lambda) = lambda^n - sigma_1 lambda^(n-1) - ... - sigma_n.
    All n+1 returned matrices vanish when the family comes from the
    recursion, regardless of any torsion condition."""
    n = L.n
    if len(family) != n:
        raise ValueError("the hierarchy must contain exactly n operators")
    sigma = char_coefficients(L)
    ident = OperatorField.identity(n)
    residuals = [family[0] - ident]
    for k in range(1, n):
        residuals.append(family[k] - family[k - 1] @ L + ident * sigma[k - 1])
    residuals.append(ident * sigma[n - 1] - family[n - 1] @ L)
    return residuals


def verify_commutation(integrals: Sequence[PhaseFunction],
                       start: CotangentPoint, s: float, t: float,
                       settings: FlowSettings = FlowSettings()) -> float:
    """Largest endpoint mismatch between the two orders of composing each
    pair of flows for times (s, t)."""
    fields = [HamiltonianField(F) for F in integrals]
    y = start.state()
    worst = 0.0
    for i, f in enumerate(fields):
        for g in fields[i + 1:]:
            one = _advance(g, _advance(f, y, s, settings), t, settings)
            two = _advance(f, _advance(g, y, t, settings), s, settings)
            worst = max(worst, *(abs(a - b) for a, b in zip(one, two)))
    return worst


def verify_conservation(integrals: Sequence[PhaseFunction],
                        start: CotangentPoint, t: float,
                        settings: FlowSettings = FlowSettings()) -> float:
    """Largest drift of any integral along any of the flows up to time t."""
    reference = [G.evaluate(start.u, start.p) for G in integrals]
    worst = 0.0
    for F in integrals:
        end = integrate_flow(F, start, t, settings)
        for G, ref in zip(integrals, reference):
            worst = max(worst, abs(G.evaluate(end.u, end.p) - ref))
    return worst


def geodesic_from(u0: Sequence[float], udot0: Sequence[float],
                  gram: GramMatrix) -> CotangentPoint:
    """Initial covector of the geodesic with given initial velocity: solve
    G(u0) p = udot0 for the momenta."""
    G = gram.evaluate_at(list(u0))
    try:
        p = np.linalg.solve(G, np.asarray(udot0, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise FlowError(f"metric is singular at {tuple(u0)}") from exc
    return CotangentPoint(tuple(float(x) for x in u0), tuple(float(x) for x in p))


def convergence_orders(values: Sequence[float]) -> list[float]:
    """Observed orders from successive errors at spacings halving each time:
    order_i = log(values[i] / values[i+1]) / log(2)."""
    if len(values) < 2:
        raise PDEError("need at least two error values")
    if any(v <= 0 for v in values):
        raise PDEError("error values must be positive")
    return [math.log(a / b) / math.log(2.0)
            for a, b in zip(values, values[1:])]


def counted(counters, fn, *args):
    """``fn(*args)`` with each counter wrapped in, and the counts it made.

    A counter is ``(owners, name, weigh)``: the function ``name`` of each
    owner, a module or a class (a classmethod is unwrapped and wrapped
    again), is replaced by a wrapper that calls it and adds
    ``weigh(args, result)`` to that counter's count.  An iterator argument
    is read into a list first, so that the function and ``weigh`` both see
    all of it.  The originals are put back however ``fn`` ends, and checked
    to be back.  Returns ``(fn(*args), counts)``."""
    counts = [0] * len(counters)
    installed = []

    def wrap(k, original, weigh):
        def wrapper(*call_args, **kwargs):
            call_args = [list(a) if isinstance(a, Iterator) else a
                         for a in call_args]
            result = original(*call_args, **kwargs)
            counts[k] += weigh(call_args, result)
            return result
        return wrapper

    try:
        for k, (owners, name, weigh) in enumerate(counters):
            for owner in owners:
                original = vars(owner)[name]
                if isinstance(original, classmethod):
                    patched = classmethod(wrap(k, original.__func__, weigh))
                else:
                    patched = wrap(k, original, weigh)
                setattr(owner, name, patched)
                installed.append((owner, name, original))
        result = fn(*args)
    finally:
        for owner, name, original in reversed(installed):
            setattr(owner, name, original)
    assert all(vars(owner)[name] is original
               for owner, name, original in installed)
    return result, tuple(counts)
