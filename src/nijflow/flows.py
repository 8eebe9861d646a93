"""Hamiltonian flows of the quadratic integrals on the cotangent chart.

States are points (u, p).  Each integral F yields the canonical vector field

    du^i/dt = dF/dp_i,      dp_i/dt = -dF/du^i,

whose right-hand side is evaluated in plain floating point from the cached
float forms of the exact partial derivatives, compiled when the field is
built into one function with the interpreter's operations in its order, so
repeated trajectories are deterministic bit for bit.

Two integrators are provided: a fixed-step classical Runge-Kutta scheme and
an embedded adaptive pair of orders four and five with proportional step
control.  A flow whose Lie series sum_k t^k/k! {F, .}^k terminates on every
coordinate is a polynomial in its time; ``polynomial_flow`` finds it with
exact brackets, and then no integrator is needed.  Orbit grids are filled by
composing the commuting flows one axis at a time, on plain state lists: the
start is moved by every time axis's start, then each time axis is swept,
chained from node to node, from every node built so far.  The lines of that
time lattice are swept in the x-parameter by the flow of the first integral.
The sweep evaluates that flow's series at every line start and x-value at
once when the series terminates (it does for the first integral of every
shipped model); otherwise each line is chained on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .exactpoly import (ExactPolynomial, compile_float_forms,
                        evaluate_float_form)
from .metric import PhaseFunction, poisson_bracket

State = list[float]

MAX_STEPS = 100_000  # the most steps one integrator segment may take
MIN_STEP = 1e-13  # the adaptive integrator's smallest step before it gives up


class FlowError(RuntimeError):
    """Integration failure; carries the last accepted state when known."""

    def __init__(self, message: str, last_state: "CotangentPoint | None" = None):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class CotangentPoint:
    """A point of the cotangent chart: base coordinates and momenta."""
    u: tuple[float, ...]
    p: tuple[float, ...]

    def __post_init__(self):
        if len(self.u) != len(self.p):
            raise ValueError("u and p must have the same length")
        if not all(math.isfinite(x) for x in (*self.u, *self.p)):
            raise ValueError("coordinates must be finite")
        object.__setattr__(self, "u", tuple(float(x) for x in self.u))
        object.__setattr__(self, "p", tuple(float(x) for x in self.p))

    @property
    def n(self) -> int:
        return len(self.u)

    def state(self) -> State:
        return list(self.u) + list(self.p)

    @classmethod
    def from_state(cls, state: Sequence[float]) -> "CotangentPoint":
        half = len(state) // 2
        return cls(tuple(state[:half]), tuple(state[half:]))


@dataclass(frozen=True)
class FlowSettings:
    """Integrator configuration.

    ``method`` selects "rk45" (adaptive with ``abs_tol``/``rel_tol``, the
    default) or "rk4" (fixed step ``step``).
    """
    method: str = "rk45"
    step: float = 1e-3
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown integrator {self.method!r}")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.abs_tol <= 0 or self.rel_tol < 0:
            raise ValueError("abs_tol must be positive and rel_tol "
                             "non-negative")


class HamiltonianField:
    """Canonical vector field of one phase function.  Its float forms are
    compiled into one function when it is built (``compile_float_forms``)."""

    __slots__ = ("n", "du_dt", "dp_dt", "_forms", "_rhs")

    def __init__(self, hamiltonian: PhaseFunction):
        self.n = n = hamiltonian.n
        self.du_dt = tuple(hamiltonian.dp(i) for i in range(n))
        self.dp_dt = tuple(-hamiltonian.du(i) for i in range(n))
        self._forms = tuple(c.float_form() for c in (*self.du_dt, *self.dp_dt))
        self._rhs = compile_float_forms(self._forms, 2 * n)

    def __call__(self, state: Sequence[float]) -> State:
        return self._rhs(state)


def _rk4_segment(f: Callable[[State], State], y: State, t_span: float,
                 settings: FlowSettings) -> State:
    steps = abs(t_span) / settings.step - 1e-12
    if steps > MAX_STEPS:
        raise FlowError("step budget exhausted", CotangentPoint.from_state(y))
    nsteps = max(1, math.ceil(steps))
    h = t_span / nsteps
    half = 0.5 * h
    sixth = h / 6.0
    for _ in range(nsteps):
        try:
            k1 = f(y)
            k2 = f([a + half * c for a, c in zip(y, k1)])
            k3 = f([a + half * c for a, c in zip(y, k2)])
            k4 = f([a + h * c for a, c in zip(y, k3)])
            ynew = [a + sixth * (c1 + 2.0 * (c2 + c3) + c4)
                    for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)]
        except OverflowError:
            raise FlowError("state blew up during a step",
                            CotangentPoint.from_state(y)) from None
        if not all(map(math.isfinite, ynew)):
            raise FlowError("state became non-finite",
                            CotangentPoint.from_state(y))
        y = ynew
    return y


# Embedded pair of orders 4 and 5 (Fehlberg coefficients); the fifth-order
# solution is propagated and the difference drives the step control.
_RK45_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RK45_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RK45_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RK45_E = tuple(b5 - b4 for b5, b4 in zip(_RK45_B5, _RK45_B4))  # error weights


def _rk45_segment(f: Callable[[State], State], y: State, t_span: float,
                  settings: FlowSettings) -> State:
    direction = 1.0 if t_span > 0 else -1.0
    remaining = abs(t_span)
    h = min(0.05, remaining)
    atol, rtol = settings.abs_tol, settings.rel_tol
    b1, _, b3, b4, b5, b6 = _RK45_B5
    e1, e2, e3, e4, e5, e6 = _RK45_E
    steps = 0
    while remaining > 0.0:
        steps += 1
        if steps > MAX_STEPS:
            raise FlowError("step budget exhausted",
                            CotangentPoint.from_state(y))
        h = min(h, remaining)
        dh = direction * h
        # each stage adds its terms to y one at a time, in tableau order
        w21, w31, w32, w41, w42, w43, w51, w52, w53, w54, w61, w62, w63, \
            w64, w65 = [dh * a for row in _RK45_A for a in row]
        try:
            k1 = f(y)
            k2 = f([a + w21 * c1 for a, c1 in zip(y, k1)])
            k3 = f([a + w31 * c1 + w32 * c2 for a, c1, c2 in zip(y, k1, k2)])
            k4 = f([a + w41 * c1 + w42 * c2 + w43 * c3
                    for a, c1, c2, c3 in zip(y, k1, k2, k3)])
            k5 = f([a + w51 * c1 + w52 * c2 + w53 * c3 + w54 * c4
                    for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)])
            k6 = f([a + w61 * c1 + w62 * c2 + w63 * c3 + w64 * c4 + w65 * c5
                    for a, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)])
            # sums run left to right from 0.0, not through sum(), whose
            # float algorithm changed in Python 3.12
            y5 = [a + dh * (0.0 + b1 * c1 + b3 * c3 + b4 * c4 + b5 * c5
                            + b6 * c6)
                  for a, c1, c3, c4, c5, c6 in zip(y, k1, k3, k4, k5, k6)]
        except OverflowError:
            raise FlowError("state blew up during a step",
                            CotangentPoint.from_state(y)) from None
        errs = [abs(dh * (0.0 + e1 * c1 + e2 * c2 + e3 * c3 + e4 * c4
                          + e5 * c5 + e6 * c6))
                / (atol + rtol * max(abs(a), abs(b)))
                for a, b, c1, c2, c3, c4, c5, c6
                in zip(y, y5, k1, k2, k3, k4, k5, k6)]
        # max() can drop a nan: a non-finite trial is an infinite error,
        # which rejects it and cuts the step to a fifth
        err = (max(errs) if all(map(math.isfinite, errs + y5))
               else math.inf)
        accepted = err <= 1.0
        if accepted:
            y = y5
            remaining -= h
        h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if h < MIN_STEP and remaining > 0.0:
            raise FlowError("step size underflow",
                            CotangentPoint.from_state(y))
    return y


def _advance(f: HamiltonianField, y: State, t_span: float,
             settings: FlowSettings) -> State:
    # plain floats throughout: numpy scalars would warn on overflow
    t_span = float(t_span)
    if t_span == 0.0:
        return list(y)
    if settings.method == "rk4":
        return _rk4_segment(f, y, t_span, settings)
    return _rk45_segment(f, y, t_span, settings)


def _chain(f: HamiltonianField, y: State, times: Sequence[float],
           settings: FlowSettings) -> list[State]:
    """The states of one flow at ``times[1:]``, from ``y`` at ``times[0]``,
    each reached from the one before by ``_advance``."""
    out = []
    for t0, t1 in zip(times, times[1:]):
        y = _advance(f, y, t1 - t0, settings)
        out.append(y)
    return out


# ---------------------------------------------------------------------------
# flows that are polynomials in their time

Series = tuple[tuple[ExactPolynomial, ...], ...]


def polynomial_flow(F: PhaseFunction) -> Series | None:
    """The flow of ``F`` as a polynomial in its time, if it is one.

    The flow dz/dt = {F, z} moves each phase coordinate z along its Lie
    series z(t) = sum_k t^k/k! ad_F^k(z), ad_F = {F, .}.  The brackets are
    formed exactly until they vanish.  The result holds, for each coordinate
    in the order u then p, the coefficients ad_F^k(z)/k! for k = 0 up to
    the last nonzero order, as polynomials on the chart.  It is None as soon
    as one coordinate has a nonzero bracket of order above 2n.  Built once
    per ``F`` and kept on it.
    """
    try:
        return F._flows
    except AttributeError:
        pass
    nvars = 2 * F.n
    series = []
    for i in range(nvars):
        z = PhaseFunction(F.n, ExactPolynomial.variable(nvars, i))
        coeffs = [z.poly]
        for k in range(1, nvars + 2):
            z = poisson_bracket(F, z)
            if z.is_zero():
                break
            coeffs.append(z.poly * Fraction(1, math.factorial(k)))
        if len(coeffs) > nvars + 1:
            F._flows = None
            return None
        series.append(tuple(coeffs))
    F._flows = tuple(series)
    return F._flows


def _series_lines(series: Series, states: np.ndarray,
                  times: np.ndarray) -> np.ndarray:
    """Every line of ``states`` (lines, 2n) at every time, shape
    (len(times), lines, 2n), from the flow's terminating series: the
    coefficients at each line start, then Horner's rule in the time."""
    t = times[:, None]
    out = np.empty((len(t),) + states.shape)
    columns = states.T
    with np.errstate(over="ignore", invalid="ignore"):
        for i, coeffs in enumerate(series):
            values = [evaluate_float_form(c.float_form(), columns)
                      for c in coeffs]
            # in place in the output, so no lattice-sized temporaries
            acc = out[..., i]
            acc[...] = values[-1]
            for c in reversed(values[:-1]):
                acc *= t
                acc += c
    if not np.isfinite(out).all():
        raise FlowError("the x-flow overflowed on the lattice")
    return out


def integrate_flow(F: PhaseFunction, start: CotangentPoint, t: float,
                   settings: FlowSettings = FlowSettings()) -> CotangentPoint:
    """The flow of one integral applied to a point for time ``t``."""
    return integrate_flow_path(F, start, [t], settings)[0]


def integrate_flow_path(F: PhaseFunction, start: CotangentPoint,
                        times: Sequence[float],
                        settings: FlowSettings = FlowSettings()
                        ) -> list[CotangentPoint]:
    """States of one flow at an increasing sequence of times, reached by
    chaining segment integrations from the previous stop."""
    f = HamiltonianField(F)
    return [CotangentPoint.from_state(y)
            for y in _chain(f, start.state(), [0.0, *times], settings)]


@dataclass(frozen=True)
class AxisSpec:
    """One uniform lattice axis."""
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("axis needs at least one node")
        if self.count == 1 and self.stop != self.start:
            raise ValueError("single-node axis must have stop == start")
        if math.isinf(self.stop - self.start):  # np.linspace warns on it
            raise ValueError("span stop - start is infinite")
        # A lattice file cannot tell repeated nodes apart.  Nodes more than
        # 8 ulps of the larger endpoint apart stay distinct however they
        # round, so only closer ones are computed and compared; a nan step
        # is left to the lattice writer's guard.
        step = self.delta
        if abs(step) <= 8 * math.ulp(max(abs(self.start), abs(self.stop))):
            nodes = self.values()
            if (nodes[1:] == nodes[:-1]).any():
                raise ValueError("the nodes of a multi-node axis must be "
                                 "distinct")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    @property
    def delta(self) -> float:
        if self.count == 1:
            return 0.0
        return (self.stop - self.start) / (self.count - 1)


@dataclass
class SolutionGrid:
    """Solution samples on a rectangular lattice.

    ``axes`` lists the lattice axes in index order; ``u`` has one trailing
    component axis, shape (axis counts..., n); ``p`` is parallel to ``u`` for
    flow-generated grids and None for direct PDE output.
    """
    axes: tuple[AxisSpec, ...]
    u: np.ndarray
    p: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = tuple(a.count for a in self.axes)
        if self.u.shape[:-1] != shape:
            raise ValueError(f"u has shape {self.u.shape}, axes imply {shape}")
        if self.p is not None and self.p.shape != self.u.shape:
            raise ValueError("p must match u in shape")

    @property
    def n(self) -> int:
        return self.u.shape[-1]


def orbit_grid(integrals: Sequence[PhaseFunction], start: CotangentPoint,
               axes: Sequence[AxisSpec],
               settings: FlowSettings = FlowSettings()) -> SolutionGrid:
    """Fill a lattice with the composed commuting flows.

    ``axes[0]`` parametrizes the flow of ``integrals[0]`` (the x-sweep) and
    ``axes[k]`` for k >= 1 the flow of ``integrals[k]``.  The start is moved
    by every time axis's start, in axis order; each time axis is then swept,
    chained, from every node built so far (C order).  Every line is then
    swept in x from its node: all at once by the x-flow's Lie series when it
    ends by order 2n (``polynomial_flow``; a value that overflows raises
    ``FlowError``), and otherwise chained line by line, the first line that
    fails raising its ``FlowError``.
    """
    if len(axes) != len(integrals):
        raise ValueError("one axis per integral is required")
    n = integrals[0].n
    axes = tuple(axes)
    t_fields = tuple((HamiltonianField(F), a)
                     for F, a in zip(integrals[1:], axes[1:]))
    nodes = [start.state()]
    for f, a in t_fields:
        nodes[0] = _advance(f, nodes[0], a.start, settings)
    for f, a in t_fields:
        t = a.values().tolist()
        nodes = [z for y in nodes for z in (y, *_chain(f, y, t, settings))]

    x_axis = axes[0]
    series = polynomial_flow(integrals[0])
    if series is not None:
        path = _series_lines(series, np.array(nodes), x_axis.values())
    else:
        f = HamiltonianField(integrals[0])
        x = [0.0, *x_axis.values().tolist()]
        path = np.array([_chain(f, y, x, settings)
                         for y in nodes]).swapaxes(0, 1)
    path = path.reshape((x_axis.count,) + tuple(a.count for a in axes[1:])
                        + (2 * n,))
    u, p = path[..., :n], path[..., n:]
    return SolutionGrid(axes, u, p, {"generator": "orbit", "settings": settings})
