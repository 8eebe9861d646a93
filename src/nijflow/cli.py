"""Batch command-line front end.

Problems are described by JSON config files; commands derive the metric and
hierarchy, verify the defining identities, evolve solution lattices by the
commuting flows, solve the quasilinear system directly, and emit CSV
lattices, JSON reports, and SVG plots.  All output is deterministic for a
fixed config (randomized sweeps are seeded from the config), so reports can
be diffed byte for byte.

Exit codes: 0 success, 1 verification found a failing check, 2 malformed
input or an operational failure (diagnostics go to standard error).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

import numpy as np

from .compat import CompatError, benenti_residual, coordinate_form_residual_at
from .exactpoly import (ParseError, PolynomialError, base_names,
                        format_polynomial, parse_expression)
from .flows import (AxisSpec, CotangentPoint, FlowError, FlowSettings,
                    SolutionGrid, orbit_grid)
from .hierarchy import verify_commuting_integrals
from .metric import (MetricError, check_gram_normal_form, covariant_at,
                     differential_shift_residuals, pairwise_poisson)
from .model import CompanionModel
from .operators import OperatorError, nijenhuis_torsion
from .pde import PDEError, direct_solve, grid_residual


class ConfigError(ValueError):
    """A config file is missing, malformed, or inconsistent."""


# ---------------------------------------------------------------------------
# config loading


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """A finite JSON number; strings, booleans and null are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or \
            not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{what} must be a finite number, got "
                          f"{json.dumps(value)}")
    return float(value)


def build_model(cfg: dict) -> CompanionModel:
    n = cfg.get("n")
    if not _is_int(n) or n < 1:
        raise ConfigError("config field 'n' must be a positive integer")
    sigma = cfg.get("sigma")
    if not isinstance(sigma, list) or len(sigma) != n or \
            not all(isinstance(s, str) for s in sigma):
        raise ConfigError(f"config field 'sigma' must list {n} expression "
                          "strings")
    try:
        return CompanionModel.from_expressions(sigma)
    except (ParseError, PolynomialError) as exc:
        raise ConfigError(f"bad sigma expression: {exc}") from exc


def _axis_from(spec: dict, name: str) -> AxisSpec:
    if not isinstance(spec, dict):
        raise ConfigError(f"axis {name!r} must be an object with "
                          "start/stop/count")
    try:
        start = _number(spec["start"], f"axis {name!r} start")
        stop = _number(spec["stop"], f"axis {name!r} stop")
        count = spec["count"]
    except KeyError as exc:
        raise ConfigError(f"axis {name!r} is missing field {exc}") from exc
    if not _is_int(count) or count < 1:
        raise ConfigError(f"axis {name!r} count must be a positive integer")
    try:
        return AxisSpec(name, start, stop, count)
    except ValueError as exc:
        raise ConfigError(f"axis {name!r}: {exc}") from exc


def config_axes(cfg: dict, n: int) -> tuple[AxisSpec, ...]:
    grid = cfg.get("grid")
    if not isinstance(grid, dict) or "x" not in grid:
        raise ConfigError("config field 'grid' must contain an 'x' axis")
    axes = [_axis_from(grid["x"], "x")]
    t_specs = grid.get("t", [])
    if not isinstance(t_specs, list):
        raise ConfigError("grid field 't' must be a list of axis objects")
    if len(t_specs) > n - 1:
        raise ConfigError(f"at most {n - 1} time axes are available for "
                          f"n = {n}")
    for k, spec in enumerate(t_specs, start=1):
        axes.append(_axis_from(spec, f"t{k}"))
    return tuple(axes)


def config_point(cfg: dict, n: int) -> CotangentPoint:
    initial = cfg.get("initial")
    if not isinstance(initial, dict) or "u" not in initial or "p" not in initial:
        raise ConfigError("config field 'initial' must give 'u' and 'p' "
                          "lists for flow evolution")
    u, p = initial["u"], initial["p"]
    if not isinstance(u, list) or not isinstance(p, list) or \
            len(u) != n or len(p) != n:
        raise ConfigError(f"'initial.u' and 'initial.p' must list {n} numbers")
    return CotangentPoint(tuple(_number(v, "'initial.u' entry") for v in u),
                          tuple(_number(v, "'initial.p' entry") for v in p))


def config_settings(cfg: dict, axes: Sequence[AxisSpec] = (),
                    extra_time: float = 0.0) -> FlowSettings:
    integ = cfg.get("integrator", {})
    if not isinstance(integ, dict):
        raise ConfigError("config field 'integrator' must be an object")
    needed = abs(extra_time)
    for a in axes:
        needed = max(needed, abs(a.start), abs(a.stop), abs(a.stop - a.start))
    kwargs = {"method": integ.get("method", "rk45"),
              "horizon": needed * (1 + 1e-9) + 1e-9}
    for key in ("horizon", "step", "abs_tol", "rel_tol"):
        if key in integ:
            kwargs[key] = _number(integ[key], f"'integrator.{key}'")
    try:
        return FlowSettings(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad integrator settings: {exc}") from exc


def config_initial_curve(cfg: dict, model: CompanionModel,
                         x_axis: AxisSpec,
                         settings: FlowSettings) -> np.ndarray:
    """Initial data on the x-lattice: sampled curve expressions, or the
    geodesic line generated from an initial point by the first flow."""
    initial = cfg.get("initial")
    if not isinstance(initial, dict):
        raise ConfigError("config field 'initial' is required")
    n = model.n
    if "curve" in initial:
        curve = initial["curve"]
        if not isinstance(curve, list) or len(curve) != n or \
                not all(isinstance(c, str) for c in curve):
            raise ConfigError(f"'initial.curve' must list {n} expressions "
                              "in the variable x")
        try:
            polys = [parse_expression(c, ["x"]) for c in curve]
        except (ParseError, PolynomialError) as exc:
            raise ConfigError(f"bad curve expression: {exc}") from exc
        xs = x_axis.values()
        return np.array([[float(poly.evaluate([x])) for poly in polys]
                         for x in xs])
    point = config_point(cfg, n)
    line = orbit_grid([model.integrals[0]], point, [x_axis], settings)
    return line.u


# ---------------------------------------------------------------------------
# CSV lattices


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_grid_csv(grid: SolutionGrid, path: str) -> None:
    """One row per lattice node, lexicographic in the lattice index;
    17-significant-digit floats round-trip bit for bit.  Momentum columns
    appear only when the lattice carries momenta."""
    n = grid.n
    names = [a.name for a in grid.axes] + [f"u{i + 1}" for i in range(n)]
    if grid.p is not None:
        names += [f"p{i + 1}" for i in range(n)]
    values = [a.values() for a in grid.axes]
    shape = tuple(a.count for a in grid.axes)
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for idx in np.ndindex(*shape):
            row = [_fmt(values[a][idx[a]]) for a in range(len(shape))]
            row += [_fmt(grid.u[idx + (c,)]) for c in range(n)]
            if grid.p is not None:
                row += [_fmt(grid.p[idx + (c,)]) for c in range(n)]
            f.write(",".join(row) + "\n")


def read_grid_csv(path: str) -> SolutionGrid:
    """Rebuild a lattice written by ``write_grid_csv``."""
    try:
        with open(path) as f:
            header = f.readline().strip()
            rows = [line.split(",") for line in f if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read lattice {path!r}: {exc}") from exc
    names = header.split(",")
    axis_names = [c for c in names if c == "x" or c.startswith("t")]
    u_names = [c for c in names if c.startswith("u")]
    p_names = [c for c in names if c.startswith("p")]
    if names != axis_names + u_names + p_names or not axis_names or not u_names:
        raise ConfigError(f"unrecognized lattice header {header!r}")
    n = len(u_names)
    if p_names and len(p_names) != n:
        raise ConfigError("momentum columns must match component count")
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
    # verify lexicographic row order by reconstructing the axis columns
    for a in range(k):
        expected = np.array(axis_values[a])[
            np.array(list(np.ndindex(*shape)))[:, a]]
        if not np.array_equal(expected, data[:, a]):
            raise ConfigError("lattice rows are not in lexicographic order")
    u = data[:, k:k + n].reshape(shape + (n,))
    p = data[:, k + n:].reshape(shape + (n,)) if p_names else None
    return SolutionGrid(axes, u, p, {"generator": "csv", "path": path})


# ---------------------------------------------------------------------------
# SVG plots


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def _svg_line(x1, y1, x2, y2, color="#000000", width=1):
    return (f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
            f'y2="{y2:.2f}" stroke="{color}" stroke-width="{width}"/>')


def _svg_text(x, y, text, anchor="middle", size=12):
    return (f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}">{text}</text>')


def write_svg_plot(grid: SolutionGrid, slices: Sequence[int] | None,
                   path: str) -> None:
    """Polylines of every component over x at the requested time slices.

    ``slices`` indexes the first time axis; None selects up to six evenly
    spaced slices; an empty list draws the axes only.  A lattice with no
    time axis is drawn as a single set of lines.
    """
    width, height = 720, 480
    left, right, top, bottom = 64.0, 700.0, 24.0, 440.0
    xs = grid.axes[0].values()
    has_time = len(grid.axes) > 1
    if not has_time:
        chosen: list[int | None] = [None]
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


# ---------------------------------------------------------------------------
# the verification report


def _peak(polys) -> float:
    worst = Fraction(0)
    for poly in polys:
        for _, coeff in poly.terms():
            if abs(coeff) > worst:
                worst = abs(coeff)
    return float(worst)


def verification_report(cfg: dict) -> dict:
    model = build_model(cfg)
    n = model.n
    seed = cfg.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("config field 'seed' must be a non-negative integer")
    checks = []

    def record(name, ok, residual, detail=None):
        checks.append({"name": name, "verdict": "pass" if ok else "fail",
                       "residual": residual, "detail": detail})

    torsion = nijenhuis_torsion(model.operator)
    record("torsion", torsion.is_zero(),
           _peak(torsion.component(k, i, j) for k in range(n)
                 for i in range(n) for j in range(n)))

    shape = check_gram_normal_form(model.gram)
    record("gram_normal_form", shape.ok, float(len(shape.failures)),
           "; ".join(shape.failures) or None)

    shift = differential_shift_residuals(model.sigma, model.family)
    record("differential_shift", shift.ok,
           _peak(r for rows in (shift.u_residuals, shift.p_residuals)
                 for row in rows for r in row))

    pairs = pairwise_poisson(model.family)
    record("h_poisson_pairs", pairs.ok,
           _peak(b.poly for _, _, b in pairs.residuals))

    benenti = benenti_residual(model.family, model.sigma)
    record("benenti", benenti.poly.is_zero(), _peak([benenti.poly]))

    rng = np.random.default_rng(seed)
    sweep_tol = 1e-8
    worst = 0.0
    sweep_detail = None
    sweep_ok = True
    for _ in range(50):
        point = [float(v) for v in rng.uniform(-2.0, 2.0, size=n)]
        try:
            g_at = covariant_at(model.gram, point)
            worst = max(worst, coordinate_form_residual_at(
                g_at, model.operator))
        except MetricError as exc:
            sweep_ok = False
            sweep_detail = str(exc)
            break
    if worst >= sweep_tol:
        sweep_ok = False
    record("compatibility_sweep", sweep_ok, worst, sweep_detail)

    commuting = verify_commuting_integrals(model.integrals)
    record("integral_commutation", commuting.ok,
           _peak(b.poly for _, _, b in commuting.residuals))

    verdict = "pass" if all(c["verdict"] == "pass" for c in checks) else "fail"
    return {"name": cfg.get("name"), "n": n, "seed": seed,
            "checks": checks, "verdict": verdict}


def _emit_report(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if output:
        with open(output, "w") as f:
            f.write(text + "\n")


# ---------------------------------------------------------------------------
# commands


def _cmd_verify(args) -> int:
    report = verification_report(load_config(args.config))
    _emit_report(report, args.output)
    return 0 if report["verdict"] == "pass" else 1


def _cmd_build_metric(args) -> int:
    model = build_model(load_config(args.config))
    names = base_names(model.n)
    for i, s in enumerate(model.sigma, start=1):
        print(f"sigma_{i} = {format_polynomial(s, names)}")
    for i, h in enumerate(model.family, start=1):
        print(f"h_{i} = {h}")
    for i in range(model.n):
        for j in range(model.n):
            print(f"gram[{i + 1},{j + 1}] = "
                  f"{format_polynomial(model.gram.entry(i, j), names)}")
    return 0


def _cmd_hierarchy(args) -> int:
    model = build_model(load_config(args.config))
    for i, A in enumerate(model.killing):
        print(f"A_{i} = {A}")
    for i, F in enumerate(model.integrals):
        print(f"F_{i} = {F}")
    return 0


def _cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    axes = config_axes(cfg, model.n)
    point = config_point(cfg, model.n)
    settings = config_settings(cfg, axes)
    grid = orbit_grid(model.integrals[:len(axes)], point, axes, settings)
    write_grid_csv(grid, args.output)
    return 0


def _pde_options(cfg: dict, axes: Sequence[AxisSpec]) -> dict:
    pde = cfg.get("pde", {})
    if not isinstance(pde, dict):
        raise ConfigError("config field 'pde' must be an object")
    t_end = pde.get("t_end")
    if t_end is None and len(axes) > 1:
        t_end = axes[1].stop
    if t_end is None:
        raise ConfigError("give 'pde.t_end' or a first time axis to bound "
                          "the direct solve")
    options = {"t_end": _number(t_end, "'pde.t_end'")}
    for key in ("cfl", "dt"):
        if key in pde:
            options[key] = _number(pde[key], f"'pde.{key}'")
    return options


def _direct_grid(cfg: dict, model: CompanionModel):
    if model.n < 2:
        raise ConfigError("the direct solver needs n >= 2 (no time flows "
                          "exist for n = 1)")
    axes = config_axes(cfg, model.n)
    options = _pde_options(cfg, axes)
    settings = config_settings(cfg, axes, extra_time=options["t_end"])
    u0 = config_initial_curve(cfg, model, axes[0], settings)
    t_end = options.pop("t_end")
    grid = direct_solve(model.killing[1], axes[0].values(), u0, t_end,
                        **options)
    return grid, settings


def _cmd_solve_direct(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    grid, _ = _direct_grid(cfg, model)
    write_grid_csv(grid, args.output)
    return 0


def _cmd_residual(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    if args.input:
        grid = read_grid_csv(args.input)
    else:
        axes = config_axes(cfg, model.n)
        point = config_point(cfg, model.n)
        settings = config_settings(cfg, axes)
        grid = orbit_grid(model.integrals[:len(axes)], point, axes, settings)
    if len(grid.axes) < 2:
        raise ConfigError("residuals need a lattice with at least one "
                          "time axis")
    report = grid_residual(grid, model.killing[1:len(grid.axes)])
    payload = {"per_axis": {grid.axes[k + 1].name: r
                            for k, r in enumerate(report.per_axis)},
               "max_abs": report.max_abs}
    _emit_report(payload, args.output)
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    direct, settings = _direct_grid(cfg, model)
    point = config_point(cfg, model.n)
    orbit = orbit_grid(model.integrals[:len(direct.axes)], point,
                       direct.axes, settings)
    t_values = direct.axes[1].values()
    layers = []
    for j, t in enumerate(t_values):
        deviation = float(np.abs(direct.u[:, j] - orbit.u[:, j]).max())
        layers.append({"t": float(t), "deviation": deviation})
    payload = {"layers": layers,
               "max_deviation": max(l["deviation"] for l in layers),
               "window": {"start": direct.axes[0].start,
                          "stop": direct.axes[0].stop,
                          "count": direct.axes[0].count}}
    _emit_report(payload, args.output)
    return 0


def _parse_slices(text: str | None) -> list[int] | None:
    if text is None:
        return None
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad slice list {text!r}: {exc}") from exc


def _cmd_plot(args) -> int:
    grid = read_grid_csv(args.input)
    write_svg_plot(grid, _parse_slices(args.slices), args.output)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nijflow",
        description="Companion-form metrics, commuting flows, and direct "
                    "quasilinear solving.")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(name, help_text, output=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="problem config (JSON)")
        if output:
            p.add_argument("--output", required=True,
                           help="output file path")
        else:
            p.add_argument("--output", default=None,
                           help="also write the report here")
        return p

    with_config("verify", "check the defining identities; report JSON")
    with_config("build-metric", "print the integral family and Gram matrix")
    with_config("hierarchy", "print the operator hierarchy and integrals")
    with_config("evolve", "fill a lattice by the commuting flows (CSV)",
                output=True)
    with_config("solve-direct", "direct quasilinear solve (CSV)",
                output=True)
    residual = with_config("residual", "discrete residual report for a "
                                       "lattice")
    residual.add_argument("--input", default=None,
                          help="CSV lattice to measure (default: evolve "
                               "from the config)")
    with_config("compare", "deviation table: direct solve vs flow "
                           "composition")
    plot = sub.add_parser("plot", help="SVG polylines of a lattice CSV")
    plot.add_argument("input", help="CSV lattice file")
    plot.add_argument("--output", required=True, help="SVG file path")
    plot.add_argument("--slices", default=None,
                      help="comma-separated time-slice indices (empty "
                           "string: axes only)")
    return parser


_DISPATCH = {
    "verify": _cmd_verify,
    "build-metric": _cmd_build_metric,
    "hierarchy": _cmd_hierarchy,
    "evolve": _cmd_evolve,
    "solve-direct": _cmd_solve_direct,
    "residual": _cmd_residual,
    "compare": _cmd_compare,
    "plot": _cmd_plot,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, ParseError, PolynomialError, MetricError,
            OperatorError, CompatError, FlowError, PDEError) as exc:
        print(f"nijflow {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nijflow {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
