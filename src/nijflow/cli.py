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
import functools
import json
import math
import re
import sys
from itertools import product
from typing import Sequence

import numpy as np

from .exactpoly import (PolynomialError, base_names, evaluate_table_array,
                        format_polynomial, parse_expression)
from .flows import (AxisSpec, CotangentPoint, FlowError, FlowSettings,
                    SolutionGrid, orbit_grid)
from .lattice_io import (MAX_LATTICE_NODES, ConfigError, make_axis,
                         read_grid_csv, replacing, write_grid_csv,
                         write_svg_plot)
from .metric import MetricError
from .model import CompanionModel
from .operators import OperatorError
from .pde import PDEError, compare_grids, direct_solve, grid_residual
from .verify import verify_model

# Unused: bench/spans.py wraps the verify checks by these names here, one of
# them twice (pinned by tests/test_span_targets.py) until ROADMAP item 10.
from .metric import (benenti_residual, check_gram_normal_form,  # noqa: F401
                     coordinate_form_residual_at, covariant_at,
                     differential_shift_residuals, pairwise_poisson,
                     pairwise_poisson as verify_commuting_integrals)
from .operators import nijenhuis_torsion  # noqa: F401


# ---------------------------------------------------------------------------
# config loading

# The config format, and the only place that knows it: a dict lists an
# object's keys (an axis needs all three), a one-element list is a list of
# its element, a (description, test) pair a leaf.  Booleans are not ints.
_ANY = ("any value", lambda v: True)
_NUMBER = ("a finite number",
           lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
_COUNT = ("a positive integer", lambda v: type(v) is int and v >= 1)
_SEED = ("a non-negative integer", lambda v: type(v) is int and v >= 0)
_TEXT = ("a string", lambda v: type(v) is str)
_METHOD = ("'rk4' or 'rk45'", lambda v: v in ("rk4", "rk45"))
_AXIS = {"start": _NUMBER, "stop": _NUMBER, "count": _COUNT}
CONFIG_KEYS = {
    "name": _ANY, "n": _COUNT, "sigma": [_TEXT], "seed": _SEED,
    "initial": {"u": [_NUMBER], "p": [_NUMBER], "curve": [_TEXT]},
    "grid": {"x": _AXIS, "t": [_AXIS]},
    "integrator": {"method": _METHOD, "step": _NUMBER, "abs_tol": _NUMBER,
                   "rel_tol": _NUMBER},
    "pde": {"t_end": _NUMBER, "cfl": _NUMBER},
}


def _checked(value, spec, path: str):
    """``value`` checked against ``spec`` at ``path``, numbers made floats."""
    field = f"config field {path!r}" if path else "config"
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{field} must be an object")
        for key, item in value.items():
            where = f"{path}.{key}" if path else key
            if key not in spec:
                raise ConfigError(f"unknown config key {where!r}")
            value[key] = _checked(item, spec[key], where)
        if spec is _AXIS and len(value) < len(_AXIS):
            raise ConfigError(f"{field} must give start, stop and count")
    elif isinstance(spec, list):
        if not isinstance(value, list):
            raise ConfigError(f"{field} must be a list")
        value = [_checked(item, spec[0], f"{path}[{k}]")
                 for k, item in enumerate(value)]
    elif not spec[1](value):
        raise ConfigError(f"{field} must be {spec[0]}")
    return float(value) if spec is _NUMBER else value


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path!r} nests too deeply") from exc
    except ValueError as exc:  # also a repeated key, or too long an integer
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    cfg = _checked(raw, CONFIG_KEYS, "")
    integ = cfg.get("integrator", {})
    method = integ.get("method", FlowSettings.method)
    for key in {"rk4": ("abs_tol", "rel_tol"), "rk45": ("step",)}[method]:
        if key in integ:
            raise ConfigError(f"config key 'integrator.{key}' is never read "
                              f"by method {method!r}")
    return cfg


def build_model(cfg: dict) -> CompanionModel:
    sigma = cfg.get("sigma", ())
    if len(sigma) != cfg.get("n"):
        raise ConfigError("config fields 'n' and 'sigma' must give n and a "
                          "list of n expression strings")
    try:
        return CompanionModel.from_expressions(sigma)
    except PolynomialError as exc:
        raise ConfigError(f"bad sigma expression: {exc}") from exc


def config_axes(cfg: dict, n: int) -> tuple[AxisSpec, ...]:
    grid = cfg.get("grid", {})
    if "x" not in grid:
        raise ConfigError("config field 'grid' must contain an 'x' axis")
    specs = [grid["x"], *grid.get("t", [])]
    if len(specs) > n:
        raise ConfigError(f"at most {n - 1} time axes are available for "
                          f"n = {n}")
    # before any axis is built: an axis of close nodes computes them all
    nodes = math.prod(spec["count"] for spec in specs)
    if nodes > MAX_LATTICE_NODES:
        raise ConfigError(f"the lattice has {nodes} nodes, more than the "
                          f"limit of {MAX_LATTICE_NODES}")
    return tuple(make_axis(f"t{k}" if k else "x", **spec)
                 for k, spec in enumerate(specs))


def config_point(cfg: dict, n: int) -> CotangentPoint:
    u, p = (cfg.get("initial", {}).get(key, ()) for key in "up")
    if len(u) != n or len(p) != n:
        raise ConfigError(f"config field 'initial' must give 'u' and 'p' "
                          f"lists of {n} numbers for flow evolution")
    return CotangentPoint(tuple(u), tuple(p))


def config_settings(cfg: dict) -> FlowSettings:
    try:
        return FlowSettings(**cfg.get("integrator", {}))
    except ValueError as exc:
        raise ConfigError(f"bad integrator settings: {exc}") from exc


def config_initial_curve(cfg: dict, model: CompanionModel,
                         x_axis: AxisSpec,
                         settings: FlowSettings) -> np.ndarray:
    """Initial data on the x-lattice: sampled curve expressions, or the
    geodesic line generated from an initial point by the first flow (exact
    up to evaluation when its Lie series terminates, see ``orbit_grid``)."""
    curve = cfg.get("initial", {}).get("curve")
    if curve is not None:
        if len(curve) != model.n:
            raise ConfigError(f"'initial.curve' must list {model.n} "
                              "expressions in the variable x")
        try:
            polys = [parse_expression(c, ["x"]) for c in curve]
        except PolynomialError as exc:
            raise ConfigError(f"bad curve expression: {exc}") from exc
        with np.errstate(over="ignore", invalid="ignore"):
            u0 = evaluate_table_array(polys, x_axis.values()[:, None])
        if not np.isfinite(u0).all():
            raise ConfigError("'initial.curve' is not finite on the x-axis")
        return u0
    point = config_point(cfg, model.n)
    return orbit_grid([model.integrals[0]], point, [x_axis], settings).u


# ---------------------------------------------------------------------------
# the verification report


def verification_report(cfg: dict) -> dict:
    model = build_model(cfg)
    seed = cfg.get("seed", 0)
    checks = verify_model(model, seed)
    verdict = "pass" if all(c["verdict"] == "pass" for c in checks) else "fail"
    return {"name": cfg.get("name"), "n": model.n, "seed": seed,
            "checks": checks, "verdict": verdict}


def _emit_report(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if output:
        with replacing(output) as f:
            f.write((text + "\n").encode())


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
    texts = {}  # by entry object: each anti-diagonal is one
    for i, j in product(range(model.n), repeat=2):
        e = model.gram.entry(i, j)
        texts[id(e)] = texts.get(id(e)) or format_polynomial(e, names)
        print(f"gram[{i + 1},{j + 1}] = {texts[id(e)]}")
    return 0


def _cmd_hierarchy(args) -> int:
    model = build_model(load_config(args.config))
    for i, A in enumerate(model.killing):
        print(f"A_{i} = {A}")
    for i, F in enumerate(model.integrals):
        print(f"F_{i} = {F}")
    return 0


def _config_orbit(cfg: dict, model: CompanionModel) -> SolutionGrid:
    """The orbit lattice the config's axes, point and settings describe."""
    axes = config_axes(cfg, model.n)
    point = config_point(cfg, model.n)
    settings = config_settings(cfg)
    return orbit_grid(model.integrals[:len(axes)], point, axes, settings)


def _cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    write_grid_csv(_config_orbit(cfg, build_model(cfg)), args.output)
    return 0


def _direct_grid(cfg: dict, model: CompanionModel):
    if model.n < 2:
        raise ConfigError("the direct solver needs n >= 2 (no time flows "
                          "exist for n = 1)")
    axes = config_axes(cfg, model.n)
    options = cfg.get("pde", {})
    if "t_end" not in options:
        raise ConfigError("give 'pde.t_end' to bound the direct solve")
    settings = config_settings(cfg)
    u0 = config_initial_curve(cfg, model, axes[0], settings)
    grid = direct_solve(model.killing[1], axes[0].values(), u0, **options)
    return grid, settings


def _cmd_solve_direct(args) -> int:
    cfg = load_config(args.config)
    grid, _ = _direct_grid(cfg, build_model(cfg))
    write_grid_csv(grid, args.output)
    return 0


def _cmd_residual(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    grid = (read_grid_csv(args.input) if args.input
            else _config_orbit(cfg, model))
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
    orbit = orbit_grid(model.integrals[:len(direct.axes)],
                       config_point(cfg, model.n), direct.axes, settings)
    deviations = compare_grids(direct, orbit).tolist()
    payload = {"layers": [{"t": t, "deviation": d} for t, d in
                          zip(direct.axes[1].values().tolist(), deviations)],
               "max_deviation": max(deviations),
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
    parts = text.split(",")
    for part in parts:
        # int() would also take "1_0" and non-ASCII digits such as "\u0663"
        if not re.fullmatch(" *-?[0-9]+ *", part):
            raise ConfigError(f"bad slice list {text!r}: {part!r} is not an "
                              "ASCII integer")
    return [int(part) for part in parts]


def _cmd_plot(args) -> int:
    grid = read_grid_csv(args.input)
    write_svg_plot(grid, _parse_slices(args.slices), args.output)
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # one stderr line; subparsers inherit it
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  argparse leaves a few hundred
    objects in reference cycles per build, and one build per call let them
    pile up between runs of the cyclic collector, interleaved with the
    lattice data of later calls."""
    parser = _Parser(
        prog="nijflow",
        description="Companion-form metrics, commuting flows, and direct "
                    "quasilinear solving.")
    sub = parser.add_subparsers(dest="command", required=True)

    # output: "report" for an optional copy of the printed JSON report,
    # "file" for a required output file, None for commands that print only
    def with_config(name, handler, help_text, output=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("config", help="problem config (JSON)")
        if output == "file":
            p.add_argument("--output", required=True,
                           help="output file path")
        elif output == "report":
            p.add_argument("--output", default=None,
                           help="also write the report here")
        return p

    with_config("verify", _cmd_verify,
                "check the defining identities; report JSON", "report")
    with_config("build-metric", _cmd_build_metric,
                "print the integral family and Gram matrix")
    with_config("hierarchy", _cmd_hierarchy,
                "print the operator hierarchy and integrals")
    with_config("evolve", _cmd_evolve,
                "fill a lattice by the commuting flows (CSV)", "file")
    with_config("solve-direct", _cmd_solve_direct,
                "direct quasilinear solve (CSV)", "file")
    residual = with_config("residual", _cmd_residual,
                           "discrete residual report for a lattice", "report")
    residual.add_argument("--input", default=None,
                          help="CSV lattice to measure (default: evolve "
                               "from the config)")
    with_config("compare", _cmd_compare,
                "deviation table: direct solve vs flow composition", "report")
    plot = sub.add_parser("plot", help="SVG polylines of a lattice CSV")
    plot.set_defaults(handler=_cmd_plot)
    plot.add_argument("input", help="CSV lattice file")
    plot.add_argument("--output", required=True, help="SVG file path")
    plot.add_argument("--slices", default=None,
                      help="comma-separated time-slice indices (empty "
                           "string: axes only)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ConfigError, PolynomialError, MetricError, OperatorError,
            FlowError, PDEError, OSError) as exc:
        print(f"nijflow {args.command}: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"nijflow {args.command}: floating-point overflow: {exc}",
              file=sys.stderr)
        return 2
