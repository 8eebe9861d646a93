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
import sys
from fractions import Fraction
from itertools import product, repeat
from typing import Sequence

import numpy as np

from .compat import CompatError, benenti_residual, coordinate_form_residual_at
from .exactpoly import (ParseError, PolynomialError, base_names,
                        evaluate_table_array, format_polynomial,
                        parse_expression)
from .flows import (AxisSpec, CotangentPoint, FlowError, FlowSettings,
                    SolutionGrid, orbit_grid)
# unused here; bench/spans.py patches it by this name
from .hierarchy import verify_commuting_integrals  # noqa: F401
from .metric import (MetricError, SingularMetricError, check_gram_normal_form,
                     covariant_at, differential_shift_residuals,
                     pairwise_poisson)
from .model import CompanionModel
from .operators import OperatorError, nijenhuis_torsion
from .pde import UNIFORM_RTOL, PDEError, direct_solve, grid_residual


class ConfigError(ValueError):
    """A config file is missing, malformed, or inconsistent."""


# Largest lattice a config may ask for, as the product of its axis counts:
# every config does bounded work, and the axes are allocated before any
# flow runs.  About 50 times the largest benchmark lattice (201 x 101).
MAX_LATTICE_NODES = 10**6


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
    except RecursionError as exc:
        raise ConfigError(f"config {path!r} nests too deeply") from exc
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
    nodes = math.prod(a.count for a in axes)
    if nodes > MAX_LATTICE_NODES:
        raise ConfigError(f"the lattice has {nodes} nodes, more than the "
                          f"limit of {MAX_LATTICE_NODES}")
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
    geodesic line generated from an initial point by the first flow (exact
    up to evaluation when its Lie series terminates, see ``orbit_grid``)."""
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
        with np.errstate(over="ignore", invalid="ignore"):
            u0 = evaluate_table_array(polys, x_axis.values()[:, None])
        if not np.isfinite(u0).all():
            raise ConfigError("'initial.curve' is not finite on the x-axis")
        return u0
    point = config_point(cfg, n)
    line = orbit_grid([model.integrals[0]], point, [x_axis], settings)
    return line.u


# ---------------------------------------------------------------------------
# CSV lattices


# Rows formatted and written at a time: one cell buffer of this many rows is
# reused, so memory does not grow with the lattice.
_CSV_CHUNK_ROWS = 2048

# One CSV cell in fixed byte columns, zero bytes being filler: the sign,
# "0.000" prefix, leading digit and the dot after it; digits 1-8 and a byte
# for one pushed out by a dot; digits 9-16; that digit's pushed-out byte and
# the exponent; the separator.
_CELL = np.dtype([("head", "<u8"), ("mid", "<u8"), ("mid_last", "u1"),
                  ("tail", "<u8"), ("end", "<u8"), ("sep", "u1")])
_U64 = np.uint64
_ASCII_ZEROS = _U64(0x3030303030303030)
_POINT_ZEROS = _U64(0x3030302E30)               # "0.000", first byte lowest
_TEN_POWERS = 10 ** np.arange(18, dtype=np.int64)


@functools.cache
def _pow10(q: int) -> tuple[float, float]:
    """10**q as a double-double: the nearest double and the nearest double
    to the rest."""
    exact = Fraction(10) ** q
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


def _scaled(a: np.ndarray, k: np.ndarray):
    """a * 10**(16 - k) as a double-double (p, r), p integer-valued and |r|
    at most half its ulp: Dekker's product of a and the leading double of
    10**(16 - k), by Veltkamp splits, plus a times the trailing double.  The
    error is below 1e-13 while the product is below 1e18 and every factor
    is a normal double."""
    q0 = 16 - int(k.max())
    hi, lo = np.array([_pow10(q) for q in range(q0, 17 - int(k.min()))]).T
    q = 16 - q0 - k
    hi = hi.take(q)
    split = 134217729.0 * a
    ah = split - (split - a)
    al = a - ah
    split = 134217729.0 * hi
    hh = split - (split - hi)
    hl = hi - hh
    p = a * hi
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo.take(q)
    s = p + t
    return s, t - (s - p)


def _low_bytes(count: np.ndarray) -> np.ndarray:
    """Masks of the low ``count`` (0..8) bytes of a word; each shift stays
    below the word width."""
    half = count.astype(_U64) * _U64(4)
    return ((_U64(1) << half) << half) - _U64(1)


def _digit_bytes(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10**8 (uint64), one per byte with
    the first digit lowest: halves, quarters and eighths by exact
    multiply-shift division within the word."""
    x = (n // _U64(10000)) | ((n % _U64(10000)) << _U64(32))
    y = ((x * _U64(10486)) >> _U64(20)) & _U64(0x7F0000007F)
    x = y | ((x - y * _U64(100)) << _U64(16))
    y = ((x * _U64(103)) >> _U64(10)) & _U64(0xF000F000F000F)
    return y | ((x - y * _U64(10)) << _U64(8))


def _significant(w: np.ndarray) -> np.ndarray:
    """0xFF in each byte of w that is nonzero or lies below a nonzero one:
    the digits of a word that are not trailing zeros."""
    w = w | (w >> _U64(8))
    w = w | (w >> _U64(16))
    w = w | (w >> _U64(32))
    w = (w + _U64(0x7F7F7F7F7F7F7F7F)) & _U64(0x8080808080808080)
    return (w >> _U64(7)) * _U64(0xFF)


def _with_dot(w: np.ndarray, at: np.ndarray, dot: np.ndarray):
    """Insert the byte ``dot`` (a dot or filler) at byte ``at`` (0..7) of w:
    the new word and the byte pushed out at the top."""
    low = _low_bytes(at)
    return ((w & low) | (dot << (at.astype(_U64) * _U64(8)))
            | ((w & ~low) << _U64(8))), w >> _U64(56)


def _format_cells(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.17g" % v`` for each finite v of ``values`` into the cells
    ``out`` of the same shape, leaving their separators alone.

    The 17 digits are |v| * 10**(16 - k), k the decimal exponent, formed
    as a double-double and rounded half to even.  Where that cannot decide
    them (a fraction within 1e-9 of one half, |v| outside [1e-250, 1e250])
    Python formats the cell instead."""
    with np.errstate(all="ignore"):
        a = np.abs(values)
        vector = (a >= 1e-250) & (a <= 1e250)
        a[~vector] = 1.0
        k = np.floor(np.log10(a)).astype(np.int64)
        p, r = _scaled(a, k)
        # log10 can be one off next to a power of ten: test the exact value
        for attempt in range(3):
            below = (p - 1e16) + r < 0
            above = (p - 1e17) + r >= 0
            off = below | above
            if attempt == 2 or not off.any():
                break
            k += above
            k -= below
            p[off], r[off] = _scaled(a[off], k[off])
        whole = np.rint(r)
        vector &= ~off & (np.abs(np.abs(r - whole) - 0.5) > 1e-9)
        d = p.astype(np.int64) + whole.astype(np.int64)
        carry = d == 10**17
        d[carry] = 10**16
        k += carry
        zero = values == 0
        d[zero] = 0
        k[zero] = 0
        lead = d // 10**16
        rest = d - lead * 10**16
        mid = rest // 10**8
        tail = _digit_bytes((rest - mid * 10**8).view(_U64))
        mid = _digit_bytes(mid.view(_U64))
        fixed = (k >= -4) & (k <= 16)
        small = fixed & (k < 0)
        # digits past the last nonzero one become filler
        mid = (mid + _ASCII_ZEROS) & _significant(
            mid | ((tail != 0) * _U64(1 << 56)))
        tail = (tail + _ASCII_ZEROS) & _significant(tail)
        mid_last = np.zeros_like(mid)
        end = np.zeros_like(tail)
        # with k >= 1 digits before the dot: keep them all, place the dot
        wide = fixed & (k >= 1)
        if wide.any():
            kw = k[wide]
            mid_w = mid[wide] | (_ASCII_ZEROS & _low_bytes(np.minimum(kw, 8)))
            tail_w = tail[wide] | (_ASCII_ZEROS
                                   & _low_bytes(np.clip(kw - 8, 0, 8)))
            dot = (d[wide] % _TEN_POWERS[16 - kw] != 0) * _U64(ord("."))
            mid[wide], mid_last[wide] = _with_dot(
                mid_w, np.minimum(kw, 7), dot * (kw <= 7))
            tail[wide], end[wide] = _with_dot(
                tail_w, np.clip(kw - 8, 0, 7), dot * (kw >= 8))
        lead_dot = (rest != 0) & ~(small | wide)
        out["head"] = (np.signbit(values) * _U64(ord("-"))
                       | ((_POINT_ZEROS & _low_bytes((1 - k) * small))
                          << _U64(8))
                       | ((lead.view(_U64) + _U64(ord("0"))) << _U64(48))
                       | (lead_dot * _U64(ord(".") << 56)))
        out["mid"] = mid
        out["mid_last"] = mid_last
        out["tail"] = tail
        sci = ~fixed
        if sci.any():
            e = np.abs(k[sci])
            h, t, o = e // 100, e // 10 % 10, e % 10
            digits = (((h + 48) | ((t + 48) << 8) | ((o + 48) << 16))
                      >> (8 * (h == 0)))
            sign = np.where(k[sci] < 0, ord("-"), ord("+"))
            end[sci] |= ((ord("e") | (sign << 8) | (digits << 16))
                         << 8).view(_U64)
        out["end"] = end
    slow = np.nonzero(~(vector | zero))
    if len(slow[0]):
        width = _CELL.itemsize - 1
        texts = b"".join((b"%.17g" % v).ljust(width, b"\0")
                         for v in values[slow].tolist())
        cells = out[slow]
        cells.view(np.uint8).reshape(-1, width + 1)[:, :width] = \
            np.frombuffer(texts, np.uint8).reshape(-1, width)
        out[slow] = cells


def _refuse_non_finite(grid: SolutionGrid, names: Sequence[str]) -> None:
    """Raise ConfigError naming the first lattice node, in row order, with a
    non-finite value: ``read_grid_csv`` would refuse the file."""
    k = len(grid.axes)
    bad = ~np.isfinite(grid.u).all(axis=-1)
    if grid.p is not None:
        bad |= ~np.isfinite(grid.p).all(axis=-1)
    with np.errstate(all="ignore"):
        axis_values = [a.values() for a in grid.axes]
    for i, values in enumerate(axis_values):
        bad |= ~np.isfinite(values).reshape(
            [-1 if j == i else 1 for j in range(k)])
    if not bad.any():
        return
    node = np.unravel_index(int(np.argmax(bad)), bad.shape)
    row = [values[i] for values, i in zip(axis_values, node)]
    row += list(grid.u[node])
    if grid.p is not None:
        row += list(grid.p[node])
    name, value = next((c, v) for c, v in zip(names, row)
                       if not math.isfinite(v))
    raise ConfigError(f"cannot write a non-finite lattice: {name} is {value} "
                      f"at node {tuple(int(i) for i in node)}")


def write_grid_csv(grid: SolutionGrid, path: str) -> None:
    """One row per lattice node, lexicographic in the lattice index; each
    cell is Python's ``"%.17g"`` of its float, which reads back bit for bit.
    Momentum columns appear only when the lattice carries momenta.  A
    lattice with a non-finite value is refused before anything is written.

    Rows are formatted a chunk at a time into one reused buffer of
    fixed-width cells, and each axis value is formatted once."""
    n = grid.n
    k = len(grid.axes)
    names = [a.name for a in grid.axes] + [f"u{i + 1}" for i in range(n)]
    blocks = [grid.u.reshape(-1, n)]
    if grid.p is not None:
        names += [f"p{i + 1}" for i in range(n)]
        blocks.append(grid.p.reshape(-1, n))
    _refuse_non_finite(grid, names)
    # whole cells are moved as opaque records, which numpy copies flat
    record = f"V{_CELL.itemsize}"
    axis_cells = []
    for axis in grid.axes:
        formatted = np.zeros(axis.count, _CELL)
        formatted["sep"] = ord(",")
        _format_cells(axis.values(), formatted)
        axis_cells.append(formatted.view(record))
    shape = grid.u.shape[:-1]
    rows = len(blocks[0])
    cells = np.zeros((min(rows, _CSV_CHUNK_ROWS), len(names)), _CELL)
    cells["sep"] = ord(",")
    cells["sep"][:, -1] = ord("\n")
    values = np.empty((len(cells), len(names) - k))
    with open(path, "wb") as f:
        f.write((",".join(names) + "\n").encode())
        for start in range(0, rows, _CSV_CHUNK_ROWS):
            stop = min(rows, start + _CSV_CHUNK_ROWS)
            chunk = cells[:stop - start]
            index = np.unravel_index(np.arange(start, stop), shape)
            for a, (formatted, i) in enumerate(zip(axis_cells, index)):
                chunk.view(record)[:, a] = formatted.take(i)
            for b, block in enumerate(blocks):
                values[:stop - start, b * n:(b + 1) * n] = block[start:stop]
            _format_cells(values[:stop - start], chunk[:, k:])
            f.write(chunk.tobytes().translate(None, b"\0"))


def _check_plain_text(text: str, first_line: int) -> None:
    """Refuse ``_`` and non-ASCII characters in lattice text starting at
    line ``first_line``: ``float`` would read ``1_0`` as 10.0 and a
    full-width ``１`` as 1.0.  The whole text is scanned at C level; the
    line is looked for only when the scan fails."""
    if text.isascii() and "_" not in text:
        return
    for k, line in enumerate(text.split("\n"), start=first_line):
        for ch in line:
            if ch == "_" or not ch.isascii():
                raise ConfigError(f"unexpected character {ch!r} on line {k} "
                                  "of the lattice file")


def read_grid_csv(path: str) -> SolutionGrid:
    """Rebuild a lattice written by ``write_grid_csv``.

    Blank lines are skipped; every other row must have the header's width
    and hold finite decimal numbers in ASCII.  An axis column repeats each
    of its values many times, so each distinct axis string is parsed once.
    """
    try:
        with open(path) as f:
            header = f.readline().strip()
            body = f.read()
            lines = body.split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read lattice {path!r}: {exc}") from exc
    _check_plain_text(header, 1)
    _check_plain_text(body, 2)
    del body
    names = header.split(",")
    axis_names = [c for c in names if c == "x" or c.startswith("t")]
    u_names = [c for c in names if c.startswith("u")]
    p_names = [c for c in names if c.startswith("p")]
    if names != axis_names + u_names + p_names or not axis_names or not u_names:
        raise ConfigError(f"unrecognized lattice header {header!r}")
    n = len(u_names)
    if p_names and len(p_names) != n:
        raise ConfigError("momentum columns must match component count")
    width = len(names)
    # a line without the header's width of cells must be blank
    commas = np.fromiter(map(str.count, lines, repeat(",")), np.intp,
                         len(lines))
    full = commas == width - 1
    for i in np.flatnonzero(~full):
        if lines[i].strip():
            raise ConfigError(
                f"lattice rows do not match the header: line {i + 2} has "
                f"{commas[i] + 1} cells, the header has {width}")
    rows = int(np.count_nonzero(full))
    if not rows:
        raise ConfigError("lattice rows do not match the header")
    # one copy of the cell text at a time: lines, then the joined text
    text = ",".join(filter(str.strip, lines))
    del lines
    cells = text.split(",")
    del text
    k = len(axis_names)
    data = np.empty((rows, width))
    axis_values = []
    try:
        for a in range(width):
            column = cells[a::width]
            if a < k:
                parsed = {s: float(s) for s in dict.fromkeys(column)}
                data[:, a] = np.fromiter(map(parsed.__getitem__, column),
                                         np.float64, rows)
                axis_values.append(list(dict.fromkeys(parsed.values())))
            else:
                data[:, a] = np.fromiter(map(float, column), np.float64,
                                         rows)
    except ValueError as exc:
        raise ConfigError(f"bad number in lattice file: {exc}") from exc
    finite = np.isfinite(data)
    if not finite.all():
        r, a = divmod(int(np.argmin(finite)), width)
        line = np.flatnonzero(full)[r] + 2
        raise ConfigError(f"non-finite number {cells[r * width + a].strip()!r}"
                          f" on line {line} of the lattice file")
    shape = tuple(len(vals) for vals in axis_values)
    if int(np.prod(shape)) != rows:
        raise ConfigError("lattice rows do not fill a full rectangle")
    axes = tuple(_axis_from({"start": vals[0], "stop": vals[-1],
                             "count": len(vals)}, name)
                 for name, vals in zip(axis_names, axis_values))
    for axis, vals in zip(axes, axis_values):
        if (np.abs(axis.values() - vals).max()
                > UNIFORM_RTOL * max(1.0, abs(axis.delta))):
            raise ConfigError(f"lattice axis {axis.name!r} is not uniform")
    # the axis columns must be the lattice index mapped to axis values
    index = np.indices(shape).reshape(k, -1)
    expected = np.column_stack([np.asarray(vals)[i]
                                for vals, i in zip(axis_values, index)])
    if not np.array_equal(expected, data[:, :k]):
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
    time axis is drawn as a single set of lines and takes no slice index.
    """
    width, height = 720, 480
    left, right, top, bottom = 64.0, 700.0, 24.0, 440.0
    xs = grid.axes[0].values()
    if len(grid.axes) == 1:
        if slices:
            raise ConfigError("the lattice has no time axis to slice")
        chosen: list[int | None] = [None] if slices is None else []
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
    return float(max((p.max_abs_coefficient() for p in polys), default=0))


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

    # 50 points in one batch (the stream of 50 draws of n).  A singular one
    # fails the check with the residual over the points before it; no config
    # reaches that, as det G = +-1 for a companion Gram matrix
    points = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(50, n))
    sweep_detail = None
    try:
        g_at = covariant_at(model.gram, points)
    except SingularMetricError as exc:
        sweep_detail = str(exc)
        g_at = covariant_at(model.gram, points[:exc.index])
    # max() in point order, as one point at a time did
    worst = functools.reduce(max, coordinate_form_residual_at(
        g_at, model.operator).tolist(), 0.0)
    record("compatibility_sweep", sweep_detail is None and worst < 1e-8,
           worst, sweep_detail)

    # F_i = 1/2 h_(i+1), so {F_i, F_j} is a quarter of the h-pair bracket
    record("integral_commutation", pairs.ok,
           _peak(b.poly * Fraction(1, 4) for _, _, b in pairs.residuals))

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
    for i, j in product(range(model.n), repeat=2):
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


def _config_orbit(cfg: dict, model: CompanionModel) -> SolutionGrid:
    """The orbit lattice the config's axes, point and settings describe."""
    axes = config_axes(cfg, model.n)
    point = config_point(cfg, model.n)
    settings = config_settings(cfg, axes)
    return orbit_grid(model.integrals[:len(axes)], point, axes, settings)


def _cmd_evolve(args) -> int:
    cfg = load_config(args.config)
    write_grid_csv(_config_orbit(cfg, build_model(cfg)), args.output)
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
    layers = [{"t": float(t), "deviation":
               float(np.abs(direct.u[:, j] - orbit.u[:, j]).max())}
              for j, t in enumerate(direct.axes[1].values())]
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  argparse leaves a few hundred
    objects in reference cycles per build, and one build per call let them
    pile up between runs of the cyclic collector, interleaved with the
    lattice data of later calls."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ConfigError, ParseError, PolynomialError, MetricError,
            OperatorError, CompatError, FlowError, PDEError, OSError) as exc:
        print(f"nijflow {args.command}: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"nijflow {args.command}: floating-point overflow: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
