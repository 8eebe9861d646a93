"""Spans and call counts around the package's public functions.

Wrappers are installed from outside, on the names callers look up at call
time (a function imported into ``nijflow.cli`` is patched there, because
that is the global the commands read), and removed afterwards.  Nothing
inside the package changes.

A :class:`Tracer` works in one of two modes:

* ``span``: each wrapped call inside an op records a span (name, start,
  end, parent span, op id), kept in memory;
* ``count``: each wrapped call is only counted, and so are the two hot
  dunders, which are far too frequent to time without distorting the spans.

Both modes also add up a few quantities measured at the same boundaries
(bytes written, lattice nodes filled, solver node-steps).
"""

from __future__ import annotations

import importlib
import json
import os
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "cli.main"

# (owner, attribute, span name); "module:Class" names a class attribute.
TARGETS = (
    ("nijflow.cli", "load_config", "cli.load_config"),
    ("nijflow.cli", "write_grid_csv", "cli.write_grid_csv"),
    ("nijflow.cli", "read_grid_csv", "cli.read_grid_csv"),
    ("nijflow.cli", "write_svg_plot", "cli.write_svg_plot"),
    ("nijflow.model:CompanionModel", "from_expressions", "model.build"),
    ("nijflow.model", "parse_expression", "exactpoly.parse"),
    ("nijflow.model", "build_h_family", "metric.h_family"),
    ("nijflow.model", "gram_matrix", "metric.gram"),
    ("nijflow.model", "killing_operators", "hierarchy.killing"),
    ("nijflow.model", "first_integrals", "hierarchy.first_integrals"),
    # the seven verify checks, as imported into the CLI
    ("nijflow.cli", "nijenhuis_torsion", "operators.torsion"),
    ("nijflow.cli", "check_gram_normal_form", "metric.gram_normal_form"),
    ("nijflow.cli", "differential_shift_residuals",
     "metric.differential_shift"),
    ("nijflow.cli", "pairwise_poisson", "metric.pairwise_poisson"),
    ("nijflow.cli", "benenti_residual", "compat.benenti"),
    ("nijflow.cli", "covariant_at", "metric.covariant_at"),
    ("nijflow.cli", "coordinate_form_residual_at", "compat.coordinate_form"),
    ("nijflow.cli", "verify_commuting_integrals", "hierarchy.commuting"),
    ("nijflow.cli", "orbit_grid", "flows.orbit_grid"),
    ("nijflow.flows", "integrate_flow", "flows.integrate_flow"),
    ("nijflow.flows", "integrate_flow_path", "flows.integrate_flow_path"),
    ("nijflow.cli", "direct_solve", "pde.direct_solve"),
    ("nijflow.cli", "grid_residual", "pde.grid_residual"),
)

HOT = (
    ("nijflow.exactpoly:ExactPolynomial", "__mul__", "exactpoly.mul"),
    ("nijflow.flows:HamiltonianField", "__call__", "flows.rhs"),
)


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _lattice_nodes(args, kwargs, result):
    return result.u.size // result.n


def _node_steps(args, kwargs, result):
    """Nodes of the input x-lattice times time steps taken."""
    return len(args[1]) * result.meta["steps"]


# span name -> (quantity name, measure of one call)
QUANTITIES = {
    "cli.write_grid_csv": ("cli.write_grid_csv.bytes", _csv_bytes),
    "flows.orbit_grid": ("flows.orbit_grid.nodes", _lattice_nodes),
    "pde.direct_solve": ("pde.node_steps", _node_steps),
}


class Tracer:
    """Spans (mode "span") or call counts (mode "count") of the ops run
    through :meth:`run_op` while the wrappers are installed."""

    def __init__(self, mode: str):
        self.mode = mode
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.quantities: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._installed: list[tuple[object, str, object]] = []

    def run_op(self, op_id: int, fn, *args):
        self._op = op_id
        try:
            if self.mode == "span":
                return self._span(ROOT_SPAN, fn, args, {})
            return fn(*args)
        finally:
            self._op = None

    def _span(self, name, fn, args, kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                  self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        quantity = QUANTITIES.get(name)
        counting = self.mode == "count"

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if counting:
                self.counts[name] += 1
                result = fn(*args, **kwargs)
            else:
                result = self._span(name, fn, args, kwargs)
            if quantity is not None:
                self.quantities[quantity[0]] += quantity[1](args, kwargs,
                                                            result)
            return result
        return wrapper

    def install(self) -> None:
        targets = TARGETS + (HOT if self.mode == "count" else ())
        for where, attr, name in targets:
            module, _, cls = where.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            setattr(owner, attr, patched)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus the part covered by child
    spans.  Children of one span run one after another, so the covered
    part is the sum of their durations."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return out


def total_times(spans) -> dict[str, float]:
    """Per span name, the summed duration including children."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return out
