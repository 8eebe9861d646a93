"""Output checks for every benchmark op.

Each op's exit code, stdout and output file are checked against what the
command must produce, and every repeat of an op must give the bytes of its
first run.  A check returns a list of failures; each failure has a kind:

* ``output``: a wrong exit code or verdict, an unreadable or malformed
  output, a repeat that differs from the first run, or a lattice outside the
  drift or residual bounds below;
* ``deviation``: a `compare` whose direct-vs-reduction deviation exceeds
  criterion 6's C*dx^2.  The direct solver is known to go unstable at the
  finest crosscheck rung; that op counts as failed, and the rest of the run
  is still measured.

A repeat with the bytes of its first run gets the first run's content
failures and work without its output being read again.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cases import DEVIATION_C, Op, Workload

VERIFY_CHECKS = ("torsion", "gram_normal_form", "differential_shift",
                 "h_poisson_pairs", "benenti", "compatibility_sweep",
                 "integral_commutation")

# Largest |F_i(node) - F_i(start)| over an evolve lattice; today's values are
# 4e-15 to 5e-14.
DRIFT_BOUND = 1e-10
# Largest discrete residual of an evolve lattice; second-order differences
# at these spacings give about 1e-5 today.
RESIDUAL_BOUND = 1e-3


@dataclass(frozen=True)
class Failure:
    kind: str
    message: str


def _phase_terms(phase) -> list[tuple[float, np.ndarray]]:
    return [(float(c), np.array(e)) for e, c in phase.poly.terms()]


def _eval_phase(terms, states: np.ndarray) -> np.ndarray:
    """A phase function at every row of ``states`` (u then p)."""
    total = np.zeros(states.shape[:-1])
    for coeff, exps in terms:
        total += coeff * np.prod(states ** exps, axis=-1)
    return total


class Checker:
    """Checks ops of one workload and keeps the run's accuracy figures."""

    def __init__(self, workload: Workload, workdir: Path):
        from nijflow.cli import read_grid_csv
        from nijflow.model import CompanionModel
        from nijflow.pde import grid_residual
        self._read_csv = read_grid_csv
        self._grid_residual = grid_residual
        self._from_expressions = CompanionModel.from_expressions
        self.workload = workload
        self.workdir = workdir
        # (command, case) -> digest, content failures and work of its
        # first run
        self._first: dict[tuple[str, str], tuple] = {}
        self._models: dict[str, object] = {}
        self._direct: dict[str, tuple[int, int, int]] = {}
        self.drift = 0.0        # err.drift, over every evolve lattice
        self.direct_dev = 0.0   # err.direct_dev, over every compare

    def check(self, op: Op, rc, stdout: str) -> tuple[list[Failure], int]:
        """Failures of one op, and the work units it did."""
        fails: list[Failure] = []
        if rc != op.expect_exit:
            fails.append(Failure("output", f"{op.command} {op.case}: exit "
                                 f"{rc}, expected {op.expect_exit}"))
            return fails, 0
        outfile = self._output_file(op)
        digest = hashlib.sha256(stdout.encode())
        if outfile is not None:
            try:
                digest.update(outfile.read_bytes())
            except OSError as exc:
                fails.append(Failure("output", f"{op.command} {op.case}: "
                                     f"no output file ({exc})"))
                return fails, 0
        key = (op.command, op.case)
        first = self._first.get(key)
        if first is not None and first[0] == digest.hexdigest():
            # the bytes of the first run, whose content is checked already
            return list(first[1]), first[2]
        if first is not None:
            fails.append(Failure("output", f"{op.command} {op.case}: output "
                                 "differs from its first run"))
        content: list[Failure] = []
        try:
            work = getattr(self, "_" + op.command.replace("-", "_"))(
                op, stdout, content)
        except (ValueError, KeyError, TypeError, IndexError,
                RuntimeError) as exc:
            content.append(Failure("output", f"{op.command} {op.case}: "
                                   f"malformed output ({exc})"))
            work = 0
        if first is None:
            self._first[key] = (digest.hexdigest(), content, work)
        return fails + content, work

    def _output_file(self, op: Op) -> Path | None:
        if op.command in ("evolve", "solve-direct"):
            return self.workdir / f"{op.case}.csv"
        if op.command == "plot":
            return self.workdir / f"{op.case}.svg"
        return None

    def model(self, case: str):
        if case not in self._models:
            self._models[case] = self._from_expressions(
                self.workload.configs[case]["sigma"])
        return self._models[case]

    def _read_grid(self, case: str):
        return self._read_csv(str(self.workdir / f"{case}.csv"))

    def _direct_lattice(self, case: str) -> tuple[int, int, int]:
        """(nodes, components, time layers) of a solve-direct CSV; read
        once, since every rung rewrites the same bytes."""
        if case not in self._direct:
            grid = self._read_grid(case)
            self._direct[case] = (grid.u.size // grid.n, grid.n,
                                  grid.axes[-1].count)
        return self._direct[case]

    # -- one method per command; each returns the op's work units

    def _verify(self, op, stdout, fails):
        report = json.loads(stdout)
        names = tuple(c["name"] for c in report["checks"])
        expected = self.workload.facts[op.case]["verdict"]
        if names != VERIFY_CHECKS:
            fails.append(Failure("output", f"verify {op.case}: checks {names}"))
        if report["verdict"] != expected:
            fails.append(Failure("output", f"verify {op.case}: verdict "
                                 f"{report['verdict']}, expected {expected}"))
        return len(VERIFY_CHECKS)

    def _build_metric(self, op, stdout, fails):
        n = self.workload.facts[op.case]["n"]
        lines = stdout.splitlines()
        prefixes = ([f"sigma_{i} = " for i in range(1, n + 1)]
                    + [f"h_{i} = " for i in range(1, n + 1)]
                    + [f"gram[{i},{j}] = " for i in range(1, n + 1)
                       for j in range(1, n + 1)])
        if len(lines) != len(prefixes) or not all(
                line.startswith(p) for line, p in zip(lines, prefixes)):
            fails.append(Failure("output", f"build-metric {op.case}: "
                                 f"{len(lines)} lines, expected "
                                 f"{len(prefixes)} in order"))
        return 0

    def _evolve(self, op, stdout, fails):
        grid = self._read_grid(op.case)
        shape = list(grid.u.shape[:-1])
        if shape != self.workload.facts[op.case]["shape"] or grid.p is None:
            fails.append(Failure("output", f"evolve {op.case}: lattice "
                                 f"{shape}, expected "
                                 f"{self.workload.facts[op.case]['shape']}"))
            return 0
        model = self.model(op.case)
        residual = self._grid_residual(
            grid, model.killing[1:len(grid.axes)]).max_abs
        if not residual <= RESIDUAL_BOUND:
            fails.append(Failure("output", f"evolve {op.case}: residual "
                                 f"{residual:.3g} > {RESIDUAL_BOUND:g}"))
        initial = self.workload.configs[op.case]["initial"]
        start = np.array(initial["u"] + initial["p"], dtype=float)
        states = np.concatenate([grid.u, grid.p], axis=-1)
        drift = 0.0
        for F in model.integrals:
            terms = _phase_terms(F)
            ref = _eval_phase(terms, start)
            drift = max(drift, float(np.abs(_eval_phase(terms, states)
                                            - ref).max()))
        self.drift = max(self.drift, drift)
        if not drift <= DRIFT_BOUND:
            fails.append(Failure("output", f"evolve {op.case}: drift "
                                 f"{drift:.3g} > {DRIFT_BOUND:g}"))
        return grid.u.size // grid.n

    def _solve_direct(self, op, stdout, fails):
        grid = self._read_grid(op.case)
        if [a.name for a in grid.axes] != ["x", "t1"] or grid.p is not None \
                or not np.isfinite(grid.u).all():
            fails.append(Failure("output", f"solve-direct {op.case}: "
                                 "not a finite (x, t1) lattice"))
        self._direct[op.case] = (grid.u.size // grid.n, grid.n,
                                 grid.axes[-1].count)
        return grid.u.size // grid.n

    def _residual(self, op, stdout, fails):
        report = json.loads(stdout)
        if set(report["per_axis"]) != {"t1"} or \
                not math.isfinite(report["max_abs"]):
            fails.append(Failure("output", f"residual {op.case}: {report}"))
        return self._direct_lattice(op.case)[0]

    def _plot(self, op, stdout, fails):
        svg = (self.workdir / f"{op.case}.svg").read_text()
        nodes, n, layers = self._direct_lattice(op.case)
        lines = n * min(6, layers)
        if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")) or \
                svg.count("<polyline ") != lines:
            fails.append(Failure("output", f"plot {op.case}: not an SVG "
                                 f"with {lines} polylines"))
        return nodes

    def _compare(self, op, stdout, fails):
        report = json.loads(stdout)
        deviation = float(report["max_deviation"])
        dx = self.workload.facts[op.case]["dx"]
        if not math.isfinite(deviation):
            fails.append(Failure("output", f"compare {op.case}: deviation "
                                 f"{deviation}"))
            return 0
        self.direct_dev = max(self.direct_dev, deviation / dx ** 2)
        if deviation > DEVIATION_C * dx ** 2:
            fails.append(Failure("deviation", f"compare {op.case}: deviation "
                                 f"{deviation:.3g} > {DEVIATION_C:g}*dx^2 = "
                                 f"{DEVIATION_C * dx ** 2:.3g}"))
        return len(report["layers"]) * report["window"]["count"]
