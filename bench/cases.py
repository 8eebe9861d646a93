"""Seeded inputs for the benchmark workloads.

A workload is a set of config files plus a fixed cycle of CLI operations
over them.  The seed picks only rational coefficients, initial points and
the `verify` sweep seed; the commands, the sizes, the integrators and the
order of the cycle are the same for every seed, so runs with different seeds
cost the same.  Configs are serialised with sorted keys, so one seed always
gives byte-identical files.

Only the standard library is used here: the benchmark times the import of
the package, so nothing from it may be loaded while the inputs are made.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("certify", "lattice", "crosscheck")

# The torsion-free curved family: sigma_1..sigma_(n-1) do not depend on n.
CURVED = ("u1",
          "u2 - 1/2*u1^2",
          "u3 - u1*u2 + 1/6*u1^3",
          "u4 - u1*u3 - 1/2*u2^2 + 1/2*u1^2*u2 - 1/24*u1^4")

# Seeded rationals are k/DENOMINATOR with 1 <= k < DENOMINATOR, so every
# coefficient has the same size in every seed and exact arithmetic costs
# the same.
DENOMINATOR = 7

# Criterion 6: direct-vs-reduction deviation <= C * dx^2.
DEVIATION_C = 1.0
# The dx ladder of the crosscheck workload over x in [-1.5, 1.5].
LADDER = (0.0125, 0.00625, 0.003125, 0.0015625)


@dataclass(frozen=True)
class Op:
    """One in-process call of the CLI; ``case`` names its config."""
    command: str
    case: str
    expect_exit: int = 0

    def argv(self, workdir: Path) -> list[str]:
        config = str(workdir / f"{self.case}.json")
        csv = str(workdir / f"{self.case}.csv")
        if self.command in ("evolve", "solve-direct"):
            return [self.command, config, "--output", csv]
        if self.command == "residual":
            return [self.command, config, "--input", csv]
        if self.command == "plot":
            return [self.command, csv, "--output",
                    str(workdir / f"{self.case}.svg")]
        return [self.command, config]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, dict]
    cycle: tuple[Op, ...]
    # per-case facts the output checks need (dx of a rung, expected verdict)
    facts: dict[str, dict]


def _rational(rng: random.Random) -> str:
    k = rng.randint(1, DENOMINATOR - 1)
    return f"{'-' if rng.random() < 0.5 else ''}{k}/{DENOMINATOR}"


def translate(expressions, shifts) -> list[str]:
    """sigma_i(u + c) as expression strings: every u_j becomes (u_j + c_j)."""
    def sub(match):
        c = shifts[int(match.group(1)) - 1]
        if c.startswith("-"):
            return f"(u{match.group(1)} - {c[1:]})"
        return f"(u{match.group(1)} + {c})"
    return [re.sub(r"u(\d+)", sub, e) for e in expressions]


def _perturbed(rng: random.Random, base, spread_thousandths: int) -> list[float]:
    return [round(b + rng.randint(-spread_thousandths, spread_thousandths)
                  / 1000, 3) for b in base]


def _certify(rng: random.Random):
    configs, facts, cycle = {}, {}, []

    def add(name, sigma, expect):
        configs[name] = {"name": name, "n": len(sigma), "sigma": sigma,
                         "seed": rng.randint(0, 2**31 - 1)}
        facts[name] = {"n": len(sigma),
                       "verdict": "pass" if expect == 0 else "fail"}
        cycle.append(Op("verify", name, expect))
        cycle.append(Op("build-metric", name))

    add("curved3", translate(CURVED[:3], [_rational(rng) for _ in range(3)]), 0)
    add("curved4", translate(CURVED, [_rational(rng) for _ in range(4)]), 0)
    add("constant4", [_rational(rng) for _ in range(4)], 0)
    add("obstructed5", ["u1"] + [f"u{i} + u1*u{i - 1}" for i in range(2, 6)], 1)
    return configs, facts, cycle


def _lattice(rng: random.Random):
    configs = {
        "curved3": {
            "name": "curved3", "n": 3, "sigma": list(CURVED[:3]),
            "initial": {"u": _perturbed(rng, (0.1, -0.2, 0.05), 20),
                        "p": _perturbed(rng, (0.8, 0.5, 0.3), 20)},
            "grid": {"x": {"start": -0.5, "stop": 0.5, "count": 61},
                     "t": [{"start": 0.0, "stop": 0.2, "count": 11},
                           {"start": 0.0, "stop": 0.2, "count": 11}]},
            "integrator": {"method": "rk4", "step": 0.01}},
        "curved2": {
            "name": "curved2", "n": 2, "sigma": list(CURVED[:2]),
            "initial": {"u": _perturbed(rng, (0.1, -0.2), 20),
                        "p": _perturbed(rng, (0.8, 0.5), 20)},
            "grid": {"x": {"start": -0.5, "stop": 0.5, "count": 201},
                     "t": [{"start": 0.0, "stop": 0.5, "count": 101}]},
            "integrator": {"method": "rk45", "abs_tol": 1e-12,
                           "rel_tol": 1e-10}},
    }
    facts = {name: {"shape": [cfg["grid"]["x"]["count"]]
                    + [t["count"] for t in cfg["grid"]["t"]]}
             for name, cfg in configs.items()}
    cycle = [Op("evolve", "curved3"), Op("evolve", "curved2")]
    return configs, facts, cycle


def _crosscheck(rng: random.Random):
    initial = {"u": _perturbed(rng, (0.1, -0.2), 10),
               "p": _perturbed(rng, (0.8, 2.5), 10)}
    configs, facts, cycle = {}, {}, []
    for dx in LADDER:
        count = round(3.0 / dx) + 1
        name = f"direct{count}"
        configs[name] = {
            "name": name, "n": 2, "sigma": list(CURVED[:2]),
            "initial": initial,
            "grid": {"x": {"start": -1.5, "stop": 1.5, "count": count}},
            "integrator": {"method": "rk45", "abs_tol": 1e-13,
                           "rel_tol": 1e-12},
            "pde": {"t_end": 0.05, "cfl": 0.4}}
        facts[name] = {"dx": dx}
        cycle += [Op("solve-direct", name), Op("residual", name),
                  Op("plot", name), Op("compare", name)]
    return configs, facts, cycle


_GENERATORS = {"certify": _certify, "lattice": _lattice,
             "crosscheck": _crosscheck}


def make_workload(name: str, seed: int) -> Workload:
    configs, facts, cycle = _GENERATORS[name](random.Random(f"{name}:{seed}"))
    return Workload(name, configs, tuple(cycle), facts)


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, indent=2, sort_keys=True) + "\n").encode()


def write_configs(workload: Workload, workdir: Path) -> None:
    for name, config in workload.configs.items():
        (workdir / f"{name}.json").write_bytes(config_bytes(config))
