"""Every config the benchmark runs, and every shipped one, passes the key table.

``load_config`` refuses unknown, inert and malformed keys, so a config that
the benchmark generates and the table refuses would fail every op of its
workload.  The reports of the seed-1 ``certify`` configs and the CSVs of the
seed-1 ``lattice`` configs are pinned too, and so is the work, counted
without timing, of the commands: the exact work that ``verify``,
``build-metric`` and ``hierarchy`` do on the ``certify`` configs, on
curved n = 2..7 and on the shipped configs, the RHS evaluations of
``evolve`` on the ``lattice`` configs and the node-steps of
``solve-direct`` on the ``crosscheck`` configs, and both kinds of count on
the shipped configs.  ``bench/cases.py`` is read without changing it:
compiled in memory, so no bytecode cache is written next to it.
"""

import builtins
import hashlib
import json
import math
import sys
import types
from pathlib import Path

import pytest

from support import check_shift_record, counted, sigma_curved

import nijflow.cli as cli
import nijflow.exactpoly as exactpoly
import nijflow.flows as flows
from nijflow.cli import load_config, main
from nijflow.exactpoly import ExactPolynomial, base_names, format_polynomial
from nijflow.flows import HamiltonianField
from nijflow.model import CompanionModel

REPO = Path(__file__).resolve().parent.parent
CASES = REPO / "bench" / "cases.py"


def _load_cases():
    module = types.ModuleType("bench_cases")
    module.__file__ = str(CASES)
    # dataclasses look their defining module up in sys.modules
    sys.modules[module.__name__] = module
    exec(compile(CASES.read_text(), str(CASES), "exec"), vars(module))
    return module


_cases = _load_cases()


@pytest.mark.parametrize("config", sorted((REPO / "configs").glob("*.json")),
                         ids=lambda path: path.stem)
def test_shipped_config_loads(config):
    assert load_config(str(config))["name"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", _cases.WORKLOADS)
def test_bench_configs_load(tmp_path, workload, seed):
    generated = _cases.make_workload(workload, seed)
    _cases.write_configs(generated, tmp_path)
    for name in generated.configs:
        assert load_config(str(tmp_path / f"{name}.json"))["name"] == name


# (exit code, SHA-256 of stdout) of verify, build-metric and hierarchy on
# each seed-1 certify config: the translated curved n = 3, 4 sigmas, a
# constant n = 4 one and the obstructed n = 5 control, whose verify exits 1.
# Recorded before the exact checks returned their residuals in place of
# report objects; however the checks are shaped, these must not change.
CERTIFY_COMMANDS = ("verify", "build-metric", "hierarchy")
CERTIFY_DIGESTS = {
    "curved3": (
        (0, "a472ceff6a115b3299583eb95c2f1a3489626624e517d1d5f205c53b9d87a4c6"),
        (0, "544a1f1fd2c71b0b7ffbc0c8010ee5e6d2bdf4beda8b53be75b33d83f40b93f9"),
        (0, "e067eccd384aa86c16d27f40c03028c10b44bd1b77400544934e0379c37e2595")),
    "curved4": (
        (0, "a12c5e0d02a01d59d184dfc3435069741e64edf03ed3edacace1bdc6129cca53"),
        (0, "c853b6fd40051f4ae3d06de4c576b21316e45e87012b9dfdcf641435ae89a3ad"),
        (0, "c267ad64b16d16d6777fdc823abd5b282b431007ee545a6ae3ece48cf641d9eb")),
    "constant4": (
        (0, "2e4dafd567a9dd44f16b9617fe7e80e85ea373fb530d0f056f5b731988467c46"),
        (0, "5d949319e7e44233f32cfaab3729ce918d6c9a64228e99c4c134a0847397bed7"),
        (0, "41f1099dbdcd37e40ec6307f399cf2b36707808a1d07c2af641aa2e018fb76d2")),
    "obstructed5": (
        (1, "423916a6770de72bc474579e09fe41dcc216302ffbe4e660584e0b7a7010e9b3"),
        (0, "0bff514f51429cd472f9c9a8e42d208eaad995f8bdd083ab27ab4ec07138a411"),
        (0, "b166a45f6543fe29d4ebbbe7b64b4f1aeb32b5d8c8324f17b80e51712b21fad6")),
}


@pytest.fixture(scope="module")
def certify_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("certify")
    _cases.write_configs(_cases.make_workload("certify", 1), workdir)
    return workdir


def test_every_certify_config_is_pinned():
    assert (sorted(_cases.make_workload("certify", 1).configs)
            == sorted(CERTIFY_DIGESTS))


@pytest.mark.parametrize("name", sorted(CERTIFY_DIGESTS))
def test_certify_reports_are_pinned(name, certify_dir, capsys):
    got = []
    for command in CERTIFY_COMMANDS:
        code = main([command, str(certify_dir / f"{name}.json")])
        out = capsys.readouterr().out
        got.append((code, hashlib.sha256(out.encode()).hexdigest()))
    assert tuple(got) == CERTIFY_DIGESTS[name]


# SHA-256 of the CSV that evolve writes for each seed-1 lattice config.
LATTICE_DIGESTS = {
    "curved2": "0d73d8d4fdf1b6c9d28b32f6b0658ab6019429804cd2acf00f8e418912291769",
    "curved3": "9b478f0c781fccbe5df10975a5a4366e1064e9c6edf4abc8dc283cee8fd506d0",
}

# RHS evaluations (``HamiltonianField.__call__`` calls, as the benchmark's
# count mode takes them) of evolve on each seed-1 lattice config.
RHS_COUNTS = {"curved2": 600, "curved3": 960}


def test_every_lattice_config_is_pinned():
    assert (sorted(_cases.make_workload("lattice", 1).configs)
            == sorted(LATTICE_DIGESTS) == sorted(RHS_COUNTS))


@pytest.mark.parametrize("name", sorted(LATTICE_DIGESTS))
def test_lattice_csvs_are_pinned(name, tmp_path):
    _cases.write_configs(_cases.make_workload("lattice", 1), tmp_path)
    path = tmp_path / f"{name}.csv"
    code, (rhs,) = counted(
        [([HamiltonianField], "__call__", lambda args, result: 1)], main,
        ["evolve", str(tmp_path / f"{name}.json"), "--output", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LATTICE_DIGESTS[name]
    assert rhs == RHS_COUNTS[name]


def compensated_sum(values):
    """``sum()`` as Python 3.12 and later add floats: Neumaier's compensated
    sum, taken for all-float input; any other input goes to the builtin."""
    values = list(values)
    if not values or any(type(v) is not float for v in values):
        return builtins.sum(values)
    total = compensation = 0.0
    for v in values:
        t = total + v
        compensation += ((total - t) + v if abs(total) >= abs(v)
                         else (v - t) + total)
        total = t
    if compensation and math.isfinite(compensation):
        return total + compensation
    return total


def test_compensated_sum_is_not_the_left_to_right_sum():
    values = (0.1, 1e16, -1e16, 0.2, 3e-17)
    assert compensated_sum(values) == 0.30000000000000004
    assert 0.0 + 0.1 + 1e16 - 1e16 + 0.2 + 3e-17 == 0.20000000000000004
    assert compensated_sum([1, 2]) == 3


@pytest.mark.parametrize("name", sorted(LATTICE_DIGESTS))
def test_lattice_csvs_do_not_depend_on_the_float_sum(name, tmp_path,
                                                     monkeypatch):
    # a flows.sum shadows the builtin for flows alone, as a Python 3.12
    # interpreter would change it
    monkeypatch.setattr(flows, "sum", compensated_sum, raising=False)
    _cases.write_configs(_cases.make_workload("lattice", 1), tmp_path)
    path = tmp_path / f"{name}.csv"
    assert main(["evolve", str(tmp_path / f"{name}.json"),
                 "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LATTICE_DIGESTS[name]


# Node-steps (input x-nodes times time steps) of the direct solver, as the
# benchmark measures them, in solve-direct on each seed-1 crosscheck config.
NODE_STEPS = {"direct1921": 153680, "direct241": 2410, "direct481": 9620,
              "direct961": 38440}


def test_direct_node_steps_are_pinned(tmp_path, capsys):
    workload = _cases.make_workload("crosscheck", 1)
    assert sorted(workload.configs) == sorted(NODE_STEPS)
    _cases.write_configs(workload, tmp_path)
    got = {}
    for name in NODE_STEPS:
        code, (got[name],) = counted(
            [([cli], "direct_solve",
              lambda args, result: len(args[1]) * result.meta["steps"])],
            main, ["solve-direct", str(tmp_path / f"{name}.json"),
                   "--output", str(tmp_path / f"{name}.csv")])
        assert code == 0
    capsys.readouterr()
    assert got == NODE_STEPS


# The same counts on each shipped config under configs/: RHS evaluations of
# evolve and of residual without --input, node-steps of solve-direct.  A
# config missing from a command's table exits 2 on it (residual needs a
# time axis, solve-direct a pde.t_end).  Recorded while each field was
# still compiled on its first call: compiling it when built moves no count.
SHIPPED_RHS_COUNTS = {
    "evolve": {"constant2": 36, "constant3": 348, "coordinates2": 60,
               "nijenhuis2": 300, "nijenhuis2_direct": 0, "nijenhuis3": 432,
               "nijenhuis4": 1146,
               "nijenhuis2_hyperbolic": 138, "nijenhuis3_direct": 150},
    "residual": {"constant2": 36, "constant3": 348, "coordinates2": 60,
                 "nijenhuis2": 300, "nijenhuis3": 432, "nijenhuis4": 1146,
                 "nijenhuis2_hyperbolic": 138, "nijenhuis3_direct": 150},
}
SHIPPED_NODE_STEPS = {"constant2": 644, "nijenhuis2_direct": 605,
                      "nijenhuis2_hyperbolic": 1930, "nijenhuis3_direct": 1930}


@pytest.mark.parametrize("command", ["evolve", "residual", "solve-direct"])
def test_shipped_config_counts_are_pinned(command, tmp_path, capsys):
    if command == "solve-direct":
        table = SHIPPED_NODE_STEPS
        counter = ([cli], "direct_solve",
                   lambda args, result: len(args[1]) * result.meta["steps"])
    else:
        table = SHIPPED_RHS_COUNTS[command]
        counter = ([HamiltonianField], "__call__", lambda args, result: 1)
    got = {}
    for config in sorted((REPO / "configs").glob("*.json")):
        argv = [command, str(config)]
        if command != "residual":
            argv += ["--output", str(tmp_path / f"{config.stem}.csv")]
        code, (count,) = counted([counter], main, argv)
        if code == 0:
            got[config.stem] = count
        else:
            assert code == 2
    capsys.readouterr()
    assert got == table


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_certify_shift_record_is_the_rule_over_both_parts(seed):
    for config in _cases.make_workload("certify", seed).configs.values():
        check_shift_record(CompanionModel.from_expressions(config["sigma"]),
                           config["seed"])


# The exact work of verify, build-metric and hierarchy, counted without
# timing: (polynomials formed, that is ExactPolynomial._raw calls, so not the
# shared 0 that signed_sum, partial, negation and scalar multiples return for
# an empty result, nor the shared 0 and 1 that with_appended_vars returns;
# term products of signed_sum, the sum of len(a) * len(b) over its parts), on
# the seed-1 certify configs, on the untranslated curved family of n = 2..7
# and on each shipped config under configs/.  Each count is of a second run
# in the process, so it does not depend on which tests ran before: what the
# process caches (the constants 0 and 1 of each variable count, and their
# partials) is formed in the first.
# A change that lowers a count updates the table; one that raises a count
# says why in CHANGES.md.
WORK_COUNTS = {
    ("verify", "certify-curved3"): (78, 509),
    ("build-metric", "certify-curved3"): (44, 111),
    ("hierarchy", "certify-curved3"): (49, 111),
    ("verify", "certify-curved4"): (146, 4394),
    ("build-metric", "certify-curved4"): (89, 379),
    ("hierarchy", "certify-curved4"): (96, 379),
    ("verify", "certify-constant4"): (52, 22),
    ("build-metric", "certify-constant4"): (27, 21),
    ("hierarchy", "certify-constant4"): (34, 21),
    ("verify", "certify-obstructed5"): (184, 4049),
    ("build-metric", "certify-obstructed5"): (50, 118),
    ("hierarchy", "certify-obstructed5"): (59, 118),
    ("verify", "curved2"): (31, 40),
    ("build-metric", "curved2"): (14, 9),
    ("hierarchy", "curved2"): (17, 9),
    ("verify", "curved3"): (65, 198),
    ("build-metric", "curved3"): (31, 32),
    ("hierarchy", "curved3"): (36, 32),
    ("verify", "curved4"): (120, 1291),
    ("build-metric", "curved4"): (63, 98),
    ("hierarchy", "curved4"): (70, 98),
    ("verify", "curved5"): (196, 6632),
    ("build-metric", "curved5"): (110, 247),
    ("hierarchy", "curved5"): (119, 247),
    ("verify", "curved6"): (307, 35882),
    ("build-metric", "curved6"): (186, 625),
    ("hierarchy", "curved6"): (197, 625),
    ("verify", "curved7"): (459, 154846),
    ("build-metric", "curved7"): (297, 1391),
    ("hierarchy", "curved7"): (310, 1391),
    ("verify", "configs/constant2"): (14, 4),
    ("build-metric", "configs/constant2"): (7, 3),
    ("hierarchy", "configs/constant2"): (10, 3),
    ("verify", "configs/constant3"): (30, 11),
    ("build-metric", "configs/constant3"): (14, 10),
    ("hierarchy", "configs/constant3"): (19, 10),
    ("verify", "configs/coordinates2"): (28, 23),
    ("build-metric", "configs/coordinates2"): (7, 3),
    ("hierarchy", "configs/coordinates2"): (10, 3),
    ("verify", "configs/nijenhuis2"): (30, 40),
    ("build-metric", "configs/nijenhuis2"): (13, 9),
    ("hierarchy", "configs/nijenhuis2"): (16, 9),
    ("verify", "configs/nijenhuis2_direct"): (30, 40),
    ("build-metric", "configs/nijenhuis2_direct"): (13, 9),
    ("hierarchy", "configs/nijenhuis2_direct"): (16, 9),
    ("verify", "configs/nijenhuis3"): (64, 198),
    ("build-metric", "configs/nijenhuis3"): (30, 32),
    ("hierarchy", "configs/nijenhuis3"): (35, 32),
    ("verify", "configs/nijenhuis4"): (118, 1291),
    ("build-metric", "configs/nijenhuis4"): (61, 98),
    ("hierarchy", "configs/nijenhuis4"): (68, 98),
    ("verify", "configs/nijenhuis2_hyperbolic"): (30, 40),
    ("build-metric", "configs/nijenhuis2_hyperbolic"): (13, 9),
    ("hierarchy", "configs/nijenhuis2_hyperbolic"): (16, 9),
    ("verify", "configs/nijenhuis3_direct"): (64, 198),
    ("build-metric", "configs/nijenhuis3_direct"): (30, 32),
    ("hierarchy", "configs/nijenhuis3_direct"): (35, 32),
}


def _work_configs(workdir):
    _cases.write_configs(_cases.make_workload("certify", 1), workdir)
    configs = {f"certify-{name}": workdir / f"{name}.json"
               for name in CERTIFY_DIGESTS}
    for n in range(2, 8):
        sigma = [format_polynomial(s, base_names(n)) for s in sigma_curved(n)]
        path = configs[f"curved{n}"] = workdir / f"curved{n}-ladder.json"
        path.write_text(json.dumps({"n": n, "sigma": sigma}))
    for path in sorted((REPO / "configs").glob("*.json")):
        configs[f"configs/{path.stem}"] = path
    return configs


def _work_counters():
    """Polynomials formed (``ExactPolynomial._raw`` calls) and term products
    (the sum of len(a) * len(b) over the parts of each ``signed_sum``, in
    every module that imported it)."""
    kernel = exactpoly.signed_sum
    users = [module for name, module in list(sys.modules.items())
             if name.startswith("nijflow")
             and getattr(module, "signed_sum", None) is kernel]
    return [([ExactPolynomial], "_raw", lambda args, result: 1),
            (users, "signed_sum", lambda args, result:
             sum(len(a) * len(b) for _, a, b in args[1]))]


def test_work_counts_are_pinned(tmp_path, capsys):
    got = {}
    for case, config in _work_configs(tmp_path).items():
        for command in ("verify", "build-metric", "hierarchy"):
            main([command, str(config)])
            got[command, case] = counted(_work_counters(), main,
                                         [command, str(config)])[1]
    capsys.readouterr()
    assert got == WORK_COUNTS
