"""Every config the benchmark runs, and every shipped one, passes the key table.

``load_config`` refuses unknown, inert and malformed keys, so a config that
the benchmark generates and the table refuses would fail every op of its
workload.  The reports of the seed-1 ``certify`` configs and the CSVs of the
seed-1 ``lattice`` configs are pinned too, and so is the exact work that
``verify`` and ``build-metric`` do on the ``certify`` configs and on curved
n = 2..5.  ``bench/cases.py`` is read without changing it: compiled in
memory, so no bytecode cache is written next to it.
"""

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

from support import sigma_curved

import nijflow.exactpoly as exactpoly
from nijflow.cli import load_config, main
from nijflow.exactpoly import ExactPolynomial, base_names, format_polynomial

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


def test_every_lattice_config_is_pinned():
    assert (sorted(_cases.make_workload("lattice", 1).configs)
            == sorted(LATTICE_DIGESTS))


@pytest.mark.parametrize("name", sorted(LATTICE_DIGESTS))
def test_lattice_csvs_are_pinned(name, tmp_path):
    _cases.write_configs(_cases.make_workload("lattice", 1), tmp_path)
    path = tmp_path / f"{name}.csv"
    assert main(["evolve", str(tmp_path / f"{name}.json"),
                 "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LATTICE_DIGESTS[name]


# The exact work of verify and build-metric, counted without timing:
# (polynomials formed, that is ExactPolynomial._raw calls; term products of
# signed_sum, the sum of len(a) * len(b) over its parts), on the seed-1
# certify configs and on the untranslated curved family of n = 2..5.  Each
# count is of a second run in the process, so it does not depend on which
# tests ran before: what the process caches (the constant 1 of each variable
# count) is formed in the first.  A change that lowers a count updates the
# table; one that raises a count says why in CHANGES.md.
WORK_COUNTS = {
    ("verify", "certify-curved3"): (237, 997),
    ("build-metric", "certify-curved3"): (57, 111),
    ("verify", "certify-curved4"): (426, 6449),
    ("build-metric", "certify-curved4"): (111, 379),
    ("verify", "certify-constant4"): (363, 174),
    ("build-metric", "certify-constant4"): (49, 21),
    ("verify", "certify-obstructed5"): (590, 5116),
    ("build-metric", "certify-obstructed5"): (84, 118),
    ("verify", "curved2"): (109, 86),
    ("build-metric", "curved2"): (21, 9),
    ("verify", "curved3"): (224, 375),
    ("build-metric", "curved3"): (44, 32),
    ("verify", "curved4"): (400, 1890),
    ("build-metric", "curved4"): (85, 98),
    ("verify", "curved5"): (650, 8342),
    ("build-metric", "curved5"): (144, 247),
}


def _work_configs(workdir):
    _cases.write_configs(_cases.make_workload("certify", 1), workdir)
    configs = {f"certify-{name}": workdir / f"{name}.json"
               for name in CERTIFY_DIGESTS}
    for n in range(2, 6):
        sigma = [format_polynomial(s, base_names(n)) for s in sigma_curved(n)]
        path = configs[f"curved{n}"] = workdir / f"curved{n}-ladder.json"
        path.write_text(json.dumps({"n": n, "sigma": sigma}))
    return configs


_RAW = ExactPolynomial._raw.__func__
_KERNEL = exactpoly.signed_sum


def _kernel_users():
    return [module for name, module in list(sys.modules.items())
            if name.startswith("nijflow")
            and getattr(module, "signed_sum", None) is _KERNEL]


def _counted_run(monkeypatch, argv):
    """The (polynomials formed, term products) of one in-process run."""
    counts = [0, 0]

    def counted_raw(cls, *args):
        counts[0] += 1
        return _RAW(cls, *args)

    def counted_sum(nvars, parts):
        parts = list(parts)
        counts[1] += sum(len(a) * len(b) for _, a, b in parts)
        return _KERNEL(nvars, parts)

    with monkeypatch.context() as patch:
        patch.setattr(ExactPolynomial, "_raw", classmethod(counted_raw))
        for module in _kernel_users():
            patch.setattr(module, "signed_sum", counted_sum)
        main(argv)
    return tuple(counts)


def test_work_counts_are_pinned(tmp_path, monkeypatch, capsys):
    users = _kernel_users()
    got = {}
    for case, config in _work_configs(tmp_path).items():
        for command in ("verify", "build-metric"):
            main([command, str(config)])
            got[command, case] = _counted_run(monkeypatch,
                                              [command, str(config)])
    capsys.readouterr()
    # the wrappers are gone again
    assert ExactPolynomial._raw.__func__ is _RAW
    assert _kernel_users() == users
    assert got == WORK_COUNTS
