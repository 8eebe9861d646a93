"""Every config the benchmark runs, and every shipped one, passes the key table.

``load_config`` refuses unknown, inert and malformed keys, so a config that
the benchmark generates and the table refuses would fail every op of its
workload.  The reports of the seed-1 ``certify`` configs are pinned too.
``bench/cases.py`` is read without changing it: compiled in memory, so no
bytecode cache is written next to it.
"""

import hashlib
import sys
import types
from pathlib import Path

import pytest

from nijflow.cli import load_config, main

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
