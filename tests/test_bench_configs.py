"""Every config the benchmark runs, and every shipped one, passes the key table.

``load_config`` refuses unknown, inert and malformed keys, so a config that
the benchmark generates and the table refuses would fail every op of its
workload.  ``bench/cases.py`` is read without changing it: compiled in
memory, so no bytecode cache is written next to it.
"""

import sys
import types
from pathlib import Path

import pytest

from nijflow.cli import load_config

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
