"""The benchmark's traced runs wrap package functions by name.

``bench/spans.py`` looks each target up with ``vars(owner)[attr]``, so a
rename inside the package would crash every traced benchmark run with a
``KeyError``.  These tests read the target tables from that file (without
changing it) and check that every name still exists where it is looked up.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    # compiled in memory, so no bytecode cache is written next to it
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


_spans = _load_spans()
TARGETS = [(where, attr) for where, attr, _ in _spans.TARGETS + _spans.HOT]


def test_tables_are_not_empty():
    assert len(_spans.TARGETS) > 0 and len(_spans.HOT) > 0


@pytest.mark.parametrize("where, attr", TARGETS,
                         ids=[f"{where}.{attr}" for where, attr in TARGETS])
def test_patch_point_exists(where, attr):
    module, _, cls = where.partition(":")
    owner = importlib.import_module(module)
    if cls:
        owner = vars(owner)[cls]
    assert attr in vars(owner), f"{where} has no attribute {attr!r}"
